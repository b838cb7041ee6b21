import csv
import threading

import numpy as np
import pytest
import scipy.linalg

from fcqw.circuits import (
    Circuit,
    PotentialProfile,
    TrotterConfig,
    build_fcqw_step,
    build_fcqw_walk,
    build_onsite_layer,
    build_xy_trotter,
    fuse_blocks,
    lower_swaps,
    simulate,
)
from fcqw.floquet import (
    BranchCutError,
    DisorderEnsemble,
    GridResolutionError,
    SingleParticleOperator,
    chiral_momentum_family,
    chiral_step_matrices,
    effective_hamiltonian,
    fcqw_step_operator,
    level_spacing_stats,
    onsite_phases,
    predicted_chiral_eigenphases,
    quasi_energy_phases,
    quasi_energy_spectrum,
    reduce_to_single_particle,
    sample_disorder_profiles,
    save_matrix_csv,
    shift_matrix,
    winding_number,
    xy_chain_hamiltonian,
    xy_momentum_family,
    xy_step_operator,
    xy_step_phases,
)
from fcqw import floquet
from fcqw.floquet import _shift_gauge
from fcqw.harness import _circular_set_distance
from fcqw.observables import site_density_exact
from fcqw.statevec import basis_state, cnot, h, rz
from test_circuits import build_left_step


def momentum_operator(k: float, W: float = 0.0) -> complex:
    """Reference Bloch factor of the chiral walk with a uniform potential:
    the single band disperses as epsilon(k) = k + W (mod 2pi), W being the
    phase an occupied site gains per step."""
    return complex(np.exp(1j * (k + W)))


def _reduce_dense(circuit: Circuit) -> np.ndarray:
    """Reference sector matrix: column i is the one-excitation part of the
    full 2**L simulation of one-hot site i, which must not leak."""
    L = circuit.num_qubits
    rows = [1 << i for i in range(L)]
    m = np.empty((L, L), dtype=complex)
    for i in range(L):
        m[:, i] = simulate(circuit, basis_state(L, 1 << i)).amplitudes[rows]
        assert abs(1.0 - np.sum(np.abs(m[:, i]) ** 2)) <= 1e-12
    return m


class TestReduction:
    def test_onsite_layer_reduction_includes_empty_branch_phases(self):
        # The rz empty-branch factor e^{-i W u_k} from every other site rides
        # along, so the diagonal is exp(i W (2 u_j - sum u)), verified here
        # against the full 2**L simulation.
        profile = PotentialProfile(np.array([1.0, 0.0, 0.0, 0.0]), 1.0)
        op = reduce_to_single_particle(build_onsite_layer(profile))
        expected = np.diag(np.exp(1j * np.array([1.0, -1.0, -1.0, -1.0])))
        assert np.max(np.abs(op.matrix - expected)) < 1e-12
        full = np.array(
            [
                simulate(build_onsite_layer(profile), basis_state(4, 1 << i)).amplitudes[
                    [1, 2, 4, 8]
                ]
                for i in range(4)
            ]
        ).T
        assert np.max(np.abs(op.matrix - full)) < 1e-14

    def test_identity_circuit(self):
        op = reduce_to_single_particle(Circuit(3, ()))
        assert np.max(np.abs(op.matrix - np.eye(3))) == 0.0

    def test_non_conserving_circuit_rejected(self):
        with pytest.raises(ValueError, match="conserve"):
            reduce_to_single_particle(Circuit(2, (h(0),)))

    def test_direct_step_operator_matches_reduction(self):
        rng = np.random.default_rng(31)
        for L in (2, 5, 8):
            profile = PotentialProfile.random_symmetric(L, 2.0, rng)
            direct = fcqw_step_operator(L, profile)
            reduced = reduce_to_single_particle(build_fcqw_step(L, profile))
            assert np.max(np.abs(direct.matrix - reduced.matrix)) < 1e-12

    def test_block_reduction_matches_dense_columns(self):
        rng = np.random.default_rng(11)
        for L in (2, 3, 6, 10):
            profile = PotentialProfile.random_symmetric(L, 3.0, rng)
            circuits = [build_fcqw_step(L, profile), build_left_step(L, profile)]
            # swaps lowered to cnot(i, j) cnot(j, i) cnot(i, j) reverse a
            # two-qubit gate against its block's qubit order
            circuits.append(lower_swaps(circuits[0]))
            circuits += [
                build_xy_trotter(L, profile, TrotterConfig(1.0, 0.9, 3), periodic=p)
                for p in (False, True)
            ]
            for circ in circuits:
                assert all(b.conserves for b in fuse_blocks(circ))
                reduced = reduce_to_single_particle(circ).matrix
                assert np.max(np.abs(reduced - _reduce_dense(circ))) <= 1e-12

    def test_both_builders_split_into_conserving_blocks_at_L14(self):
        L = 14
        profile = PotentialProfile.random_symmetric(L, 2.0, np.random.default_rng(5))
        step = fuse_blocks(build_fcqw_step(L, profile))
        assert len(step) == L + (L - 1)  # one per rz, one per swap
        n = 2
        trotter = fuse_blocks(build_xy_trotter(L, profile, TrotterConfig(1.0, 1.0, n)))
        assert len(trotter) == n * ((L - 1) + L)  # one per XX+YY pair, one per rz
        assert {len(b.qubits) for b in trotter} == {1, 2}
        assert all(b.conserves for b in step + trotter)

    def test_conserving_circuit_without_block_split_is_rejected(self):
        # cnot(0, 1) alone leaks out of the sector and cannot grow past
        # rz(2); the whole circuit conserves particle number, but the
        # reduction works block by block only
        circ = Circuit(3, (cnot(0, 1), rz(2, 0.3), cnot(0, 1)))
        with pytest.raises(ValueError, match="conserve"):
            reduce_to_single_particle(circ)

    def test_power_matches_full_simulation_marginal(self):
        L, t = 6, 4
        profile = PotentialProfile.random_symmetric(L, 1.0, np.random.default_rng(7))
        op = fcqw_step_operator(L, profile)
        marginal = np.abs(np.linalg.matrix_power(op.matrix, t)[:, 2]) ** 2
        state = simulate(build_fcqw_walk(L, profile, t), basis_state(L, 1 << 2))
        assert np.max(np.abs(site_density_exact(state) - marginal)) < 1e-10


class TestMomentum:
    def test_k_zero(self):
        assert momentum_operator(0.0, 0.0) == 1.0 + 0.0j

    def test_k_pi_is_minus_one(self):
        assert abs(momentum_operator(np.pi, 0.0) + 1.0) < 1e-15

    def test_uniform_phase_shifts_dispersion(self):
        assert abs(momentum_operator(np.pi / 2, np.pi / 2) + 1.0) < 1e-15

    def test_family_matches_operator(self):
        fam = chiral_momentum_family(16)
        ks = 2 * np.pi * np.arange(16) / 16
        expected = np.array([momentum_operator(k) for k in ks])
        assert np.max(np.abs(fam - expected)) < 1e-14


class TestWinding:
    def test_chiral_band_winds_once(self):
        assert winding_number(chiral_momentum_family(64)) == 1

    def test_constant_family_winds_zero(self):
        assert winding_number(np.ones(64, dtype=complex)) == 0

    def test_double_winding(self):
        ks = 2 * np.pi * np.arange(64) / 64
        assert winding_number(np.exp(2j * ks)) == 2

    def test_additivity_under_pointwise_product(self):
        ks = 2 * np.pi * np.arange(64) / 64
        family = np.exp(1j * ks)
        assert winding_number(family * family) == winding_number(family) * 2

    def test_xy_band_winds_zero(self):
        assert winding_number(xy_momentum_family(256)) == 0

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            winding_number(np.ones(4, dtype=complex))

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            winding_number(np.full(16, 0.5 + 0j))

    def test_undersampled_family_raises_resolution_error(self):
        # winding 4 on 8 points puts every increment exactly at pi
        ks = 2 * np.pi * np.arange(8) / 8
        with pytest.raises(GridResolutionError):
            winding_number(np.exp(4j * ks))


class TestSpectrum:
    def test_shift_eigenphases_are_quarter_circle(self):
        op = SingleParticleOperator(shift_matrix(4).T)
        phases, _ = quasi_energy_spectrum(op)
        expected = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
        assert np.max(np.abs(phases - expected)) < 1e-12

    def test_identity_spectrum(self):
        phases, _ = quasi_energy_spectrum(SingleParticleOperator(np.eye(5)))
        assert np.max(np.abs(phases)) == 0.0

    def test_eigenpairs_satisfy_eigenvalue_equation(self):
        profile = PotentialProfile.random_symmetric(8, 3.0, np.random.default_rng(2))
        op = fcqw_step_operator(8, profile)
        phases, vectors = quasi_energy_spectrum(op)
        for n in range(8):
            v = vectors[:, n]
            resid = np.linalg.norm(op.matrix @ v - np.exp(1j * phases[n]) * v)
            assert resid < 1e-8

    def test_disordered_walk_matches_analytic_phases(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            profile = PotentialProfile.random_symmetric(10, 4.0, rng)
            phases, _ = quasi_energy_spectrum(fcqw_step_operator(10, profile))
            predicted = predicted_chiral_eigenphases(profile.u, profile.W)
            assert np.max(np.abs(np.sort(phases) - predicted)) < 1e-9

    def test_spectrum_depends_only_on_total_phase(self):
        # redistributing the disorder among sites must not move the spectrum
        rng = np.random.default_rng(100)
        base = PotentialProfile.random_symmetric(8, 4.0, rng)
        ref = np.sort(quasi_energy_spectrum(fcqw_step_operator(8, base))[0])
        for _ in range(100):
            shuffled = PotentialProfile(rng.permutation(base.u), base.W)
            phases = np.sort(quasi_energy_spectrum(fcqw_step_operator(8, shuffled))[0])
            assert np.max(np.abs(phases - ref)) < 1e-9


def _full_key_spectrum(op: SingleParticleOperator):
    """Reference ordering: every column keyed on its rounded phase and its
    whole rounded eigenvector, whether or not the phase ties."""
    t, q = scipy.linalg.schur(op.matrix, output="complex")
    phases = np.angle(np.diag(t))
    phases = np.where(phases < 0.0, phases + 2.0 * np.pi, phases)
    phases[phases >= 2.0 * np.pi] -= 2.0 * np.pi

    def sort_key(j: int):
        vec_key = tuple(
            (round(float(z.real), 12), round(float(z.imag), 12)) for z in q[:, j]
        )
        return (round(float(phases[j]), 12), vec_key)

    order = sorted(range(len(phases)), key=sort_key)
    return phases[order], q[:, order]


def _repeated_phase_blocks() -> np.ndarray:
    rng = np.random.default_rng(8)
    r, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return scipy.linalg.block_diag(r, np.exp(0.7j) * np.eye(3), r, [[-1.0]])


class TestSpectrumOrdering:
    """The phase-only key with a tie-break on demand orders columns exactly
    as the full eigenvector key does."""

    @pytest.mark.parametrize(
        "matrix",
        [
            np.eye(5),
            shift_matrix(4) @ shift_matrix(4),  # phases 0 and pi, twice each
            _repeated_phase_blocks(),
        ],
        ids=["identity", "shift_squared", "repeated_blocks"],
    )
    def test_degenerate_matches_full_key(self, matrix):
        op = SingleParticleOperator(matrix)
        phases, vectors = quasi_energy_spectrum(op)
        ref_phases, ref_vectors = _full_key_spectrum(op)
        keys = [round(float(p), 12) for p in ref_phases]
        assert len(set(keys)) < len(keys)  # the tie-break is exercised
        assert np.array_equal(phases, ref_phases)
        assert np.array_equal(vectors, ref_vectors)

    def test_disordered_matches_full_key(self):
        ensemble = DisorderEnsemble(realizations=20, W=4.0, seed=11)
        for profile in sample_disorder_profiles(ensemble, 40):
            for op in (fcqw_step_operator(40, profile), xy_step_operator(40, profile)):
                phases, vectors = quasi_energy_spectrum(op)
                ref_phases, ref_vectors = _full_key_spectrum(op)
                assert np.array_equal(phases, ref_phases)
                assert np.array_equal(vectors, ref_vectors)


def _paired_phase_gap(phases: np.ndarray, ref: np.ndarray) -> float:
    """Largest difference between the phases of two sets paired in ascending
    order from one cut, set mid-way across ref's widest gap, so that a phase
    at 0 in one set still pairs with its twin just below 2 pi in the other."""
    gaps = np.diff(np.append(ref, ref[0] + 2.0 * np.pi))
    cut = ref[np.argmax(gaps)] + np.max(gaps) / 2.0
    paired = [np.sort(np.mod(x - cut, 2.0 * np.pi)) for x in (phases, ref)]
    return float(np.max(np.abs(paired[0] - paired[1])))


class TestPhasesOnly:
    """The eigenvalue-only solve gives the Schur path's phases bit for bit."""

    @pytest.mark.parametrize("L", [2, 3, 5, 8, 20, 40])
    @pytest.mark.parametrize("W", [0.0, 1.5, 4.0])
    def test_matches_schur_phases(self, L, W):
        ensemble = DisorderEnsemble(realizations=5, W=W, seed=L)
        for profile in sample_disorder_profiles(ensemble, L):
            for op in (fcqw_step_operator(L, profile), xy_step_operator(L, profile)):
                assert np.array_equal(
                    quasi_energy_phases(op.matrix), quasi_energy_spectrum(op)[0]
                )

    @pytest.mark.parametrize(
        "matrix", [np.eye(6), shift_matrix(7)], ids=["identity", "shift"]
    )
    def test_matches_schur_phases_exact_cases(self, matrix):
        op = SingleParticleOperator(matrix)
        assert np.array_equal(quasi_energy_phases(op.matrix), quasi_energy_spectrum(op)[0])

    @pytest.mark.parametrize("L", [2, 3, 5, 8, 20, 40])
    @pytest.mark.parametrize("W", [0.0, 1.5, 4.0])
    def test_xy_tridiagonal_phases_match_operator_phases(self, L, W):
        # the tridiagonal solve agrees with zgeev on the unitary to rounding,
        # not bit for bit, and a phase near 0 may wrap to near 2 pi
        ensemble = DisorderEnsemble(realizations=5, W=W, seed=L)
        for profile in sample_disorder_profiles(ensemble, L):
            phases = xy_step_phases(profile.u, profile.W)
            assert np.all((phases >= 0.0) & (phases < 2.0 * np.pi))
            assert np.all(np.diff(phases) >= 0.0)
            ref = quasi_energy_phases(xy_step_operator(L, profile).matrix)
            assert _paired_phase_gap(phases, ref) <= 1e-12

    def test_xy_tridiagonal_phases_pass_J(self):
        profile = PotentialProfile.box(8, 2.0)
        ref = quasi_energy_phases(xy_step_operator(8, profile, J=1.5).matrix)
        assert _paired_phase_gap(xy_step_phases(profile.u, profile.W, J=1.5), ref) <= 1e-12

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_nan_matrix_in_a_split_stack_raises(self, monkeypatch, cpus):
        monkeypatch.setattr(floquet, "_cpu_count", lambda: cpus)
        steps = _random_steps(5)
        steps[3, 0, 1] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            quasi_energy_phases(steps)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_stack_is_solved_on_one_thread_per_cpu(self, monkeypatch, cpus):
        eigvals, parts = np.linalg.eigvals, min(cpus, 5)
        # every part waits for the others, so the parts must run at once
        barrier = threading.Barrier(parts, timeout=5.0)
        threads = []

        def recording_eigvals(a):
            threads.append((threading.get_ident(), len(a)))
            barrier.wait()
            return eigvals(a)

        monkeypatch.setattr(floquet, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(np.linalg, "eigvals", recording_eigvals)
        quasi_energy_phases(_random_steps(5))
        assert len({ident for ident, _ in threads}) == parts
        assert sorted(n for _, n in threads) == sorted(len(p) for p in np.array_split(range(5), parts))


def _random_steps(R: int) -> np.ndarray:
    """An (R, 16, 16) stack of chiral step matrices at W = 4."""
    return chiral_step_matrices(np.random.default_rng(0).uniform(-1.0, 1.0, (R, 16)), 4.0)


def _loop_spacing_stats(phases: np.ndarray) -> tuple[float, float, float]:
    """Spacing statistics of one spectrum, as the per-realization loop took them."""
    phases = np.sort(phases)
    spacings = np.diff(phases, append=phases[0] + 2.0 * np.pi)
    return float(np.mean(spacings)), float(np.var(spacings)), float(np.min(spacings))


def _loop_set_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Wrap-aware distance between two phase sets, one pair at a time."""
    diff = np.abs(np.subtract.outer(np.sort(a), np.sort(b)))
    diff = np.minimum(diff, 2.0 * np.pi - diff)
    return float(np.max(np.min(diff, axis=1)))


class TestStackedRealizations:
    """An (R, L) stack of disorder realizations gives, row by row, the bits of
    each realization solved on its own, whatever the CPU count splits the
    stack into."""

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    @pytest.mark.parametrize(("L", "shape"), [(5, (1,)), (5, (3,)), (5, (16,)), (20, (16,)),
                                              (40, (16,)), (100, (3,)), (8, (2, 3))],
                             ids=["L5-R1", "L5-R3", "L5-R16", "L20-R16", "L40-R16", "L100-R3", "L8-2x3"])
    def test_stack_equals_each_realization(self, monkeypatch, cpus, L, shape):
        monkeypatch.setattr(floquet, "_cpu_count", lambda: cpus)
        profiles = sample_disorder_profiles(DisorderEnsemble(int(np.prod(shape)), W=4.0, seed=L), L)
        u = np.array([p.u for p in profiles])
        steps = chiral_step_matrices(u, 4.0)
        chiral = quasi_energy_phases(steps.reshape(*shape, L, L)).reshape(-1, L)
        predicted = predicted_chiral_eigenphases(u, 4.0)
        xy = xy_step_phases(u, 4.0)
        stats = level_spacing_stats(np.stack([chiral, xy], axis=1))
        shift_err = _circular_set_distance(chiral, predicted)
        for r, profile in enumerate(profiles):
            op = fcqw_step_operator(L, profile)
            assert steps[r].tobytes() == op.matrix.tobytes()
            one = quasi_energy_phases(op.matrix)
            assert chiral[r].tobytes() == one.tobytes()
            assert one.tobytes() == quasi_energy_spectrum(op)[0].tobytes()
            one_predicted = predicted_chiral_eigenphases(profile.u, profile.W)
            assert predicted[r].tobytes() == one_predicted.tobytes()
            one_xy = xy_step_phases(profile.u, profile.W)
            assert xy[r].tobytes() == one_xy.tobytes()
            for m, phases in enumerate((one, one_xy)):
                assert stats[r, m].tobytes() == np.array(_loop_spacing_stats(phases)).tobytes()
            assert shift_err[r].tobytes() == np.float64(_loop_set_distance(one, one_predicted)).tobytes()

    def test_step_operator_is_not_checked_but_an_outside_matrix_is(self, monkeypatch):
        def unitarity_deviation(m):
            raise AssertionError("unitarity checked")

        monkeypatch.setattr(floquet, "unitarity_deviation", unitarity_deviation)
        op = fcqw_step_operator(6, PotentialProfile.uniform(6, 1.3))
        assert op.matrix.shape == (6, 6) and op.matrix.dtype == complex
        with pytest.raises(AssertionError, match="unitarity checked"):
            SingleParticleOperator(op.matrix)

    @pytest.mark.parametrize(
        "matrix, message",
        [(np.eye(3, 4), "square"), (np.ones((1, 4, 4)), "square"),
         (0.5 * np.eye(4), "not unitary"), (shift_matrix(4) + 1e-6, "not unitary")],
        ids=["rectangular", "stack", "scaled_identity", "perturbed_shift"],
    )
    def test_outside_matrix_guards(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            SingleParticleOperator(matrix)

    def test_only_the_uniform_distribution(self):
        assert len(sample_disorder_profiles(DisorderEnsemble(3, 1.0, "uniform_symmetric"), 4)) == 3
        with pytest.raises(ValueError, match="unknown distribution"):
            DisorderEnsemble(3, 1.0, "box_profile")


class TestLevelStats:
    def test_chiral_spacings_are_rigid(self):
        profile = PotentialProfile.random_symmetric(12, 4.0, np.random.default_rng(3))
        phases, _ = quasi_energy_spectrum(fcqw_step_operator(12, profile))
        mean, variance, _ = level_spacing_stats(phases)
        assert variance < 1e-18
        assert abs(mean - 2 * np.pi / 12) < 1e-12

    def test_uniform_spacing_minimum(self):
        op = SingleParticleOperator(shift_matrix(8))
        _, _, minimum = level_spacing_stats(quasi_energy_spectrum(op)[0])
        assert abs(minimum - np.pi / 4) < 1e-12

    def test_nonchiral_disorder_breaks_rigidity(self):
        ensemble = DisorderEnsemble(realizations=20, W=4.0, seed=5)
        variances = []
        for profile in sample_disorder_profiles(ensemble, 20):
            phases, _ = quasi_energy_spectrum(xy_step_operator(20, profile))
            variances.append(level_spacing_stats(phases)[1])
        assert min(variances) > 1e-6


class TestEffectiveHamiltonian:
    def test_identity_gives_zero(self):
        hmat = effective_hamiltonian(SingleParticleOperator(np.eye(4)))
        assert np.max(np.abs(hmat)) == 0.0

    def test_exp_log_roundtrip_and_hermiticity(self):
        profile = PotentialProfile.random_symmetric(9, 1.0, np.random.default_rng(4))
        op = fcqw_step_operator(9, profile)
        hmat = effective_hamiltonian(op)
        assert np.max(np.abs(hmat - hmat.conj().T)) < 1e-9
        back = scipy.linalg.expm(1j * hmat)
        assert np.max(np.abs(back - op.matrix)) < 1e-8

    def test_clean_walk_couplings_match_sawtooth_fourier_oracle(self):
        # independent oracle: plane waves diagonalize the shift, so row 0 of
        # the log is the DFT of the principal-branch phases (a sawtooth)
        L = 16
        op = fcqw_step_operator(L, PotentialProfile.uniform(L, 0.0))
        hmat = effective_hamiltonian(op)
        ks = 2 * np.pi * np.arange(L) / L
        phases = np.angle(np.exp(-1j * ks))
        phases[phases < -np.pi + 1e-12] += 2 * np.pi
        oracle_row = np.array(
            [np.sum(phases * np.exp(-1j * ks * d)) / L for d in range(L)]
        )
        assert np.max(np.abs(hmat[0, :8] - oracle_row[:8])) < 1e-12

    def test_couplings_alternate_and_decay_inverse_distance(self):
        L = 16
        hmat = effective_hamiltonian(fcqw_step_operator(L, PotentialProfile.uniform(L, 0.0)))
        imag = np.array([hmat[0, d].imag for d in range(1, 7)])
        assert all(a * b < 0 for a, b in zip(imag, imag[1:]))
        mags = np.abs(hmat[0, 1:7])
        ds = np.arange(1, 7)
        c = np.exp(np.mean(np.log(mags * ds)))
        assert np.max(np.abs(mags - c / ds) / (c / ds)) < 0.25

    def test_eigenvalue_at_minus_one_is_accepted(self):
        hmat = effective_hamiltonian(SingleParticleOperator(np.diag([-1.0 + 0j, 1.0])))
        assert abs(hmat[0, 0] - np.pi) < 1e-12

    def test_phase_just_past_the_cut_raises(self):
        u = np.diag([np.exp(1j * (np.pi + 1e-10)), 1.0])
        with pytest.raises(BranchCutError):
            effective_hamiltonian(SingleParticleOperator(u))


def _schur_log(u: np.ndarray) -> np.ndarray:
    """Reference -i log U from the complex Schur form, under the same
    branch-cut rules as effective_hamiltonian."""
    t, q = scipy.linalg.schur(u, output="complex")
    phases = np.angle(np.diag(t))
    phases = np.where(phases < -np.pi + 1e-12, phases + 2.0 * np.pi, phases)
    hmat = (q * phases) @ q.conj().T
    return 0.5 * (hmat + hmat.conj().T)


def _shift(L, chirality):
    """The right cyclic shift, or its transpose, the left one."""
    return shift_matrix(L) if chirality == "right" else shift_matrix(L).T


def _step_matrix(L, profile, chirality):
    """A walk step's matrix: the shift times the profile's onsite phases."""
    if chirality == "right":
        return fcqw_step_operator(L, profile).matrix
    return _shift(L, chirality) * np.exp(1j * onsite_phases(profile.u, profile.W))


class TestShiftGauge:
    """A right-walk step U = S diag(d) is e^{i phi} G S G^+, and -i log U
    follows; a left step goes through Schur under the same branch-cut rules."""

    @pytest.mark.parametrize("L", [2, 3, 8, 40])
    def test_step_is_gauged_uniform_shift(self, L):
        for profile in sample_disorder_profiles(DisorderEnsemble(5, W=4.0, seed=L), L):
            u = fcqw_step_operator(L, profile).matrix
            phi, g = _shift_gauge(u)
            assert g[0] == 1.0
            assert np.max(np.abs(np.abs(g) - 1.0)) < 1e-12
            rebuilt = np.exp(1j * phi) * (g[:, np.newaxis] * shift_matrix(L) * g.conj())
            assert np.max(np.abs(rebuilt - u)) < 1e-12

    @pytest.mark.parametrize(
        "matrix",
        [np.eye(4), np.diag(np.exp(1j * np.arange(5.0))), scipy.linalg.expm(-1j * np.ones((3, 3)))],
        ids=["identity", "diagonal", "dense"],
    )
    def test_other_matrices_have_no_gauge(self, matrix):
        assert _shift_gauge(matrix) is None

    @pytest.mark.parametrize("chirality", ["right", "left"])
    def test_matches_schur_log_over_ensemble(self, chirality):
        for L, W in ((40, 4.0), (9, 1.0), (16, 0.0)):
            for profile in sample_disorder_profiles(DisorderEnsemble(20, W=W, seed=7), L):
                op = SingleParticleOperator(_step_matrix(L, profile, chirality))
                hmat = effective_hamiltonian(op)
                assert np.max(np.abs(hmat - _schur_log(op.matrix))) < 1e-12
                assert np.max(np.abs(scipy.linalg.expm(1j * hmat) - op.matrix)) < 1e-12

    @pytest.mark.parametrize("W", [0.0, 1.0, 4.0])
    @pytest.mark.parametrize("L", [3, 9, 16])
    def test_left_step_from_circuit_takes_schur(self, L, W):
        for profile in sample_disorder_profiles(DisorderEnsemble(5, W=W, seed=L), L):
            op = reduce_to_single_particle(build_left_step(L, profile))
            assert _shift_gauge(op.matrix) is None
            hmat = effective_hamiltonian(op)
            assert np.max(np.abs(scipy.linalg.expm(1j * hmat) - op.matrix)) < 1e-12

    @pytest.mark.parametrize("chirality", ["right", "left"])
    def test_eigenvalue_at_minus_one_gives_plus_pi(self, chirality):
        # angles summing to zero: the spectrum is that of the bare shift,
        # 1, -i, -1, i, so one eigenvalue is -1
        d = np.exp(1j * np.array([0.5, -1.25, 2.0, -1.25]))
        u = _shift(4, chirality) * d
        hmat = effective_hamiltonian(SingleParticleOperator(u))
        energies = np.linalg.eigvalsh(hmat)
        assert abs(energies[-1] - np.pi) < 1e-12
        assert energies[0] > -np.pi / 2 - 1e-12
        assert np.max(np.abs(hmat - _schur_log(u))) < 1e-12

    @pytest.mark.parametrize("chirality", ["right", "left"])
    def test_phase_just_past_the_cut_raises(self, chirality):
        # phi = 1e-10, so the k = 2 eigenphase is 1e-10 past -pi
        d = np.array([np.exp(4e-10j), 1.0, 1.0, 1.0])
        with pytest.raises(BranchCutError):
            effective_hamiltonian(SingleParticleOperator(_shift(4, chirality) * d))


class TestLoopReferences:
    """The index-assigned operators equal their per-entry loop versions."""

    @pytest.mark.parametrize("L", [1, 2, 3, 8])
    def test_shift_matrix(self, L):
        ref = np.zeros((L, L), dtype=complex)
        for i in range(L):
            ref[(i + 1) % L, i] = 1.0
        assert np.array_equal(shift_matrix(L), ref)

    @pytest.mark.parametrize("L", [1, 2, 3, 8])
    @pytest.mark.parametrize("periodic", [False, True])
    def test_xy_chain_hamiltonian(self, L, periodic):
        profile = PotentialProfile.random_symmetric(L, 2.5, np.random.default_rng(L))
        ref = np.zeros((L, L), dtype=complex)
        for i in range(L - 1):
            ref[i, i + 1] = ref[i + 1, i] = -2.0 * 1.5
        if periodic and L > 2:
            ref[0, L - 1] = ref[L - 1, 0] = -2.0 * 1.5
        np.fill_diagonal(ref, profile.W * (np.sum(profile.u) - 2.0 * profile.u))
        assert np.array_equal(xy_chain_hamiltonian(L, profile, 1.5, periodic), ref)


class TestXYChain:
    def test_hamiltonian_structure(self):
        profile = PotentialProfile.box(8, 2.0)
        hmat = xy_chain_hamiltonian(8, profile, J=1.5)
        assert hmat[0, 1] == -3.0
        assert hmat[0, 7] == 0.0  # open boundary
        # occupied box sites sit 2W below the empty-background diagonal
        diag = np.real(np.diag(hmat))
        assert diag[1] == 2.0 * (np.sum(profile.u) - 2.0)
        ring = xy_chain_hamiltonian(8, profile, J=1.5, periodic=True)
        assert ring[0, 7] == -3.0

    def test_step_operator_is_exact_exponential(self):
        profile = PotentialProfile.box(8, 3.0)
        op = xy_step_operator(8, profile, J=1.0, t=0.7)
        expected = scipy.linalg.expm(-1j * xy_chain_hamiltonian(8, profile) * 0.7)
        assert np.max(np.abs(op.matrix - expected)) < 1e-12

    def test_trotter_circuit_approaches_step_operator(self):
        profile = PotentialProfile.box(8, 2.0)
        exact = xy_step_operator(8, profile, J=1.0, t=0.5).matrix
        errs = []
        for n in (2, 8):
            circ = build_xy_trotter(8, profile, TrotterConfig(1.0, 0.5, n))
            errs.append(np.linalg.norm(reduce_to_single_particle(circ).matrix - exact, 2))
        assert errs[1] < errs[0] / 3


class TestCsvExport:
    def test_matrix_roundtrip(self, tmp_path):
        m = shift_matrix(3) * np.exp(0.5j)
        path = tmp_path / "matrix.csv"
        save_matrix_csv(m, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "c0_re"
        back = np.array(
            [
                [complex(float(r[2 * j]), float(r[2 * j + 1])) for j in range(3)]
                for r in rows[1:]
            ]
        )
        assert np.max(np.abs(back - m)) == 0.0
