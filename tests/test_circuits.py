import numpy as np
import pytest
import scipy.linalg

from fcqw.circuits import (
    Circuit,
    PotentialProfile,
    TrotterConfig,
    build_fcqw_step,
    build_fcqw_walk,
    build_hopping_ladder,
    build_onsite_layer,
    build_xy_trotter,
    fuse_blocks,
    lower_swaps,
    simulate,
)
from fcqw.floquet import reduce_to_single_particle, xy_chain_hamiltonian
from fcqw.observables import site_density_exact
from fcqw.statevec import (
    StateVector,
    apply_gate_inplace,
    apply_matrix_inplace,
    basis_state,
    cnot,
    h,
    one_hot_state,
    rz,
    swap,
)


def compose_swaps_by_hand(L, pairs):
    """Oracle: track where each site's occupation ends up, pure python."""
    position = list(range(L))  # position[s] = current site of the particle that started at s
    for a, b in pairs:
        position = [b if p == a else a if p == b else p for p in position]
    return position


class TestHoppingLadder:
    def test_right_order_is_descending(self):
        circ = build_hopping_ladder(4, "right")
        assert [g.targets for g in circ.instructions] == [(2, 3), (1, 2), (0, 1)]

    def test_right_shift_moves_one_hot_up(self):
        # oracle: compose the three swap permutations by hand
        pairs = [(2, 3), (1, 2), (0, 1)]
        assert compose_swaps_by_hand(4, pairs) == [1, 2, 3, 0]
        circ = build_hopping_ladder(4, "right")
        out = simulate(circ, one_hot_state(4, 0))
        assert abs(out.amplitudes[1 << 1] - 1.0) == 0.0

    def test_left_matrix_is_down_shift(self):
        op = reduce_to_single_particle(build_hopping_ladder(4, "left"))
        expected = np.array(
            [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]], dtype=complex
        )
        assert np.max(np.abs(op.matrix - expected)) < 1e-14

    def test_cyclic_period(self):
        L = 8
        state = one_hot_state(L, 0)
        circ = build_hopping_ladder(L, "right")
        for _ in range(L):
            state = simulate(circ, state)
        assert abs(state.amplitudes[1 << 0] - 1.0) < 1e-12

    def test_no_long_range_swap(self):
        circ = build_hopping_ladder(8)
        assert all(abs(g.targets[0] - g.targets[1]) == 1 for g in circ.instructions)

    def test_too_small(self):
        with pytest.raises(ValueError):
            build_hopping_ladder(1)


class TestOnsiteLayer:
    def test_zero_strength_is_identity(self):
        layer = build_onsite_layer(PotentialProfile.uniform(4, 0.0))
        assert all(g.theta == 0.0 for g in layer.instructions)
        rng = np.random.default_rng(0)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        out = simulate(layer, StateVector(4, amps.copy()))
        assert np.max(np.abs(out.amplitudes - amps)) < 1e-15

    def test_box_angles_at_w4(self):
        layer = build_onsite_layer(PotentialProfile.box(8, 4.0))
        assert [g.theta for g in layer.instructions] == [0.0, 8.0, 8.0, 0.0, 0.0, 0.0, 8.0, 8.0]

    def test_diagonal_keeps_distribution(self):
        profile = PotentialProfile.random_symmetric(5, 2.5, np.random.default_rng(4))
        layer = build_onsite_layer(profile)
        out = simulate(layer, one_hot_state(5, 2))
        density = site_density_exact(out)
        assert np.max(np.abs(density.p - np.eye(5)[2])) < 1e-14


class TestFcqwStep:
    def test_clean_walk_is_ballistic(self):
        L = 8
        profile = PotentialProfile.uniform(L, 0.0)
        for t in (1, 3, 8, 11):
            out = simulate(build_fcqw_walk(L, profile, t), one_hot_state(L, 0))
            density = site_density_exact(out)
            assert abs(density.p[t % L] - 1.0) < 1e-12

    def test_distribution_is_potential_independent(self):
        L = 8
        rng = np.random.default_rng(8)
        base = site_density_exact(
            simulate(build_fcqw_walk(L, PotentialProfile.uniform(L, 0.0), 5), one_hot_state(L, 0))
        )
        for W in (1.0, 2.5, 4.0):
            profile = PotentialProfile.random_symmetric(L, W, rng)
            out = simulate(build_fcqw_walk(L, profile, 5), one_hot_state(L, 0))
            assert np.max(np.abs(site_density_exact(out).p - base.p)) < 1e-12

    def test_smallest_lattice_structure(self):
        step = build_fcqw_step(2, PotentialProfile.uniform(2, 1.0))
        kinds = [g.kind for g in step.instructions]
        assert kinds == ["rz", "rz", "swap"]

    def test_profile_length_mismatch(self):
        with pytest.raises(ValueError):
            build_fcqw_step(4, PotentialProfile.uniform(5, 1.0))

    def test_step_operator_periodic_in_w(self):
        from fcqw.floquet import fcqw_step_operator

        a = fcqw_step_operator(6, PotentialProfile.uniform(6, 1.3))
        b = fcqw_step_operator(6, PotentialProfile.uniform(6, 1.3 + 2 * np.pi))
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-12

    def test_chirality_structure_many_profiles(self):
        # reduced matrix must be unit-modulus entries exactly on the shift
        rng = np.random.default_rng(123)
        count = 0
        for L in range(2, 11):
            for _ in range(6):
                if count >= 50:
                    break
                profile = PotentialProfile.random_symmetric(L, rng.uniform(0, 4), rng)
                op = reduce_to_single_particle(build_fcqw_step(L, profile))
                m = op.matrix
                for i in range(L):
                    col = np.abs(m[:, i])
                    assert abs(col[(i + 1) % L] - 1.0) < 1e-10
                    assert np.sum(col) - col[(i + 1) % L] < 1e-10
                count += 1
        assert count == 50


class TestXYTrotter:
    def test_single_pair_block_sequence(self):
        circ = build_xy_trotter(2, PotentialProfile.uniform(2, 0.0), TrotterConfig(1.0, 0.7, 1))
        kinds = [g.kind for g in circ.instructions]
        assert kinds == [
            "h", "h", "cnot", "rz", "cnot", "h", "h",
            "hy", "hy", "cnot", "rz", "cnot", "hy", "hy",
        ]
        angles = [g.theta for g in circ.instructions if g.kind == "rz"]
        assert angles == [-1.4, -1.4]

    def test_zero_time_is_identity(self):
        circ = build_xy_trotter(4, PotentialProfile(np.ones(4), 2.0), TrotterConfig(1.0, 0.0, 2))
        rng = np.random.default_rng(2)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        out = simulate(circ, StateVector(4, amps.copy()))
        assert np.max(np.abs(out.amplitudes - amps)) < 1e-12

    def test_number_conservation_on_basis_states(self):
        rng = np.random.default_rng(21)
        circ = build_xy_trotter(5, PotentialProfile.uniform(5, 1.7), TrotterConfig(1.0, 0.9, 2))
        for _ in range(10):
            index = int(rng.integers(0, 32))
            out = simulate(circ, basis_state(5, index))
            probs = np.abs(out.amplitudes) ** 2
            weights = np.array([bin(b).count("1") for b in range(32)])
            leaked = probs[weights != bin(index).count("1")].sum()
            assert leaked < 1e-12

    def test_converges_to_dense_exponential(self):
        # oracle: scipy expm of the one-excitation Hamiltonian
        L, J, t = 4, 1.0, 1.0
        profile = PotentialProfile.uniform(L, 0.0)
        exact = scipy.linalg.expm(-1j * xy_chain_hamiltonian(L, profile, J) * t)
        errors = []
        for n in (1, 2, 4, 8, 16):
            op = reduce_to_single_particle(
                build_xy_trotter(L, profile, TrotterConfig(J, t, n))
            )
            errors.append(np.linalg.norm(op.matrix - exact, 2))
        assert all(a > b for a, b in zip(errors, errors[1:]))
        # frozen from the dense-exponential oracle run
        assert abs(errors[3] - 0.21661) < 2e-3  # n = 8
        assert errors[4] < 0.11  # n = 16

    def test_potential_term_matches_exact_evolution(self):
        # with hopping turned off the circuit is diagonal and exact at n=1
        L = 4
        profile = PotentialProfile(np.array([1.0, 0.0, 0.5, 0.0]), 2.0)
        circ = build_xy_trotter(L, profile, TrotterConfig(0.0, 1.3, 1))
        op = reduce_to_single_particle(circ)
        exact = scipy.linalg.expm(-1j * xy_chain_hamiltonian(L, profile, 0.0) * 1.3)
        assert np.max(np.abs(op.matrix - exact)) < 1e-10

    def test_periodic_flag_adds_wrap_pair(self):
        open_chain = build_xy_trotter(4, PotentialProfile.uniform(4, 0.0), TrotterConfig(1.0, 0.5, 1))
        ring = build_xy_trotter(
            4, PotentialProfile.uniform(4, 0.0), TrotterConfig(1.0, 0.5, 1), periodic=True
        )
        pairs_open = {g.targets for g in open_chain.instructions if g.kind == "cnot"}
        pairs_ring = {g.targets for g in ring.instructions if g.kind == "cnot"}
        assert pairs_ring - pairs_open == {(3, 0)}

    def test_bad_repetitions(self):
        with pytest.raises(ValueError):
            TrotterConfig(1.0, 1.0, 0)


class TestLowerSwaps:
    def test_swap_free_and_equivalent(self):
        circ = build_fcqw_step(5, PotentialProfile.uniform(5, 1.2))
        lowered = lower_swaps(circ)
        assert all(g.kind != "swap" for g in lowered.instructions)
        rng = np.random.default_rng(14)
        amps = rng.normal(size=32) + 1j * rng.normal(size=32)
        amps /= np.linalg.norm(amps)
        state = StateVector(5, amps)
        a = simulate(circ, state)
        b = simulate(lowered, state)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-12


def fusion_cases():
    """Circuits at L <= 5: conserving ones, and ones whose blocks do not
    all conserve particle number."""
    rng = np.random.default_rng(17)
    cases = []
    for L in (3, 5):
        profile = PotentialProfile.random_symmetric(L, 2.0, rng)
        walk = build_fcqw_walk(L, profile, 2)
        cases += [walk, lower_swaps(walk), build_fcqw_walk(L, profile, 1, "left")]
        cases += [build_xy_trotter(L, profile, TrotterConfig(1.0, 0.7, 2), periodic=p)
                  for p in (False, True)]
    cases += [Circuit(3, (h(1),)), Circuit(3, (cnot(0, 1), rz(2, 0.3), cnot(0, 1)))]
    return cases


def unitary(circuit, apply):
    """Columns of the circuit's unitary: ``apply`` on the rows of the
    identity, seen as one vector with extra high bits."""
    dim = 1 << circuit.num_qubits
    rows = np.eye(dim, dtype=complex)
    apply(rows.reshape(-1))
    return rows.T


class TestFuseBlocks:
    @pytest.mark.parametrize("circuit", fusion_cases(), ids=lambda c: f"{c.label}_L{c.num_qubits}")
    def test_block_product_equals_gate_by_gate_unitary(self, circuit):
        L = circuit.num_qubits
        blocks = fuse_blocks(circuit)
        assert sum(b.size for b in blocks) == len(circuit)
        assert all(len(b.qubits) <= 2 for b in blocks)

        def by_gate(amps):
            for g in circuit.instructions:
                apply_gate_inplace(amps, L, g)

        def by_block(amps):
            for b in blocks:
                apply_matrix_inplace(amps, b.qubits, b.matrix)

        err = np.max(np.abs(unitary(circuit, by_block) - unitary(circuit, by_gate)))
        assert err <= 1e-12

    def test_non_conserving_block_is_closed_when_it_cannot_grow(self):
        blocks = fuse_blocks(Circuit(3, (cnot(0, 1), rz(2, 0.3), cnot(0, 1))))
        assert [(b.qubits, b.conserves) for b in blocks] == [
            ((0, 1), False), ((2,), True), ((0, 1), False)]
        assert [b.conserves for b in fuse_blocks(Circuit(2, (h(0),)))] == [False]


class TestCircuitType:
    def test_rejects_out_of_range_targets(self):
        with pytest.raises(IndexError):
            Circuit(2, (swap(1, 2),))

    def test_instructions_are_immutable(self):
        circ = Circuit(2, (rz(0, 0.1),))
        assert isinstance(circ.instructions, tuple)
