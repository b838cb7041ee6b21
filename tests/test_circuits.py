from operator import is_

import numpy as np
import pytest
import scipy.linalg

from fcqw import circuits
from fcqw.circuits import (
    Block,
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
from fcqw.floquet import reduce_to_single_particle
from fcqw.noise import _PAULI_PAIRS, NoiseSpec, run_noisy
from fcqw.observables import site_density_exact
from fcqw.statevec import (
    PAULI_MATRICES,
    StateVector,
    apply_matrix_inplace,
    basis_state,
    cnot,
    gate_matrix,
    h,
    hy,
    rz,
    swap,
)


def build_left_step(L, profile):
    """A left-walk step, built here since no config takes one: the onsite
    layer, then the SWAP ladder ascending, moving occupations i -> i-1."""
    ladder = tuple(swap(i, i + 1) for i in range(L - 1))
    return Circuit(L, build_onsite_layer(profile).instructions + ladder)


def build_ring_trotter(L, profile, cfg):
    """The Trotter circuit of the XY ring, built here since the library
    builds only the open chain: each repetition of the open chain gains the
    wrap pair (L - 1, 0) after its last pair, whose two-qubit blocks put the
    high qubit first and, past L = 2, are not adjacent.  n copies of the
    same gate objects, as ``build_xy_trotter`` makes them."""
    dt = cfg.t / cfg.n
    rep = build_xy_trotter(L, profile, TrotterConfig(cfg.J, dt, 1)).instructions
    a, b = L - 1, 0
    c, hop = cnot(a, b), rz(b, -2.0 * cfg.J * dt)
    wrap = tuple(g for basis in ((h(a), h(b)), (hy(a), hy(b))) for g in (*basis, c, hop, c, *basis))
    pairs = 14 * (L - 1)
    return Circuit(L, (rep[:pairs] + wrap + rep[pairs:]) * cfg.n)


def xy_chain_hamiltonian(L, profile, J=1.0):
    """Oracle: the open XY chain's dense one-excitation Hamiltonian, entry by
    entry: -2J between neighbours i, i + 1 (none from site L - 1 back to 0),
    and W (sum(u) - 2 u_j) on the diagonal, so an occupied site sits -W u_j
    from the particle-free background."""
    hmat = np.zeros((L, L), dtype=complex)
    for i in range(L - 1):
        hmat[i, i + 1] = hmat[i + 1, i] = -2.0 * J
    np.fill_diagonal(hmat, profile.W * (np.sum(profile.u) - 2.0 * profile.u))
    return hmat


def compose_swaps_by_hand(L, pairs):
    """Oracle: track where each site's occupation ends up, pure python."""
    position = list(range(L))  # position[s] = current site of the particle that started at s
    for a, b in pairs:
        position = [b if p == a else a if p == b else p for p in position]
    return position


class TestHoppingLadder:
    def test_right_order_is_descending(self):
        circ = build_hopping_ladder(4)
        assert [g.targets for g in circ.instructions] == [(2, 3), (1, 2), (0, 1)]

    def test_right_shift_moves_one_hot_up(self):
        # oracle: compose the three swap permutations by hand
        pairs = [(2, 3), (1, 2), (0, 1)]
        assert compose_swaps_by_hand(4, pairs) == [1, 2, 3, 0]
        circ = build_hopping_ladder(4)
        out = simulate(circ, basis_state(4, 1 << 0))
        assert abs(out.amplitudes[1 << 1] - 1.0) == 0.0

    def test_left_matrix_is_down_shift(self):
        op = reduce_to_single_particle(build_left_step(4, PotentialProfile.uniform(4, 0.0)))
        expected = np.array(
            [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]], dtype=complex
        )
        assert np.max(np.abs(op.matrix - expected)) < 1e-14

    def test_cyclic_period(self):
        L = 8
        state = basis_state(L, 1 << 0)
        circ = build_hopping_ladder(L)
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
        out = simulate(layer, basis_state(5, 1 << 2))
        density = site_density_exact(out)
        assert np.max(np.abs(density - np.eye(5)[2])) < 1e-14


class TestFcqwStep:
    def test_clean_walk_is_ballistic(self):
        L = 8
        profile = PotentialProfile.uniform(L, 0.0)
        for t in (1, 3, 8, 11):
            out = simulate(build_fcqw_walk(L, profile, t), basis_state(L, 1 << 0))
            density = site_density_exact(out)
            assert abs(density[t % L] - 1.0) < 1e-12

    def test_distribution_is_potential_independent(self):
        L = 8
        rng = np.random.default_rng(8)
        base = site_density_exact(
            simulate(build_fcqw_walk(L, PotentialProfile.uniform(L, 0.0), 5), basis_state(L, 1 << 0))
        )
        for W in (1.0, 2.5, 4.0):
            profile = PotentialProfile.random_symmetric(L, W, rng)
            out = simulate(build_fcqw_walk(L, profile, 5), basis_state(L, 1 << 0))
            assert np.max(np.abs(site_density_exact(out) - base)) < 1e-12

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


def xy_trotter_gate_by_gate(L, profile, cfg):
    """Oracle: the Trotter gate list built one repetition after another."""
    dt = cfg.t / cfg.n
    theta = -2.0 * cfg.J * dt
    pairs = [(i, i + 1) for i in range(L - 1)]
    gates = []
    for _ in range(cfg.n):
        for a, b in pairs:
            gates += [h(a), h(b), cnot(a, b), rz(b, theta), cnot(a, b), h(a), h(b)]
            gates += [hy(a), hy(b), cnot(a, b), rz(b, theta), cnot(a, b), hy(a), hy(b)]
        for i in range(L):
            if profile.W * profile.u[i] != 0.0:
                gates.append(rz(i, 2.0 * profile.W * profile.u[i] * dt))
    return gates


def trotter_profiles(L):
    rng = np.random.default_rng(L)
    profiles = [PotentialProfile.uniform(L, W) for W in (0.0, 1.3)]
    profiles += [PotentialProfile.random_symmetric(L, W, rng) for W in (0.0, 2.5)]
    if L > 7:
        profiles += [PotentialProfile.box(L, W) for W in (0.0, 4.0)]
    return profiles


class TestXYTrotter:
    @pytest.mark.parametrize("L", [2, 5, 8])
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_gates_equal_repetition_by_repetition(self, L, n):
        cfg = TrotterConfig(0.9, 1.7, n)
        for profile in trotter_profiles(L):
            circ = build_xy_trotter(L, profile, cfg)
            assert list(circ.instructions) == xy_trotter_gate_by_gate(L, profile, cfg)
            assert circ.instructions == circ.instructions[:len(circ) // n] * n

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
        cases += [walk, lower_swaps(walk), build_left_step(L, profile)]
        cases += [build(L, profile, TrotterConfig(1.0, 0.7, 2))
                  for build in (build_xy_trotter, build_ring_trotter)]
    cases += [Circuit(3, (h(1),)), Circuit(3, (cnot(0, 1), rz(2, 0.3), cnot(0, 1)))]
    return cases


FUSION_CASES = fusion_cases()


def unitary(circuit, apply):
    """Columns of the circuit's unitary: ``apply`` on the rows of the
    identity, seen as one vector with extra high bits."""
    dim = 1 << circuit.num_qubits
    rows = np.eye(dim, dtype=complex)
    apply(rows.reshape(-1))
    return rows.T


class TestFuseBlocks:
    @pytest.mark.parametrize(
        "circuit", FUSION_CASES, ids=[f"{i}_L{c.num_qubits}" for i, c in enumerate(FUSION_CASES)])
    def test_block_product_equals_gate_by_gate_unitary(self, circuit):
        L = circuit.num_qubits
        blocks = fuse_blocks(circuit)
        assert sum(b.size for b in blocks) == len(circuit)
        assert all(len(b.qubits) <= 2 for b in blocks)

        def by_gate(amps):
            for g in circuit.instructions:
                apply_matrix_inplace(amps, g.targets, gate_matrix(g))

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


def _fuse_by_gate(gates):
    """Reference fusion: every gate absorbed into the open block on its
    global qubits, with no product shared between blocks or copies."""
    def embed(u, targets, qubits):
        if len(qubits) == len(targets):
            return u if targets == qubits else u[np.ix_([0, 2, 1, 3], [0, 2, 1, 3])]
        out = np.zeros((4, 4), dtype=complex)
        if targets[0] == qubits[1]:
            out[0::2, 0::2] = out[1::2, 1::2] = u
        else:
            out[:2, :2] = out[2:, 2:] = u
        return out

    def absorb(block, gate):
        if block is None:
            u = gate_matrix(gate)
            return Block(gate.targets, u, circuits._conserves(u), gate)
        qubits = block.qubits + tuple(q for q in gate.targets if q not in block.qubits)
        if len(qubits) > 2:
            return None
        m = embed(gate_matrix(gate), gate.targets, qubits) @ embed(block.matrix, block.qubits, qubits)
        return Block(qubits, m, circuits._conserves(m), gate, block, block.size + 1)

    blocks, block = [], None
    for g in gates:
        if block is not None and block.conserves:
            blocks.append(block)
            block = None
        grown = absorb(block, g)
        if grown is None:
            blocks.append(block)
            grown = absorb(None, g)
        block = grown
    if block is not None:
        blocks.append(block)
    return blocks


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _chain(block):
    """(qubits, matrix, gate) of the block and of every ``prev`` before it."""
    out = []
    while block is not None:
        out.append((block.qubits, block.matrix, block.gate))
        block = block.prev
    return out


def identity_cases():
    """Walks (lowered or not), Trotter circuits on every profile kind, a
    circuit without repetition, and a repetition whose last block does not
    conserve, so that the fusion falls back to one pass."""
    rng = np.random.default_rng(29)
    cases = {}
    for L, W in ((3, 0.0), (5, 1.3), (8, 0.0), (8, 2.1)):
        profile = PotentialProfile.random_symmetric(L, W, rng)  # W = 0: rz(+-0.0)
        left = build_left_step(L, profile)
        for chirality, walk in (("right", build_fcqw_walk(L, profile, 3)),
                                ("left", Circuit(L, left.instructions * 3))):
            cases[f"walk_{chirality}_L{L}_W{W}"] = walk
            cases[f"lowered_walk_{chirality}_L{L}_W{W}"] = lower_swaps(walk)
    profiles = {"uniform": PotentialProfile.uniform, "box": PotentialProfile.box,
                "random": lambda L, W: PotentialProfile.random_symmetric(L, W, rng)}
    for kind, make in profiles.items():
        for L in ((8, 9) if kind == "box" else (4, 6)):
            for W in (0.0, 2.3):
                for n in (1, 3, 8):
                    for ring, build in enumerate((build_xy_trotter, build_ring_trotter)):
                        circuit = build(L, make(L, W), TrotterConfig(1.0, 0.9, n))
                        cases[f"trotter_{kind}_L{L}_W{W}_n{n}_p{ring}"] = circuit
    kinds = [lambda q, r: h(q), lambda q, r: hy(q), lambda q, r: rz(q, rng.normal()),
             lambda q, r: cnot(q, r), lambda q, r: swap(q, r)]
    gates = []
    for _ in range(60):
        q, r = (int(x) for x in rng.choice(4, size=2, replace=False))
        gates.append(kinds[rng.integers(len(kinds))](q, r))
    cases["no_repetition_L4"] = Circuit(4, tuple(gates))
    cases["fallback_L3"] = Circuit(3, (cnot(0, 1), rz(2, 0.3), cnot(0, 1)) * 3)
    return cases


IDENTITY_CASES = identity_cases()


class TestFusionBitIdentity:
    @pytest.mark.parametrize("name", IDENTITY_CASES)
    def test_blocks_equal_gate_by_gate_fusion(self, name):
        circuit = IDENTITY_CASES[name]
        got, expected = fuse_blocks(circuit), _fuse_by_gate(circuit.instructions)
        assert len(got) == len(expected)
        for ours, ref in zip(got, expected):
            assert (ours.qubits, ours.conserves, ours.size) == (
                ref.qubits, ref.conserves, ref.size)
            assert _same_bits(ours.matrix, ref.matrix)
            for (q, m, g), (q_ref, m_ref, g_ref) in zip(_chain(ours), _chain(ref), strict=True):
                assert q == q_ref and g is g_ref and _same_bits(m, m_ref)

    def test_fallback_fuses_across_copies(self):
        # the last block of a copy is an open cnot: the next copy's cnot
        # completes it to the identity, so the copies are not cut alike
        blocks = fuse_blocks(IDENTITY_CASES["fallback_L3"])
        assert [b.size for b in blocks] == [1, 1, 2, 1, 2, 1, 1]

    def test_pushed_through_equals_gate_by_gate_fusion(self):
        circuit = build_ring_trotter(4, PotentialProfile.uniform(4, 0.9), TrotterConfig(1.0, 0.8, 2))
        got, expected = fuse_blocks(circuit), _fuse_by_gate(circuit.instructions)
        checked = 0
        for ours, ref in zip(got, expected, strict=True):
            gates = [g for _, _, g in _chain(ours)][::-1]
            for pos, gate in enumerate(gates):
                table = _PAULI_PAIRS if gate.kind == "cnot" else PAULI_MATRICES
                for op in table[1:]:
                    k = ours.pushed_through(pos, op)
                    assert _same_bits(k, ref.pushed_through(pos, op))
                    checked += 1
        assert checked == sum(15 if g.kind == "cnot" else 3 for g in circuit.instructions)


@pytest.fixture
def products(monkeypatch):
    """Counts the block products fusion computes: ``gate_matrix`` is called
    in ``circuits`` once per product."""
    calls = []
    gate_matrix = circuits.gate_matrix

    def counting(gate):
        calls.append(gate)
        return gate_matrix(gate)

    monkeypatch.setattr(circuits, "gate_matrix", counting)
    return calls


def trotter_L6():
    profile = PotentialProfile.random_symmetric(6, 2.0, np.random.default_rng(6))
    return build_xy_trotter(6, profile, TrotterConfig(1.0, 2.0, 8))


class TestFusedOnce:
    def test_second_fusion_is_free_and_shared(self, products):
        circ = trotter_L6()
        blocks = fuse_blocks(circ)
        assert isinstance(blocks, tuple) and len(products) > 0
        products.clear()
        assert fuse_blocks(circ) is blocks
        assert products == []
        simulate(circ, basis_state(6, 1 << 2))
        reduce_to_single_particle(circ)
        assert products == []

    def test_trotter_pairs_share_one_product_chain(self, products):
        # L = 14, n = 8, box: 1488 gates, 186 per repetition; the 13 XX+YY
        # pairs share one chain of 14 products, the 4 box rz share one
        circuit = build_xy_trotter(14, PotentialProfile.box(14, 6.0), TrotterConfig(1.0, 2.0, 8))
        blocks = fuse_blocks(circuit)
        assert len(products) <= 20
        per_rep = len(blocks) // 8
        assert blocks == blocks[:per_rep] * 8
        assert len({id(b.matrix) for b in blocks}) <= 2

    def test_fusion_ignored_by_eq_and_hash(self):
        fused, fresh = trotter_L6(), trotter_L6()
        fuse_blocks(fused)
        assert fused == fresh and hash(fused) == hash(fresh)

    def test_noisy_statevector_run_fuses_once(self, products):
        fuse_blocks(trotter_L6())
        one_fusion = len(products)
        products.clear()
        spec = NoiseSpec(p_cnot=0.05, p_1q=0.01, p_readout=0.01, seed=3)
        result = run_noisy(trotter_L6(), 1 << 2, spec, shots=40)
        assert result.shots == 40
        assert len(products) == one_fusion

    def test_lower_swaps_returns_swap_free_circuit_itself(self):
        circ = trotter_L6()
        assert lower_swaps(circ) is circ
        onsite = build_onsite_layer(PotentialProfile.uniform(4, 0.5))
        assert lower_swaps(onsite) is onsite

    @pytest.mark.parametrize("L, k", [(2, 3), (5, 2), (8, 8)])
    def test_lowered_walk_is_copies_of_one_lowered_step(self, L, k):
        # each distinct swap's CNOT triple is built once, so the lowered
        # walk repeats one lowered step object for object (29 gates at
        # L = 8) and fuses it once: k copies of its blocks
        lowered = lower_swaps(build_fcqw_walk(L, PotentialProfile.uniform(L, 0.7), k))
        gates = lowered.instructions
        step = L + 3 * (L - 1)
        assert len(gates) == k * step
        assert all(map(is_, gates, gates[:step] * k))
        assert circuits._repetition(gates) == step
        blocks = fuse_blocks(lowered)
        assert blocks == blocks[:len(blocks) // k] * k

    def test_lower_swaps_still_lowers_each_swap(self):
        walk = build_fcqw_walk(5, PotentialProfile.uniform(5, 0.7), 2)
        expected = []
        for g in walk.instructions:
            if g.kind == "swap":
                i, j = g.targets
                expected += [cnot(i, j), cnot(j, i), cnot(i, j)]
            else:
                expected.append(g)
        assert len(expected) == len(walk) + 2 * 2 * 4  # 4 swaps per step
        assert list(lower_swaps(walk).instructions) == expected


class TestCircuitType:
    def test_rejects_out_of_range_targets(self):
        with pytest.raises(IndexError):
            Circuit(2, (swap(1, 2),))

    def test_instructions_are_immutable(self):
        circ = Circuit(2, (rz(0, 0.1),))
        assert isinstance(circ.instructions, tuple)
