import numpy as np
import pytest

from fcqw.statevec import (
    GateInstruction,
    H_MATRIX,
    HY_MATRIX,
    StateVector,
    apply_gate,
    apply_matrix_inplace,
    basis_state,
    cnot,
    derived_seed,
    gate_matrix,
    h,
    hy,
    rz,
    swap,
    swap_as_cnots,
)


def index_to_bitstring(index: int, L: int) -> str:
    """Bitstring of a basis index, written site 0 first."""
    return "".join("1" if (index >> i) & 1 else "0" for i in range(L))


def bitstring_to_index(bits: str) -> int:
    """Basis index of a bitstring written site 0 first."""
    return int(bits[::-1], 2)


def row_rng(seed: int, shot: int, width: int) -> np.random.Generator:
    """Reference stream of one shot: a generator on ``PCG64(seed)`` moved
    forward to the shot's row, word ``shot * width`` of the stream."""
    return np.random.Generator(np.random.PCG64(seed).advance(shot * width))


def sample_index(cumulative: np.ndarray, u: float) -> int:
    """Reference inverse-CDF draw: the first index whose cumulative
    probability exceeds ``u``, or the last index if none does."""
    return min(int(np.searchsorted(cumulative, u, side="right")), len(cumulative) - 1)


def sample_bitstrings(state: StateVector, shots: int, seed: int) -> list[str]:
    """Reference noiseless sampler: i.i.d. bitstrings from |amplitudes|^2,
    shot s taking the inverse CDF of ``default_rng(seed).random(shots)[s]``,
    so noiseless trajectory runs reproduce these draws shot for shot."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    cumulative = np.cumsum(np.abs(state.amplitudes) ** 2)
    L = state.num_qubits
    return [index_to_bitstring(sample_index(cumulative, u), L)
            for u in np.random.default_rng(seed).random(shots)]


def embed_gate(gate: GateInstruction, L: int) -> np.ndarray:
    return embed_matrix(gate_matrix(gate), gate.targets, L)


def embed_matrix(g: np.ndarray, targets: tuple[int, ...], L: int) -> np.ndarray:
    """Independent dense embedding of a 2x2 or 4x4 matrix on ``targets``
    into the full 2**L space, built entry by entry with explicit bit
    arithmetic (no reshape tricks)."""
    dim = 1 << L
    full = np.zeros((dim, dim), dtype=complex)
    if len(targets) == 1:
        q = targets[0]
        for col in range(dim):
            src = (col >> q) & 1
            base = col & ~(1 << q)
            for dst in (0, 1):
                full[base | (dst << q), col] += g[dst, src]
    else:
        a, b = targets  # a is the low bit of the 4x4 index
        for col in range(dim):
            src = ((col >> a) & 1) + 2 * ((col >> b) & 1)
            base = col & ~(1 << a) & ~(1 << b)
            for dst in range(4):
                row = base | ((dst & 1) << a) | (((dst >> 1) & 1) << b)
                full[row, col] += g[dst, src]
    return full


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng, L):
    amps = rng.normal(size=1 << L) + 1j * rng.normal(size=1 << L)
    return StateVector(L, amps / np.linalg.norm(amps))


def all_gate_samples():
    return [
        h(0),
        hy(1),
        rz(0, 0.7),
        rz(1, -2.3),
        cnot(0, 1),
        cnot(1, 0),
        swap(0, 1),
    ]


class TestGateMatrices:
    @pytest.mark.parametrize("gate", all_gate_samples(), ids=lambda g: f"{g.kind}{g.targets}")
    def test_unitarity(self, gate):
        u = gate_matrix(gate)
        dev = np.max(np.abs(u.conj().T @ u - np.eye(len(u))))
        assert dev < 1e-14

    def test_hy_conjugates_z_to_y(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        y = np.array([[0, -1j], [1j, 0]])
        assert np.max(np.abs(HY_MATRIX @ z @ HY_MATRIX - y)) < 1e-15

    def test_hy_is_involutive_and_hermitian(self):
        assert np.max(np.abs(HY_MATRIX @ HY_MATRIX - np.eye(2))) < 1e-15
        assert np.max(np.abs(HY_MATRIX - HY_MATRIX.conj().T)) == 0.0

    def test_matrices_pinned_entry_for_entry(self):
        s = 1.0 / np.sqrt(2.0)
        pinned = {
            h(0): [[s, s], [s, -s]],
            hy(0): [[s, -1j * s], [1j * s, -s]],
            # control is the low bit of the 4x4 index
            cnot(0, 1): [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]],
            swap(0, 1): [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
            rz(0, 0.7): [[np.exp(-0.35j), 0], [0, np.exp(0.35j)]],
        }
        for gate, expected in pinned.items():
            got = gate_matrix(gate)
            assert got.dtype == complex, gate
            assert np.array_equal(got, np.array(expected, dtype=complex)), gate

    def test_hy_equals_rz_h_rz(self):
        rz_plus = gate_matrix(rz(0, np.pi / 2))
        rz_minus = gate_matrix(rz(0, -np.pi / 2))
        assert np.max(np.abs(rz_plus @ H_MATRIX @ rz_minus - HY_MATRIX)) < 1e-15


class TestGateInstruction:
    def test_rz_requires_theta(self):
        with pytest.raises(ValueError):
            GateInstruction("rz", (0,))

    def test_non_rz_rejects_theta(self):
        with pytest.raises(ValueError):
            GateInstruction("h", (0,), 0.1)

    def test_targets_must_be_distinct(self):
        with pytest.raises(ValueError):
            cnot(2, 2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            GateInstruction("x", (0,))

    def test_out_of_range_target_raises_on_apply(self):
        state = basis_state(2, 1 << 0)
        with pytest.raises(IndexError):
            apply_gate(state, h(5))


class TestApplyGate:
    def test_rz_pi_phases_occupied_qubit(self):
        state = basis_state(1, 1)
        out = apply_gate(state, rz(0, np.pi))
        assert abs(out.amplitudes[1] - np.exp(1j * np.pi / 2)) < 1e-15

    def test_swap_exchanges_sites(self):
        # "01" is site 1 occupied; swap moves the particle to site 0
        state = basis_state(2, bitstring_to_index("01"))
        out = apply_gate(state, swap(0, 1))
        assert abs(out.amplitudes[bitstring_to_index("10")] - 1.0) < 1e-15

    def test_swap_is_an_involution(self):
        rng = np.random.default_rng(5)
        state = random_state(rng, 2)
        out = apply_gate(apply_gate(state, swap(0, 1)), swap(0, 1))
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12

    def test_input_state_is_not_mutated(self):
        state = basis_state(2, 1 << 0)
        before = state.amplitudes.copy()
        apply_gate(state, h(0))
        assert np.array_equal(state.amplitudes, before)

    @pytest.mark.parametrize("gate", all_gate_samples(), ids=lambda g: f"{g.kind}{g.targets}")
    def test_kernels_match_dense_embedding(self, gate):
        rng = np.random.default_rng(hash(gate.kind) % 1000)
        for L in (2, 3, 5):
            state = random_state(rng, L)
            expected = embed_gate(gate, L) @ state.amplitudes
            out = apply_gate(state, gate)
            assert np.max(np.abs(out.amplitudes - expected)) < 1e-13

    def test_kernels_match_dense_embedding_high_qubits(self):
        rng = np.random.default_rng(77)
        state = random_state(rng, 5)
        for gate in (cnot(4, 2), cnot(2, 4), swap(1, 4), rz(4, 1.1), hy(3)):
            expected = embed_gate(gate, 5) @ state.amplitudes
            out = apply_gate(state, gate)
            assert np.max(np.abs(out.amplitudes - expected)) < 1e-13
        # random unitaries on every qubit and every ordered pair, q0 > q1
        # included, applied to a batch of three rows seen as one vector
        targets = [(q,) for q in range(5)]
        targets += [(a, b) for a in range(5) for b in range(5) if a != b]
        for qubits in targets:
            m = random_unitary(rng, 1 << len(qubits))
            rows = np.array([random_state(rng, 5).amplitudes for _ in range(3)])
            expected = rows @ embed_matrix(m, qubits, 5).T
            apply_matrix_inplace(rows.reshape(-1), qubits, m)
            assert np.max(np.abs(rows - expected)) < 1e-13

    def test_norm_preserved_over_1000_random_gates(self):
        rng = np.random.default_rng(11)
        L = 5
        state = random_state(rng, L)
        amps = state.amplitudes.copy()
        drift = 0.0
        for _ in range(1000):
            kind = rng.choice(["h", "hy", "rz", "cnot", "swap"])
            qubits = rng.choice(L, size=2, replace=False)
            if kind == "rz":
                gate = rz(int(qubits[0]), float(rng.uniform(-np.pi, np.pi)))
            elif kind in ("cnot", "swap"):
                gate = GateInstruction(kind, (int(qubits[0]), int(qubits[1])))
            else:
                gate = GateInstruction(kind, (int(qubits[0]),))
            apply_matrix_inplace(amps, gate.targets, gate_matrix(gate))
            drift = max(drift, abs(np.sum(np.abs(amps) ** 2) - 1.0))
        assert drift < 1e-10

    def test_number_conservation_of_swap_and_rz(self):
        # basis states keep their Hamming weight under swap; rz is diagonal
        rng = np.random.default_rng(3)
        for _ in range(50):
            L = 4
            index = int(rng.integers(0, 1 << L))
            state = basis_state(L, index)
            a, b = rng.choice(L, size=2, replace=False)
            out = apply_gate(state, swap(int(a), int(b)))
            nz = int(np.flatnonzero(out.amplitudes)[0])
            assert bin(nz).count("1") == bin(index).count("1")
            out = apply_gate(state, rz(int(a), 0.3))
            assert abs(abs(out.amplitudes[index]) - 1.0) < 1e-12


class TestSwapAsCnots:
    def test_sequence(self):
        assert swap_as_cnots(0, 1) == [cnot(0, 1), cnot(1, 0), cnot(0, 1)]

    def test_equal_qubits_rejected(self):
        with pytest.raises(ValueError):
            swap_as_cnots(3, 3)

    def test_composed_action_moves_particle(self):
        state = basis_state(2, bitstring_to_index("10"))
        for gate in swap_as_cnots(0, 1):
            state = apply_gate(state, gate)
        assert abs(state.amplitudes[bitstring_to_index("01")] - 1.0) < 1e-15

    def test_composed_matrix_equals_swap_exactly(self):
        # oracle: multiply the three dense CNOT matrices in a common basis
        composed = np.eye(4, dtype=complex)
        for gate in swap_as_cnots(0, 1):
            composed = embed_gate(gate, 2) @ composed
        assert np.max(np.abs(composed - embed_gate(swap(0, 1), 2))) == 0.0


class TestOneHotState:
    def test_site_zero_of_four(self):
        state = basis_state(4, 1 << 0)
        assert abs(state.amplitudes[bitstring_to_index("1000")] - 1.0) == 0.0
        assert np.sum(np.abs(state.amplitudes)) == 1.0

    def test_walk_initial_state_is_single_site(self):
        state = basis_state(8, 1 << 0)
        probs = np.abs(state.amplitudes) ** 2
        assert probs[1 << 0] == 1.0
        assert np.sum(probs) == 1.0

    def test_ipr_of_one_hot_is_one(self):
        from fcqw.observables import ipr, post_process, site_density_exact

        value = ipr(post_process(site_density_exact(basis_state(6, 1 << 2))))
        assert value == 1.0

    def test_site_out_of_range(self):
        with pytest.raises(IndexError):
            basis_state(4, 1 << 4)


class TestSampling:
    def test_deterministic_state(self):
        state = basis_state(2, bitstring_to_index("10"))
        draws = sample_bitstrings(state, 100, seed=0)
        assert draws == ["10"] * 100

    def test_uniform_qubit_fraction(self):
        state = StateVector(1, np.array([1.0, 1.0], dtype=complex) / np.sqrt(2))
        draws = sample_bitstrings(state, 10000, seed=42)
        frac = sum(1 for d in draws if d == "1") / 10000
        assert abs(frac - 0.5) < 0.02  # 3 sigma of a fair binomial is 0.015

    def test_same_seed_same_multiset(self):
        rng = np.random.default_rng(9)
        state = random_state(rng, 3)
        a = sample_bitstrings(state, 500, seed=7)
        b = sample_bitstrings(state, 500, seed=7)
        assert a == b

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            sample_bitstrings(basis_state(2, 1 << 0), 0, seed=0)

    def test_draws_follow_row_rng(self):
        state = random_state(np.random.default_rng(4), 3)
        cumulative = np.cumsum(np.abs(state.amplitudes) ** 2)
        expected = [
            index_to_bitstring(sample_index(cumulative, row_rng(11, s, 1).random()), 3)
            for s in range(200)
        ]
        assert sample_bitstrings(state, 200, seed=11) == expected


class TestDerivedSeed:
    """Every noisy point's stream starts from ``derived_seed``; a change to
    it changes every sampled count."""

    @pytest.mark.parametrize(
        "base, key, seed",
        [
            (0, (), 2968811710),
            (1, (8, 0), 2407966284),
            (7, (3, -2500), 1933806770),
            (2**64 + 1, (5, 9, 2**31), 2371538314),
        ],
        ids=["no_key", "step_and_W", "negative_key", "wide_base"],
    )
    def test_pinned_values(self, base, key, seed):
        assert derived_seed(base, *key) == seed

    def test_negative_keys_wrap_to_32_bits(self):
        assert derived_seed(5, -1, 3) == derived_seed(5, 2**32 - 1, 3)
        assert derived_seed(5, -(2**31), 0) == derived_seed(5, 2**31, 0)

    def test_is_a_32_bit_word(self):
        seeds = [derived_seed(base, x, w) for base in (0, 1, 2**70) for x in range(5)
                 for w in (-3, 0, 3)]
        assert all(isinstance(s, int) and 0 <= s < 2**32 for s in seeds)

    def test_base_and_every_key_word_matter(self):
        seeds = {derived_seed(base, x, w) for base in (0, 1) for x in range(20) for w in range(20)}
        assert len(seeds) == 2 * 20 * 20

    def test_key_order_matters(self):
        assert derived_seed(1, 2, 3) != derived_seed(1, 3, 2)
        assert derived_seed(1, 2) != derived_seed(1, 2, 0)


class TestBitstrings:
    def test_site_zero_is_first_character(self):
        assert index_to_bitstring(1, 4) == "1000"
        assert index_to_bitstring(8, 4) == "0001"

    def test_roundtrip(self):
        for index in range(16):
            assert bitstring_to_index(index_to_bitstring(index, 4)) == index
