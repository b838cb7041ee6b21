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
    bitstring_to_index,
    cnot,
    gate_matrix,
    h,
    hy,
    index_to_bitstring,
    one_hot_state,
    raw_words,
    rz,
    sample_index,
    shot_rng,
    shot_words,
    swap,
    swap_as_cnots,
    words_rng,
)
from fcqw import statevec
from fcqw.statevec import _Words


def sample_bitstrings(state: StateVector, shots: int, seed: int) -> list[str]:
    """Reference noiseless sampler: i.i.d. bitstrings from |amplitudes|^2,
    each shot consuming exactly one uniform from its own seeded substream,
    so noiseless trajectory runs reproduce these draws shot for shot."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    cumulative = np.cumsum(np.abs(state.amplitudes) ** 2)
    L = state.num_qubits
    out = []
    for words in shot_words(seed, shots):
        u = words_rng(words).random()
        out.append(index_to_bitstring(sample_index(cumulative, u), L))
    return out


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
        state = one_hot_state(2, 0)
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
        state = one_hot_state(2, 0)
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
        state = one_hot_state(4, 0)
        assert abs(state.amplitudes[bitstring_to_index("1000")] - 1.0) == 0.0
        assert np.sum(np.abs(state.amplitudes)) == 1.0

    def test_walk_initial_state_is_single_site(self):
        state = one_hot_state(8, 0)
        probs = np.abs(state.amplitudes) ** 2
        assert probs[1 << 0] == 1.0
        assert np.sum(probs) == 1.0

    def test_ipr_of_one_hot_is_one(self):
        from fcqw.observables import ipr, post_process, site_density_exact

        value = ipr(post_process(site_density_exact(one_hot_state(6, 2))))
        assert value == 1.0

    def test_site_out_of_range(self):
        with pytest.raises(IndexError):
            one_hot_state(4, 4)


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
            sample_bitstrings(one_hot_state(2, 0), 0, seed=0)

    def test_draws_follow_shot_rng(self):
        state = random_state(np.random.default_rng(4), 3)
        cumulative = np.cumsum(np.abs(state.amplitudes) ** 2)
        expected = [
            index_to_bitstring(sample_index(cumulative, shot_rng(11, s).random()), 3)
            for s in range(200)
        ]
        assert sample_bitstrings(state, 200, seed=11) == expected


class TestShotWords:
    #: every key below 1000, then a stride past 2**16 (where the key's high
    #: half word first reaches the hash's xor-shift), and the edges around it
    ROWS = np.r_[0:1000, 1000:70000:37, 65535, 65536, 69999]

    @pytest.mark.parametrize(
        "seed", [0, 2**32 - 1, 2**32, 2**64 + 1, 2**131 + 12345, 2**200 + 11],
        ids=["0", "2^32-1", "2^32", "2^64+1", "above_2^128", "7_words"],
    )
    def test_rows_equal_seed_sequence_state(self, seed):
        words = shot_words(seed, 70_000)
        assert words.shape == (70_000, 4) and words.dtype == np.uint64
        for s in self.ROWS:
            expected = np.random.SeedSequence(seed, spawn_key=(int(s),)).generate_state(4, np.uint64)
            assert np.array_equal(words[s], expected), s

    @pytest.mark.parametrize("seed", [0, 7, 2**70 + 3])
    def test_generators_draw_what_shot_rng_draws(self, seed):
        words = shot_words(seed, 40)
        for s in (0, 1, 39):
            ours, ref = words_rng(words[s]), shot_rng(seed, s)
            assert np.array_equal(ours.random(300), ref.random(300))
            assert np.array_equal(ours.integers(1, 16, size=300), ref.integers(1, 16, size=300))
            assert np.array_equal(ours.integers(1, 4, size=300), ref.integers(1, 4, size=300))

    def test_zero_shots(self):
        assert shot_words(3, 0).shape == (0, 4)

    @pytest.mark.parametrize("seed", [-1, -(2**40), 2.5, "3", None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError):
            shot_words(seed, 4)

    @pytest.mark.parametrize("shots", [2**32 + 1, 2**40, -1])
    def test_bad_shot_count_rejected(self, shots):
        # a spawn key >= 2**32 would be two words; refused before allocating
        with pytest.raises(ValueError):
            shot_words(0, shots)


def _raw_words_per_row(words: np.ndarray, width: int) -> np.ndarray:
    """Reference: one bit generator seeded the public way per row."""
    out = np.empty((len(words), width), dtype=np.uint64)
    for s, row in enumerate(words):
        out[s] = np.random.PCG64(_Words(row)).random_raw(width)
    return out


#: hand-made rows (w0, w1, w2, w3): w1 + inc_lo carries into the high
#: word; the top bit of w3 carries into inc_hi; every word all ones; zeros
_CARRY_WORDS = np.array([
    [5, 2**64 - 1, 7, 2**63 + 11],
    [2**64 - 1, 2**64 - 2, 2**64 - 1, 2**63],
    [2**64 - 1] * 4,
    [0] * 4,
], dtype=np.uint64)


class TestRawWords:
    @pytest.fixture(params=["fast", "fallback"])
    def path(self, request, monkeypatch):
        if request.param == "fallback":
            monkeypatch.setattr(statevec, "_pcg64_layout_ok", lambda: False)
        return request.param

    def test_layout_guard_passes_on_this_build(self):
        # a numpy whose PCG64 struct differs fails here instead of silently
        # taking the per-row fallback
        assert statevec._pcg64_layout_ok()

    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 1])
    def test_rows_are_the_generators_words(self, seed, path):
        words = shot_words(seed, 30)
        raw = raw_words(words, 50)
        assert raw.shape == (30, 50) and raw.dtype == np.uint64
        assert np.array_equal(raw, _raw_words_per_row(words, 50))
        for s in (0, 17, 29):
            # a double is the top 53 bits of one word
            assert np.array_equal((raw[s] >> 11) * 2.0**-53, shot_rng(seed, s).random(50))

    @pytest.mark.parametrize("width", [1, 3, 171])
    def test_carries_in_the_128_bit_words(self, width, path):
        words = _CARRY_WORDS
        # row 0 forces both carries of the 128-bit sums
        w1, w3 = int(words[0, 1]), int(words[0, 3])
        assert w1 + ((w3 << 1 | 1) & (2**64 - 1)) >= 2**64 and w3 >> 63
        assert np.array_equal(raw_words(words, width), _raw_words_per_row(words, width))

    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 1])
    def test_width_one(self, seed, path):
        words = shot_words(seed, 20)
        assert np.array_equal(raw_words(words, 1), _raw_words_per_row(words, 1))

    def test_no_rows(self, path):
        assert raw_words(shot_words(1, 0), 5).shape == (0, 5)


class TestBitstrings:
    def test_site_zero_is_first_character(self):
        assert index_to_bitstring(1, 4) == "1000"
        assert index_to_bitstring(8, 4) == "0001"

    def test_roundtrip(self):
        for index in range(16):
            assert bitstring_to_index(index_to_bitstring(index, 4)) == index

    def test_bad_characters(self):
        with pytest.raises(ValueError):
            bitstring_to_index("10x0")
