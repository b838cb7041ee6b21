import hashlib
from collections import Counter

import numpy as np
import pytest

from fcqw.circuits import (
    Circuit,
    PotentialProfile,
    TrotterConfig,
    build_fcqw_walk,
    build_xy_trotter,
    fuse_blocks,
    lower_swaps,
    simulate,
)
import math

import fcqw.noise as noise_mod
from fcqw.noise import (
    _PAULI_OPS,
    NoiseSpec,
    ShotResult,
    _fault_table,
    _read_streams,
    amplitude_decay_sweep,
    run_noisy,
)
from fcqw.observables import (
    peak_amplitude,
    post_process,
    restricted_site_density_counts,
    site_density_counts,
)
from fcqw.statevec import (
    PAULI_MATRICES,
    apply_matrix_inplace,
    basis_state,
    cnot,
    gate_matrix,
    h,
    rz,
    sample_index,
    swap,
)
from test_statevec import bitstring_to_index, row_rng, sample_bitstrings


def _by_index(bit_counts: dict[str, int]) -> dict[int, int]:
    """Counts keyed by bitstring (site 0 first) rekeyed by basis index."""
    return {bitstring_to_index(bits): n for bits, n in bit_counts.items()}


def apply_pauli(amps, q, code):
    """Pauli code 1=X, 2=Y, 3=Z on qubit q; 0 is a no-op."""
    if code:
        apply_matrix_inplace(amps, (q,), PAULI_MATRICES[code])


def walk_setup(L=8, t=8, W=0.0):
    """The t-step walk, its start's basis index (site 0) and its peak site."""
    profile = PotentialProfile.uniform(L, W)
    return build_fcqw_walk(L, profile, t), 1, (0 + t) % L


def with_h(circuit, q=0):
    """The circuit after an h on qubit q: a superposed start, which only
    the statevector branch can run."""
    return Circuit(circuit.num_qubits, (h(q), *circuit.instructions))


ZERO_NOISE = NoiseSpec(0.0, 0.0, 0.0, seed=0)


def gate_classes(cnots, spec):
    """(gate indices, p) of the two gate classes: the CNOTs, then the rest."""
    return ((np.flatnonzero(cnots), spec.p_cnot), (np.flatnonzero(~np.asarray(cnots)), spec.p_1q))


def stream_width(cnots, spec, L):
    """Words in a shot's row, as ``_read_streams`` sizes them: the gap room
    of each class (none when its probability is zero), the Pauli room, the
    measurement word and the readout words (none when p_readout is zero)."""
    probs = np.where(cnots, spec.p_cnot, spec.p_1q)
    gaps = sum(noise_mod._room(np.full(len(idx), p)) for idx, p in gate_classes(cnots, spec)
               if p > 0 and len(idx))
    return gaps + noise_mod._pauli_words(probs) + 1 + (L if spec.p_readout > 0 else 0)


def read_flags(rng, cnots, spec):
    """Reference gap reader: the gates that a ``Generator`` at a shot's row
    flags, one word at a time, class by class.  A word u = 1 - random()
    skips floor(log u / log1p(-p)) gates of its class before flagging one;
    a class reads its whole room of words, and past the room one more at a
    time until it has reached its last gate."""
    flagged = []
    for idx, p in gate_classes(cnots, spec):
        if p == 0.0 or not len(idx):
            continue
        room = list(rng.random(noise_mod._room(np.full(len(idx), p))))
        log_q = math.log1p(-p) if p < 1.0 else -math.inf
        pos = -1
        while pos < len(idx) - 1:
            x = room.pop(0) if room else rng.random()
            pos += 1 + int(min(np.floor(np.log(1.0 - x) / log_q), len(idx)))
            if pos < len(idx):
                flagged.append(int(idx[pos]))
    return sorted(flagged)


def count_pcg64(monkeypatch):
    """Record every ``np.random.PCG64`` built from here on, by its seed."""
    built = []

    class CountingPCG64(np.random.PCG64):
        def __init__(self, seed=None):
            built.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(np.random, "PCG64", CountingPCG64)
    return built


class TestNoiselessReduction:
    def test_clean_walk_returns_home_every_shot(self):
        circuit, start, _ = walk_setup(L=8, t=8)
        result = run_noisy(circuit, start, ZERO_NOISE, shots=1000)
        assert result.counts == {1: 1000}

    def test_counts_match_ideal_sampling_exactly(self):
        # superposition-producing circuit: the statevector path must consume
        # each shot's row exactly like sample_bitstrings
        circ = build_xy_trotter(4, PotentialProfile.uniform(4, 1.0), TrotterConfig(1.0, 0.6, 2))
        spec = NoiseSpec(0.0, 0.0, 0.0, seed=77)
        result = run_noisy(circ, 2, spec, shots=400)
        final = simulate(circ, basis_state(4, 2))
        assert result.counts == _by_index(Counter(sample_bitstrings(final, 400, seed=77)))

    def test_total_variation_distance_small(self):
        circ = build_xy_trotter(3, PotentialProfile.uniform(3, 0.5), TrotterConfig(1.0, 0.8, 2))
        result = run_noisy(circ, 1, NoiseSpec(0, 0, 0, seed=5), shots=10_000)
        probs = np.abs(simulate(circ, basis_state(3, 1)).amplitudes) ** 2
        empirical = np.zeros(8)
        for index, count in result.counts.items():
            empirical[index] = count / 10_000
        tv = 0.5 * np.sum(np.abs(empirical - probs))
        assert tv < 0.02


class TestDeterminism:
    def test_same_seed_same_counts(self):
        circuit, start, _ = walk_setup()
        spec = NoiseSpec(5e-3, 1e-3, 1e-2, seed=9)
        a = run_noisy(circuit, start, spec, shots=500)
        b = run_noisy(circuit, start, spec, shots=500)
        assert a.counts == b.counts

    def test_classical_and_statevector_paths_agree(self, monkeypatch):
        # same circuit, same stream: with no gate kind taken as index
        # preserving, the dense kernels run (faulty shots taken in order of
        # first fault), and must reproduce the fault-table path
        circuit, start, _ = walk_setup(t=4)
        spec = NoiseSpec(p_cnot=2e-2, p_1q=1e-3, p_readout=1e-2, seed=31)
        fast = run_noisy(circuit, start, spec, shots=400)
        monkeypatch.setattr(noise_mod, "INDEX_KINDS", ())
        dense = run_noisy(circuit, start, spec, shots=400)
        assert fast.counts == dense.counts

    # exact counts pin the stream layout on both sampler paths
    @pytest.mark.parametrize(
        "circuit, start, spec, shots, expected",
        [
            (
                build_fcqw_walk(6, PotentialProfile.uniform(6, 1.0), 6),
                1,
                NoiseSpec(p_cnot=3e-3, p_1q=1e-3, p_readout=1e-2, seed=2024),
                300,
                {"000000": 7, "000010": 1, "000100": 1, "000110": 2, "000111": 1,
                 "001001": 1, "001100": 1, "010000": 1, "011000": 1, "100000": 221,
                 "100001": 8, "100010": 7, "100011": 2, "100100": 10, "100101": 1,
                 "100110": 3, "101000": 15, "101010": 1, "110000": 8, "110001": 2,
                 "110010": 2, "110100": 2, "111000": 2},
            ),
            (
                build_xy_trotter(4, PotentialProfile.uniform(4, 1.0), TrotterConfig(1.0, 0.6, 2)),
                2,
                NoiseSpec(p_cnot=1e-2, p_1q=2e-3, p_readout=1e-2, seed=2025),
                200,
                {"0000": 11, "0001": 32, "0010": 10, "0011": 2, "0100": 6, "0101": 5,
                 "0110": 2, "0111": 1, "1000": 107, "1001": 7, "1010": 9, "1011": 3,
                 "1100": 3, "1101": 1, "1110": 1},
            ),
        ],
        ids=["classical_walk_L6", "statevector_trotter_L4"],
    )
    def test_golden_counts(self, circuit, start, spec, shots, expected):
        assert run_noisy(circuit, start, spec, shots).counts == _by_index(expected)


def _replay_counts(circuit, start_index, spec, shots):
    """Reference sampler: track the basis index gate by gate through the
    lowered circuit, flipping bits at each fault, on each shot's row."""
    gates = lower_swaps(circuit).instructions
    L = circuit.num_qubits
    cnots = np.array([g.kind == "cnot" for g in gates])
    width = stream_width(cnots, spec, L)
    indices = []
    for s in range(shots):
        rng = row_rng(spec.seed, s, width)
        flagged = set(read_flags(rng, cnots, spec))
        index = start_index
        for j, g in enumerate(gates):
            if g.kind == "cnot":
                c, t = g.targets
                if (index >> c) & 1:
                    index ^= 1 << t
            if j in flagged:
                if g.kind == "cnot":
                    code = int(rng.integers(1, 16))
                    codes = (code & 3, (code >> 2) & 3)
                else:
                    codes = (int(rng.integers(1, 4)),)
                for q, code in zip(g.targets, codes):
                    if code in (1, 2):
                        index ^= 1 << q
        rng.random()
        for q, flip in enumerate(rng.random(L) < spec.p_readout):
            if flip:
                index ^= 1 << q
        indices.append(index)
    return dict(Counter(indices))


HIGH_NOISE = dict(p_cnot=0.3, p_1q=0.1, p_readout=0.05)


class TestFaultTable:
    @pytest.mark.parametrize("L", [4, 5, 6, 7, 8])
    def test_walk_matches_gate_by_gate_replay(self, L):
        circuit, start, _ = walk_setup(L=L, t=L, W=0.7)
        spec = NoiseSpec(**HIGH_NOISE, seed=100 + L)
        expected = _replay_counts(circuit, start, spec, shots=200)
        assert run_noisy(circuit, start, spec, shots=200).counts == expected

    @pytest.mark.parametrize("trial", range(6))
    def test_random_circuits_match_gate_by_gate_replay(self, trial):
        gen = np.random.default_rng(trial)
        L = int(gen.integers(3, 8))
        gates = []
        for _ in range(40):
            kind = gen.choice(["rz", "cnot", "swap"])
            if kind == "rz":
                gates.append(rz(int(gen.integers(L)), float(gen.uniform(-3, 3))))
            else:
                a, b = (int(q) for q in gen.choice(L, size=2, replace=False))
                gates.append(cnot(a, b) if kind == "cnot" else swap(a, b))
        circuit = Circuit(L, tuple(gates))
        start = int(gen.integers(1, 1 << L))
        spec = NoiseSpec(**HIGH_NOISE, seed=trial)
        expected = _replay_counts(circuit, start, spec, shots=200)
        assert run_noisy(circuit, start, spec, shots=200).counts == expected


def _per_shot_counts(circuit, start, spec, shots):
    """Reference statevector sampler, one shot at a time: faulty shots in
    order of first fault, each copied from one clean prefix state advanced
    gate by gate, re-creating its stream and replaying its remaining gates."""
    lowered = lower_swaps(circuit)
    gates = lowered.instructions
    L = lowered.num_qubits
    cnots = np.array([g.kind == "cnot" for g in gates])
    weights = 1 << np.arange(L, dtype=np.int64)
    width = stream_width(cnots, spec, L)
    initial = basis_state(L, start)

    def flagged(rng):
        return read_flags(rng, cnots, spec)

    def paulis(rng, g):
        if g.kind == "cnot":
            code = int(rng.integers(1, 16))
            return (code & 3, (code >> 2) & 3)
        return (int(rng.integers(1, 4)),)

    def readout(rng, index):
        if spec.p_readout > 0.0:
            index ^= int((rng.random(L) < spec.p_readout) @ weights)
        return index

    clean = np.cumsum(np.abs(simulate(lowered, initial).amplitudes) ** 2)
    indices = [0] * shots
    faulty = []
    for s in range(shots):
        rng = row_rng(spec.seed, s, width)
        first = flagged(rng)
        if first:
            faulty.append((first[0], s))
        else:
            indices[s] = readout(rng, sample_index(clean, rng.random()))
    prefix = initial.amplitudes.copy()
    done = 0
    for first, s in sorted(faulty):
        for g in gates[done:first]:
            apply_matrix_inplace(prefix, g.targets, gate_matrix(g))
        done = first
        rng = row_rng(spec.seed, s, width)
        amps = prefix.copy()
        pos = first
        for j in flagged(rng):
            for g in gates[pos:j + 1]:
                apply_matrix_inplace(amps, g.targets, gate_matrix(g))
            pos = j + 1
            for q, code in zip(gates[j].targets, paulis(rng, gates[j])):
                apply_pauli(amps, q, code)
        for g in gates[pos:]:
            apply_matrix_inplace(amps, g.targets, gate_matrix(g))
        indices[s] = readout(rng, sample_index(np.cumsum(np.abs(amps) ** 2), rng.random()))
    return dict(Counter(indices))


def _trotter_case(L):
    profile = PotentialProfile.uniform(L, 0.8)
    circuit = build_xy_trotter(L, profile, TrotterConfig(1.0, 0.9, 3))
    spec = NoiseSpec(p_cnot=0.1 + 0.04 * (L - 3), p_1q=0.05, p_readout=0.05, seed=300 + L)
    return circuit, 1 << L // 2, spec


def _superposed_walk_case(L):
    # a walk (rz/cnot after lowering, which the fault table could take)
    # after an h on the start qubit
    circuit, start, _ = walk_setup(L=L, t=3, W=0.7)
    spec = NoiseSpec(p_cnot=0.2, p_1q=0.05, p_readout=0.05, seed=400 + L)
    return with_h(circuit), start, spec


def _periodic_trotter_case(L):
    # the wrap pair (L-1, 0) puts the high qubit first in its block
    profile = PotentialProfile.uniform(L, 0.8)
    circuit = build_xy_trotter(L, profile, TrotterConfig(1.0, 0.9, 3), periodic=True)
    spec = NoiseSpec(p_cnot=0.15, p_1q=0.05, p_readout=0.05, seed=500 + L)
    return circuit, 1 << L - 1, spec


BATCH_CASES = [(_trotter_case, L) for L in range(3, 9)] + [
    (_superposed_walk_case, L) for L in (3, 6)] + [(_periodic_trotter_case, L) for L in (4, 5)]


class TestTrajectoryBatch:
    @pytest.mark.parametrize("rows", [None, 2, 3])
    @pytest.mark.parametrize("make, L", BATCH_CASES)
    def test_matches_per_shot_replay(self, monkeypatch, make, L, rows):
        circuit, start, spec = make(L)
        if rows is not None:  # chunks of 2 or 3 faulty rows
            monkeypatch.setattr(noise_mod, "_BATCH_AMPLITUDES", rows << L)
        for shots in (1, 40):
            expected = _per_shot_counts(circuit, start, spec, shots)
            counts = run_noisy(circuit, start, spec, shots).counts
            assert list(counts.items()) == list(expected.items())

    def test_noiseless_matches_sample_bitstrings(self):
        circuit, start, _ = _trotter_case(6)
        spec = NoiseSpec(0.0, 0.0, 0.0, seed=41)
        final = simulate(circuit, basis_state(6, start))
        expected = _by_index(Counter(sample_bitstrings(final, 300, seed=41)))
        counts = run_noisy(circuit, start, spec, 300).counts
        assert list(counts.items()) == list(expected.items())
        assert counts == _per_shot_counts(circuit, start, spec, 300)

    def test_one_kernel_call_per_block_per_chunk(self, monkeypatch):
        # the batch plus the clean reference run, one call per fused block,
        # and one correction per fault: a per-gate or per-shot replay would
        # make about one call per remaining gate
        import fcqw.circuits as circuits_mod
        L, shots = 8, 50  # the noisy point of the dense benchmark
        circuit = build_xy_trotter(L, PotentialProfile.box(L, 6.0), TrotterConfig(1.0, 2.0, 8))
        calls, faults = [], []

        def counting(amps, qubits, m):
            calls.append(qubits)
            apply_matrix_inplace(amps, qubits, m)

        def evolve(initial, blocks, L, faults_per_row):
            faults.extend(f for row in faults_per_row for f in row)
            return evolve_faulty(initial, blocks, L, faults_per_row)

        evolve_faulty = noise_mod._evolve_faulty
        monkeypatch.setattr(noise_mod, "apply_matrix_inplace", counting)
        monkeypatch.setattr(circuits_mod, "apply_matrix_inplace", counting)
        monkeypatch.setattr(noise_mod, "_evolve_faulty", evolve)
        run_noisy(circuit, 1 << 3, NoiseSpec(seed=5), shots)
        n_gates = len(lower_swaps(circuit))
        n_blocks = len(fuse_blocks(lower_swaps(circuit)))
        chunks = -(-shots // max(1, noise_mod._BATCH_AMPLITUDES >> L))
        assert faults and n_blocks <= n_gates / 8
        assert n_blocks < len(calls) <= (chunks + 1) * n_blocks + len(faults)


def _block_gates(block):
    gates = []
    while block is not None:
        gates.append(block.gate)
        block = block.prev
    return gates[::-1]


class TestFaultCorrection:
    @pytest.mark.parametrize("circuit", [
        build_xy_trotter(4, PotentialProfile.uniform(4, 0.9), TrotterConfig(1.0, 0.8, 2), True),
        lower_swaps(walk_setup(L=4, t=2, W=0.6)[0]),
    ], ids=["periodic_trotter", "lowered_walk"])
    def test_block_then_correction_equals_gate_by_gate(self, circuit):
        # a Pauli after gate j of a block equals the block followed by
        # K = R P R^+; the walk's lowered swaps reverse two of their CNOTs
        # against the block's qubit order, the wrap pair puts qubit 3 first
        L = circuit.num_qubits
        rng = np.random.default_rng(8)
        state = rng.normal(size=1 << L) + 1j * rng.normal(size=1 << L)
        blocks = {id(b): b for b in fuse_blocks(circuit)}.values()
        checked = 0
        for block in blocks:
            for pos, gate in enumerate(_block_gates(block)):
                codes = range(1, 16) if len(gate.targets) == 2 else range(1, 4)
                for code in codes:
                    paulis = (code & 3, code >> 2) if len(gate.targets) == 2 else (code,)
                    expected = state.copy()
                    for j, g in enumerate(_block_gates(block)):
                        apply_matrix_inplace(expected, g.targets, gate_matrix(g))
                        if j == pos:
                            for q, c in zip(g.targets, paulis):
                                apply_pauli(expected, q, c)
                    out = state.copy()
                    apply_matrix_inplace(out, block.qubits, block.matrix)
                    k = block.pushed_through(pos, _PAULI_OPS[paulis])
                    apply_matrix_inplace(out, block.qubits, k)
                    assert np.max(np.abs(out - expected)) < 1e-13
                    checked += 1
        assert checked > 100


def _generator_draws(rngs, cnots, spec, L):
    """What each shot's ``Generator`` draws, in the decoder's layout:
    (shot, gate, code) of the flagged gates, then the measurement uniforms
    and the readout flip masks."""
    shot, gate, code, u, flips = [], [], [], [], []
    for s, rng in enumerate(rngs):
        for j in read_flags(rng, cnots, spec):
            shot.append(s)
            gate.append(j)
            code.append(rng.integers(1, 16 if cnots[j] else 4))
        if spec.p_readout > 0:
            draws = rng.random(1 + L)
            u.append(draws[0])
            flips.append(sum(1 << q for q in range(L) if draws[1 + q] < spec.p_readout))
        else:
            u.append(rng.random())
            flips.append(0)
    return shot, gate, code, u, flips


#: (is a CNOT per gate, p_cnot, p_1q, p_readout); classes at 0 and 1 fix
#: which gates draw a Pauli code, so the runs of 1-5 draws leave a buffered
#: half when odd
DECODE_CASES = {
    "flag_edges": ([True, False, True] * 10, 2.0**-53, 7e-3, 0.3),
    "half_and_one": ([True, False, True] * 10, 0.5, 1.0, 0.3),
    "high": ([True, False, False, True] * 10, 0.3, 0.1, 0.05),
    "cnots_only": ([True] * 6, 0.4, 0.2, 0.1),
    "one_cnot": ([True], 1.0, 0.0, 0.2),
    "two_mixed": ([True, False], 1.0, 1.0, 0.2),
    "three_1q": ([False, True, False, False], 0.0, 1.0, 0.5),
    "four_mixed": ([True, False, False, True], 1.0, 1.0, 0.1),
    "five_mixed": ([False, True, True, False, True], 1.0, 1.0, 0.9),
    "no_readout": ([True, False, False], 1.0, 0.5, 0.0),
    "no_flags": ([True] * 7, 0.0, 0.0, 0.2),
}


def decode_case(case, seed):
    cnots, p_cnot, p_1q, p_readout = DECODE_CASES[case]
    return np.array(cnots), NoiseSpec(p_cnot, p_1q, p_readout, seed=seed)


class TestReadStreams:
    @pytest.mark.parametrize("case", DECODE_CASES)
    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 1], ids=["0", "2^32", "2^64+1"])
    def test_equals_generator_draws(self, monkeypatch, seed, case):
        cnots, spec = decode_case(case, seed)
        L, shots = 5, 150
        width = stream_width(cnots, spec, L)
        rngs = (row_rng(seed, s, width) for s in range(shots))
        expected = _generator_draws(rngs, cnots, spec, L)
        for chunk in (None, 1, 7):  # one chunk, one shot per chunk, several
            if chunk is not None:
                monkeypatch.setattr(noise_mod, "_CHUNK_WORDS", chunk * width)
            got = _read_streams(spec, shots, cnots, L)
            for name, ours, ref in zip(("shot", "gate", "code", "u", "flips"), got, expected):
                assert np.array_equal(ours, np.array(ref, dtype=ours.dtype)), (name, chunk)


#: numpy's 128-bit PCG64 multiplier
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


def _state_with_output(out_index, lo, inc=12345 << 1 | 1):
    """A PCG64 ``state`` whose output number ``out_index`` is ``lo``: the
    state after that output's step is (hi, lo) = (0, lo), and XSL-RR of a
    state with hi = 0 outputs lo.  Inverts the LCG steps."""
    back = pow(_PCG_MULT, -1, 1 << 128)
    state = lo
    for _ in range(out_index + 1):  # the state before the first output
        state = (state - inc) * back & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


class TestRejectedDraw:
    def test_zero_low_half_is_replayed(self, monkeypatch):
        # one CNOT flagged for sure: word 0 is its gap, word 1 its Pauli draw
        high = 0xDEADBEEF
        crafted = _state_with_output(1, high << 32)

        class CraftedPCG64(np.random.PCG64):
            """Every stream, whatever its seed, starts at the crafted state."""

            def __init__(self, seed=None):
                super().__init__(seed)
                self.state = {**crafted, "bit_generator": type(self).__name__}

        assert CraftedPCG64(0).random_raw(2)[1] == high << 32
        rng = np.random.Generator(CraftedPCG64(0))
        rng.random(1)
        code = rng.integers(1, 16)
        state = rng.bit_generator.state
        # the zero low half was thrown away and the high half of the same
        # word drawn instead: one word consumed, no half left in the buffer
        assert code == (high * 15 >> 32) + 1
        assert state["state"]["state"] == high << 32 and state["has_uint32"] == 0

        cnots, spec, L = np.array([True]), NoiseSpec(1.0, 0.0, 0.4, seed=0), 3
        expected = _generator_draws([np.random.Generator(CraftedPCG64(0))], cnots, spec, L)
        monkeypatch.setattr(np.random, "PCG64", CraftedPCG64)
        built = count_pcg64(monkeypatch)
        got = _read_streams(spec, 1, cnots, L)
        assert len(built) == 2  # the stream and one replay
        for ours, ref in zip(got, expected):
            assert np.array_equal(ours, np.array(ref, dtype=ours.dtype))

    @pytest.mark.parametrize("trial", range(3))
    def test_forced_rejections_keep_counts(self, monkeypatch, trial):
        monkeypatch.setattr(noise_mod, "_rejected", lambda m: np.arange(len(m)) % 3 == trial)
        circuit, start, _ = walk_setup(L=6, t=6, W=0.7)
        spec = NoiseSpec(**HIGH_NOISE, seed=700 + trial)
        expected = _replay_counts(circuit, start, spec, 200)
        built = count_pcg64(monkeypatch)
        assert run_noisy(circuit, start, spec, shots=200).counts == expected
        assert len(built) > 1  # replays beside the stream


class TestPauliRegion:
    def test_shipped_noise_draws_fewer_words(self, monkeypatch):
        widths = []

        class SizedPCG64(np.random.PCG64):
            def random_raw(self, size=None, output=True):
                widths.append(size)
                return super().random_raw(size, output)

        monkeypatch.setattr(np.random, "PCG64", SizedPCG64)
        monkeypatch.setattr(noise_mod, "_CHUNK_WORDS", 1)  # one row per draw
        circuit, start, _ = walk_setup(L=8, t=8)
        run_noisy(circuit, start, NoiseSpec(seed=4), 500)
        # 232 gates, about 1.2 flagged per shot: 14 gap words for the 168
        # CNOTs, 7 for the 64 rz, 7 Pauli, 1 measurement and 8 readout words;
        # one flag word per gate made it 232 + 7 + 1 + 8
        assert len(lower_swaps(circuit)) == 232
        assert set(widths) == {14 + 7 + 7 + 1 + 8}

    @pytest.mark.parametrize("probs", [
        "shipped_walk",
        np.full(232, 0.05),
        np.full(40, 0.3),
        np.full(2000, 0.001),
        np.full(5000, 0.02),
        np.array([0.0, 2.0**-53, 0.007, 0.5, 1.0] * 6),
    ], ids=["shipped_walk", "232_at_0.05", "40_at_0.3", "2000_at_0.001", "5000_at_0.02",
            "flag_edges"])
    def test_room_overflows_below_1e_9(self, probs):
        # the exact law of a shot's flagged-gate count, a sum of Bernoullis;
        # a class's gap room runs out only if its flagged count reaches it
        if isinstance(probs, str):
            circuit, _, _ = walk_setup(L=8, t=8)
            spec = NoiseSpec(seed=0)
            cnots = np.array([g.kind == "cnot" for g in lower_swaps(circuit).instructions])
            probs = np.where(cnots, spec.p_cnot, spec.p_1q)
        law = np.zeros(len(probs) + 1)
        law[0] = 1.0
        for p in probs:
            law[1:] = law[1:] * (1.0 - p) + law[:-1] * p
            law[0] *= 1.0 - p
        room = 2 * noise_mod._pauli_words(probs)
        assert law[room + 1:].sum() < 1e-9
        assert law[noise_mod._room(probs):].sum() < 1e-9

    def test_room_is_at_most_one_half_word_per_gate(self):
        assert noise_mod._pauli_words(np.zeros(0)) == 0
        assert noise_mod._room(np.zeros(5)) == 0  # a gate at p = 0 is never flagged
        for n in range(1, 41):
            assert noise_mod._pauli_words(np.ones(n)) == (n + 1) // 2  # never overflows
            # mean + 6 sd + 6 is 6.2 to 7.3 here: room for 8 gates once there are 7
            assert noise_mod._pauli_words(np.full(n, 1e-3)) == min((n + 1) // 2, 4)

    @pytest.mark.parametrize("pauli", [0, 1])
    @pytest.mark.parametrize("case", DECODE_CASES)
    def test_overflowing_shots_are_replayed(self, monkeypatch, case, pauli):
        monkeypatch.setattr(noise_mod, "_pauli_words", lambda probs: pauli)
        L, shots, seed = 5, 150, 9
        cnots, spec = decode_case(case, seed)
        width = stream_width(cnots, spec, L)
        expected = _generator_draws(
            (row_rng(seed, s, width) for s in range(shots)), cnots, spec, L)
        built = count_pcg64(monkeypatch)
        got = _read_streams(spec, shots, cnots, L)
        for name, ours, ref in zip(("shot", "gate", "code", "u", "flips"), got, expected):
            assert np.array_equal(ours, np.array(ref, dtype=ours.dtype)), name
        flagged = np.bincount(np.array(expected[0], dtype=int), minlength=shots)
        assert len(built) - 1 == np.count_nonzero((flagged + 1) // 2 > pauli)

    @pytest.mark.parametrize("kind", ["classical", "statevector"])
    def test_forced_overflow_keeps_counts(self, monkeypatch, kind):
        # the room sets the row width, so the reference reads rows of the
        # same width: every flagged shot is replayed past its row's end
        monkeypatch.setattr(noise_mod, "_pauli_words", lambda probs: 0)
        spec = NoiseSpec(**HIGH_NOISE, seed=41)
        if kind == "classical":
            circuit, start, _ = walk_setup(L=6, t=6, W=0.7)
            expected = _replay_counts(circuit, start, spec, 300)
        else:
            circuit, start, _ = _trotter_case(4)
            expected = _per_shot_counts(circuit, start, spec, 300)
        assert run_noisy(circuit, start, spec, shots=300).counts == expected


class TestGapSampler:
    CNOTS = np.array([True, False, False, True, True] * 8)

    @pytest.mark.parametrize("p_cnot, p_1q", [(0.3, 1.0), (1.0, 0.3), (0.3, 0.3)])
    def test_flag_frequencies_match_p(self, p_cnot, p_1q):
        shots = 20_000
        spec = NoiseSpec(p_cnot, p_1q, 0.0, seed=61)
        shot, gate, *_ = _read_streams(spec, shots, self.CNOTS, 3)
        flags = np.zeros((shots, len(self.CNOTS)))
        flags[shot, gate] = 1.0
        p = np.where(self.CNOTS, p_cnot, p_1q)
        sure = p == 1.0
        assert np.all(flags[:, sure] == 1.0)
        z = (flags.mean(axis=0) - p)[~sure] / np.sqrt(p * (1 - p) / shots)[~sure]
        assert np.all(np.abs(z) < 4), z
        # and pairwise independent, within a class and across the two
        pp = np.outer(p, p)[np.ix_(~sure, ~sure)]
        joint = (flags[:, ~sure].T @ flags[:, ~sure]) / shots
        off = ~np.eye(len(pp), dtype=bool)
        z = (joint - pp)[off] / np.sqrt(pp * (1 - pp) / shots)[off]
        assert np.all(np.abs(z) < 5), np.abs(z).max()

    @pytest.mark.parametrize("p_cnot, p_1q", [(0.0, 0.0), (0.0, 0.4), (0.4, 0.0)])
    def test_zero_probability_flags_nothing(self, p_cnot, p_1q):
        spec = NoiseSpec(p_cnot, p_1q, 0.1, seed=62)
        _, gate, *_ = _read_streams(spec, 2000, self.CNOTS, 3)
        zero = np.where(self.CNOTS, p_cnot, p_1q) == 0.0
        assert not zero[gate].any()
        assert len(gate) > 1000 or zero.all()

    @pytest.mark.parametrize("case", DECODE_CASES)
    def test_forced_gap_overflow_equals_generator_draws(self, monkeypatch, case):
        # a room of one gap word (and one Pauli word): a class is done after
        # it only if its first gap passes its last gate
        monkeypatch.setattr(noise_mod, "_room", lambda probs: 1)
        L, shots, seed = 5, 150, 10
        cnots, spec = decode_case(case, seed)
        width = stream_width(cnots, spec, L)
        expected = _generator_draws(
            (row_rng(seed, s, width) for s in range(shots)), cnots, spec, L)
        built = count_pcg64(monkeypatch)
        got = _read_streams(spec, shots, cnots, L)
        for name, ours, ref in zip(("shot", "gate", "code", "u", "flips"), got, expected):
            assert np.array_equal(ours, np.array(ref, dtype=ours.dtype)), name
        if sum(cnots) > 1 and spec.p_cnot > 0.0:
            assert len(built) > 1  # replays beside the stream

    @pytest.mark.parametrize("kind", ["classical", "statevector"])
    def test_forced_gap_overflow_keeps_counts(self, monkeypatch, kind):
        monkeypatch.setattr(noise_mod, "_room", lambda probs: 1)
        spec = NoiseSpec(**HIGH_NOISE, seed=42)
        if kind == "classical":
            circuit, start, _ = walk_setup(L=6, t=6, W=0.7)
            expected = _replay_counts(circuit, start, spec, 300)
        else:
            circuit, start, _ = _trotter_case(4)
            expected = _per_shot_counts(circuit, start, spec, 300)
        built = count_pcg64(monkeypatch)
        assert run_noisy(circuit, start, spec, shots=300).counts == expected
        assert len(built) > 100  # most shots overflow and are replayed


def whole_room_flags(spec, shots, cnots, L):
    """Reference gap decoder that takes a class's whole room at once: the
    positions of a row's room words are cumsum(gap + 1) - 1.  Returns the
    flagged (shot, gate) pairs within the rooms, in shot then gate order,
    and the shots with a class not done by its room's end (last position
    below n - 1), which the decoder replays."""
    width = stream_width(cnots, spec, L)
    raw = np.random.PCG64(spec.seed).random_raw(shots * width).reshape(shots, width)
    flags, over, first = [], set(), 0
    for idx, p in gate_classes(cnots, spec):
        if p == 0.0 or not len(idx):
            continue
        room = noise_mod._room(np.full(len(idx), p))
        u = 1.0 - (raw[:, first:first + room] >> 11) * 2.0**-53
        first += room
        log_q = math.log1p(-p) if p < 1.0 else -math.inf
        with np.errstate(over="ignore"):
            gaps = np.minimum(np.floor(np.log(u) / log_q), len(idx))
        pos = np.cumsum(gaps + 1.0, axis=1) - 1.0
        over |= set(np.flatnonzero(pos[:, -1] < len(idx) - 1).tolist())
        s, k = np.nonzero(pos < len(idx))
        flags += zip(s.tolist(), idx[pos[s, k].astype(np.int64)].tolist())
    return sorted(flags), over


class TestColumnDecoder:
    """``_read_streams`` decodes a class one gap word at a time over the
    shots still inside it; it flags what the whole-room formula flags and
    replays exactly the shots that formula leaves unfinished."""

    CNOTS = np.array([True, False, True, True, False] * 8)

    @pytest.mark.parametrize("room", [None, 2], ids=["shipped_room", "room_of_2"])
    @pytest.mark.parametrize("rows", [1, 7, 1771])
    @pytest.mark.parametrize("p", [2.0**-53, 7e-3, 0.3, 1.0], ids=["2^-53", "7e-3", "0.3", "1"])
    def test_matches_whole_room_reference(self, monkeypatch, p, rows, room):
        if room is not None:
            monkeypatch.setattr(noise_mod, "_room", lambda probs: room)
        L, shots, spec = 4, 2000, NoiseSpec(p, p, 0.05, seed=31)
        flags, over = whole_room_flags(spec, shots, self.CNOTS, L)
        k = np.bincount([s for s, _ in flags], minlength=shots)
        # no Lemire draw is rejected at this seed, so these are all replays
        pauli = noise_mod._pauli_words(np.full(len(self.CNOTS), p))
        replayed = over | set(np.flatnonzero((k + 1) // 2 > pauli).tolist())
        monkeypatch.setattr(noise_mod, "_CHUNK_WORDS", rows * stream_width(self.CNOTS, spec, L))
        built = count_pcg64(monkeypatch)
        shot, gate, *_ = _read_streams(spec, shots, self.CNOTS, L)
        assert len(built) == 1 + len(replayed)
        kept = ~np.isin(shot, list(replayed))
        assert list(zip(shot[kept].tolist(), gate[kept].tolist())) == [
            f for f in flags if f[0] not in replayed]
        if room is None:
            # a shot whose class ends on its last gate is done there, not replayed
            ends = (np.flatnonzero(self.CNOTS)[-1], np.flatnonzero(~self.CNOTS)[-1])
            assert not replayed
            assert any(j in ends for _, j in flags) == (p > 2.0**-53)
        else:
            assert bool(over) == (p > 2.0**-53)

    def test_shipped_walk_draws_are_pinned(self):
        # recorded from the whole-room decoder: the five arrays of 5000 shots
        # of the lowered L=8, t=8 walk at the shipped noise, seed 1
        circuit, _, _ = walk_setup(L=8, t=8)
        cnots = np.array([g.kind == "cnot" for g in lower_swaps(circuit).instructions])
        arrays = _read_streams(NoiseSpec(seed=1), 5000, cnots, 8)
        assert [a.dtype.str for a in arrays] == ["<i8", "<i8", "<u8", "<f8", "<i8"]
        digest = hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays))
        assert digest.hexdigest()[:16] == "266ea5e33a08d8a9"


def _streams_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


class TestStreamContract:
    """Shot s reads words [s * width, (s + 1) * width) of PCG64(seed)."""

    CNOTS = np.array([True, False, True, True, False] * 8)

    def test_shorter_run_is_a_prefix(self):
        L, spec = 6, NoiseSpec(0.05, 0.02, 0.05, seed=17)
        long = _read_streams(spec, 7000, self.CNOTS, L)
        short = _read_streams(spec, 5000, self.CNOTS, L)
        shot, gate, code, u, flips = long
        kept = shot < 5000
        assert _streams_equal(short, (shot[kept], gate[kept], code[kept], u[:5000], flips[:5000]))
        assert len(short[0]) > 1000  # both runs flag gates

    def test_chunk_size_does_not_matter(self, monkeypatch):
        # a room of one Pauli word overflows on 3 or more flagged gates,
        # here about half the shots; some are the last row of a 7-row chunk
        cnots = np.array([True, False, True, False])
        L, shots, seed = 4, 150, 23
        spec = NoiseSpec(0.75, 0.5, 0.1, seed=seed)
        monkeypatch.setattr(noise_mod, "_pauli_words", lambda probs: 1)
        width = stream_width(cnots, spec, L)
        expected = _generator_draws(
            (row_rng(seed, s, width) for s in range(shots)), cnots, spec, L)
        flagged = np.bincount(np.array(expected[0], dtype=int), minlength=shots)
        over = np.flatnonzero(flagged > 2)
        assert np.any(over % 7 == 6) and over[-1] == shots - 1
        outputs = []
        for rows in (1, 7, shots):
            monkeypatch.setattr(noise_mod, "_CHUNK_WORDS", rows * width)
            outputs.append(_read_streams(spec, shots, cnots, L))
        for got in outputs:
            assert _streams_equal(got, [np.array(r, dtype=g.dtype) for r, g in zip(expected, got)])

    @pytest.mark.parametrize("kind", ["classical", "statevector"])
    def test_noiseless_counts_are_inverse_cdf_of_default_rng(self, monkeypatch, kind):
        circuit, start, _ = walk_setup(L=6, t=3, W=0.7)
        if kind == "statevector":
            circuit = with_h(circuit)
        cumulative = np.cumsum(np.abs(simulate(circuit, basis_state(6, start)).amplitudes) ** 2)
        if kind == "classical":
            monkeypatch.setattr(noise_mod, "simulate", None)  # the fault table only
        u = np.random.default_rng(19).random(2000)
        index = np.minimum(np.searchsorted(cumulative, u, side="right"), len(cumulative) - 1)
        counts = run_noisy(circuit, start, NoiseSpec(0.0, 0.0, 0.0, seed=19), 2000).counts
        assert counts == dict(Counter(index.tolist()))

    def test_noiseless_uniforms_are_default_rng(self):
        shot, _, _, u, flips = _read_streams(
            NoiseSpec(0.0, 0.0, 0.0, seed=8), 3000, np.ones(12, dtype=bool), 5)
        assert len(shot) == 0 and not flips.any()
        assert np.array_equal(u, np.random.default_rng(8).random(3000))


class TestCallCount:
    def test_one_bit_generator_and_one_raw_call_per_shot(self, monkeypatch):
        built, raw_calls, generators = [], [], []

        class CountingPCG64(np.random.PCG64):
            def __init__(self, seed=None):
                built.append(1)
                super().__init__(seed)

            def random_raw(self, size=None, output=True):
                raw_calls.append(1)
                return super().random_raw(size, output)

        real_generator = np.random.Generator
        monkeypatch.setattr(np.random, "PCG64", CountingPCG64)
        monkeypatch.setattr(
            np.random, "Generator", lambda bg: generators.append(1) or real_generator(bg))
        circuit, start, _ = walk_setup(L=8, t=8)
        shots = 300
        run_noisy(circuit, start, NoiseSpec(**HIGH_NOISE, seed=3), shots)
        assert not generators
        assert len(built) <= shots and len(raw_calls) <= shots

    @pytest.mark.parametrize("pauli", [None, 0], ids=["shipped", "every_flagged_shot_replayed"])
    def test_one_bit_generator_per_point_and_replay(self, monkeypatch, pauli):
        # a bit generator seeded per shot would build 7000 of them
        circuit, start, _ = walk_setup(L=8, t=8)
        spec, shots = NoiseSpec(seed=3), 7000
        replayed = 0
        if pauli is not None:
            monkeypatch.setattr(noise_mod, "_pauli_words", lambda probs: pauli)
            gates = lower_swaps(circuit).instructions
            cnots = np.array([g.kind == "cnot" for g in gates])
            shot = _read_streams(spec, shots, cnots, 8)[0]
            replayed = len(np.unique(shot))
            assert replayed > 1000
        built = count_pcg64(monkeypatch)
        run_noisy(circuit, start, spec, shots)
        assert len(built) == 1 + replayed


class TestExactExpectation:
    def test_sampled_site_signs_match_fault_table_product(self):
        # E[(-1)^bit_i] = (-1)^clean_i prod_j (1 - 2 p_j q_ji) (1 - 2 p_ro),
        # q_ji the share of gate j's Pauli codes whose flip sets bit i
        L, start, shots = 6, 1, 20_000
        circuit, _, _ = walk_setup(L=L, t=1, W=0.7)
        spec = NoiseSpec(p_cnot=0.3, p_1q=0.1, p_readout=0.05, seed=44)
        gates = lower_swaps(circuit).instructions
        masks, clean = _fault_table(gates, L, start)
        sites = np.arange(L)
        expected = (-1.0) ** ((clean >> sites) & 1) * (1 - 2 * spec.p_readout)
        for j, g in enumerate(gates):
            codes = range(1, 16) if g.kind == "cnot" else range(1, 4)
            p = spec.p_cnot if g.kind == "cnot" else spec.p_1q
            flips = [(masks[j][0] if (c & 3) in (1, 2) else 0)
                     ^ (masks[j][1] if (c >> 2) in (1, 2) else 0) for c in codes]
            q = np.mean([(f >> sites) & 1 for f in flips], axis=0)
            expected *= 1 - 2 * p * q
        counts = run_noisy(circuit, start, spec, shots).counts
        signs = np.zeros(L)
        for index, n in counts.items():
            signs += n * (1.0 - 2.0 * ((index >> np.arange(L)) & 1))
        sampled = signs / shots
        z = (sampled - expected) / np.sqrt((1 - expected**2) / shots)
        # the world line's bits are near 0 here, the others near +-0.25
        assert np.max(np.abs(expected)) > 0.2 and np.all(np.abs(z) < 4), z


class TestErrorModel:
    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            NoiseSpec(p_cnot=1.5)
        with pytest.raises(ValueError):
            NoiseSpec(p_readout=-0.1)

    @pytest.mark.parametrize("seed", [-1, -(2**40), 2.5, "3", None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError):
            NoiseSpec(seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 1, 2**200, np.int64(7), np.uint64(2**63)],
                             ids=["0", "2^32", "2^64+1", "2^200", "int64", "uint64"])
    def test_good_seed_accepted(self, seed):
        spec = NoiseSpec(0.0, 0.0, 0.0, seed=seed)
        u = _read_streams(spec, 50, np.ones(3, dtype=bool), 2)[3]
        assert np.array_equal(u, np.random.default_rng(int(seed)).random(50))

    def test_zero_shots_rejected(self):
        circuit, start, _ = walk_setup(t=1)
        with pytest.raises(ValueError):
            run_noisy(circuit, start, ZERO_NOISE, shots=0)

    @pytest.mark.parametrize("start", [-1, 1 << 8, 1 << 9])
    def test_start_out_of_range_rejected(self, start):
        circuit, _, _ = walk_setup(L=8, t=1)
        for sampled in (circuit, with_h(circuit)):  # the classical and the dense path
            with pytest.raises(IndexError):
                run_noisy(sampled, start, ZERO_NOISE, shots=10)

    def test_classical_walk_allocates_no_dense_state(self, monkeypatch):
        # the fault table follows the start as a basis index: at L = 24 a
        # dense state would be 2^24 amplitudes (256 MiB)
        L, t, shots = 24, 2, 50
        circuit, start, _ = walk_setup(L=L, t=t, W=0.7)
        spec = NoiseSpec(**HIGH_NOISE, seed=24)
        expected = _replay_counts(circuit, start, spec, shots)

        def refuse(*args, **kwargs):
            raise AssertionError("2^L amplitudes allocated")

        monkeypatch.setattr(noise_mod, "basis_state", refuse)
        monkeypatch.setattr(noise_mod, "simulate", refuse)
        assert run_noisy(circuit, start, spec, shots).counts == expected

    def test_noisy_walk_peak_in_golden_interval(self):
        # frozen from repeated runs at these settings (observed 0.377..0.385)
        circuit, start, target = walk_setup(L=8, t=8)
        spec = NoiseSpec(p_cnot=0.01, p_1q=3e-4, p_readout=1e-2, seed=1)
        result = run_noisy(circuit, start, spec, shots=5000)
        peak = peak_amplitude(post_process(site_density_counts(result, 8)), target)
        assert 0.33 < peak < 0.43

    def test_readout_flips_touch_every_qubit(self):
        circuit = Circuit(4, ())
        spec = NoiseSpec(0.0, 0.0, 0.5, seed=8)
        result = run_noisy(circuit, 1, spec, shots=2000)
        density = site_density_counts(result, 4)
        # site 0 starts occupied, others empty; all should move toward 1/2
        assert 0.4 < density[0] < 0.6
        assert all(0.4 < p < 0.6 for p in density[1:])

    def test_peak_amplitude_monotone_in_each_probability(self):
        circuit, start, target = walk_setup(L=8, t=6)
        base = dict(p_cnot=4e-3, p_1q=4e-4, p_readout=5e-3)
        shots = 3000

        def peak(**kwargs):
            spec = NoiseSpec(**{**base, **kwargs}, seed=12)
            result = run_noisy(circuit, start, spec, shots=shots)
            return peak_amplitude(post_process(site_density_counts(result, 8)), target)

        sigma2 = 2 * np.sqrt(0.25 / shots)
        for knob, values in (
            ("p_cnot", (0.0, 5e-3, 2e-2)),
            ("p_1q", (0.0, 2e-3, 1e-2)),
            ("p_readout", (0.0, 1e-2, 5e-2)),
        ):
            amps = [peak(**{knob: v}) for v in values]
            assert amps[0] >= amps[1] - sigma2, knob
            assert amps[1] >= amps[2] - sigma2, knob


class TestPostProcessingBenefit:
    def test_mitigated_peak_beats_sector_discard_every_seed(self):
        circuit, start, target = walk_setup(L=8, t=8)
        for seed in (11, 22, 33):
            spec = NoiseSpec(p_cnot=7e-3, p_1q=3e-4, p_readout=1e-2, seed=seed)
            result = run_noisy(circuit, start, spec, shots=5000)
            pp = post_process(site_density_counts(result, 8))
            restricted = restricted_site_density_counts(result, 8)
            assert peak_amplitude(pp, target) > peak_amplitude(restricted, target)


class TestShotResult:
    def test_shots_is_the_sum_of_counts(self):
        result = ShotResult({2: 3, 1: 7}, 2)
        assert result.shots == 10
        result.counts[0] = 5
        assert result.shots == 15


class TestDecaySweep:
    def test_zero_noise_gives_unit_amplitude(self):
        rows = amplitude_decay_sweep([(6, t) for t in (1, 3, 5)], ZERO_NOISE, shots=50)
        assert [a for _, a in rows] == [1.0, 1.0, 1.0]

    def test_amplitude_non_increasing_in_steps(self):
        spec = NoiseSpec(p_cnot=7e-3, p_1q=3e-4, p_readout=1e-2, seed=2)
        rows = amplitude_decay_sweep(
            [(8, t) for t in (2, 4, 6, 8)], spec, shots=2000, n_seeds=2
        )
        amps = [a for _, a in rows]
        sigma2 = 2 * np.sqrt(0.25 / (2000 * 2))
        assert all(a >= b - sigma2 for a, b in zip(amps, amps[1:]))

    def test_rows_follow_the_order_of_the_walks(self):
        rows = amplitude_decay_sweep([(4, 5), (4, 1), (6, 6), (4, 3)], ZERO_NOISE, shots=20)
        assert [x for x, _ in rows] == [5, 1, 6, 3]

    def test_no_walks_give_no_rows(self):
        assert amplitude_decay_sweep([], ZERO_NOISE) == []
