"""Monte-Carlo emulation of a noisy processor: per-gate Pauli errors,
readout flips, and shot-level trajectory sampling.

Error model: after each gate, with the per-gate-class probability, a
uniformly chosen non-identity Pauli is inserted on the gate's qubits
(15 choices after a CNOT, 3 after a single-qubit gate).  Readout applies
an independent classical flip per qubit.  SWAPs are lowered to their
three CNOTs first, so the two-qubit error probability applies per
physical CNOT.

Fault table: rz and CNOT map basis indices to basis indices, linearly over
GF(2), so an X or Y fault after gate j flips a fixed mask of the final
index (a Pauli frame, as in Stim).  One backward pass over the gates gives
every mask and the clean final index of the start's basis index; a shot
then costs its random draws plus one XOR per X/Y fault, and no 2^L array.

Trajectory batch: any other circuit runs on dense amplitudes from the
start's basis state, in the two-qubit blocks of ``circuits.fuse_blocks``.
Every shot's stream is read first; the faulty shots, in order of first
fault, are then rows of one (rows, 2^L) array whose row 0 is the clean
trajectory, so each block is one kernel call on all active rows.  A Pauli
P after gate j of block B is the correction B Pre_j^+ P Pre_j B^+ after B,
Pre_j being B's product through gate j.  A batch holds about 2^20
amplitudes at most (16 MiB); a larger run is evolved in chunks of 2^20 >>
L faulty rows, at least one, so past L = 20 a batch is the clean row and
one faulty row.

Determinism: shot s of a point reads row s of one stream, words
[s * width, (s + 1) * width) of ``np.random.PCG64(seed)``, in a fixed
order (the gap words of each gate class, Pauli codes of the flagged gates,
the measurement uniform, readout flips), ``width`` words being room for
all of them (see below).  So an outcome depends only on the seed, s, the
circuit and the noise, and a shorter run's shots are a prefix of a longer
run's.  With all probabilities zero a row is one word: shot s's uniform is
``np.random.default_rng(seed).random(shots)[s]``, exactly what the
noiseless reference sampler ``sample_bitstrings`` in the tests draws.

Stream decoding: faults are drawn per gate class, the CNOTs at p_cnot and
all other gates at p_1q, by skipping to the next fault as Stim does for
low-rate noise.  A gap word's 53-bit uniform u = 1 - (x >> 11) 2^-53, in
(0, 1], gives ``floor(log(u) / log1p(-p))`` unflagged gates of the class
before its next flagged one; so p = 1 flags every gate, and a class at
p = 0 draws nothing.  A class is decoded one gap word at a time, over only
the rows still short of its last gate: about 3 of the 21 gap words of a
shot of the shipped L=8, t=8 walk.  The flagged gates of both classes are
merged in gate order.  A Pauli code is then a Lemire draw on the 32-bit
halves after the gap words, low half first, one per flagged gate in gate
order; the measurement starts on the next whole word.  Both paths draw a
chunk of rows, at most 2^18 words (every shipped point is one chunk), with
one ``random_raw`` call and decode its draws with array operations over
the chunk, bit for bit as a ``Generator`` reading the row makes them.  A
row holds room for far more flagged gates than the probabilities make
likely (``_room``), not one per gate: that many gap words per class, and
Pauli words for that many codes.  A shot whose class is not done by the
end of its gap room, with more flagged gates than its Pauli room, or with
a rejected Lemire draw (probability 2^-32 each), is read again through a
``Generator`` on the stream advanced to its row, which reads on past the
room's end: such a shot, about 1e-9 of shots, shares words with shot s + 1.
"""
from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .circuits import (
    Circuit, PotentialProfile, build_fcqw_walk, fuse_blocks, lower_swaps, simulate)
from .observables import peak_amplitude, post_process, site_density_counts
from .statevec import (
    PAULI_MATRICES,
    apply_matrix_inplace,
    basis_state,
    derived_seed,
    sample_index,
)

#: gate kinds that map basis indices to basis indices, for the fault table
INDEX_KINDS = ("rz", "cnot")

# amplitudes per batch of faulty trajectories (16 MiB)
_BATCH_AMPLITUDES = 1 << 20

# raw stream words decoded per chunk of shots (2 MiB): one chunk for every
# shipped point, whose largest is 7000 shots x 37 words
_CHUNK_WORDS = 1 << 18

#: matrix of the Pauli codes on a gate's targets, in ``gate_matrix``'s basis
_PAULI_OPS = {(c,): p for c, p in enumerate(PAULI_MATRICES)} | {
    (c0, c1): np.kron(p1, p0)
    for c0, p0 in enumerate(PAULI_MATRICES) for c1, p1 in enumerate(PAULI_MATRICES)}


@dataclass(frozen=True)
class NoiseSpec:
    """Per-gate-class Pauli error probabilities, readout flip probability,
    and the base RNG seed.  Defaults are round numbers of NISQ magnitude;
    they are knobs, not device claims."""

    p_cnot: float = 7e-3
    p_1q: float = 3e-4
    p_readout: float = 1e-2
    seed: int = 0

    def __post_init__(self):
        for name in ("p_cnot", "p_1q", "p_readout"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        # PCG64(None) would seed from the OS, PCG64(2.5) raise a TypeError
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass
class ShotResult:
    """Aggregated measurement outcomes on ``num_qubits`` sites: basis index
    (bit i = site i) -> count, in order of each index's first shot; the
    shot total is the sum of the counts."""

    counts: dict[int, int]
    num_qubits: int

    @property
    def shots(self) -> int:
        return sum(self.counts.values())


def _fault_table(gates, L: int, start_index: int) -> tuple[np.ndarray, int]:
    """Final-index flip of an X (or Y) after each gate, per target qubit
    (an (n, 2) array, 0 for a one-qubit gate's missing second target), and
    the clean final index, from one backward pass over rz/cnot gates.

    ``col[q]`` is the final-index flip that an X on qubit q causes from the
    current point on.  X_c before CNOT(c, t) equals X_c X_t after it, so
    each CNOT does ``col[c] ^= col[t]``; rz leaves indices alone.
    """
    col = [1 << q for q in range(L)]
    masks = [(0, 0)] * len(gates)
    for j in range(len(gates) - 1, -1, -1):
        g = gates[j]
        masks[j] = (col[g.targets[0]], col[g.targets[1]] if g.kind == "cnot" else 0)
        if g.kind == "cnot":
            c, t = g.targets
            col[c] ^= col[t]
    clean = 0
    for q in range(L):
        if (start_index >> q) & 1:
            clean ^= col[q]
    return np.array(masks, dtype=np.int64).reshape(-1, 2), clean


def _rejected(m: np.ndarray) -> np.ndarray:
    """Lemire products ``v * 15`` (``v * 3``) that ``integers(1, 16)``
    (``integers(1, 4)``) throws away for a redraw: low half below
    ``(2^32 - 15) mod 15`` (``(2^32 - 3) mod 3``), which is 1 for both."""
    return (m & 0xFFFFFFFF) == 0


def _room(probs: np.ndarray) -> int:
    """Flagged gates a row has room for among gates flagged with
    probabilities ``probs``: the mean plus 6 sd plus 6, at most one per
    gate with p > 0; a Poisson count reaches that with probability below
    1e-9 at any mean."""
    probs = probs[probs > 0.0]
    mean, var = probs.sum(), (probs * (1.0 - probs)).sum()
    return min(len(probs), math.ceil(mean + 6.0 * math.sqrt(var) + 6.0))


def _pauli_words(probs: np.ndarray) -> int:
    """Words read per shot for its Pauli draws, two a word."""
    return (_room(probs) + 1) // 2


def _step(pos, u, p: float, n: int):
    """Positions in a class of n gates flagged at p one gap word on from
    ``pos``: past floor(log(u) / log1p(-p)) unflagged gates, u in (0, 1]
    being the word's uniform, cut to n; floats, exact below 2^53."""
    log_q = math.log1p(-p) if p < 1.0 else -math.inf
    with np.errstate(over="ignore"):  # a tiny p's gap may be inf before the cut
        return pos + 1.0 + np.minimum(np.floor(np.log(u) / log_q), n)


def _replay(rng: np.random.Generator, classes, choices: np.ndarray, readout: int,
            p_readout: float):
    """One shot's draws as ``rng``, at its row, reads them: each class's
    room of gap words and past it one at a time until the class's last
    gate is reached, a Pauli code per flagged gate in gate order, the
    measurement uniform and the readout flip mask."""
    flagged = []
    for idx, p, room in classes:
        u, pos = list(1.0 - rng.random(room)), -1.0
        while pos < len(idx) - 1:
            pos = _step(pos, u.pop(0) if u else 1.0 - rng.random(), p, len(idx))
            if pos < len(idx):
                flagged.append(idx[int(pos)])
    flagged.sort()
    codes = [rng.integers(1, 1 + int(choices[j])) for j in flagged]
    draws = rng.random(1 + readout)
    return flagged, codes, draws[0], (draws[1:] < p_readout) @ (1 << np.arange(readout))


def _read_streams(spec: NoiseSpec, shots: int, cnots: np.ndarray, L: int):
    """The draws of shots ``0 .. shots - 1`` of the gates (``cnots`` marks
    the CNOTs) under ``spec`` (see "Stream decoding" above): arrays (shot,
    gate, code) of the flagged gates in shot then gate order with their
    Pauli codes (1-15 after a CNOT, 1-3 otherwise), and per shot the
    measurement uniform and the readout flip mask."""
    probs = np.where(cnots, spec.p_cnot, spec.p_1q)
    # (gate indices, p, room of gap words) of each class that draws
    classes = [(idx, p, _room(probs[idx])) for idx, p in (
        (np.flatnonzero(cnots), spec.p_cnot), (np.flatnonzero(~cnots), spec.p_1q))
        if p > 0.0 and len(idx)]
    gap_words = sum(room for _, _, room in classes)
    pauli = _pauli_words(probs)
    readout = L if spec.p_readout > 0.0 else 0
    width = gap_words + pauli + 1 + readout
    ro_below = math.ceil(spec.p_readout * 2.0**53)
    choices = np.where(cnots, 15, 3).astype(np.uint64)
    weights = 1 << np.arange(readout)
    rows = max(1, _CHUNK_WORDS // width)
    stream = np.random.PCG64(spec.seed)
    parts = []
    for c in range(0, shots, rows):
        raw = stream.random_raw(min(rows, shots - c) * width).reshape(-1, width)
        here = np.arange(len(raw))
        shot, gate, over, first = [here[:0]], [here[:0]], [], 0
        for idx, p, room in classes:
            act, pos = here, np.full(len(raw), -1.0)
            for j in range(first, first + room):
                pos = _step(pos, 1.0 - (raw[act, j] >> 11) * 2.0**-53, p, len(idx))
                hit = pos < len(idx)
                shot.append(act[hit])
                gate.append(idx[pos[hit].astype(np.int64)])
                more = pos < len(idx) - 1
                act, pos = act[more], pos[more]
                if not len(act):
                    break
            first += room
            over.append(act)
        shot, gate = np.concatenate(shot), np.concatenate(gate)
        order = np.argsort(shot * len(cnots) + gate, kind="stable")  # merge the classes
        shot, gate = shot[order], gate[order]
        k = np.bincount(shot, minlength=len(raw))
        rank = np.arange(len(shot)) - (np.cumsum(k) - k)[shot]
        # an overflowing shot reads words in range here and is replayed below
        word = np.minimum(rank // 2, pauli) + gap_words
        half = raw[shot, word] >> (rank % 2 * 32).astype(np.uint64) & 0xFFFFFFFF
        m = half * choices[gate]
        code = (m >> 32) + 1
        at = np.minimum((k + 1) // 2, pauli) + gap_words
        # each row's measurement word and readout words, in one gather
        words = np.lib.stride_tricks.sliding_window_view(raw, readout + 1, axis=1)[here, at]
        u = (words[:, 0] >> 11) * 2.0**-53
        flips = ((words[:, 1:] >> 11) < ro_below) @ weights
        replayed = np.unique(np.concatenate(
            over + [shot[_rejected(m)], np.flatnonzero((k + 1) // 2 > pauli)]))
        if len(replayed):
            keep = ~np.isin(shot, replayed)
            shot, gate, code = [shot[keep]], [gate[keep]], [code[keep]]
            for s in replayed:
                rng = np.random.Generator(np.random.PCG64(spec.seed).advance(int(c + s) * width))
                flagged, codes, u[s], flips[s] = _replay(
                    rng, classes, choices, readout, spec.p_readout)
                shot.append(np.full(len(flagged), s))
                gate.append(np.array(flagged, dtype=np.int64))
                code.append(np.array(codes, dtype=np.uint64))
            order = np.argsort(np.concatenate(shot), kind="stable")
            shot, gate, code = (np.concatenate(a)[order] for a in (shot, gate, code))
        parts.append((shot + c, gate, code, u, flips))
    return tuple(np.concatenate(a) for a in zip(*parts))


def _evolve_faulty(initial: np.ndarray, blocks, L: int, faults_per_row) -> np.ndarray:
    """Final amplitudes of faulty trajectories, one row each, given each
    row's (gate, Pauli codes) faults with rows in order of first fault.

    Row 0 of the batch is the clean trajectory.  Each block is applied
    once to the active rows, a C-contiguous prefix that the kernel sees as
    one vector with extra high bits; a row becomes active as a copy of the
    clean row after the block of its first fault, and takes each fault of a
    block as that block's correction (``Block.pushed_through``), in order.
    """
    # (block, position in the block) of every gate
    owner = [(b, pos) for b, block in enumerate(blocks) for pos in range(block.size)]
    batch = np.empty((len(faults_per_row) + 1, 1 << L), dtype=complex)
    batch[0] = initial
    firsts = [owner[faults[0][0]][0] for faults in faults_per_row]
    corrections: dict[int, list] = {}
    for row, faults in enumerate(faults_per_row, 1):
        for j, codes in faults:
            b, pos = owner[j]
            corrections.setdefault(b, []).append((row, pos, _PAULI_OPS[codes]))
    active = 1
    for b, block in enumerate(blocks):
        apply_matrix_inplace(batch[:active].reshape(-1), block.qubits, block.matrix)
        if b in corrections:
            end = 1 + bisect_right(firsts, b)
            batch[active:end] = batch[0]
            active = end
            for row, pos, pauli in corrections[b]:
                k = block.pushed_through(pos, pauli)
                apply_matrix_inplace(batch[row], block.qubits, k)
    return batch[1:]


def run_noisy(
    circuit: Circuit,
    start: int,
    spec: NoiseSpec,
    shots: int,
) -> ShotResult:
    """Sample measurement outcomes of the circuit under the noise model,
    each shot started on the basis state of index ``start`` (bit i = site i).

    Each shot evolves a fresh trajectory.  Circuits built from rz/swap/cnot
    map basis states to basis states, so those shots XOR fault-table masks
    into the clean final index; any other circuit runs on dense amplitudes,
    one kernel call per fused block, with the faulty shots evolved together
    as rows of one batch, each a copy of the clean trajectory after its
    first fault's block, corrected for each fault.  Both paths read the
    same decoded streams: the gap draws of each gate class (skipped for a
    class whose probability is zero), one Pauli draw per flagged gate in
    order, one uniform for the measurement, and the readout flips (skipped
    when p_readout is zero).
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if not 0 <= start < 1 << circuit.num_qubits:
        raise IndexError(f"basis index {start} out of range for L={circuit.num_qubits}")
    lowered = lower_swaps(circuit)
    gates = lowered.instructions
    L = lowered.num_qubits
    cnots = np.array([g.kind == "cnot" for g in gates], dtype=bool)
    shot, gate, code, u, flips = _read_streams(spec, shots, cnots, L)
    if all(g.kind in INDEX_KINDS for g in gates):
        masks, clean = _fault_table(gates, L, start)
        index = np.full(shots, clean, dtype=np.int64)
        # an X (1) or Y (2) on a target flips its mask; codes are c0 + 4 c1
        xy0, xy1 = ((c == 1) | (c == 2) for c in (code & 3, code >> 2))
        np.bitwise_xor.at(index, shot, masks[gate, 0] * xy0 ^ masks[gate, 1] * xy1)
        indices = index ^ flips
    else:
        # the clean final state, for the fault-free shots; its own call, as
        # perfbench's trace tells a statevector run by this child span.  Its
        # fusion of ``lowered`` is cached on it, so the batch reuses the blocks
        initial = basis_state(L, start)
        final = simulate(lowered, initial)
        clean_cumulative = np.cumsum(np.abs(final.amplitudes) ** 2)
        samples = np.searchsorted(clean_cumulative, u, side="right")
        indices = np.minimum(samples, len(clean_cumulative) - 1) ^ flips
        faults: dict[int, list] = {}  # (gate, Pauli codes per target) per faulty shot
        for s, j, c in zip(shot.tolist(), gate.tolist(), code.tolist()):
            faults.setdefault(s, []).append((j, (c & 3, c >> 2) if cnots[j] else (c,)))
        faulty = sorted((row[0][0], s) for s, row in faults.items())
        blocks = fuse_blocks(lowered)
        rows = max(1, _BATCH_AMPLITUDES >> L)
        for c in range(0, len(faulty), rows):
            chunk = [s for _, s in faulty[c:c + rows]]
            states = _evolve_faulty(initial.amplitudes, blocks, L, [faults[s] for s in chunk])
            for s, cumulative in zip(chunk, np.cumsum(np.abs(states) ** 2, axis=1)):
                indices[s] = sample_index(cumulative, u[s]) ^ int(flips[s])
    values, first, n = np.unique(indices, return_index=True, return_counts=True)
    order = np.argsort(first)  # each index at its first shot (``ShotResult``)
    return ShotResult(dict(zip(values[order].tolist(), n[order].tolist())), L)


def noisy_point(circuit: Circuit, start_site: int, spec: NoiseSpec, shots: int, *key: int):
    """Raw and post-processed site densities of ``shots`` shots of the
    circuit from one particle on ``start_site``, and the shots.  The stream
    is seeded by spec.seed and the point's ``key`` (``derived_seed``).
    When no shot saw the particle both densities are zeros, which the
    run's checks reject."""
    seed = derived_seed(spec.seed, *key)
    result = run_noisy(circuit, 1 << start_site, replace(spec, seed=seed), shots)
    raw = site_density_counts(result, circuit.num_qubits)
    return raw, post_process(raw) if raw.any() else raw, result


def amplitude_decay_sweep(walks, spec: NoiseSpec, start_site: int = 0, shots: int = 2000,
                          n_seeds: int = 1) -> list[tuple[int, float]]:
    """Mean post-processed peak amplitude of the noisy chiral walk, one
    (t, mean amplitude) row per (L, t) walk in ``walks``, in their order.

    Each walk runs t steps on L sites at W = 0, and averages the peak
    amplitude over ``n_seeds`` independent runs of ``shots`` shots, seeded
    by spec.seed, t and the run's index; so walks with equal t share their
    streams.
    """
    rows = []
    for size, steps in walks:
        circuit = build_fcqw_walk(size, PotentialProfile.uniform(size, 0.0), steps)
        target = (start_site + steps) % size
        amps = [peak_amplitude(noisy_point(circuit, start_site, spec, shots, steps, k)[1], target)
                for k in range(n_seeds)]
        rows.append((steps, float(np.mean(amps))))
    return rows
