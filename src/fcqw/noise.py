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
every mask and the clean final index; a shot on a basis-state start then
costs its random draws plus one XOR per X/Y fault.

Trajectory batch: any other circuit or start runs on dense amplitudes,
in the two-qubit blocks of ``circuits.fuse_blocks``.  Every shot's stream
is read first; the faulty shots, in order of first fault, are then rows
of one (rows, 2^L) array whose row 0 is the clean trajectory, so each
block is one kernel call on all active rows.  A Pauli P after gate j of
block B is the correction B Pre_j^+ P Pre_j B^+ after B, Pre_j being B's
product through gate j.  A batch holds about 2^20 amplitudes at most
(16 MiB); a larger run is evolved in chunks of 2^20 >> L faulty rows, at
least one, so past L = 20 a batch is the clean row and one faulty row.

Determinism: shot s draws from its own substream SeedSequence(seed, (s,))
in a fixed order (error flags, Pauli codes of the flagged gates, the
measurement uniform, readout flips), so its outcome depends only on the
seed, s and the circuit.  With all probabilities zero, each shot consumes
a single uniform for the measurement, exactly matching
``statevec.sample_bitstrings``.  The streams of a run are seeded in one
batch (``statevec.shot_words``), which gives every shot the same stream
as ``statevec.shot_rng(seed, s)``.

Stream decoding: both paths read a shot's stream as raw PCG64 words (one
bit generator and one C call per shot, ``statevec.raw_words``) and decode
the draws of a chunk of shots with whole-array operations, bit for bit as
numpy's ``Generator`` makes them.  A uniform is ``(x >> 11) 2^-53``, so
``u < p`` is an integer compare; a Pauli code is a Lemire draw on the
32-bit halves after the flags, low half first; the measurement starts on
the next whole word.  A shot with a rejected Lemire draw (probability
2^-32 each) is read again through a ``Generator``.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .circuits import (
    Circuit, PotentialProfile, build_fcqw_walk, fuse_blocks, lower_swaps, simulate)
from .observables import peak_amplitude, post_process, site_density_counts
from .statevec import (
    PAULI_MATRICES,
    StateVector,
    apply_matrix_inplace,
    derived_seed,
    index_to_bitstring,
    one_hot_state,
    raw_words,
    sample_index,
    shot_words,
    words_rng,
)

SWEEP_AXES = ("steps_at_fixed_L", "size_with_t_equals_L")

# amplitudes per batch of faulty trajectories (16 MiB)
_BATCH_AMPLITUDES = 1 << 20

# raw stream words decoded per chunk of shots (0.5 MiB)
_CHUNK_WORDS = 1 << 16

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

    def replace_seed(self, seed: int) -> "NoiseSpec":
        return NoiseSpec(self.p_cnot, self.p_1q, self.p_readout, seed)


@dataclass
class ShotResult:
    """Aggregated measurement outcomes: bitstring -> count."""

    counts: dict[str, int]
    shots: int

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts must sum to the shot total")

    def to_json(self) -> str:
        return json.dumps(
            {"shots": self.shots, "counts": dict(sorted(self.counts.items()))}
        )

    @classmethod
    def from_json(cls, text: str) -> "ShotResult":
        data = json.loads(text)
        return cls(counts=dict(data["counts"]), shots=int(data["shots"]))


def _basis_index(state: StateVector) -> int | None:
    """Basis index if the state is (exactly) a computational basis state."""
    nz = np.flatnonzero(state.amplitudes)
    if len(nz) == 1:
        return int(nz[0])
    return None


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


def _read_streams(words: np.ndarray, probs: np.ndarray, cnots: np.ndarray,
                  p_readout: float, L: int):
    """Every shot's draws (see "Stream decoding" above): arrays (shot, gate,
    code) of the flagged gates in shot then gate order with their Pauli
    codes (1-15 after a CNOT, 1-3 otherwise), and per shot the measurement
    uniform and the readout flip mask."""
    n = len(probs) if np.any(probs > 0.0) else 0
    readout = L if p_readout > 0.0 else 0
    width = n + (n + 1) // 2 + 1 + readout
    below = np.ceil(probs[:n] * 2.0**53).astype(np.uint64)
    ro_below = math.ceil(p_readout * 2.0**53)
    choices = np.where(cnots, 15, 3).astype(np.uint64)
    weights = 1 << np.arange(readout)
    rows = max(1, _CHUNK_WORDS // width)
    parts = []
    for c in range(0, len(words), rows):
        raw = raw_words(words[c:c + rows], width)
        here = np.arange(len(raw))
        shot, gate = divmod(np.flatnonzero((raw[:, :n] >> 11) < below), n)
        k = np.bincount(shot, minlength=len(raw))
        rank = np.arange(len(shot)) - (np.cumsum(k) - k)[shot]
        half = raw[shot, n + rank // 2] >> (rank % 2 * 32).astype(np.uint64) & 0xFFFFFFFF
        m = half * choices[gate]
        code = (m >> 32) + 1
        at = n + (k + 1) // 2
        u = (raw[here, at] >> 11) * 2.0**-53
        flips = ((raw[here[:, None], at[:, None] + 1 + np.arange(readout)] >> 11)
                 < ro_below) @ weights
        for s in np.unique(shot[_rejected(m)]):
            rng = words_rng(words[c + s])
            rng.random(n)
            mine = shot == s
            code[mine] = [rng.integers(1, 1 + int(choices[j])) for j in gate[mine]]
            draws = rng.random(1 + readout)
            u[s], flips[s] = draws[0], (draws[1:] < p_readout) @ weights
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
    initial: StateVector,
    spec: NoiseSpec,
    shots: int,
) -> ShotResult:
    """Sample measurement outcomes of the circuit under the noise model.

    Each shot evolves a fresh trajectory.  Circuits built from rz/swap/cnot
    acting on a basis state map basis states to basis states, so those
    shots XOR fault-table masks into the clean final index; anything else
    runs on dense amplitudes, one kernel call per fused block, with the
    faulty shots evolved together as rows of one batch, each a copy of the
    clean trajectory after its first fault's block, corrected for each
    fault.  Both paths read the same decoded streams: the per-gate error
    flags (skipped when both gate probabilities are zero), one Pauli draw
    per flagged gate in order, one uniform for the measurement, and the
    readout flips (skipped when p_readout is zero).
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if initial.num_qubits != circuit.num_qubits:
        raise ValueError("initial state and circuit width differ")
    lowered = lower_swaps(circuit)
    gates = lowered.instructions
    L = lowered.num_qubits
    cnots = np.array([g.kind == "cnot" for g in gates], dtype=bool)
    gate_probs = np.where(cnots, spec.p_cnot, spec.p_1q)
    shot, gate, code, u, flips = _read_streams(
        shot_words(spec.seed, shots), gate_probs, cnots, spec.p_readout, L)
    start_index = _basis_index(initial)
    if start_index is not None and all(g.kind in ("rz", "cnot") for g in gates):
        masks, clean = _fault_table(gates, L, start_index)
        index = np.full(shots, clean, dtype=np.int64)
        # an X (1) or Y (2) on a target flips its mask; codes are c0 + 4 c1
        xy0, xy1 = (np.isin(c, (1, 2)) for c in (code & 3, code >> 2))
        np.bitwise_xor.at(index, shot, masks[gate, 0] * xy0 ^ masks[gate, 1] * xy1)
        indices = (index ^ flips).tolist()
    else:
        # the clean final state, for the fault-free shots; its own call, as
        # perfbench's trace tells a statevector run by this child span.  Its
        # fusion of ``lowered`` is cached on it, so the batch reuses the blocks
        final = simulate(lowered, initial)
        clean_cumulative = np.cumsum(np.abs(final.amplitudes) ** 2)
        samples = np.searchsorted(clean_cumulative, u, side="right")
        indices = (np.minimum(samples, len(clean_cumulative) - 1) ^ flips).tolist()
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

    # tally by index, then render each distinct outcome once (first-seen order)
    counts = {index_to_bitstring(i, L): n for i, n in Counter(indices).items()}
    return ShotResult(counts=counts, shots=shots)


def amplitude_decay_sweep(
    axis: str,
    spec: NoiseSpec,
    values,
    L: int = 8,
    start_site: int = 0,
    shots: int = 2000,
    n_seeds: int = 1,
) -> list[tuple[int, float]]:
    """Mean post-processed peak amplitude of the noisy chiral walk.

    ``steps_at_fixed_L`` sweeps the step count t at fixed L;
    ``size_with_t_equals_L`` sweeps the lattice size with t = L.  Each
    point averages the peak amplitude over ``n_seeds`` independent runs of
    ``shots`` shots (seeds derived from spec.seed and the point).  Returns
    (x, mean amplitude) rows sorted by x.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    xs = sorted(values)
    if not xs:
        raise ValueError("sweep range must be nonempty")
    rows = []
    for x in xs:
        if axis == "steps_at_fixed_L":
            size, steps = L, int(x)
        else:
            size, steps = int(x), int(x)
        profile = PotentialProfile.uniform(size, 0.0)
        circuit = build_fcqw_walk(size, profile, steps)
        init = one_hot_state(size, start_site)
        target = (start_site + steps) % size
        amps = []
        for k in range(n_seeds):
            seed = derived_seed(spec.seed, int(x), k)
            result = run_noisy(circuit, init, spec.replace_seed(seed), shots)
            density = post_process(site_density_counts(result, size))
            amps.append(peak_amplitude(density, target))
        rows.append((int(x), float(np.mean(amps))))
    return rows
