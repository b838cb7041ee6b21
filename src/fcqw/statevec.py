"""Dense statevector simulation of an L-qubit register.

Conventions used throughout the package:

* qubit ``i`` represents lattice site ``i``, 0-based;
  1-based site labels appear only in report output
* basis index ``b`` has bit ``i`` equal to ``(b >> i) & 1``, so qubit 0
  is the least significant bit
* a set bit marks an occupied site
* outcomes are basis indices; bitstrings, written site 0 first
  (``"0100"`` means site 1 occupied), appear only in JSON and printouts

``GATES`` gives each gate kind's OpenQASM name, target count and matrix.
One kernel, ``apply_matrix_inplace``, applies every gate, fused block and
Pauli: a 2x2 or 4x4 matrix times the amplitudes with the target qubits'
axes moved first, as one matrix product.

Shot streams: shot ``s`` of a seeded run draws from
``shot_rng(seed, s)``, the generator of ``SeedSequence(seed, (s,))``.
``shot_words`` starts from numpy's own ``SeedSequence(seed).pool`` and
mixes in every shot's spawn key in one vectorized pass of the same hash,
so ``words_rng`` on its row ``s`` gives a generator whose draws equal
``shot_rng(seed, s)``'s, and ``raw_words`` gives the raw 64-bit words
those draws are made of, re-seating one PCG64 per chunk of rows rather
than seeding a new bit generator per row.
"""
from __future__ import annotations

import ctypes
import functools
import operator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

#: Hard cap on register width; a dense register needs 16 * 2**L bytes.
MAX_QUBITS = 24

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

H_MATRIX = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) * _INV_SQRT2

# Hermitian, involutive, and maps the z basis to the y basis:
# HY @ Z @ HY == Y.  Equal to rz(pi/2) @ H @ rz(-pi/2) with no phase slack.
HY_MATRIX = np.array([[1.0, -1.0j], [1.0j, -1.0]], dtype=complex) * _INV_SQRT2

#: index permutation exchanging the two qubits of a 4x4 gate matrix
SWAP_QUBITS = np.array([0, 2, 1, 3])

#: Pauli matrices by code: 0=I, 1=X, 2=Y, 3=Z
PAULI_MATRICES = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], np.diag([1, -1])])

#: kind -> (OpenQASM name, target count, matrix); rz's matrix depends on
#: its angle.  A 4x4 matrix acts on ``b = bit(targets[0]) + 2 *
#: bit(targets[1])``, so a CNOT's control is the low bit.
GATES = {
    "h": ("h", 1, H_MATRIX),
    "hy": ("hy", 1, HY_MATRIX),
    "rz": ("rz", 1, None),
    "cnot": ("cx", 2, np.eye(4, dtype=complex)[[0, 3, 2, 1]]),
    "swap": ("swap", 2, np.eye(4, dtype=complex)[SWAP_QUBITS]),
}


@dataclass(frozen=True)
class GateInstruction:
    """A single gate: kind, target qubit(s), and the rz angle in radians."""

    kind: str
    targets: tuple[int, ...]
    theta: float | None = None

    def __post_init__(self):
        if self.kind not in GATES:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        expected = GATES[self.kind][1]
        if len(self.targets) != expected:
            raise ValueError(
                f"{self.kind} takes {expected} target(s), got {self.targets}"
            )
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"{self.kind} targets must be distinct: {self.targets}")
        if any(q < 0 for q in self.targets):
            raise IndexError(f"negative qubit index in {self.targets}")
        if self.kind == "rz":
            if self.theta is None:
                raise ValueError("rz requires a rotation angle")
        elif self.theta is not None:
            raise ValueError(f"{self.kind} takes no angle")


def h(q: int) -> GateInstruction:
    return GateInstruction("h", (q,))


def hy(q: int) -> GateInstruction:
    return GateInstruction("hy", (q,))


def rz(q: int, theta: float) -> GateInstruction:
    return GateInstruction("rz", (q,), float(theta))


def cnot(control: int, target: int) -> GateInstruction:
    """CNOT; targets[0] is the control, targets[1] the target."""
    return GateInstruction("cnot", (control, target))


def swap(a: int, b: int) -> GateInstruction:
    return GateInstruction("swap", (a, b))


def swap_as_cnots(i: int, j: int) -> list[GateInstruction]:
    """Three CNOTs whose composition equals SWAP(i, j) exactly; ``cnot``
    rejects i == j."""
    return [cnot(i, j), cnot(j, i), cnot(i, j)]


def gate_matrix(gate: GateInstruction) -> np.ndarray:
    """Dense unitary of a gate, in ``GATES``' basis; a copy the caller owns."""
    if gate.kind == "rz":
        half = gate.theta / 2.0
        return np.diag([np.exp(-1j * half), np.exp(1j * half)])
    return GATES[gate.kind][2].copy()


@dataclass
class StateVector:
    """Unit-norm amplitudes of an L-qubit register (length 2**L, complex)."""

    num_qubits: int
    amplitudes: np.ndarray


def _check_num_qubits(L: int) -> None:
    if not 1 <= L <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}], got {L}")


def one_hot_state(L: int, site: int) -> StateVector:
    """State with a single particle at ``site`` and all other sites empty."""
    _check_num_qubits(L)
    if not 0 <= site < L:
        raise IndexError(f"site {site} out of range for L={L}")
    return basis_state(L, 1 << site)


def basis_state(L: int, index: int) -> StateVector:
    """Computational basis state |index> (bit i of index = occupation of site i)."""
    _check_num_qubits(L)
    if not 0 <= index < 1 << L:
        raise IndexError(f"basis index {index} out of range for L={L}")
    amps = np.zeros(1 << L, dtype=complex)
    amps[index] = 1.0
    return StateVector(L, amps)


def index_to_bitstring(index: int, L: int) -> str:
    """Render a basis index with site 0 as the first character."""
    return "".join("1" if (index >> i) & 1 else "0" for i in range(L))


def bitstring_to_index(bits: str) -> int:
    if any(c not in "01" for c in bits):
        raise ValueError(f"not a bitstring: {bits!r}")
    return sum(1 << i for i, c in enumerate(bits) if c == "1")


# ---------------------------------------------------------------------------
# applying gates


def apply_matrix_inplace(amps: np.ndarray, qubits: tuple[int, ...], m: np.ndarray) -> None:
    """Left-multiply the amplitudes by a 2x2 or 4x4 matrix on ``qubits``, in
    ``gate_matrix``'s basis bit(qubits[0]) + 2 * bit(qubits[1]), as one
    (d, d) @ (d, N) product over the qubit axes moved first; a C-contiguous
    batch of rows seen as one vector adds columns to it."""
    if len(qubits) == 1:
        # axes (bit q, more significant bits, less significant bits)
        w = amps.reshape(-1, 2, 1 << qubits[0]).transpose(1, 0, 2)
    else:
        qlo, qhi = sorted(qubits)
        if qubits[0] > qubits[1]:
            m = m[np.ix_(SWAP_QUBITS, SWAP_QUBITS)]
        # axes (bit qhi, bit qlo, rest, bits between, bits below)
        w = amps.reshape(-1, 2, 1 << (qhi - qlo - 1), 2, 1 << qlo).transpose(1, 3, 0, 2, 4)
    w[...] = (m @ w.reshape(len(m), -1)).reshape(w.shape)


def apply_gate(state: StateVector, gate: GateInstruction) -> StateVector:
    """Return the state with one gate applied; the input is left untouched."""
    if max(gate.targets) >= state.num_qubits:
        raise IndexError(
            f"gate {gate.kind} targets {gate.targets} out of range for L={state.num_qubits}"
        )
    out = state.amplitudes.copy()
    apply_matrix_inplace(out, gate.targets, gate_matrix(gate))
    return StateVector(state.num_qubits, out)


# ---------------------------------------------------------------------------
# measurement sampling


def shot_rng(seed: int, shot: int) -> np.random.Generator:
    """Independent per-shot stream; identical regardless of the order in
    which shots are run."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(shot,)))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), default pool
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF


def shot_words(seed: int, shots: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(s,)).generate_state(4, np.uint64)``
    for every ``s < shots``, as one ``(shots, 4)`` uint64 array.

    numpy pads a short seed with hashes of 0 whether or not a spawn key
    follows, so ``SeedSequence(seed).pool`` is the pool each spawn key is
    mixed into, after ``4 * max(4, seed words)`` steps of the hash constant.
    The constants advance independently of the data, so the spawn-key mix
    and ``generate_state`` are whole-array uint32 operations over the keys.
    """
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}") from None
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if not 0 <= shots <= 1 << 32:  # a spawn key >= 2**32 is two words
        raise ValueError(f"shots must be in [0, 2**32], got {shots}")
    pool = list(np.random.SeedSequence(seed).pool)
    seed_words = max(1, -(-seed.bit_length() // 32))
    hash_const = _INIT_A * pow(_MULT_A, 4 * max(_POOL_SIZE, seed_words), 1 << 32) & _MASK32

    def hashmix(value, mult):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    key = np.arange(shots, dtype=np.uint32)
    with np.errstate(over="ignore"):
        for i in range(_POOL_SIZE):
            mixed = np.uint32(_MIX_MULT_L) * pool[i] - np.uint32(_MIX_MULT_R) * hashmix(key, _MULT_A)
            pool[i] = mixed ^ (mixed >> _XSHIFT)
        # generate_state: 8 uint32 words cycling over the pool, paired
        # little-endian into 4 uint64 words, as numpy pairs them
        hash_const = _INIT_B
        state = np.stack([hashmix(pool[i % _POOL_SIZE], _MULT_B) for i in range(8)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _Words(ISeedSequence):
    """Seed sequence that hands a bit generator precomputed state words."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def words_rng(words: np.ndarray) -> np.random.Generator:
    """The generator of one row of ``shot_words``: ``words_rng(
    shot_words(seed, n)[s])`` draws exactly what ``shot_rng(seed, s)`` does."""
    return np.random.Generator(np.random.PCG64(_Words(words)))


def _start_words(words: np.ndarray) -> np.ndarray:
    """Per row, ``[lo, hi]`` of the 128-bit ``init + inc`` and of ``inc``
    that numpy's PCG64 seeding derives from the row (see ``raw_words``)."""
    w0, w1, w2, w3 = np.asarray(words, dtype=np.uint64).reshape(-1, 4).T
    inc_lo, inc_hi = w3 << np.uint64(1) | np.uint64(1), w2 << np.uint64(1) | w3 >> np.uint64(63)
    lo = w1 + inc_lo
    return np.stack([lo, w0 + inc_hi + (lo < inc_lo), inc_lo, inc_hi], axis=1)


def _pcg64_state(bit_generator: np.random.PCG64):
    """The live ``pcg64_random_t {state, inc}`` behind ``state_address``, as four uint64s."""
    address = ctypes.c_void_p.from_address(bit_generator.ctypes.state_address).value
    return (ctypes.c_uint64 * 4).from_address(address)


@functools.cache
def _pcg64_layout_ok() -> bool:
    """Whether a PCG64 seeded the public way holds ``[state_lo, state_hi,
    inc_lo, inc_hi]``, the state one LCG step past ``init + inc``; numpy's
    emulated 128-bit math (``{high, low}``, e.g. under MSVC) does not."""
    probe = np.array([1, 2**64 - 2, 3, 2**63 + 1], dtype=np.uint64)
    lo, hi, inc_lo, inc_hi = map(int, _start_words(probe)[0])
    state = ((hi << 64 | lo) * 0x2360ED051FC65DA44385DF649FCCF645 + (inc_hi << 64 | inc_lo)) % 2**128
    seeded = np.random.PCG64(_Words(probe))  # alive while its words are read
    return list(_pcg64_state(seeded)) == [state % 2**64, state >> 64, inc_lo, inc_hi]


def raw_words(words: np.ndarray, width: int) -> np.ndarray:
    """The first ``width`` raw 64-bit outputs of each row's stream, as one
    ``(len(words), width)`` uint64 array: row ``s`` equals ``np.random.PCG64(
    _Words(words[s])).random_raw(width)``, from which a ``Generator`` draws
    its doubles, bounded integers and bits.  numpy seeds ``inc = (w2:w3) << 1
    | 1`` and the state ``step(init + inc)``, ``init = w0:w1``; so one PCG64
    serves every row, its state words set to ``_start_words`` of the row, and
    ``random_raw(width + 1)`` drops the extra step's word.  Where
    ``_pcg64_layout_ok`` fails, each row seeds a generator of its own."""
    out = np.empty((len(words), width), dtype=np.uint64)
    if not _pcg64_layout_ok():
        for s, row in enumerate(words):
            out[s] = np.random.PCG64(_Words(row)).random_raw(width)
        return out
    bit_generator = np.random.PCG64(0)
    state = _pcg64_state(bit_generator)
    for s, row in enumerate(_start_words(words).tolist()):
        state[:] = row
        out[s] = bit_generator.random_raw(width + 1)[1:]
    return out


def derived_seed(base: int, *key: int) -> int:
    """Seed of the noise stream of one measured point, keyed under ``base``."""
    masked = tuple(k & 0xFFFFFFFF for k in key)  # spawn keys must be non-negative
    return int(np.random.SeedSequence(base, spawn_key=masked).generate_state(1)[0])


def sample_index(cumulative: np.ndarray, u: float) -> int:
    """Inverse-CDF draw from a cumulative probability array."""
    idx = int(np.searchsorted(cumulative, u, side="right"))
    return min(idx, len(cumulative) - 1)
