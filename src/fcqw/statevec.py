"""Dense statevector simulation of an L-qubit register.

Conventions used throughout the package:

* qubit ``i`` represents lattice site ``i``, 0-based;
  1-based site labels appear only in report output
* basis index ``b`` has bit ``i`` equal to ``(b >> i) & 1``, so qubit 0
  is the least significant bit
* a set bit marks an occupied site
* outcomes are basis indices; bitstrings, written site 0 first
  (``"0100"`` means site 1 occupied), appear only in printouts

``GATES`` gives each gate kind's OpenQASM name, target count and matrix.
One kernel, ``apply_matrix_inplace``, applies every gate, fused block and
Pauli: a 2x2 or 4x4 matrix times the amplitudes with the target qubits'
axes moved first, as one matrix product.

Seeds: ``derived_seed`` gives each measured point the seed of its noise
stream, whose consecutive rows are the point's shots (``noise``,
"Determinism").  ``shot_rng`` seeds one generator per shot; no run path
calls it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def basis_state(L: int, index: int) -> StateVector:
    """Computational basis state |index> (bit i of index = occupation of site i);
    one particle at ``site`` is ``basis_state(L, 1 << site)``."""
    if not 1 <= L <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}], got {L}")
    if not 0 <= index < 1 << L:
        raise IndexError(f"basis index {index} out of range for L={L}")
    amps = np.zeros(1 << L, dtype=complex)
    amps[index] = 1.0
    return StateVector(L, amps)


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
# seeds


def shot_rng(seed: int, shot: int) -> np.random.Generator:
    """The generator of ``SeedSequence(seed, (shot,))``: the cost of
    seeding one generator, which a stream per shot would pay per shot."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(shot,)))


def derived_seed(base: int, *key: int) -> int:
    """Seed of the noise stream of one measured point, keyed under ``base``."""
    masked = tuple(k & 0xFFFFFFFF for k in key)  # spawn keys must be non-negative
    return int(np.random.SeedSequence(base, spawn_key=masked).generate_state(1)[0])
