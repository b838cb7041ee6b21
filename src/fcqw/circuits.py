"""Builders for the two circuit families: the discrete-step chiral walk
(onsite phase layer followed by a SWAP ladder) and the trotterized
non-chiral XY chain."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .statevec import (
    MAX_QUBITS,
    SWAP_QUBITS,
    GateInstruction,
    StateVector,
    apply_matrix_inplace,
    basis_state,
    cnot,
    gate_matrix,
    h,
    hy,
    rz,
    swap,
    swap_as_cnots,
)

#: 0-based sites of the square-box barrier (1-based sites 2,3,7,8); the
#: walls flank the three-site well 3..5 used by the localization runs.
BOX_SITES = (1, 2, 6, 7)

CHIRALITIES = ("right", "left")

UNITARITY_TOL = 1e-10

#: Hamming weight of each block basis index b = bit(q0) + 2 * bit(q1)
_WEIGHT = np.array([0, 1, 1, 2])
#: per block dimension, True where row and column differ in Hamming weight
_CROSS_WEIGHT = {n: _WEIGHT[:n, None] != _WEIGHT[:n] for n in (2, 4)}


@dataclass(frozen=True)
class Circuit:
    """Ordered gate sequence on a fixed-width register; immutable."""

    num_qubits: int
    instructions: tuple[GateInstruction, ...]
    label: str = ""

    def __post_init__(self):
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}]")
        object.__setattr__(self, "instructions", tuple(self.instructions))
        for g in self.instructions:
            if max(g.targets) >= self.num_qubits:
                raise IndexError(
                    f"instruction {g.kind}{g.targets} exceeds register width "
                    f"{self.num_qubits}"
                )

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass(frozen=True, eq=False)
class PotentialProfile:
    """Per-site occupation pattern u_i and a global strength W.

    Site i carries the onsite gate rz(2 * W * u_i), so an occupied site
    acquires the phase e^{+i W u_i} per step.
    """

    u: np.ndarray
    W: float

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float).ravel()
        u.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "W", float(self.W))

    @property
    def num_sites(self) -> int:
        return len(self.u)

    @classmethod
    def uniform(cls, L: int, W: float) -> "PotentialProfile":
        return cls(np.ones(L), W)

    @classmethod
    def box(cls, L: int, W: float) -> "PotentialProfile":
        if L <= max(BOX_SITES):
            raise ValueError(f"box profile needs L > {max(BOX_SITES)}, got {L}")
        u = np.zeros(L)
        u[list(BOX_SITES)] = 1.0
        return cls(u, W)

    @classmethod
    def random_symmetric(cls, L: int, W: float, rng: np.random.Generator) -> "PotentialProfile":
        """Anderson-style disorder: u_i independent uniform on [-1, 1]."""
        return cls(rng.uniform(-1.0, 1.0, size=L), W)


@dataclass(frozen=True)
class TrotterConfig:
    """Hopping strength J, total time t, and repetition count n."""

    J: float
    t: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"trotter repetitions must be >= 1, got {self.n}")
        if self.t < 0:
            raise ValueError(f"evolution time must be >= 0, got {self.t}")


def _check_profile(L: int, profile: PotentialProfile) -> None:
    if profile.num_sites != L:
        raise ValueError(
            f"profile has {profile.num_sites} sites but circuit has {L} qubits"
        )


def build_hopping_ladder(L: int, chirality: str = "right") -> Circuit:
    """Nearest-neighbour SWAP ladder composing to a one-site cyclic shift.

    ``right`` applies pairs (L-2,L-1), ..., (1,2), (0,1) so occupations move
    i -> i+1 (mod L); ``left`` applies them ascending, moving i -> i-1.
    The periodic wrap needs no long-range SWAP.
    """
    if L < 2:
        raise ValueError(f"hopping ladder needs L >= 2, got {L}")
    if chirality not in CHIRALITIES:
        raise ValueError(f"chirality must be one of {CHIRALITIES}, got {chirality!r}")
    order = range(L - 2, -1, -1) if chirality == "right" else range(L - 1)
    gates = [swap(i, i + 1) for i in order]
    return Circuit(L, tuple(gates), label=f"hopping_{chirality}")


def build_onsite_layer(profile: PotentialProfile) -> Circuit:
    """One rz(2 W u_i) per site; a diagonal layer."""
    gates = [rz(i, 2.0 * profile.W * profile.u[i]) for i in range(profile.num_sites)]
    return Circuit(profile.num_sites, tuple(gates), label="onsite")


def build_fcqw_step(L: int, profile: PotentialProfile, chirality: str = "right") -> Circuit:
    """One Floquet period: the onsite layer acts first, then the SWAP ladder."""
    _check_profile(L, profile)
    onsite = build_onsite_layer(profile)
    ladder = build_hopping_ladder(L, chirality)
    return Circuit(L, onsite.instructions + ladder.instructions, label="fcqw_step")


def build_fcqw_walk(
    L: int, profile: PotentialProfile, steps: int, chirality: str = "right"
) -> Circuit:
    """``steps`` repetitions of the Floquet step."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    step = build_fcqw_step(L, profile, chirality)
    return Circuit(L, step.instructions * steps, label=f"fcqw_t{steps}")


def build_xy_trotter(
    L: int,
    profile: PotentialProfile,
    cfg: TrotterConfig,
    periodic: bool = False,
) -> Circuit:
    """First-order trotterization of the XY chain with onsite sigma-z terms.

    Per repetition, each neighbour pair gets its sigma^x sigma^x block
    (H-conjugated CNOT-RZ-CNOT) immediately followed by its sigma^y sigma^y
    block (HY-conjugated), then every site with a nonzero potential gets
    rz(2 W u_i t / n).  Grouping the two blocks per pair keeps every prefix
    of a pair sequence particle-number conserving, which a layer-by-layer
    ordering (all xx, then all yy) does not.
    """
    if L < 2:
        raise ValueError(f"XY chain needs L >= 2, got {L}")
    _check_profile(L, profile)
    dt = cfg.t / cfg.n
    theta_hop = -2.0 * cfg.J * dt
    pairs = [(i, i + 1) for i in range(L - 1)]
    if periodic:
        pairs.append((L - 1, 0))
    gates: list[GateInstruction] = []
    for _ in range(cfg.n):
        for a, b in pairs:
            gates += [h(a), h(b), cnot(a, b), rz(b, theta_hop), cnot(a, b), h(a), h(b)]
            gates += [hy(a), hy(b), cnot(a, b), rz(b, theta_hop), cnot(a, b), hy(a), hy(b)]
        for i in range(L):
            if profile.W * profile.u[i] != 0.0:
                gates.append(rz(i, 2.0 * profile.W * profile.u[i] * dt))
    return Circuit(L, tuple(gates), label=f"xy_trotter_n{cfg.n}")


def lower_swaps(circuit: Circuit) -> Circuit:
    """Replace each SWAP with its three-CNOT realization."""
    gates: list[GateInstruction] = []
    for g in circuit.instructions:
        if g.kind == "swap":
            gates += swap_as_cnots(*g.targets)
        else:
            gates.append(g)
    return Circuit(circuit.num_qubits, tuple(gates), label=circuit.label)


@dataclass(eq=False)
class Block:
    """Product of ``size`` consecutive gates on at most two qubits, in the basis
    bit(qubits[0]) + 2 * bit(qubits[1]); ``prev`` is the block before its
    last ``gate``.  Hashed by identity."""

    qubits: tuple[int, ...]
    matrix: np.ndarray
    conserves: bool
    gate: GateInstruction
    prev: "Block | None" = None
    size: int = 1

    def pushed_through(self, pos: int, op: np.ndarray) -> np.ndarray:
        """K with K @ matrix equal to the block's gates with ``op`` (on the
        targets of gate ``pos``) inserted after gate ``pos``: K = R op R^+,
        R = matrix @ Pre^+ the gates after ``pos``, Pre the ``prev`` block's
        product through ``pos``."""
        pre = self
        for _ in range(self.size - 1 - pos):
            pre = pre.prev
        r = self.matrix @ _embed(pre.matrix, pre.qubits, self.qubits).conj().T
        return r @ _embed(op, pre.gate.targets, self.qubits) @ r.conj().T


def _conserves(m: np.ndarray) -> bool:
    """Entries between different Hamming weights are below UNITARITY_TOL."""
    return bool(np.abs(m[_CROSS_WEIGHT[len(m)]]).max() < UNITARITY_TOL)


def _embed(u: np.ndarray, targets: tuple[int, ...], qubits: tuple[int, ...]) -> np.ndarray:
    """A matrix on ``targets`` (``gate_matrix``'s basis) on a block's qubits."""
    if len(qubits) == len(targets):
        return u if targets == qubits else u[np.ix_(SWAP_QUBITS, SWAP_QUBITS)]
    return _widen(u, high=targets[0] == qubits[1])


def _widen(u: np.ndarray, high: bool) -> np.ndarray:
    """A one-qubit matrix on the high (or low) bit of a two-qubit block:
    kron(u, I) (or kron(I, u)), built directly because np.kron is slow."""
    out = np.zeros((4, 4), dtype=complex)
    if high:
        out[0::2, 0::2] = out[1::2, 1::2] = u
    else:
        out[:2, :2] = out[2:, 2:] = u
    return out


def _absorb(block: Block | None, gate: GateInstruction) -> Block | None:
    """A new block of ``gate`` when ``block`` is None, else ``block`` with
    ``gate`` absorbed, or None when their qubits number more than two."""
    if block is None:
        u = gate_matrix(gate)
        return Block(gate.targets, u, _conserves(u), gate)
    qubits = block.qubits + tuple(q for q in gate.targets if q not in block.qubits)
    if len(qubits) > 2:
        return None
    m = _embed(gate_matrix(gate), gate.targets, qubits)
    m = m @ _embed(block.matrix, block.qubits, qubits)
    return Block(qubits, m, _conserves(m), gate, block, block.size + 1)


def fuse_blocks(circuit: Circuit) -> list[Block]:
    """Cut the gate list into consecutive blocks on at most two qubits.

    An open block absorbs the next gate while the union of their qubits has
    at most two members and the block does not yet conserve particle number
    (entries between different Hamming weights below ``UNITARITY_TOL``);
    otherwise it is closed and the gate opens the next block.  A walk step
    gives one block per rz and per swap, a Trotter repetition one per XX+YY
    pair and per rz.  Fusions are memoized per call on (open block, gate),
    so a repeated walk step or Trotter repetition is fused once.
    """
    blocks: list[Block] = []
    grown: dict = {}
    block = None
    for g in circuit.instructions:
        if block is not None and block.conserves:
            blocks.append(block)
            block = None
        for key in ((block, g), (None, g)):  # grow the open block, else open one
            nxt = grown.get(key, key)  # one lookup; the key itself marks a miss
            if nxt is key:
                nxt = grown[key] = _absorb(*key)
            if nxt is not None:
                break
            blocks.append(block)
        block = nxt
    if block is not None:
        blocks.append(block)
    return blocks


def simulate(circuit: Circuit, initial: StateVector | None = None) -> StateVector:
    """Run the circuit exactly on a dense statevector, block by block."""
    if initial is None:
        initial = basis_state(circuit.num_qubits, 0)
    if initial.num_qubits != circuit.num_qubits:
        raise ValueError(
            f"state has {initial.num_qubits} qubits, circuit {circuit.num_qubits}"
        )
    amps = initial.amplitudes.copy()
    for block in fuse_blocks(circuit):
        apply_matrix_inplace(amps, block.qubits, block.matrix)
    return StateVector(circuit.num_qubits, amps)
