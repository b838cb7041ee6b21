"""Builders for the two circuit families: the discrete-step chiral walk
(onsite phase layer followed by a SWAP ladder) and the trotterized
non-chiral XY chain."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import is_

import numpy as np

from .statevec import (
    MAX_QUBITS,
    SWAP_QUBITS,
    GateInstruction,
    StateVector,
    apply_matrix_inplace,
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
        # a repeated instruction is one object, checked once
        for g in dict(zip(map(id, self.instructions), self.instructions)).values():
            if max(g.targets) >= self.num_qubits:
                raise IndexError(
                    f"instruction {g.kind}{g.targets} exceeds register width "
                    f"{self.num_qubits}"
                )

    def __len__(self) -> int:
        return len(self.instructions)

    @cached_property
    def _blocks(self) -> tuple[Block, ...]:  # not a field: eq and hash ignore it
        return _fuse(self.instructions)


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

    n copies of one repetition (the same gate objects, as are a pair's
    repeated gates): each neighbour pair gets its sigma^x sigma^x block
    (H-conjugated CNOT-RZ-CNOT), directly followed by its sigma^y sigma^y
    block (HY-conjugated), then each site with a nonzero potential gets
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
    rep: list[GateInstruction] = []
    for a, b in pairs:
        c, hop = cnot(a, b), rz(b, theta_hop)
        for basis in ((h(a), h(b)), (hy(a), hy(b))):
            rep += [*basis, c, hop, c, *basis]
    rep += [rz(i, 2.0 * profile.W * profile.u[i] * dt)
            for i in range(L) if profile.W * profile.u[i] != 0.0]
    return Circuit(L, tuple(rep) * cfg.n, label=f"xy_trotter_n{cfg.n}")


def lower_swaps(circuit: Circuit) -> Circuit:
    """Replace each SWAP with its three-CNOT realization; a circuit without
    SWAPs is returned as is, keeping its fused blocks."""
    swaps = {g.targets for g in circuit.instructions if g.kind == "swap"}
    if not swaps:
        return circuit
    # a walk repeats its SWAPs every step; each distinct triple is built once
    triples = {t: swap_as_cnots(*t) for t in swaps}
    gates = [c for g in circuit.instructions
             for c in (triples[g.targets] if g.kind == "swap" else (g,))]
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
    """A matrix on ``targets`` (``gate_matrix``'s basis) on a block's qubits;
    a one-qubit matrix on the high (low) bit of two is kron(u, I)
    (kron(I, u)), built directly because np.kron is slow."""
    if len(qubits) == len(targets):
        return u if targets == qubits else u[np.ix_(SWAP_QUBITS, SWAP_QUBITS)]
    out = np.zeros((4, 4), dtype=complex)
    if targets[0] == qubits[1]:
        out[0::2, 0::2] = out[1::2, 1::2] = u
    else:
        out[:2, :2] = out[2:, 2:] = u
    return out


def fuse_blocks(circuit: Circuit) -> tuple[Block, ...]:
    """Cut the gate list into consecutive blocks on at most two qubits.

    An open block absorbs the next gate while the union of their qubits has
    at most two members and the block does not yet conserve particle number
    (entries between different Hamming weights below ``UNITARITY_TOL``);
    otherwise it is closed and the gate opens the next block.  A walk step
    gives one block per rz and per swap, a Trotter repetition one per XX+YY
    pair and per rz.  Fused once per Circuit, shared by simulate, reduction
    and sampler.  Products are memoized in a block's local qubit order, so
    every XX+YY pair of a Trotter repetition shares one chain of 14.  The
    cut restarts after a conserving block, so a circuit of k copies of one
    repetition (the same gate objects) whose last block conserves fuses it
    once and returns its blocks k times; others take one pass over all gates.
    """
    return circuit._blocks


def _fuse(gates: tuple[GateInstruction, ...]) -> tuple[Block, ...]:
    if not gates:
        return ()
    p = _repetition(gates)
    blocks = _fuse_pass(gates[:p])
    if p < len(gates) and not blocks[-1].conserves:
        return _fuse_pass(gates)
    return blocks * (len(gates) // p)


def _repetition(gates: tuple[GateInstruction, ...]) -> int:
    """Length of the shortest prefix of which ``gates`` are copies, object
    for object (``is``: no gate is hashed or compared)."""
    n = len(gates)
    return next((p for p in range(1, n // 2 + 1) if n % p == 0 and gates[p] is gates[0]
                 and all(map(is_, gates[p:], gates[:-p]))), n)


def _fuse_pass(gates) -> tuple[Block, ...]:
    # product memo: (product before the gate, kind, local targets, theta),
    # where a block's matrix object stands for its product; "0.0" and
    # "-0.0" keep apart rz angles that compare equal but give unequal matrices
    products: dict = {}
    blocks: list[Block] = []
    block = None
    for g in gates:
        prev = None if block is None or block.conserves else block
        qubits = g.targets
        if prev is not None:
            qubits = prev.qubits
            for q in g.targets:
                if q not in qubits:
                    qubits += (q,)
            if len(qubits) > 2:
                prev, qubits = None, g.targets
        if prev is None and block is not None:
            blocks.append(block)
        base = None if prev is None else id(prev.matrix)
        key = (base, g.kind, tuple(map(qubits.index, g.targets)), g.theta or str(g.theta))
        product = products.get(key)
        if product is None:  # the gate times the block before it, on qubits
            u = gate_matrix(g)
            if prev is not None:
                u = _embed(u, g.targets, qubits) @ _embed(prev.matrix, prev.qubits, qubits)
            product = products[key] = (u, _conserves(u))
        block = Block(qubits, *product, g, prev, 1 if prev is None else prev.size + 1)
    if block is not None:
        blocks.append(block)
    return tuple(blocks)


def simulate(circuit: Circuit, initial: StateVector) -> StateVector:
    """Run the circuit exactly on a dense statevector, block by block."""
    if initial.num_qubits != circuit.num_qubits:
        raise ValueError(
            f"state has {initial.num_qubits} qubits, circuit {circuit.num_qubits}"
        )
    amps = initial.amplitudes.copy()
    for block in fuse_blocks(circuit):
        apply_matrix_inplace(amps, block.qubits, block.matrix)
    return StateVector(circuit.num_qubits, amps)
