"""Single-particle (one-excitation sector) analysis: L x L Floquet
operators, quasi-energy spectra under disorder, the winding number, and
the effective Hamiltonian -i log U."""
from __future__ import annotations

import csv
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .circuits import UNITARITY_TOL, Block, Circuit, PotentialProfile, fuse_blocks

_STEVD = scipy.linalg.get_lapack_funcs("stevd", dtype=np.float64)

#: numerical-noise window: eigenphases this close below -pi are treated as +pi
_CUT_SNAP = 1e-12
#: genuine proximity to the log branch cut is rejected within this window
_CUT_TOL = 1e-9


class BranchCutError(ValueError):
    """An eigenphase sits on the wrapped side of the principal-log cut."""


class GridResolutionError(ValueError):
    """Phase increment too large to track; sample on a finer k grid."""


@dataclass
class SingleParticleOperator:
    """Unitary L x L matrix acting on the one-excitation sector."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        dev = unitarity_deviation(m)
        if dev >= UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary: max |U+U - I| = {dev:g}")
        self.matrix = m


@dataclass
class QuasiEnergySpectrum:
    """Eigenphases in [0, 2pi), ascending, with column-matched eigenvectors."""

    eigenphases: np.ndarray
    eigenvectors: np.ndarray


@dataclass
class LevelSpacingStats:
    mean_spacing: np.ndarray
    spacing_variance: np.ndarray
    min_spacing: np.ndarray


@dataclass(frozen=True)
class DisorderEnsemble:
    """Seeded ensemble of disorder realizations at strength W, each u_i
    uniform on [-1, 1] (``uniform_symmetric``, the one distribution)."""

    realizations: int
    W: float
    distribution: str = "uniform_symmetric"
    seed: int = 0

    def __post_init__(self):
        if self.realizations < 1:
            raise ValueError("ensemble needs at least one realization")
        if self.distribution != "uniform_symmetric":
            raise ValueError(f"unknown distribution {self.distribution!r}")


def unitarity_deviation(m: np.ndarray) -> float:
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


def sample_disorder_profiles(ensemble: DisorderEnsemble, L: int) -> list[PotentialProfile]:
    """One profile per realization r, from the substream spawn_key=(r,) of the seed."""
    seqs = np.random.SeedSequence(ensemble.seed).spawn(ensemble.realizations)
    return [PotentialProfile.random_symmetric(L, ensemble.W, np.random.default_rng(q))
            for q in seqs]


# ---------------------------------------------------------------------------
# operators


def shift_matrix(L: int) -> np.ndarray:
    """Right cyclic one-site shift, occupation i -> i+1 (mod L); its
    transpose is the left shift."""
    s = np.zeros((L, L), dtype=complex)
    s[(np.arange(L) + 1) % L, np.arange(L)] = 1.0
    return s


def onsite_phases(u: np.ndarray, W: float) -> np.ndarray:
    """Phases the onsite rz layer applies to each one-hot state, along u's last axis.

    Site j's own gate contributes e^{+i W u_j} and every other site's gate
    contributes its empty-branch factor e^{-i W u_k}, so the one-excitation
    diagonal is exp(i W (2 u_j - sum(u))).
    """
    return W * (2.0 * u - np.sum(u, axis=-1, keepdims=True))


def chiral_step_matrices(u: np.ndarray, W: float) -> np.ndarray:
    """Right-walk step matrices shift x diag(e^{i onsite phases}), one L x L
    matrix per pattern along the last axis of ``u``: (..., L) -> (..., L, L)."""
    d = np.exp(1j * onsite_phases(u, W))
    return shift_matrix(u.shape[-1]) * d[..., np.newaxis, :]


def fcqw_step_operator(L: int, profile: PotentialProfile) -> SingleParticleOperator:
    """One-excitation matrix of one right-walk step: shift times diagonal
    phases.  A permutation times unit phases is unitary, so the check is skipped."""
    if profile.num_sites != L:
        raise ValueError(f"profile has {profile.num_sites} sites, expected {L}")
    op = object.__new__(SingleParticleOperator)
    op.matrix = chiral_step_matrices(profile.u, profile.W)
    return op


def xy_chain_hamiltonian(
    L: int, profile: PotentialProfile, J: float = 1.0, periodic: bool = False
) -> np.ndarray:
    """One-excitation Hamiltonian of the XY chain with onsite sigma-z terms.

    Hopping matrix elements are -2J between neighbours; the diagonal is
    W (sum(u) - 2 u_j), i.e. an occupied site is shifted by -W u_j relative
    to the particle-free background.
    """
    if profile.num_sites != L:
        raise ValueError(f"profile has {profile.num_sites} sites, expected {L}")
    hmat = np.zeros((L, L), dtype=complex)
    i = np.arange(L - 1)
    hmat[i, i + 1] = hmat[i + 1, i] = -2.0 * J
    if periodic and L > 2:
        hmat[0, L - 1] = hmat[L - 1, 0] = -2.0 * J
    np.fill_diagonal(hmat, -onsite_phases(profile.u, profile.W))
    return hmat


def xy_step_operator(
    L: int,
    profile: PotentialProfile,
    J: float = 1.0,
    t: float = 1.0,
    periodic: bool = False,
) -> SingleParticleOperator:
    """Exact one-excitation propagator e^{-i H t} of the XY chain."""
    hmat = xy_chain_hamiltonian(L, profile, J, periodic)
    evals, evecs = np.linalg.eigh(hmat)
    u = (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T
    return SingleParticleOperator(u)


def xy_step_phases(u: np.ndarray, W: float, J: float = 1.0) -> np.ndarray:
    """Phases of the open chain's one-step :func:`xy_step_operator` along u's last axis, [0, 2pi)
    ascending, as e^{-i E} of each tridiagonal H's energies E: zgeev's to rounding, no unitary.
    E comes from LAPACK ?stevd, the driver ``eigvalsh_tridiagonal`` picks, called directly."""
    diag = -onsite_phases(u, W).reshape(-1, u.shape[-1])
    off = np.full(max(u.shape[-1] - 1, 1), -2.0 * J)  # stevd wants len(e) >= 1
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise ValueError("xy_step_phases: potentials and J must be finite")
    energies = np.empty_like(diag)
    for r, d in enumerate(diag):
        energies[r], _, info = _STEVD(d, off, compute_v=0)
        if info:
            raise np.linalg.LinAlgError(f"?stevd failed on realization {r} (info={info})")
    return np.sort(_phases_0_2pi(np.exp(-1j * energies.reshape(u.shape))), axis=-1)


def _apply_block(u: np.ndarray, block: Block) -> None:
    """Left-multiply the sector matrix ``u`` in place by a conserving block.

    A one-hot state off the block's qubits sees the block's empty-branch
    factor m[0, 0]; on them it sees the weight-1 part of m.
    """
    m, rows = block.matrix, list(block.qubits)
    new = u[rows] * m[1, 1] if len(rows) == 1 else m[1:3, 1:3] @ u[rows]
    u *= m[0, 0]
    u[rows] = new


def reduce_to_single_particle(circuit: Circuit) -> SingleParticleOperator:
    """Project a number-conserving circuit onto the one-excitation sector.

    Every block of ``circuits.fuse_blocks`` must conserve particle number;
    each then acts on an L x L matrix, with no dense state.  A circuit with
    a block that does not is rejected, even if the whole circuit conserves.
    """
    m = np.eye(circuit.num_qubits, dtype=complex)
    for i, block in enumerate(fuse_blocks(circuit)):
        if not block.conserves:
            raise ValueError(
                f"block {i} on qubits {block.qubits} does not conserve particle number"
            )
        _apply_block(m, block)
    return SingleParticleOperator(m)


# ---------------------------------------------------------------------------
# momentum space


def chiral_momentum_family(n_k: int = 256) -> np.ndarray:
    """The clean chiral walk's Bloch factors e^{ik} on a uniform k grid over [0, 2pi)."""
    ks = 2.0 * np.pi * np.arange(n_k) / n_k
    return np.exp(1j * ks)


def xy_momentum_family(n_k: int = 256) -> np.ndarray:
    """One-step phases e^{-i epsilon(k)} of the clean XY chain band (J = 1, t = 1),
    epsilon(k) = -4 cos k, on a uniform k grid over [0, 2pi)."""
    ks = 2.0 * np.pi * np.arange(n_k) / n_k
    return np.exp(4j * np.cos(ks))


def winding_number(samples) -> int:
    """Winding of a band's Bloch factor u_k around the unit circle over one Brillouin zone.

    ``samples`` is a closed loop of unit-modulus scalars on a uniform k grid
    (the wrap from the last sample back to the first is included).  Computed
    as (1/2pi) * sum of arg(u_{k+1} conj(u_k)), which is an exact integer up
    to floating-point residue.
    """
    u = np.asarray(samples, dtype=complex)
    if u.ndim != 1:
        raise ValueError(f"expected a 1-D loop of scalars, got shape {u.shape}")
    n_k = u.shape[0]
    if n_k < 8:
        raise ValueError(f"need at least 8 grid points, got {n_k}")
    dev = np.abs(u.conj() * u - 1.0)
    if np.any(dev >= UNITARITY_TOL):
        raise ValueError(f"samples are not unitary: max |conj(u) u - 1| = {dev.max():g}")
    increments = np.angle(np.roll(u, -1) * u.conj())
    if np.any(np.abs(increments) >= np.pi - 0.1):
        raise GridResolutionError(
            f"phase increment {np.max(np.abs(increments)):.3f} rad is too close to "
            "the branch; sample the family on a finer k grid"
        )
    total = float(np.sum(increments)) / (2.0 * np.pi)
    w = round(total)
    residue = abs(total - w)
    if residue > 1e-6:
        raise ValueError(f"winding did not quantize: residue {residue:g}")
    return int(w)


# ---------------------------------------------------------------------------
# spectra


def _phases_0_2pi(eigenvalues: np.ndarray) -> np.ndarray:
    """Angles of unit-modulus eigenvalues, wrapped into [0, 2pi), elementwise."""
    phases = np.angle(eigenvalues)
    phases = np.where(phases < 0.0, phases + 2.0 * np.pi, phases)
    phases[phases >= 2.0 * np.pi] -= 2.0 * np.pi
    return phases


def quasi_energy_spectrum(op: SingleParticleOperator) -> QuasiEnergySpectrum:
    """Eigenphases in [0, 2pi) ascending with orthonormal eigenvectors.

    Schur decomposition of the (normal) unitary gives an orthonormal
    eigenbasis even for degenerate phases; forming those Schur vectors is
    most of the cost, so a caller that needs only the phases should use
    :func:`quasi_energy_phases`.  Columns are sorted by phase rounded to
    12 decimals, then by their eigenvector entries rounded the same way, so
    that tied phases come out in a deterministic order.
    """
    t, q = scipy.linalg.schur(op.matrix, output="complex")
    phases = _phases_0_2pi(np.diag(t))

    def sort_key(j: int):
        vec_key = tuple((round(float(z.real), 12), round(float(z.imag), 12)) for z in q[:, j])
        return (round(float(phases[j]), 12), vec_key)

    order = sorted(range(len(phases)), key=sort_key)
    return QuasiEnergySpectrum(phases[order], q[:, order])


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity set, where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def quasi_energy_phases(matrices: np.ndarray) -> np.ndarray:
    """Eigenphases in [0, 2pi), ascending, with no eigenvectors formed, of
    an L x L unitary or of each one in a stack: (..., L, L) -> (..., L).

    ``np.linalg.eigvals`` runs an eigenvalue-only zgeev per matrix, alone or
    in a stack.  A unitary has unit-norm rows and columns, so zgeev's
    balancing changes nothing, and it then runs the same Hessenberg
    reduction and QR iterations on the eigenvalues as the Schur decomposition
    in :func:`quasi_energy_spectrum`, whose Schur vectors never feed back into
    them: up to L = 123 the phases equal its ``eigenphases`` bit for bit, at
    about half the cost (from L = 124 LAPACK takes other paths for the two,
    and they agree to about 1e-14).  See :func:`xy_step_phases` for the XY
    chain.

    The matrices are cut into one contiguous part per CPU of the process's
    affinity set (at most one per matrix), each solved by its own
    ``eigvals`` call on a pool thread; numpy's linalg releases the GIL, so
    the parts run at once.  Each zgeev still sees only its own matrix and
    the parts are joined in order, so the phases are the same bits for any
    CPU count.  That is tested at 1 to 8 parts and L up to 100 on a 2-CPU
    host only; larger hosts, where each zgeev's BLAS threads compete with
    the parts, are not measured.
    """
    m = np.asarray(matrices)
    stack = m.reshape(-1, *m.shape[-2:])
    parts = np.array_split(stack, max(1, min(_cpu_count(), len(stack))))
    with ThreadPoolExecutor(len(parts)) as pool:
        values = np.concatenate(list(pool.map(np.linalg.eigvals, parts)))
    return np.sort(_phases_0_2pi(values.reshape(m.shape[:-1])), axis=-1)


def level_spacing_stats(eigenphases: np.ndarray) -> LevelSpacingStats:
    """Circular nearest-neighbour spacing statistics along the last axis."""
    phases = np.sort(eigenphases, axis=-1)
    if phases.shape[-1] < 2:
        raise ValueError("need at least two eigenphases for spacings")
    spacings = np.diff(phases, axis=-1, append=phases[..., :1] + 2.0 * np.pi)
    return LevelSpacingStats(
        mean_spacing=np.mean(spacings, axis=-1),
        spacing_variance=np.var(spacings, axis=-1),
        min_spacing=np.min(spacings, axis=-1),
    )


def predicted_chiral_eigenphases(u: np.ndarray, W: float) -> np.ndarray:
    """Analytic spectrum of :func:`chiral_step_matrices`, along u's last axis: shift x
    diagonal has lambda^L = e^{i sum(phases)}, so eigenphases are (sum + 2 pi n) / L.
    The sum is over the phases wrapped into [-pi, pi], as the matrix holds them: the
    raw phases reach about W L, and their float sum would lose the digits that count."""
    L = u.shape[-1]
    total = np.sum(np.angle(np.exp(1j * onsite_phases(u, W))), axis=-1, keepdims=True)
    return np.sort(np.mod((total + 2.0 * np.pi * np.arange(L)) / L, 2.0 * np.pi), axis=-1)


def _shift_gauge(m: np.ndarray) -> tuple[float, np.ndarray] | None:
    """``(phi, g)`` with m = e^{i phi} G S G^+, G = diag(g), S the right cyclic
    shift, if m = S diag(d) (L nonzeros, all at [(j + 1) mod L, j]); else None.
    phi = sum(angle d) / L, g_0 = 1 and g_{j+1} = g_j d_j e^{-i phi}."""
    L = m.shape[0]
    d = np.roll(m, -1, axis=0).diagonal()
    if np.count_nonzero(d) != L or np.count_nonzero(m) != L:
        return None
    angles = np.angle(d)
    phi = float(np.sum(angles)) / L
    return phi, np.exp(1j * (np.concatenate(([0.0], np.cumsum(angles[:-1]))) - phi * np.arange(L)))


def _principal_phases(phases: np.ndarray) -> np.ndarray:
    """Phases in [-pi, pi] moved onto (-pi, pi] under the branch-cut rules."""
    phases = np.where(phases < -np.pi + _CUT_SNAP, phases + 2.0 * np.pi, phases)
    bad = phases < (-np.pi + _CUT_TOL)
    if np.any(bad):
        raise BranchCutError(f"eigenphase {phases[bad][0]:.12f} lies within {_CUT_TOL:g} "
                             "of the principal branch cut at pi")
    return phases


def effective_hamiltonian(op: SingleParticleOperator) -> np.ndarray:
    """Hermitian H with e^{iH} = U, phases on the principal branch (-pi, pi].

    Eigenvalues exactly at -1 map to +pi; eigenphases within 1e-9 past -pi,
    beyond numerical noise, raise :class:`BranchCutError`.  A right-walk step
    U = S diag(d) is e^{i phi} G S G^+ (:func:`_shift_gauge`):
    H[i, j] = g_i h[(i - j) mod L] conj(g_j), h = ifft(wrapped phi - 2 pi k / L).
    Every other U, a left-walk step included, goes through Schur.
    """
    if (gauge := _shift_gauge(op.matrix)) is not None:
        phi, g = gauge
        k = np.arange(len(g))
        theta = np.mod(phi - 2.0 * np.pi * k / len(g) + np.pi, 2.0 * np.pi) - np.pi
        h = np.fft.ifft(_principal_phases(theta))[np.subtract.outer(k, k) % len(g)]
        hmat = g[:, np.newaxis] * h * g.conj()
    else:
        t, q = scipy.linalg.schur(op.matrix, output="complex")
        hmat = (q * _principal_phases(np.angle(np.diag(t)))) @ q.conj().T
    return 0.5 * (hmat + hmat.conj().T)


# ---------------------------------------------------------------------------
# CSV export (complex entries as re,im pairs)


def write_csv(path, header: list[str], rows) -> None:
    """One header row, then the rows, LF line endings; csv writes a Python float
    (pass ``ndarray.tolist()``, not numpy scalars) as its shortest round-tripping repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def save_matrix_csv(matrix: np.ndarray, path) -> None:
    m = np.ascontiguousarray(matrix, dtype=complex)
    header = [f"c{j}_{part}" for j in range(m.shape[1]) for part in ("re", "im")]
    write_csv(path, header, m.view(float).tolist())
