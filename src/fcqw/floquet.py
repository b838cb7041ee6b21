"""Single-particle (one-excitation sector) analysis: L x L Floquet
operators, quasi-energy spectra under disorder, the winding number, and
the effective Hamiltonian -i log U."""
from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .circuits import UNITARITY_TOL, Block, Circuit, PotentialProfile, fuse_blocks, simulate
from .statevec import one_hot_state

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

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass
class QuasiEnergySpectrum:
    """Eigenphases in [0, 2pi), ascending, with column-matched eigenvectors."""

    eigenphases: np.ndarray
    eigenvectors: np.ndarray


@dataclass
class LevelSpacingStats:
    mean_spacing: float
    spacing_variance: float
    min_spacing: float


@dataclass(frozen=True)
class DisorderEnsemble:
    """Seeded ensemble of disorder realizations at strength W.

    ``uniform_symmetric`` draws u_i uniform on [-1, 1] per site;
    ``box_profile`` repeats the fixed square-box pattern.
    """

    realizations: int
    W: float
    distribution: str = "uniform_symmetric"
    seed: int = 0

    def __post_init__(self):
        if self.realizations < 1:
            raise ValueError("ensemble needs at least one realization")
        if self.distribution not in ("uniform_symmetric", "box_profile"):
            raise ValueError(f"unknown distribution {self.distribution!r}")


def unitarity_deviation(m: np.ndarray) -> float:
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


def sample_disorder_profiles(ensemble: DisorderEnsemble, L: int) -> list[PotentialProfile]:
    """One profile per realization, each from its own seeded substream."""
    profiles = []
    for r in range(ensemble.realizations):
        if ensemble.distribution == "box_profile":
            profiles.append(PotentialProfile.box(L, ensemble.W))
        else:
            rng = np.random.default_rng(
                np.random.SeedSequence(ensemble.seed, spawn_key=(r,))
            )
            profiles.append(PotentialProfile.random_symmetric(L, ensemble.W, rng))
    return profiles


# ---------------------------------------------------------------------------
# operators


def shift_matrix(L: int, chirality: str = "right") -> np.ndarray:
    """Cyclic one-site shift; ``right`` moves occupation i -> i+1 (mod L)."""
    s = np.zeros((L, L), dtype=complex)
    s[(np.arange(L) + (1 if chirality == "right" else -1)) % L, np.arange(L)] = 1.0
    return s


def onsite_phases(profile: PotentialProfile) -> np.ndarray:
    """Phases the onsite rz layer applies to each one-hot state.

    Site j's own gate contributes e^{+i W u_j} and every other site's gate
    contributes its empty-branch factor e^{-i W u_k}, so the one-excitation
    diagonal is exp(i W (2 u_j - sum(u))).
    """
    u = profile.u
    return profile.W * (2.0 * u - np.sum(u))


def fcqw_step_operator(
    L: int, profile: PotentialProfile, chirality: str = "right"
) -> SingleParticleOperator:
    """One-excitation matrix of one walk step: shift times diagonal phases."""
    if profile.num_sites != L:
        raise ValueError(f"profile has {profile.num_sites} sites, expected {L}")
    d = np.exp(1j * onsite_phases(profile))
    return SingleParticleOperator(shift_matrix(L, chirality) * d[np.newaxis, :])


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
    np.fill_diagonal(hmat, profile.W * (np.sum(profile.u) - 2.0 * profile.u))
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


def xy_step_phases(L: int, profile: PotentialProfile, J: float = 1.0) -> np.ndarray:
    """Phases of the open chain's one-step :func:`xy_step_operator`, [0, 2pi) ascending,
    as e^{-i E} of the tridiagonal H's energies E: zgeev's to rounding, no unitary built."""
    hmat = xy_chain_hamiltonian(L, profile, J)
    energies = scipy.linalg.eigvalsh_tridiagonal(np.diag(hmat).real, np.diag(hmat, 1).real)
    return np.sort(_phases_0_2pi(np.exp(-1j * energies)))


def _conserving_blocks(circuit: Circuit) -> tuple[Block, ...] | None:
    """``fuse_blocks(circuit)`` if every block conserves particle number."""
    blocks = fuse_blocks(circuit)
    return blocks if all(b.conserves for b in blocks) else None


def _apply_block(u: np.ndarray, block: Block) -> None:
    """Left-multiply the sector matrix ``u`` in place by a conserving block.

    A one-hot state off the block's qubits sees the block's empty-branch
    factor m[0, 0]; on them it sees the weight-1 part of m.
    """
    m, rows = block.matrix, list(block.qubits)
    new = u[rows] * m[1, 1] if len(rows) == 1 else m[1:3, 1:3] @ u[rows]
    u *= m[0, 0]
    u[rows] = new


def _reduce_dense(circuit: Circuit) -> np.ndarray:
    """Sector matrix from the full 2**L simulation of each one-hot state;
    raises if any of them leaks out of the one-excitation sector."""
    L = circuit.num_qubits
    rows = [1 << i for i in range(L)]
    m = np.empty((L, L), dtype=complex)
    for i in range(L):
        psi = simulate(circuit, one_hot_state(L, i))
        col = psi.amplitudes[rows]
        leak = 1.0 - float(np.sum(np.abs(col) ** 2))
        if leak > UNITARITY_TOL:
            raise ValueError(
                f"circuit does not conserve particle number: one-hot site {i} "
                f"leaks {leak:g} out of the one-excitation sector"
            )
        m[:, i] = col
    return m


def reduce_to_single_particle(circuit: Circuit) -> SingleParticleOperator:
    """Project a number-conserving circuit onto the one-excitation sector.

    When every block of ``circuits.fuse_blocks`` conserves particle number,
    each acts on an L x L matrix, with no dense state.  Otherwise each
    one-hot state is evolved through the full 2**L simulation; leakage out
    of the sector there, or a reduced matrix that is not unitary, flags the
    circuit as not particle-number conserving.
    """
    blocks = _conserving_blocks(circuit)
    if blocks is None:
        return SingleParticleOperator(_reduce_dense(circuit))
    m = np.eye(circuit.num_qubits, dtype=complex)
    for block in blocks:
        _apply_block(m, block)
    return SingleParticleOperator(m)


# ---------------------------------------------------------------------------
# momentum space


def momentum_operator(k: float, W: float = 0.0) -> complex:
    """Bloch factor of the chiral walk with a uniform potential.

    The single band disperses as epsilon(k) = k + W (mod 2pi), W being the
    phase an occupied site gains per step.
    """
    return complex(np.exp(1j * (k + W)))


def chiral_momentum_family(n_k: int = 256, W: float = 0.0) -> np.ndarray:
    """The chiral walk's Bloch factors on a uniform k grid over [0, 2pi)."""
    ks = 2.0 * np.pi * np.arange(n_k) / n_k
    return np.exp(1j * (ks + W))


def xy_momentum_family(
    n_k: int = 256, J: float = 1.0, t: float = 1.0, onsite: float = 0.0
) -> np.ndarray:
    """Step propagators e^{-i t epsilon(k)} of the clean XY chain band,
    epsilon(k) = -4 J cos k + onsite."""
    ks = 2.0 * np.pi * np.arange(n_k) / n_k
    return np.exp(-1j * t * (-4.0 * J * np.cos(ks) + onsite))


def winding_number(samples) -> int:
    """Winding of det U_k around the unit circle over one Brillouin zone.

    ``samples`` is a closed loop: scalars or d x d unitaries on a uniform
    k grid (the wrap from the last sample back to the first is included).
    Computed as (1/2pi) * sum of arg det(U_{k+1} U_k^dagger), which is an
    exact integer up to floating-point residue.
    """
    u = np.asarray(samples, dtype=complex)
    if u.ndim == 1:
        u = u[:, np.newaxis, np.newaxis]
    if u.ndim != 3 or u.shape[1] != u.shape[2]:
        raise ValueError(f"expected scalars or square matrices, got shape {u.shape}")
    n_k = u.shape[0]
    if n_k < 8:
        raise ValueError(f"need at least 8 grid points, got {n_k}")
    for j in range(n_k):
        dev = unitarity_deviation(u[j])
        if dev >= UNITARITY_TOL:
            raise ValueError(f"sample {j} is not unitary: max |U+U - I| = {dev:g}")
    nxt = np.roll(np.arange(n_k), -1)
    increments = np.array(
        [np.angle(np.linalg.det(u[nxt[j]] @ u[j].conj().T)) for j in range(n_k)]
    )
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
    """Angles of unit-modulus eigenvalues, wrapped into [0, 2pi)."""
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
    12 decimals; phases that tie there are ordered by the lexicographic
    order of their eigenvector entries, rounded the same way, keeping the
    output deterministic.  That eigenvector key is built only for the
    columns whose rounded phase is shared.
    """
    t, q = scipy.linalg.schur(op.matrix, output="complex")
    phases = _phases_0_2pi(np.diag(t))
    phase_keys = [round(float(p), 12) for p in phases]
    key_counts = Counter(phase_keys)

    def sort_key(j: int):
        if key_counts[phase_keys[j]] == 1:  # a unique phase key never reaches the tie-break
            return (phase_keys[j], ())
        vec_key = tuple(
            (round(float(z.real), 12), round(float(z.imag), 12))
            for z in q[:, j]
        )
        return (phase_keys[j], vec_key)

    order = sorted(range(len(phases)), key=sort_key)
    return QuasiEnergySpectrum(phases[order], q[:, order])


def quasi_energy_phases(op: SingleParticleOperator) -> np.ndarray:
    """Eigenphases in [0, 2pi), ascending, with no eigenvectors formed.

    One eigenvalue-only LAPACK solve (zgeev without vectors).  A unitary
    has unit-norm rows and columns, so zgeev's balancing changes nothing,
    and it then runs the same Hessenberg reduction and QR iterations on
    the eigenvalues as the Schur decomposition in
    :func:`quasi_energy_spectrum`, whose Schur vectors never feed back
    into them: the phases equal that function's ``eigenphases`` bit for
    bit, at about half the cost.  See :func:`xy_step_phases` for the XY chain.
    """
    return np.sort(_phases_0_2pi(np.linalg.eigvals(op.matrix)))


def level_spacing_stats(eigenphases: np.ndarray) -> LevelSpacingStats:
    """Circular nearest-neighbour spacing statistics of the eigenphases."""
    phases = np.sort(eigenphases)
    if len(phases) < 2:
        raise ValueError("need at least two eigenphases for spacings")
    spacings = np.diff(phases, append=phases[0] + 2.0 * np.pi)
    return LevelSpacingStats(
        mean_spacing=float(np.mean(spacings)),
        spacing_variance=float(np.var(spacings)),
        min_spacing=float(np.min(spacings)),
    )


def predicted_chiral_eigenphases(L: int, profile: PotentialProfile) -> np.ndarray:
    """Analytic spectrum of shift x diagonal: the characteristic equation is
    lambda^L = e^{i sum(phases)}, so eigenphases are (sum + 2 pi n) / L."""
    total = float(np.sum(onsite_phases(profile)))
    phases = (total + 2.0 * np.pi * np.arange(L)) / L
    return np.sort(np.mod(phases, 2.0 * np.pi))


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
    beyond numerical noise, raise :class:`BranchCutError`.  A walk step
    U = S diag(d), S either shift (left is right under site reversal), is
    e^{i phi} G S G^+ (:func:`_shift_gauge`): H[i, j] = g_i h[(i - j) mod L]
    conj(g_j), h = ifft(wrapped phi - 2 pi k / L).  Other U go through Schur.
    """
    for sites in (slice(None), slice(None, None, -1)):
        if (gauge := _shift_gauge(op.matrix[sites, sites])) is not None:
            phi, g = gauge
            k = np.arange(len(g))
            theta = np.mod(phi - 2.0 * np.pi * k / len(g) + np.pi, 2.0 * np.pi) - np.pi
            h = np.fft.ifft(_principal_phases(theta))[np.subtract.outer(k, k) % len(g)]
            hmat = (g[:, np.newaxis] * h * g.conj())[sites, sites]
            break
    else:
        t, q = scipy.linalg.schur(op.matrix, output="complex")
        hmat = (q * _principal_phases(np.angle(np.diag(t)))) @ q.conj().T
    return 0.5 * (hmat + hmat.conj().T)


# ---------------------------------------------------------------------------
# CSV export (complex entries as re,im pairs)


def write_csv(path, header: list[str], rows) -> None:
    """One header row, then the rows; floats (numpy floats too) as their
    shortest round-tripping repr, LF line endings."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def save_spectrum_csv(spectrum: QuasiEnergySpectrum, path) -> None:
    dim = len(spectrum.eigenphases)
    header = ["n", "eigenphase"] + [f"v{j}_{part}" for j in range(dim) for part in ("re", "im")]
    # row n of the float view interleaves re, im of eigenvector n
    vectors = np.ascontiguousarray(spectrum.eigenvectors.T, dtype=complex).view(float)
    rows = [[n, phase, *vec] for n, (phase, vec) in enumerate(zip(spectrum.eigenphases, vectors))]
    write_csv(path, header, rows)


def save_matrix_csv(matrix: np.ndarray, path) -> None:
    m = np.ascontiguousarray(matrix, dtype=complex)
    header = [f"c{j}_{part}" for j in range(m.shape[1]) for part in ("re", "im")]
    write_csv(path, header, m.view(float))
