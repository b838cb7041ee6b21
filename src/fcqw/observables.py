"""Measured quantities: per-site occupation densities from exact states or
shot counts, the all-sector normalization that mitigates incoherent
bit-flip noise, the inverse participation ratio, and the wave-packet peak
amplitude.  A density is a plain (L,) float array, site i at index i."""
from __future__ import annotations

import numpy as np

from .statevec import StateVector

_NORM_TOL = 1e-9


def site_density_exact(state: StateVector) -> np.ndarray:
    """Occupation expectation per site: p_i = sum over basis states with
    bit i set of |amplitude|^2.  Unnormalized (sums to the particle number)."""
    probs = np.abs(state.amplitudes) ** 2
    L = state.num_qubits
    idx = np.arange(len(probs))
    return np.array([probs[(idx >> i) & 1 == 1].sum() for i in range(L)])


def _count_sites(result, L: int, weight: int | None) -> np.ndarray:
    """Per-site frequency over the outcomes of the given Hamming weight
    (all of them for None), divided by the total shot count."""
    if result.num_qubits != L:
        raise ValueError(f"outcome length {result.num_qubits}, expected {L}")
    index = np.fromiter(result.counts, dtype=np.int64, count=len(result.counts))
    if np.any(index >> L):
        raise ValueError(f"basis index out of range for L={L}")
    count = np.fromiter(result.counts.values(), dtype=np.int64, count=len(index))
    bits = index[:, None] >> np.arange(L) & 1
    if weight is not None:
        count = count * (bits.sum(axis=1) == weight)
    return count @ bits / result.shots


def site_density_counts(result, L: int) -> np.ndarray:
    """Occupation frequency per site from measured counts (unnormalized)."""
    return _count_sites(result, L, None)


def restricted_site_density_counts(result, L: int) -> np.ndarray:
    """Per-site frequency keeping only the one-particle outcomes, still
    divided by the total shot count (discard, don't rescale).  This is the
    unmitigated baseline the all-sector normalization is compared against."""
    return _count_sites(result, L, 1)


def post_process(raw) -> np.ndarray:
    """Normalize over all particle-number sectors: P_i = p_i / sum_j p_j."""
    p = np.asarray(raw, dtype=float)
    total = float(np.sum(p))
    if total <= 0.0:
        raise ValueError("cannot normalize an all-zero site density")
    return p / total


def ipr(p: np.ndarray) -> float:
    """Inverse participation ratio sum_i p_i^2 of a normalized distribution;
    1 when fully localized, 1/L when uniform."""
    if abs(float(np.sum(p)) - 1.0) > _NORM_TOL:
        raise ValueError("ipr requires a normalized site distribution")
    return float(np.sum(p**2))


def peak_amplitude(p: np.ndarray, expected_site: int) -> float:
    """Value of the distribution at the ballistic position.  The caller
    supplies the expected site ((start + t) mod L for the chiral walk), so
    noise cannot move the probe with the argmax."""
    if not 0 <= expected_site < len(p):
        raise IndexError(f"site {expected_site} out of range for {len(p)} sites")
    return float(p[expected_site])
