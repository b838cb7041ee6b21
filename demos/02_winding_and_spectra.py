"""Topological diagnostics: winding numbers and disorder spectra.

The chiral band disperses as epsilon(k) = k, wrapping once around the
quasi-energy circle per Brillouin zone, while the XY chain's cosine band
winds zero times.  Under random onsite disorder the chiral quasi-energy
spectrum keeps perfectly rigid spacings (only a global shift survives,
fixed by the total disorder phase), whereas the non-chiral spectrum
scrambles immediately.
"""
import numpy as np

from fcqw import (
    DisorderEnsemble,
    chiral_momentum_family,
    fcqw_step_operator,
    level_spacing_stats,
    predicted_chiral_eigenphases,
    quasi_energy_phases,
    sample_disorder_profiles,
    winding_number,
    xy_momentum_family,
    xy_step_operator,
)

print("winding number of the chiral walk band:", winding_number(chiral_momentum_family(256)))
print("winding number of the XY chain band:   ", winding_number(xy_momentum_family(256)))

L, W = 20, 4.0
ensemble = DisorderEnsemble(realizations=5, W=W, seed=7)
print(f"\ndisorder at strength W = {W}, L = {L}:")
print(f"{'realization':>11} | {'chiral spacing var':>18} | {'nonchiral spacing var':>21}")
for r, profile in enumerate(sample_disorder_profiles(ensemble, L)):
    # level_spacing_stats gives (mean, variance, min); index 1 is the variance
    chiral = level_spacing_stats(quasi_energy_phases(fcqw_step_operator(L, profile).matrix))[1]
    nonchiral = level_spacing_stats(quasi_energy_phases(xy_step_operator(L, profile).matrix))[1]
    print(f"{r:>11} | {chiral:>18.3e} | {nonchiral:>21.3e}")

profile = sample_disorder_profiles(DisorderEnsemble(1, W, seed=3), L)[0]
phases = quasi_energy_phases(fcqw_step_operator(L, profile).matrix)
predicted = predicted_chiral_eigenphases(profile.u, profile.W)
print("\nchiral eigenphases match the analytic ladder (sum of onsite phases")
print("+ 2 pi n) / L; largest deviation:", np.max(np.abs(phases - predicted)))
print("first five eigenphases:", np.round(phases[:5], 6))
print("predicted:             ", np.round(predicted[:5], 6))
