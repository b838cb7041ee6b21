"""Shot-level noise emulation and particle-number post-processing.

Each trajectory inserts random Paulis after gates (SWAPs are lowered to
three CNOTs, so the two-qubit rate applies per physical CNOT) and flips
readout bits.  Bit-flips move the register between particle-number
sectors; integrating every sector and renormalizing recovers more of the
ballistic peak than discarding the wrong-weight shots.
"""
import numpy as np

from fcqw import (
    NoiseSpec,
    PotentialProfile,
    amplitude_decay_sweep,
    build_fcqw_walk,
    peak_amplitude,
    post_process,
    restricted_site_density_counts,
    run_noisy,
    site_density_counts,
)
from fcqw.statevec import index_to_bitstring

L, steps, shots = 8, 8, 5000
walk = build_fcqw_walk(L, PotentialProfile.uniform(L, 0.0), steps)
start = 1 << 0  # basis index of one particle on site 0
target = steps % L

spec = NoiseSpec(p_cnot=7e-3, p_1q=3e-4, p_readout=1e-2, seed=1)
result = run_noisy(walk, start, spec, shots)

raw = site_density_counts(result, L)
mitigated = post_process(raw)
discarded = restricted_site_density_counts(result, L)

print(f"{shots} shots of the noisy {steps}-step walk (ideal peak = 1.0):")
print(f"  mean occupation at the ballistic site : {peak_amplitude(raw, target):.4f}")
print(f"  total measured particle number        : {np.sum(raw):.3f} (drifts above 1)")
print(f"  single-particle shots only, unscaled  : {peak_amplitude(discarded, target):.4f}")
print(f"  all sectors, renormalized             : {peak_amplitude(mitigated, target):.4f}")

top = sorted(result.counts.items(), key=lambda kv: -kv[1])[:5]
print("\nmost frequent bitstrings (site 1 is the leftmost character):")
for index, count in top:
    print(f"  {index_to_bitstring(index, L)}: {count}")

print("\npeak amplitude vs walk length (2000 shots per point):")
rows = amplitude_decay_sweep([(L, t) for t in range(1, 9)], spec, shots=2000)
for x, amp in rows:
    print(f"  t = {x}: {amp:.4f}")
slope = np.polyfit([x for x, _ in rows], np.log([a for _, a in rows]), 1)[0]
print(f"fitted decay rate per step: {-slope:.4f}")
