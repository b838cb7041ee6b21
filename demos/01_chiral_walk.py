"""Chiral wave propagation on a ring, with and without a potential barrier.

One Floquet step applies an onsite phase layer and then a ladder of
nearest-neighbour SWAPs whose composition is a cyclic one-site shift, so
a particle initialized on a single site marches around the ring one site
per step.  A diagonal potential cannot backscatter it: the per-site
probabilities below are identical for every barrier strength.
"""
import numpy as np

from fcqw import (
    PotentialProfile,
    basis_state,
    build_fcqw_walk,
    post_process,
    simulate,
    site_density_exact,
)

L = 8
START = 0  # report output labels this site 1


def bar(p, width=40):
    return "#" * int(round(p * width))


for W in (0.0, 4.0):
    profile = PotentialProfile.box(L, W)
    print(f"\n=== box barrier strength W = {W} (walls on sites 2,3,7,8) ===")
    for steps in (2, 5, 8):
        walk = build_fcqw_walk(L, profile, steps)
        state = simulate(walk, basis_state(L, 1 << START))
        density = post_process(site_density_exact(state))
        print(f"\nafter t = {steps} steps (expected site {(START + steps) % L + 1}):")
        for site, p in enumerate(density.p, start=1):
            print(f"  site {site}: {p:6.3f} {bar(p)}")

print("\nThe distribution never notices the barrier: the onsite layer is")
print("diagonal, so only phases change, and the hopping ladder is a fixed")
print("permutation of site occupations.")

# the same conclusion from the one-excitation sector: the step operator is
# (cyclic shift) x (diagonal phases), so |column| entries are a permutation
from fcqw import fcqw_step_operator

op = fcqw_step_operator(L, PotentialProfile.box(L, 4.0))
print("\n|step operator| (W=4):")
print(np.round(np.abs(op.matrix), 3))
