"""The non-chiral chain localizes where the chiral walk does not.

The XY chain hops in both directions, so a strong box potential confines
the packet between the walls (inverse participation ratio grows, nothing
leaks past the barrier).  The same sweep on the chiral walk would show a
flat IPR of 1 at every strength.
"""
import numpy as np

from fcqw import (
    PotentialProfile,
    TrotterConfig,
    build_xy_trotter,
    emit_qasm3,
    ipr,
    post_process,
    xy_step_operator,
)

L, start = 20, 3
times = [0.1, 0.48, 0.86, 1.24, 1.62, 2.0]

print(f"exact evolution of the L={L} chain, packet starting at site {start + 1}:")
print(f"{'t':>5} | " + " | ".join(f"W={w:>3}" for w in (0, 3, 6)))
series = {}
for W in (0.0, 3.0, 6.0):
    profile = PotentialProfile.box(L, W)
    iprs = []
    for t in times:
        op = xy_step_operator(L, profile, J=1.0, t=t)
        density = post_process(np.abs(op.matrix[:, start]) ** 2)
        iprs.append(ipr(density))
    series[W] = iprs
for i, t in enumerate(times):
    print(f"{t:>5} | " + " | ".join(f"{series[w][i]:.3f}" for w in (0.0, 3.0, 6.0)))

print("\nprobability past the barrier at t = 2.0:")
beyond = [i for i in range(L) if i not in (1, 2, 6, 7) and i not in (3, 4, 5)]
for W in (0.0, 6.0):
    op = xy_step_operator(L, PotentialProfile.box(L, W), J=1.0, t=2.0)
    density = post_process(np.abs(op.matrix[:, start]) ** 2)
    print(f"  W = {W}: {float(np.sum(density[beyond])):.4f}")

circuit = build_xy_trotter(8, PotentialProfile.box(8, 6.0), TrotterConfig(1.0, 2.0, 2))
print(f"\nthe device-style trotterized circuit for L=8, t=2.0, n=2 has "
      f"{len(circuit.instructions)} gates; first lines of its OpenQASM:")
print("\n".join(emit_qasm3(circuit).splitlines()[:12]))
