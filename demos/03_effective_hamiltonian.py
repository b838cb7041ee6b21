"""The effective Hamiltonian behind the chiral step is intrinsically
non-local.

Taking the principal matrix logarithm of the clean step operator gives a
Hermitian H with e^{iH} = U.  Its couplings H[0][d] decay like 1/d with
alternating signs: the sawtooth dispersion epsilon(k) = k has Fourier
coefficients ~ (-1)^d / d, and that slow power-law tail is exactly what a
local Hamiltonian cannot have while supporting one unpaired chiral mode.
"""
import numpy as np

from fcqw import PotentialProfile, effective_hamiltonian, fcqw_step_operator
from fcqw.harness import write_csv

L = 16
op = fcqw_step_operator(L, PotentialProfile.uniform(L, 0.0))
hmat = effective_hamiltonian(op)

print(f"coupling row H[0][d] for the clean L={L} walk:")
print(f"{'d':>2} | {'coupling':>22} | {'|coupling|':>10} | {'1/d':>6}")
for d in range(1, 9):
    z = hmat[0, d]
    print(f"{d:>2} | {z.real:+.4f} {z.imag:+.4f}i | {abs(z):>10.4f} | {1/d:>6.4f}")

mags = np.abs(hmat[0, 1:7])
ds = np.arange(1, 7)
c = np.exp(np.mean(np.log(mags * ds)))
print(f"\nlog-space fit |H[0][d]| ~ c/d gives c = {c:.4f}; "
      f"max relative deviation {np.max(np.abs(mags - c/ds)/(c/ds)):.1%}")

signs = np.sign(hmat[0, 1:7].imag)
print("imaginary-part signs alternate:", " ".join("+" if s > 0 else "-" for s in signs))

header = [f"c{j}_{part}" for j in range(L) for part in ("re", "im")]
write_csv("effective_hamiltonian_L16.csv", header, hmat.view(float).tolist())
print("\nfull matrix written to effective_hamiltonian_L16.csv (re,im pairs)")
