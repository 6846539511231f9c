"""
The beamsplitter multiple access channel with shared squeezing
==============================================================

Both senders share a two-mode squeezed vacuum with the receiver and
transmit one arm each into a beamsplitter.  The assisted rate region has a
closed form in the symplectic eigenvalues of two covariance blocks; an
independent pipeline recomputes it from seven marginal entropies of the
full four-mode output state.  The unassisted outer bound is sometimes
strictly inside the assisted region, and sometimes not.
"""

import numpy as np

from qmac import gaussian
from qmac.gaussian import BosonicMacParams

# Closed form vs the entropy pipeline at one parameter point.
p = BosonicMacParams(eta=0.3, nsa=2.0, nsb=7.0)
closed = gaussian.ea_bosonic_region(p)
numeric = gaussian.ea_bosonic_region_numeric(p)
print("closed form :", closed.bounds())
print("numeric      :", numeric.bounds())
print("max deviation:", max(abs(c - n) for c, n in
                            zip(closed.bounds(), numeric.bounds())))

# The per-arm entropies come from two-mode symplectic spectra.
v = gaussian.bosonic_output_state(p)
print("\nsymplectic spectrum of the Alice-receiver block:",
      gaussian.symplectic_eigenvalues(v.marginal(("A", "C"))))
print("global output state is pure:",
      np.allclose(gaussian.symplectic_eigenvalues(v), 1.0, atol=1e-8))

# Transmissivity sweeps behind the two standard pictures: a lopsided pair
# of photon budgets and a symmetric one (whose sum bound is flat).
for nsa, nsb in ((1000.0, 10.0), (10.0, 10.0)):
    rows = gaussian.region_sweep(nsa, nsb, np.linspace(0, 1, 11))
    print(f"\nN_Sa = {nsa:g}, N_Sb = {nsb:g}")
    print("  eta     R1       R2       sum      YS sum   gap")
    for row in rows:
        print("  {eta:4.2f}  {r1:7.3f}  {r2:7.3f}  {sum:7.3f}  "
              "{ys_sum:7.3f}  {sum_gap:6.3f}".format(
                  **{key: row[key] for key in rows.dtype.names}))

# Containment against the unassisted outer bound flips with parameters.
for eta, nsa, nsb in ((0.5, 10.0, 8.0), (0.95, 1.0, 1.0)):
    cmp_ = gaussian.compare_regions(BosonicMacParams(eta, nsa, nsb))
    verdict = "contains" if cmp_["ea_contains_ys"] else "does NOT contain"
    print(f"\n(N_Sa, N_Sb, eta) = ({nsa:g}, {nsb:g}, {eta:g}): "
          f"assisted region {verdict} the outer bound; "
          f"sum gap = {cmp_['sum_gap']:.4f} bits")
    print("  assisted :", tuple(round(b, 4) for b in cmp_["ea"].bounds()))
    print("  outer    :", tuple(round(b, 4) for b in cmp_["ys"].bounds()))
