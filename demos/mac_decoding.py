"""
Two senders, one receiver: successive and simultaneous decoding
===============================================================

Alice and Bob each share entanglement with Charlie and encode with
Heisenberg-Weyl unitaries.  Charlie can decode their messages one sender
at a time (successive) or with a single square-root measurement
(simultaneous); a coherent lift of that measurement decodes without
damaging the state, and modular message shifts convert average error into
maximal error exactly.
"""

import numpy as np

from qmac import eacode, info, qmat, simuldecode
from qmac.qmat import FactorSpace, PureState


def bell(sender, receiver):
    return PureState(FactorSpace((sender, receiver), (2, 2)),
                     np.array([1, 0, 0, 1]) / np.sqrt(2))


channel = qmat.named_channel("cnot-mac")
phi, psi = bell("Ap", "A"), bell("Bp", "B")

# What the channel supports: the assisted classical region.
region = info.ea_cc_region(channel, phi, psi)
print("cnot-mac assisted region:", region.bounds(), "bits per use")
print("vertices:", region.vertices)

for n in (1, 2):
    decomps = [eacode.type_decompose(phi, n), eacode.type_decompose(psi, n)]
    # R (rho = R R†) and the typical projectors do not depend on the books
    factor = eacode.channel_output_factor(channel, decomps)
    projectors = simuldecode.mac_typical_projectors(channel, decomps, 1.0)
    errs = {"simultaneous": [], "successive": []}
    for seed in range(8):
        books = [eacode.sample_code(d, 2, 100 + 2 * seed + i)
                 for i, d in enumerate(decomps)]
        for mode in errs:
            rep = simuldecode.run_mac_experiment(factor, books, mode,
                                                 projectors)
            errs[mode].append(rep.avg_error)
    print(f"\nn = {n}: mean average error over 8 codebooks")
    for mode, vals in errs.items():
        print(f"  {mode:13s} {np.mean(vals):.4f}")

# One experiment in detail: outcome breakdown, the randomization identity,
# and the coherent decoder's fidelity guarantee (n = 2, R and projectors
# from the loop above).
books = [eacode.sample_code(d, 2, seed) for d, seed in zip(decomps, (7, 8))]
report = simuldecode.run_mac_experiment(factor, books, "simultaneous",
                                        projectors)
# the coherent decoder lifts the dense POVM itself
povm = simuldecode.simultaneous_povm(books, projectors)
print("\nn = 2 simultaneous decoder, seeds", report.seeds)
print("  average error:", round(report.avg_error, 6))
print("  error terms:", {k: round(v, 6) for k, v in report.breakdown.items()})
print("  max error via shift randomization:",
      round(report.max_error_randomized, 6), "(equals the average exactly)")

decoder = simuldecode.coherent_decoder(povm)
fidelity = simuldecode.coherent_fidelity(factor, books, projectors.space,
                                         povm)
print("  coherent decoder: V+V = I within",
      f"{decoder.isometry_defect():.1e};",
      f"fidelity {fidelity:.4f} >= average success "
      f"{1 - report.avg_error:.4f}")

# The Hayashi-Nagaoka inequality is what turns square-root measurements
# into error bounds; spot-check it on a random qualifying pair.
rng = np.random.default_rng(1)
a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
s = a @ a.conj().T
s /= np.linalg.eigvalsh(s).max() * 1.5
b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
t = 0.3 * (b @ b.conj().T)
holds, gap = simuldecode.hayashi_nagaoka_check(s, t)
print("\nHayashi-Nagaoka check on a random (S, T):",
      holds, f"(min gap eigenvalue {gap:.4f})")
