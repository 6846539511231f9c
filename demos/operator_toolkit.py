"""
Labeled operators, channels, and typical projectors
===================================================

A tour of the finite-dimensional substrate: tensor factors are named, so
partial traces and channel applications are requested by label, and the
typicality machinery that feeds every decoder is a few lines away.
"""

import numpy as np

from qmac import info, qmat, typicality
from qmac.qmat import DensityOperator, FactorSpace, PureState

# A Bell pair lives on two named qubits.
bell = PureState(
    FactorSpace(("A", "B"), (2, 2)),
    np.array([1, 0, 0, 1]) / np.sqrt(2),
)
print("Bell pair on", bell.space)
print("reduced state on A:\n", qmat.partial_trace(bell, ("A",)).matrix.real)
print("mutual information I(A;B) =",
      info.mutual_information(bell.density(), ("A",), ("B",)), "bits")

# Channels are Kraus families; built-ins cover the usual suspects.
damp = qmat.named_channel("amplitude-damping:0.3")
excited = DensityOperator(FactorSpace(("Ap",), (2,)), np.diag([0.0, 1.0]))
print("\namplitude damping on |1><1| ->\n",
      qmat.apply_channel(damp, excited).matrix.real)

# Typical projectors of a biased qubit: weak typicality on eigenvalue
# products.  At small n the retained mass is very sensitive to delta.
rho = DensityOperator(FactorSpace(("A",), (2,)), np.diag([0.9, 0.1]))
print("\nbase entropy H =", round(info.von_neumann_entropy(rho), 6), "bits")
print("delta   rank   retained mass")
for delta in (0.1, 0.2, 0.35, 0.6, 1.0):
    tp = typicality.typical_projector(rho, 4, delta)
    print(f"{delta:5.2f}   {tp.rank:4d}   {tp.weight:.6f}")

# Every type class of sequences carries a subspace; together they resolve
# the identity of the 4-copy space.
# A type is a row of letter counts; type_table lists them with their dims.
counts, dims = typicality.type_table(4, 2)
total = sum(typicality.type_class_projector(row) for row in counts)
print("\ntype classes of n=4 binary sequences:",
      list(zip(map(tuple, counts.tolist()), dims)))
print("sum of type projectors is the identity:",
      bool(np.allclose(total, np.eye(16))))
