"""Dense constructions that only the tests read: each is the oracle of a
factored path in ``qmac``."""

import math

import numpy as np

from qmac import qmat, typicality
from qmac.qmat import PureState


def block_vector(decomp, t_index: int) -> np.ndarray:
    """Unit vector of the maximally entangled type block t of ``decomp`` on
    its ``full_space``: sum_j s_j (x) r_j / sqrt(d_t) over the block's
    sender and receiver basis columns."""
    d = decomp.block_dims[t_index]
    sl = decomp.block_slices[t_index]
    cols_s = decomp._sender_block_basis[:, sl]
    cols_r = decomp._receiver_block_basis[:, sl]
    vec = np.zeros(decomp.full_space.dim, dtype=complex)
    for j in range(d):
        vec += np.kron(cols_s[:, j], cols_r[:, j])
    return vec / math.sqrt(d)


def block_state(decomp, t_index: int) -> PureState:
    return PureState(decomp.full_space, block_vector(decomp, t_index))


def embedded_typical_projectors(rho: qmat.DensityOperator, n: int,
                                delta: float, marginals: dict,
                                target: qmat.FactorSpace) -> dict:
    """Typical projectors of marginals of ``rho``, embedded in the n-fold space.

    ``rho`` is a single-copy state and ``marginals`` maps a name to the
    labels of ``rho`` that the marginal keeps.  Each marginal's typical
    projector on its n copies (label X -> X1..Xn) is extended by identity
    onto ``target``, which must hold those copies.  Returns name -> matrix.
    """
    out = {}
    for name, labels in marginals.items():
        tp = typicality.typical_projector(qmat.partial_trace(rho, labels), n,
                                          delta)
        out[name] = qmat.embed(qmat.Operator(tp.space, tp.projector),
                               target).matrix
    return out
