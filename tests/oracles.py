"""Dense constructions that only the tests read: each is the oracle of a
factored path in ``qmac``."""

import math

import numpy as np

from qmac import qmat, typicality
from qmac.qmat import DensityOperator, PureState


def dense_map(index, phase) -> np.ndarray:
    """The d_s x d_s matrix of the index map X -> phase * X[index] that
    :func:`eacode.apply_map` applies: row r holds phase[r] in column
    index[r]."""
    out = np.zeros((len(index),) * 2, dtype=complex)
    out[np.arange(len(index)), index] = phase
    return out


def type_sequences(counts):
    """Yield the sequences of the type with letter counts ``counts`` (a
    row of :func:`typicality.type_table`) in lexicographic order, one by
    one: the recursive oracle of the grouped sequence table that
    :func:`typicality.type_basis` and :func:`typicality.type_permutation`
    read."""
    counts = [int(c) for c in counts]
    n = sum(counts)
    seq: list[int] = []

    def rec():
        if len(seq) == n:
            yield tuple(seq)
            return
        for letter, c in enumerate(counts):
            if c > 0:
                counts[letter] -= 1
                seq.append(letter)
                yield from rec()
                seq.pop()
                counts[letter] += 1

    yield from rec()


def type_bases(decomp) -> tuple:
    """The dense d_s^n x d_s^n type bases (S, C) of the sender's and the
    receiver's share of ``decomp``, formed from its Schmidt bases by
    :func:`typicality.type_basis`, not from its permutations."""
    return tuple(typicality.type_basis(decomp.counts, b) for b in
                 (decomp.sender_schmidt, decomp.receiver_schmidt))


def block_projectors(decomp, t_index: int) -> tuple:
    """The projectors (P_t^sender, P_t^receiver) onto type block t of the
    two shares, each divided by d_t: the block's twirled state on each."""
    sl = decomp.block_slices[t_index]
    return tuple(b[:, sl] @ b[:, sl].conj().T / decomp.block_dims[t_index]
                 for b in type_bases(decomp))


def block_vector(decomp, t_index: int) -> np.ndarray:
    """Unit vector of the maximally entangled type block t of ``decomp`` on
    its ``full_space``: sum_j s_j (x) r_j / sqrt(d_t) over the block's
    sender and receiver basis columns."""
    d = decomp.block_dims[t_index]
    sl = decomp.block_slices[t_index]
    cols_s, cols_r = (b[:, sl] for b in type_bases(decomp))
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


def average_codeword_state(rho: DensityOperator, decomp) -> DensityOperator:
    """rho-bar = |S|^-1 sum_s U^T(s) rho U^*(s), in closed form.

    ``rho`` carries the receiver share of ``decomp`` as its leading factors,
    as :func:`eacode.channel_output_state` lays it out; the dense oracle of
    :func:`eacode.average_codeword_factors`.  The independent signs b_t
    cancel every term between two type blocks, and the Heisenberg-Weyl
    twirl inside block t replaces that block by I/d_t, so

        rho-bar = sum_t (P_t / d_t) (x) Tr_A[(P_t (x) I) rho (P_t (x) I)]

    with P_t the receiver projector onto block t.  The cost is one partial
    trace per block instead of one conjugation per index in S.
    """
    share = decomp.receiver_space
    if rho.space.labels[:len(share.labels)] != share.labels:
        raise ValueError("the receiver share must lead the state's factors")
    d_a = share.dim
    d_rest = rho.space.dim // d_a
    blocks = rho.matrix.reshape(d_a, d_rest, d_a, d_rest)
    out = np.zeros((rho.space.dim, rho.space.dim), dtype=complex)
    basis = type_bases(decomp)[1]
    for d, sl in zip(decomp.block_dims, decomp.block_slices):
        cols = basis[:, sl]
        p_t = cols @ cols.conj().T
        # Tr_A[(P_t (x) I) rho]: contract rho's two receiver indices with P_t
        rest = np.tensordot(blocks, p_t, axes=([0, 2], [1, 0]))
        out += np.kron(p_t / d, rest)
    return DensityOperator(rho.space, out)
