"""Dense constructions that only the tests read: each is the oracle of a
factored path in ``qmac``."""

import math

import numpy as np

from qmac import eacode, qmat, typicality
from qmac.qmat import DensityOperator, FactorSpace, PureState


def full_space(decomp) -> FactorSpace:
    """The side-major n-fold space of ``decomp``: sender labels, then
    receiver labels."""
    sides = (decomp.sender_space, decomp.receiver_space)
    return FactorSpace(sides[0].labels + sides[1].labels,
                       sides[0].dims + sides[1].dims)


def permute_rows(r: np.ndarray, space: FactorSpace, labels) -> np.ndarray:
    """The rows of ``r`` (on ``space``) moved to the factor order
    ``labels``: the oracle of the row orders that
    :func:`qmat.column_power` writes in place."""
    perm = [space.axis(l) for l in labels]
    t = r.reshape(space.dims + (r.shape[-1],)).transpose(perm + [len(perm)])
    return t.reshape(space.dim, r.shape[-1])


def phi_power(decomp) -> PureState:
    """phi^(x)n on :func:`full_space`, by n - 1 ``np.kron`` calls and a
    :func:`qmat.permute` from the copy-major order: the oracle of the
    n-fold products that :func:`qmat.column_power` fills in place."""
    vec = decomp.phi.vector
    for _ in range(decomp.n - 1):
        vec = np.kron(vec, decomp.phi.vector)
    copy_major = qmat.power_space(decomp.phi.space, decomp.n)
    return qmat.permute(PureState(copy_major, vec), full_space(decomp).labels)


def output_factor_uses(ch, state, uses, labels) -> np.ndarray:
    """R with R R† the output of ``state`` after the channel ``uses``, one
    contraction of the Kraus matrices per use ``(acting_on, out_labels)``
    on the whole state, with a QR of R† whenever R is wider than tall: the
    n-use oracle of :func:`qmat.output_factor` and
    :func:`eacode.channel_output_factor`.  R's rows follow ``labels``."""
    d_in = ch.in_space.dim
    kraus = np.stack(ch.kraus).reshape(len(ch.kraus), -1)
    if len(kraus) > kraus.shape[1]:
        kraus = np.linalg.qr(kraus, mode="r")
    kraus = kraus.reshape(-1, d_in)
    space, r = state.space, state.vector.reshape(-1, 1)
    for acting_on, out_labels in uses:
        acting_on, rest, new_space = qmat._channel_use(ch, space, acting_on,
                                                       out_labels)
        moved = permute_rows(r, space, acting_on + rest).reshape(d_in, -1)
        r = (kraus @ moved).reshape(-1, new_space.dim, r.shape[1]).transpose(
            1, 2, 0).reshape(new_space.dim, -1)
        if r.shape[1] > r.shape[0]:
            r = np.linalg.qr(r.conj().T, mode="r").conj().T
        space = new_space
    return permute_rows(r, space, labels)


def channel_output_factor_by_uses(channel, decomps) -> np.ndarray:
    """:func:`eacode.channel_output_factor` as n channel uses on the tensor
    of the senders' :func:`phi_power` states."""
    uses = [(tuple(f"{d.sender_label}{i}" for d in decomps),
             tuple(f"{l}{i}" for l in channel.out_space.labels))
            for i in range(1, decomps[0].n + 1)]
    state = qmat.tensor(*(phi_power(d) for d in decomps))
    return output_factor_uses(channel, state, uses, eacode.channel_output_space(
        channel, decomps).labels)


def gram_defect(r: np.ndarray, s: np.ndarray, rows: int = 512) -> float:
    """max |R R† - S S†| over the entries, formed ``rows`` rows at a time,
    so no d x d matrix is held."""
    return max(float(np.max(np.abs(r[i:i + rows] @ r.conj().T
                                   - s[i:i + rows] @ s.conj().T)))
               for i in range(0, len(r), rows))


def kron_columns(local_basis, seqs) -> np.ndarray:
    """Column a = local[:, seqs[a, 0]] (x) ... (x) local[:, seqs[a, n-1]],
    copy-major, by chained column-wise Kronecker products: the oracle of
    :func:`qmat.column_power`."""
    local_basis = np.asarray(local_basis, dtype=complex)
    cols = local_basis[:, seqs[:, 0]]
    for letters in seqs.T[1:]:
        cols = (cols[:, None, :] * local_basis[:, letters][None]).reshape(
            -1, len(seqs))
    return cols


def bundle_bases(rho, n: int, delta: float, marginals: dict,
                 space: FactorSpace) -> dict:
    """name -> (labels, B) of :func:`typicality.projector_bundle`, each B
    the copy-major basis of :func:`typicality.typical_projector` with its
    rows then moved to ``space``'s order (:func:`permute_rows`)."""
    out = {}
    for name, keep in marginals.items():
        tp = typicality.typical_projector(qmat.partial_trace(rho, keep), n,
                                          delta)
        labels = tuple(l for l in space.labels if l in tp.space.labels)
        out[name] = (labels, permute_rows(tp.basis, tp.space, labels))
    return out


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
    its :func:`full_space`: sum_j s_j (x) r_j / sqrt(d_t) over the block's
    sender and receiver basis columns."""
    d = decomp.block_dims[t_index]
    sl = decomp.block_slices[t_index]
    cols_s, cols_r = (b[:, sl] for b in type_bases(decomp))
    vec = np.zeros(full_space(decomp).dim, dtype=complex)
    for j in range(d):
        vec += np.kron(cols_s[:, j], cols_r[:, j])
    return vec / math.sqrt(d)


def block_state(decomp, t_index: int) -> PureState:
    return PureState(full_space(decomp), block_vector(decomp, t_index))


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
