"""Entanglement-assisted codebooks from shared pure states.

The n-fold power of a bipartite pure state splits into a direct sum of
maximally entangled blocks, one per type class of the Schmidt distribution.
Heisenberg-Weyl shift/phase operators acting block by block on the sender's
share commute through the shared entanglement by the transpose trick, so an
encoder applied before the channel is equivalent to its transpose applied
at the receiver.  Random codes draw one full index vector per message.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import qmat, typicality
from .qmat import DensityOperator, FactorSpace, KrausChannel, PovmSet, PureState

__all__ = [
    "TypeDecomposition",
    "HwIndex",
    "EaCodeBook",
    "schmidt",
    "type_decompose",
    "hw_unitary",
    "hw_transpose_unitary",
    "transpose_trick_residual",
    "enumerate_indices",
    "index_set_size",
    "sample_code",
    "channel_output_space",
    "channel_output_factor",
    "channel_output_state",
    "receiver_encoder",
    "encode",
    "conjugate_by_receiver_encoders",
    "average_codeword_state",
    "average_codeword_factors",
    "block_overlaps",
    "codeword_factors",
    "codeword_stack",
    "codeword_table",
    "overlap_table",
]

REASSEMBLY_TOL = 1e-10


def schmidt(phi: PureState, cut):
    """Schmidt decomposition of a pure state across a bipartite cut.

    Parameters
    ----------
    phi : PureState
    cut : sequence of labels
        The factors forming the left side; the remaining labels form the
        right side (both sides must be nonempty).

    Returns
    -------
    (coefficients, left_basis, right_basis)
        Nonnegative coefficients in descending order with sum of squares 1,
        and orthonormal columns such that
        ``phi = sum_i c_i left[:, i] (x) right[:, i]``.  Degenerate
        coefficients keep the SVD's deterministic output order.
    """
    cut = tuple(cut)
    rest = tuple(l for l in phi.space.labels if l not in set(cut))
    if not cut or not rest:
        raise ValueError("cut must split the state into two nonempty sides")
    for l in cut:
        phi.space.axis(l)
    moved = qmat.permute(phi, cut + rest)
    d_left = phi.space.subspace(cut).dim
    d_right = phi.space.subspace(rest).dim
    m = moved.vector.reshape(d_left, d_right)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return s, u, vh.T


class TypeDecomposition:
    """Direct-sum structure of the n-fold power of a bipartite pure state.

    Attributes
    ----------
    phi : PureState
        Single-copy state on (sender, receiver) labels.
    n : int
    schmidt_probs : ndarray
        Squared Schmidt coefficients, descending.
    types : tuple of TypeClass
        Type classes of length-n sequences over the Schmidt alphabet.
    probs : ndarray
        Block weights p(t) = p(representative) * d_t; sums to 1.
    sender_space, receiver_space : FactorSpace
        n-fold one-sided spaces (labels like Ap1..Apn / A1..An).
    full_space : FactorSpace
        Side-major n-fold space: sender labels then receiver labels.
    phi_n : PureState
        The n-fold state on ``full_space``.
    """

    def __init__(self, phi: PureState, n: int):
        if len(phi.space.labels) != 2:
            raise ValueError("type decomposition needs a two-factor pure state")
        sender, receiver = phi.space.labels
        coeffs, left, right = schmidt(phi, (sender,))
        d = len(coeffs)
        self.phi = phi
        self.n = int(n)
        self.sender_label = sender
        self.receiver_label = receiver
        self.schmidt_probs = coeffs**2
        self.types = tuple(typicality.enumerate_types(n, d))
        self.probs = np.array(
            [
                t.dim * math.prod(
                    self.schmidt_probs[i] ** c for i, c in enumerate(t.counts)
                )
                for t in self.types
            ]
        )
        self.sender_space = FactorSpace(
            tuple(f"{sender}{i}" for i in range(1, n + 1)),
            (phi.space.dim_of(sender),) * n,
        )
        self.receiver_space = FactorSpace(
            tuple(f"{receiver}{i}" for i in range(1, n + 1)),
            (phi.space.dim_of(receiver),) * n,
        )
        self.full_space = FactorSpace(
            self.sender_space.labels + self.receiver_space.labels,
            self.sender_space.dims + self.receiver_space.dims,
        )
        vec = phi.vector
        for _ in range(n - 1):
            vec = np.kron(vec, phi.vector)
        copy_major = qmat.power_space(phi.space, n)
        self.phi_n = qmat.permute(
            PureState(copy_major, vec), self.full_space.labels
        )
        # per-block sequence bases, built once; columns ordered (type, lex seq)
        starts = itertools.accumulate(self.block_dims, initial=0)
        self.block_slices = [
            slice(start, start + d) for start, d in zip(starts, self.block_dims)
        ]
        self._sender_block_basis = typicality.type_basis(self.types, left)
        self._receiver_block_basis = typicality.type_basis(self.types, right)
        # sum_t sqrt(p_t) |block t> = sum_j w_j s_j (x) r_j with
        # w_j = sqrt(p_t / d_t) on block t's columns: one product
        w = np.repeat(np.sqrt(self.probs / self.block_dims), self.block_dims)
        assembled = ((self._sender_block_basis * w)
                     @ self._receiver_block_basis.T).ravel()
        defect = float(np.linalg.norm(assembled - self.phi_n.vector))
        if defect > REASSEMBLY_TOL:
            raise AssertionError(
                f"type-block reassembly misses the n-fold state by {defect:.3e}"
            )

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(t.dim for t in self.types)

    def block_vector(self, t_index: int) -> np.ndarray:
        """Unit vector of the maximally entangled block t on ``full_space``."""
        t = self.types[t_index]
        sl = self.block_slices[t_index]
        cols_s = self._sender_block_basis[:, sl]
        cols_r = self._receiver_block_basis[:, sl]
        vec = np.zeros(self.full_space.dim, dtype=complex)
        for j in range(t.dim):
            vec += np.kron(cols_s[:, j], cols_r[:, j])
        return vec / math.sqrt(t.dim)

    def block_state(self, t_index: int) -> PureState:
        return PureState(self.full_space, self.block_vector(t_index))


def type_decompose(phi: PureState, n: int) -> TypeDecomposition:
    """Decompose |phi>^(x)n into maximally entangled type blocks."""
    return TypeDecomposition(phi, n)


@dataclass(frozen=True, slots=True)
class HwIndex:
    """Per-type Heisenberg-Weyl indices (x_t, z_t, b_t).

    ``x_t`` and ``z_t`` are shift and phase exponents modulo the block
    dimension; ``b_t`` in {0, 1} flips the block's global sign.  Two
    indices are equal when their triples are.
    """

    triples: tuple[tuple[int, int, int], ...]
    block_dims: tuple[int, ...] = field(compare=False)

    def __post_init__(self):
        triples = tuple(
            (int(x), int(z), int(b)) for x, z, b in self.triples
        )
        block_dims = tuple(int(d) for d in self.block_dims)
        if len(triples) != len(block_dims):
            raise ValueError("one (x, z, b) triple per type block required")
        for (x, z, b), d in zip(triples, block_dims):
            if not (0 <= x < d and 0 <= z < d and b in (0, 1)):
                raise ValueError(
                    f"index ({x}, {z}, {b}) out of range for block dimension {d}"
                )
        object.__setattr__(self, "triples", triples)
        object.__setattr__(self, "block_dims", block_dims)

    def __repr__(self):
        return f"HwIndex{self.triples}"


def _block_matrix(s: HwIndex, decomp: TypeDecomposition) -> np.ndarray:
    """Block-diagonal (-1)^b X(x) Z(z) in the (type, lex-sequence) basis."""
    if s.block_dims != decomp.block_dims:
        raise ValueError("index block dimensions do not match the decomposition")
    dim = decomp.sender_space.dim
    out = np.zeros((dim, dim), dtype=complex)
    for (x, z, b), t, sl in zip(s.triples, decomp.types, decomp.block_slices):
        d = t.dim
        block = np.zeros((d, d), dtype=complex)
        for j in range(d):
            block[(j + x) % d, j] = np.exp(2j * np.pi * j * z / d)
        out[sl, sl] = (-1.0) ** b * block
    return out


def hw_unitary(s: HwIndex, decomp: TypeDecomposition) -> np.ndarray:
    """The encoder U(s) on the sender's n-fold share, block-diagonal by type."""
    b = decomp._sender_block_basis
    return b @ _block_matrix(s, decomp) @ b.conj().T


def hw_transpose_unitary(s: HwIndex, decomp: TypeDecomposition) -> np.ndarray:
    """U^T(s) on the receiver's n-fold share (transpose in the paired bases)."""
    b = decomp._receiver_block_basis
    return b @ _block_matrix(s, decomp).T @ b.conj().T


def transpose_trick_residual(s: HwIndex, decomp: TypeDecomposition) -> float:
    """Norm of (U(s) on sender - U^T(s) on receiver) applied to the n-fold state.

    Zero for every index vector: the encoder ricochets off the type-block
    entanglement onto the receiver side.
    """
    u_s = qmat.Operator(decomp.sender_space, hw_unitary(s, decomp))
    vec = decomp.phi_n.vector
    lhs = qmat.apply_local(u_s, vec, decomp.full_space)
    rhs = qmat.apply_local(receiver_encoder(decomp, s), vec, decomp.full_space)
    return float(np.linalg.norm(lhs - rhs))


def index_set_size(decomp: TypeDecomposition) -> int:
    """|S| = prod over blocks of 2 d_t^2."""
    return math.prod(2 * d * d for d in decomp.block_dims)


def enumerate_indices(decomp: TypeDecomposition):
    """Yield every HwIndex in S, lexicographic in (x, z, b) per block."""
    ranges = [
        itertools.product(range(d), range(d), range(2))
        for d in decomp.block_dims
    ]
    for combo in itertools.product(*ranges):
        yield HwIndex(combo, decomp.block_dims)


@dataclass(frozen=True, slots=True)
class EaCodeBook:
    """A random code: one Heisenberg-Weyl index vector per message.

    ``encoders`` holds the receiver encoder U^T(s) of each entry, in
    message order (:func:`receiver_encoder`), built once with the book.
    """

    message_count: int
    entries: tuple[HwIndex, ...]
    seed: int
    decomp: TypeDecomposition
    encoders: tuple[qmat.Operator, ...] = field(
        init=False, compare=False, repr=False)

    def __post_init__(self):
        entries = tuple(self.entries)
        if len(entries) != self.message_count:
            raise ValueError("entry count must equal message_count")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "encoders", tuple(
            receiver_encoder(self.decomp, s) for s in entries))

    def __getitem__(self, m: int) -> HwIndex:
        return self.entries[m]


def sample_code(decomp: TypeDecomposition, message_count: int, seed: int
                ) -> EaCodeBook:
    """Draw a codebook uniformly from the full index set S.

    Per-message draws come from a counter-based generator keyed by the seed
    with the counter offset by the message index, so books are reproducible
    and messages can be sampled independently (or in parallel) in any
    order.
    """
    entries = []
    for m in range(message_count):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=m << 128))
        triples = []
        for d in decomp.block_dims:
            x = int(rng.integers(d))
            z = int(rng.integers(d))
            b = int(rng.integers(2))
            triples.append((x, z, b))
        entries.append(HwIndex(triples, decomp.block_dims))
    return EaCodeBook(message_count, entries, seed, decomp)


def channel_output_space(channel: KrausChannel, decomps) -> FactorSpace:
    """Factor order of :func:`channel_output_state`.

    The receiver shares of ``decomps`` come first in reverse sender order
    (B..., then A...; A... alone for one sender), then the channel outputs
    copy by copy (C1, C2, ... per output label).
    """
    n = decomps[0].n
    if any(d.n != n for d in decomps):
        raise ValueError("every sender must share the same block length")
    # in (B..., A..., C...) every name the decoders read is a contiguous
    # run: A, B, C, AB, AC and ABC, so each projector is one stacked product
    shares = [d.receiver_space for d in reversed(decomps)]
    out = qmat.power_space(channel.out_space, n)
    return FactorSpace(
        tuple(l for sp in shares for l in sp.labels) + out.labels,
        tuple(d for sp in shares for d in sp.dims) + out.dims,
    )


def channel_output_factor(channel: KrausChannel, decomps) -> np.ndarray:
    """R with R R† the channel output of :func:`channel_output_state`.

    The rows follow :func:`channel_output_space`; the columns index the
    environment of the n channel uses, so each column of R, after the
    receiver encoders act on it, is one branch of the purified output.
    """
    space = channel_output_space(channel, decomps)
    uses = [
        (tuple(f"{d.sender_label}{i}" for d in decomps),
         tuple(f"{l}{i}" for l in channel.out_space.labels))
        for i in range(1, decomps[0].n + 1)
    ]
    state = qmat.tensor(*(d.phi_n for d in decomps))
    return qmat.output_factor(channel, state, uses, space.labels)


def channel_output_state(channel: KrausChannel, decomps) -> DensityOperator:
    """Channel output with receiver shares kept, before any encoding.

    ``decomps`` lists one decomposition per sender, in the channel's input
    order.  rho lives on (B..., A..., C...) from phi^(x)n (x) psi^(x)n (on
    (A..., B...) from phi^(x)n for a single sender), the channel consuming
    the sender shares copy by copy.  The factor order is
    :func:`channel_output_space`, and rho = R R† with R from
    :func:`channel_output_factor`; refused above the dense cap.
    """
    space = channel_output_space(channel, decomps)
    qmat.require_dense(space)
    r = channel_output_factor(channel, decomps)
    return DensityOperator(space, r @ r.conj().T)


def receiver_encoder(decomp: TypeDecomposition, s: HwIndex) -> qmat.Operator:
    """U^T(s) on ``decomp.receiver_space``, the sender's own receiver share.

    Each sender's encoder acts on its own share only, so the encoders of
    two senders commute and no joint encoder is formed; apply one with
    :func:`encode`, :func:`qmat.apply_local` or :func:`qmat.conjugate_local`.
    """
    return qmat.Operator(decomp.receiver_space, hw_transpose_unitary(s, decomp))


def encode(x: np.ndarray, books, space: FactorSpace) -> np.ndarray:
    """The (T, d, Kc) stack of [U_1 X ... U_K X], one per book of ``books``.

    ``books`` holds T :class:`EaCodeBook`s of one sender, K entries each;
    U_k is a book's k-th receiver encoder, applied on the sender's own share
    of ``space`` (:func:`qmat.apply_local`).  ``x`` is d x c, shared by
    every book, or (T, d, c), one per book.  The blocks are written into one
    preallocated stack.
    """
    c = x.shape[-1]
    x = np.broadcast_to(x, (len(books),) + x.shape[-2:])
    out = np.empty(x.shape[:2] + (books[0].message_count * c,), dtype=complex)
    for t, book in enumerate(books):
        for k, u in enumerate(book.encoders):
            out[t, :, k * c:(k + 1) * c] = qmat.apply_local(u, x[t], space)
    return out


def conjugate_by_receiver_encoders(state, indexed_encoders) -> DensityOperator:
    """sigma = (prod U^T) rho (prod U^*) for encoders given as (decomp, index) pairs.

    Each encoder conjugates its own share in turn; they commute, so the
    order of the pairs does not matter.
    """
    mat = state.matrix
    for decomp, s in indexed_encoders:
        mat = qmat.conjugate_local(receiver_encoder(decomp, s), mat, state.space)
    return DensityOperator(state.space, mat)


def average_codeword_state(rho: DensityOperator, decomp: TypeDecomposition
                           ) -> DensityOperator:
    """rho-bar = |S|^-1 sum_s U^T(s) rho U^*(s), in closed form.

    ``rho`` carries the receiver share of ``decomp`` as its leading factors,
    as :func:`channel_output_state` lays it out.  The independent signs b_t
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
    for t, sl in zip(decomp.types, decomp.block_slices):
        cols = decomp._receiver_block_basis[:, sl]
        p_t = cols @ cols.conj().T
        # Tr_A[(P_t (x) I) rho]: contract rho's two receiver indices with P_t
        rest = np.tensordot(blocks, p_t, axes=([0, 2], [1, 0]))
        out += np.kron(p_t / t.dim, rest)
    return DensityOperator(rho.space, out)


def average_codeword_factors(r: np.ndarray, decomp: TypeDecomposition):
    """The type blocks of :func:`average_codeword_state`, on the factor R.

    ``r`` is R with rho = R R† on :func:`channel_output_space`, the receiver
    share of ``decomp`` leading.  Yields one pair (C_t, Y_t) per type block:
    C_t holds orthonormal columns of the receiver projector P_t = C_t C_t†,
    and Y_t Y_t† = Tr_A[(P_t (x) I) rho], so that

        rho-bar = sum_t (P_t / d_t) (x) Y_t Y_t†.

    Y_t has the rows of rho after the receiver share and d_t times R's
    columns.  No d x d matrix is formed.
    """
    rows = r.reshape(decomp.receiver_space.dim, -1)
    for sl in decomp.block_slices:
        cols = decomp._receiver_block_basis[:, sl]
        y = (cols.conj().T @ rows).reshape(cols.shape[1], -1, r.shape[1])
        yield cols, y.transpose(1, 0, 2).reshape(y.shape[1], -1)


def block_overlaps(x: np.ndarray, y: np.ndarray, count: int) -> np.ndarray:
    """Re<X_j, Y_j>_F of each of ``count`` equal column blocks of ``x``, ``y``.

    ``x`` and ``y`` are d x kc matrices, or stacks of them on the leading
    axes, which the result keeps.  The products are formed 2^18 entries at
    a time (no temporary the size of ``x`` is held) and added row by row.
    """
    cols = x.shape[-1]
    rows = max(1, (1 << 18) // x[..., 0, :].size)
    sums = [(x[..., i:i + rows, :].conj() * y[..., i:i + rows, :]).real
            .reshape(*x.shape[:-2], -1, count, cols // count).sum(axis=-1)
            for i in range(0, x.shape[-2], rows)]
    return np.concatenate(sums, axis=-2).sum(axis=-2)


def _check_traces(sent, traces) -> None:
    """Tr sigma_j = |V_j|^2 must be 1 for every sent codeword."""
    for key, total in zip(sent, traces):
        if abs(total - 1.0) > qmat.TRACE_TOL:
            raise ValueError(f"codeword state {key} has trace {total}, not 1")


def codeword_factors(factor: np.ndarray, books, space: FactorSpace):
    """(sent, V, traces): the codeword factors of a code of K books.

    ``books`` lists one :class:`EaCodeBook` per sender and ``factor`` is R
    with rho = R R† on ``space``.  ``sent`` lists every K-tuple of message
    indices in lexicographic order, and V = [V_j] in that order with
    V_j = U_1(s_j1) ... U_K(s_jK) R, each encoder on its own share.  The
    last book's encoders act first (:func:`encode`), so two books give the
    l-major V = [V_11 ... V_LM].  sigma_j = V_j V_j†, and traces[j] =
    Tr sigma_j = |V_j|^2, which must be 1.  The books must have distinct
    seeds, so that the senders' codebooks are drawn independently.  The
    T = 1 case of :func:`codeword_stack`.
    """
    sent, v, traces = codeword_stack(factor, [books], space)
    return sent, v[0], traces[0]


def codeword_stack(factor: np.ndarray, codes, space: FactorSpace):
    """(sent, V, traces) of :func:`codeword_factors` for T codes at once.

    ``codes`` lists T codes of the same shape, each a list of K books as in
    :func:`codeword_factors`.  V is their (T, d, kc) stack and traces the
    (T, k) stack of their traces, each checked.
    """
    for books in codes:
        if len({b.seed for b in books}) < len(books):
            raise ValueError("sender codebooks need independent seeds")
    sent = list(itertools.product(*(range(b.message_count)
                                    for b in codes[0])))
    v = factor
    for books in reversed(list(zip(*codes))):  # one sender's T books
        v = encode(v, books, space)
    traces = block_overlaps(v, v, len(sent))
    for row in traces:
        _check_traces(sent, row)
    return sent, v, traces


def codeword_table(sent, traces, weights: np.ndarray) -> np.ndarray:
    """The table [T; abort] from a decoder's weights T[k, j] = Tr{Lambda_k sigma_j}.

    The abort row is |V_j|^2 minus the decoded weight of column j, which is
    the weight of the completion outcome and must be at least -1e-9.
    """
    abort = traces - weights.sum(axis=0)
    for key, weight in zip(sent, abort):
        if weight < -qmat.POVM_TOL:
            raise ValueError(
                f"codeword {key} has abort weight {weight:.3e} < "
                f"-{qmat.POVM_TOL}: the decoder's weights exceed its trace")
    return np.vstack([weights, abort])


def overlap_table(sent, v: np.ndarray, povm: PovmSet) -> np.ndarray:
    """The table [T; abort] of a dense ``povm`` on the codeword factors V.

    T[k, j] = Re<V_j, Lambda_k V_j>_F = Tr{Lambda_k sigma_j} for outcome k
    and sent codeword j, both in the order of ``sent``; the last row is the
    abort weight Re<V_j, (I - sum Lambda) V_j>_F.  Column j sums to
    Tr sigma_j = |V_j|^2, which must be 1.
    """
    sent = list(sent)
    if list(povm.keys()) != sent:
        raise ValueError("POVM outcomes must be the sent codewords, in order")
    table = np.array([
        block_overlaps(v, op @ v, len(sent))
        for op in [povm[k] for k in sent] + [povm.completion()]
    ])
    _check_traces(sent, table.sum(axis=0))
    return table
