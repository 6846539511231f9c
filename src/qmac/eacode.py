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
    "EaCodeBook",
    "schmidt",
    "type_decompose",
    "hw_unitary",
    "hw_transpose_unitary",
    "transpose_trick_residual",
    "enumerate_indices",
    "index_set_size",
    "encoder_maps",
    "apply_map",
    "sample_code",
    "channel_output_space",
    "channel_output_factor",
    "channel_output_state",
    "receiver_encoder",
    "encode",
    "conjugate_by_receiver_encoders",
    "average_codeword_factors",
    "block_overlaps",
    "overlap_entries",
    "object_bytes",
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
    schmidt_probs, sender_schmidt, receiver_schmidt : ndarray
        Squared Schmidt coefficients, descending, and the d x d bases.
    counts : ndarray
        The types of length-n sequences over the Schmidt alphabet, one
        read-only row of letter counts per type block
        (:func:`typicality.type_table`).
    block_dims : tuple of int
        The types' multinomial dims d_t, the blocks' dimensions.
    probs : ndarray
        Block weights p(t) = p(representative) * d_t; sums to 1.
    sender_space, receiver_space : FactorSpace
        n-fold one-sided spaces (labels like Ap1..Apn / A1..An).
    full_space : FactorSpace
        Side-major n-fold space: sender labels then receiver labels.
    phi_n : PureState
        The n-fold state on ``full_space``.
    sender_perm, sender_units, receiver_perm, receiver_units : ndarray
        Column a of a side's type basis holds units[a] in row perm[a]
        (:func:`typicality.type_permutation`), read-only; the dense oracles
        form the d_s^n x d_s^n bases (:func:`typicality.type_basis`).
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
        self.sender_schmidt, self.receiver_schmidt = left, right
        # the types' counts and dims from one table (typicality.type_table)
        self.counts, self.block_dims = typicality.type_table(self.n, d)
        self.probs = np.array(
            [
                dim * math.prod(self.schmidt_probs[i] ** c
                                for i, c in enumerate(row))
                for row, dim in zip(self.counts.tolist(), self.block_dims)
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
        for side, basis in (("receiver", right), ("sender", left)):
            try:
                maps = typicality.type_permutation(self.counts, basis)
            except ValueError:
                raise ValueError(
                    f"the shared state on {phi.space.labels} has a {side} "
                    f"type basis at n = {self.n} that is not a permutation "
                    "with phases, so its encoders are not index maps") from None
            for name, a in zip(("perm", "units"), maps):
                a.setflags(write=False)
                setattr(self, f"{side}_{name}", a)
        vec = phi.vector
        for _ in range(n - 1):
            vec = np.kron(vec, phi.vector)
        copy_major = qmat.power_space(phi.space, n)
        self.phi_n = qmat.permute(
            PureState(copy_major, vec), self.full_space.labels
        )
        starts = itertools.accumulate(self.block_dims, initial=0)
        self.block_slices = [
            slice(start, start + d) for start, d in zip(starts, self.block_dims)
        ]
        # sum_t sqrt(p_t) |block t> = sum_a w_a s_a (x) r_a, w_a = sqrt(p_t /
        # d_t): w_a u_s[a] u_r[a] at (perm_s[a], perm_r[a]), zero elsewhere
        w = np.repeat(np.sqrt(self.probs / self.block_dims), self.block_dims)
        state = self.phi_n.vector.reshape(self.sender_space.dim, -1)
        found = state[self.sender_perm, self.receiver_perm]
        defect = float(np.linalg.norm(
            found - w * self.sender_units * self.receiver_units))
        outside = np.count_nonzero(state) - np.count_nonzero(found)
        if defect > REASSEMBLY_TOL or outside:
            raise AssertionError(
                f"type-block reassembly misses the n-fold state by "
                f"{defect:.3e}, with {outside} nonzero entries outside")


def type_decompose(phi: PureState, n: int) -> TypeDecomposition:
    """Decompose |phi>^(x)n into maximally entangled type blocks; a rotated
    Schmidt basis (no permutation with phases) is refused, naming phi."""
    return TypeDecomposition(phi, n)


def _draw_bounds(decomp: TypeDecomposition) -> np.ndarray:
    """The (blocks, 3) exclusive bounds d_t, d_t and 2 of each (x_t, z_t, b_t)."""
    bounds = np.repeat(np.array(decomp.block_dims)[:, None], 3, axis=1)
    bounds[:, 2] = 2
    return bounds


def _check_draws(draws, decomp: TypeDecomposition, ndim: int = 2
                 ) -> np.ndarray:
    """A read-only ``intp`` copy of ``draws``, checked against ``decomp``.

    An encoder index is a (blocks, 3) row of Heisenberg-Weyl triples
    (x_t, z_t, b_t), one per type block: shift and phase exponents modulo
    the block dimension d_t and a sign bit that flips the block.  ``draws``
    is one row (``ndim`` 2) or a book's (K, blocks, 3) stack of K rows, one
    per message (``ndim`` 3).  Integers with 0 <= x_t, z_t < d_t and
    b_t in {0, 1} are required; a row of another decomposition's shape, or
    a triple out of range, raises ``ValueError`` naming the row.
    """
    draws, bounds = np.asarray(draws), _draw_bounds(decomp)
    if draws.size and draws.dtype.kind not in "iu":
        raise ValueError(f"draws must be integers, not {draws.dtype}")
    if draws.ndim != ndim or draws.shape[-2:] != bounds.shape:
        want = "rows" if ndim == 3 else "a row"
        raise ValueError(
            f"draws shaped {draws.shape} are not {want} of one (x, z, b) "
            f"triple for each of the decomposition's {len(bounds)} type "
            "blocks: index block dimensions differ")
    rows = draws.astype(np.intp).reshape((-1,) + bounds.shape)
    bad = (rows < 0) | (rows >= bounds)
    if bad.any():
        m, t = np.argwhere(bad.any(axis=2))[0]
        raise ValueError(
            f"row {m}: index {tuple(rows[m, t].tolist())} out of range for "
            f"block dimension {bounds[t, 0]}")
    rows = rows.reshape(draws.shape)
    rows.setflags(write=False)
    return rows


def _block_matrix(s, decomp: TypeDecomposition) -> np.ndarray:
    """Block-diagonal (-1)^b X(x) Z(z) in the (type, lex-sequence) basis,
    for the (blocks, 3) index row ``s`` (:func:`_check_draws`)."""
    dim = decomp.sender_space.dim
    out = np.zeros((dim, dim), dtype=complex)
    for (x, z, b), d, sl in zip(_check_draws(s, decomp).tolist(),
                                decomp.block_dims, decomp.block_slices):
        block = np.zeros((d, d), dtype=complex)
        for j in range(d):
            block[(j + x) % d, j] = np.exp(2j * np.pi * j * z / d)
        out[sl, sl] = (-1.0) ** b * block
    return out


def hw_unitary(s, decomp: TypeDecomposition) -> np.ndarray:
    """The encoder U(s) on the sender's n-fold share, block-diagonal by type."""
    b = typicality.type_basis(decomp.counts, decomp.sender_schmidt)
    return b @ _block_matrix(s, decomp) @ b.conj().T


def hw_transpose_unitary(s, decomp: TypeDecomposition) -> np.ndarray:
    """U^T(s) on the receiver's n-fold share (transpose in the paired bases)."""
    b = typicality.type_basis(decomp.counts, decomp.receiver_schmidt)
    return b @ _block_matrix(s, decomp).T @ b.conj().T


def transpose_trick_residual(s, decomp: TypeDecomposition) -> float:
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
    """An iterator over every index row of S as nested tuples
    ((x, z, b), ...), lexicographic in (x, z, b) per block."""
    return itertools.product(*(
        itertools.product(range(d), range(d), range(2))
        for d in decomp.block_dims))


def encoder_maps(decomp: TypeDecomposition, draws: np.ndarray) -> tuple:
    """Read-only (K, d_s) arrays (index, phase) with (U^T(s_k) X)[r] =
    phase[k, r] X[index[k, r]], for the (K, blocks, 3) ``draws``.

    U^T = C M^T C†; row a = start_t + j of M^T holds (-1)^b e^{2 pi i j z/d}
    in column s = start_t + (j + x_t) mod d_t, so row perm[a] of U^T reads
    perm[s] with that phase times gamma_a conj(gamma_s) (C's units).  The
    real angle is formed first, as in :func:`_block_matrix`, so with unit
    gamma the map equals :func:`hw_transpose_unitary` bit for bit.  C is
    ``decomp.receiver_perm`` and ``decomp.receiver_units``.
    """
    perm, units = decomp.receiver_perm, decomp.receiver_units
    # each row's block dimension and block start
    dims, start = np.repeat([decomp.block_dims, [
        sl.start for sl in decomp.block_slices]], decomp.block_dims, axis=1)
    j = np.arange(len(perm)) - start  # each row's index in its block
    x, z, b = np.repeat(draws, decomp.block_dims, axis=1).transpose(2, 0, 1)
    src = start + (j + x) % dims
    index, phase = np.empty(src.shape, np.intp), np.empty(src.shape, complex)
    index[:, perm] = perm[src]
    phase[:, perm] = units * ((-1.0) ** b * np.exp(
        1j * (2 * np.pi * j * z / dims))) * units[src].conj()
    for maps in (index, phase):
        maps.setflags(write=False)
    return index, phase


def apply_map(index: np.ndarray, phase: np.ndarray, x: np.ndarray,
              out: np.ndarray) -> np.ndarray:
    """out[t, :, r] = phase[t, r] x[t, :, index[t, r]] for T maps in (T, d_s)
    arrays on (T, before, d_s, ...) views; ``out`` may be ``x``."""
    t, b = np.arange(len(x))[:, None, None], np.arange(x.shape[1])[:, None]
    return np.multiply(x[t, b, index[:, None]], phase.reshape(
        len(phase), 1, -1, *(1,) * (x.ndim - 3)), out=out)


@dataclass(frozen=True, slots=True)
class EaCodeBook:
    """A random code: one Heisenberg-Weyl index vector per message.

    ``draws`` is the book's only index data: a read-only (K, blocks, 3)
    integer array whose row k is message k's index (:func:`_check_draws`,
    which copies and checks it when the book is made).  ``index`` and
    ``phase`` hold the messages' receiver encoders U^T(s) as (K, d_s)
    index maps, built once with the book (:func:`encoder_maps`).  The
    dense oracles build their encoders from the rows ``draws[k]``
    (:func:`receiver_encoder`).
    """

    decomp: TypeDecomposition
    draws: np.ndarray = field(compare=False, repr=False)
    seed: int
    index: np.ndarray = field(init=False, compare=False, repr=False)
    phase: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        draws = _check_draws(self.draws, self.decomp, ndim=3)
        object.__setattr__(self, "draws", draws)
        for name, maps in zip(("index", "phase"),
                              encoder_maps(self.decomp, draws)):
            object.__setattr__(self, name, maps)

    @property
    def message_count(self) -> int:
        return len(self.draws)

    @property
    def entries(self) -> tuple:
        """Every message's index row as nested tuples ((x, z, b), ...), the
        hashable letters that the dense oracles key their maps by."""
        return tuple(tuple(map(tuple, row)) for row in self.draws.tolist())


def sample_code(decomp: TypeDecomposition, message_count: int, seed: int
                ) -> EaCodeBook:
    """Draw a codebook uniformly from the full index set S.

    Per-message draws come from a counter-based generator keyed by the seed
    with the counter offset by the message index (Philox, counter
    m << 128), so books are reproducible and messages can be sampled
    independently (or in parallel) in any order.  Message m draws x_t, z_t
    and b_t block by block, below d_t, d_t and 2.  One generator serves the
    book with its counter reset per message, and one ``integers`` call on
    those bounds draws what the scalar calls draw, bit for bit, into row m
    of the book's draw array.
    """
    bits = np.random.Philox(key=seed)
    rng = np.random.Generator(bits)
    state = bits.state
    bounds = _draw_bounds(decomp)
    draws = np.empty((message_count,) + bounds.shape, dtype=np.intp)
    for m in range(message_count):
        state["state"]["counter"] = np.array([0, 0, m, 0], dtype=np.uint64)
        bits.state = state  # also empties the output buffer
        draws[m] = rng.integers(bounds)
    return EaCodeBook(decomp, draws, seed)


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


def receiver_encoder(decomp: TypeDecomposition, s) -> qmat.Operator:
    """U^T(s) on ``decomp.receiver_space``, the sender's own receiver share,
    for the (blocks, 3) index row ``s`` (:func:`_check_draws`).

    Each sender's encoder acts on its own share only, so the encoders of
    two senders commute and no joint encoder is formed; apply one with
    :func:`qmat.apply_local` or :func:`qmat.conjugate_local`.  The dense
    per-index oracle of a book's index maps (:class:`EaCodeBook`), which
    :func:`encode` applies.
    """
    return qmat.Operator(decomp.receiver_space, hw_transpose_unitary(s, decomp))


def encode(x: np.ndarray, books, space: FactorSpace) -> np.ndarray:
    """The (T, d, Kc) stack of [U_1 X ... U_K X], one per book of ``books``.

    ``books`` holds T :class:`EaCodeBook`s of one sender, K entries each;
    U_k is a book's k-th receiver encoder, an index map, applied on the
    sender's own share of ``space``.  ``x`` is d x c, shared by every book,
    or (T, d, c), one per book.  Entry k of the T books gathers the share
    axis of X's (T, before, d_s, after, c) view (:func:`qmat.local_shape`)
    into its blocks of one preallocated stack (:func:`apply_map`), so one
    entry's T blocks are held at a time.
    """
    t, c, k = len(books), x.shape[-1], books[0].message_count
    x = np.broadcast_to(x, (t,) + x.shape[-2:])
    before, d_s, _ = qmat.local_shape(books[0].decomp.receiver_space, space)
    out = np.empty(x.shape[:2] + (k * c,), dtype=complex)
    blocks = out.reshape(t, before, d_s, -1, k, c)
    view = x.reshape(blocks.shape[:4] + (c,))
    index = np.stack([book.index for book in books], axis=1)
    phase = np.stack([book.phase for book in books], axis=1)
    for e in range(k):
        apply_map(index[e], phase[e], view, blocks[..., e, :])
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


def average_codeword_factors(r: np.ndarray, decomp: TypeDecomposition):
    """The type blocks of the average codeword state, on the factor R.

    ``r`` is R with rho = R R† on :func:`channel_output_space`, the receiver
    share of ``decomp`` leading.  The independent signs b_t cancel every
    term of rho-bar = |S|^-1 sum_s U^T(s) rho U^*(s) between two type
    blocks, and the Heisenberg-Weyl twirl inside block t replaces that
    block by I/d_t.  Yields one pair (rows_t, Y_t) per type block: the
    receiver projector P_t = C_t C_t† is one on the share's rows rows_t
    (``receiver_perm`` on the block), and Y_t Y_t† = Tr_A[(P_t (x) I) rho]
    with Y_t = C_t† R, R's rows rows_t times the units' conjugates, so that

        rho-bar = sum_t (P_t / d_t) (x) Y_t Y_t†.

    No d x d matrix is formed.
    """
    share = r.reshape(decomp.receiver_space.dim, -1, r.shape[1])
    for sl in decomp.block_slices:
        rows = decomp.receiver_perm[sl]
        y = share[rows] * decomp.receiver_units[sl, None, None].conj()
        yield rows, y.transpose(1, 0, 2).reshape(y.shape[1], -1)


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


def object_bytes(codewords: int) -> int:
    """Bytes that a decoder call holds besides its arrays' data: its frames,
    closures and array headers with numpy's iteration buffers (of 8,192
    elements an operand), under 1 MiB, and per codeword its key in
    ``sent`` (a tuple of up to two ints and its list slot) and its blocks'
    views, under 256 B (tracemalloc, CPython 3.11)."""
    return (1 << 20) + 256 * codewords


def overlap_entries(size: int, row: int) -> float:
    """Complex entries' worth of the temporaries that :func:`block_overlaps`
    holds on an x of ``size`` entries with ``row`` entries in a row of its
    stack: two complex chunks of one row or 2^18 entries, and a real one."""
    return 2.5 * min(size, max(row, 1 << 18))


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
    (T, k) stack of their traces, each checked.  Each sender's T books
    encode in one :func:`encode`, entry by entry as index maps.
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


def codeword_table(sent, traces, table: np.ndarray) -> np.ndarray:
    """Finish a decoder's table [T; abort] in place, and return it.

    Every row of ``table`` but its last holds the decoder's weights
    T[k, j] = Tr{Lambda_k sigma_j}; the last row becomes the abort weights,
    |V_j|^2 minus the decoded weight of column j, the weight of the
    completion outcome, which must be at least -1e-9.  ``table`` may be a
    (K + 1, T, K) stack of T tables, with ``traces`` their (T, K) traces.
    """
    abort = table[-1]
    np.subtract(traces, table[:-1].sum(axis=0), out=abort)
    for key, weight in zip(sent, abort.reshape(-1, len(sent)).min(axis=0)):
        if weight < -qmat.POVM_TOL:
            raise ValueError(
                f"codeword {key} has abort weight {weight:.3e} < "
                f"-{qmat.POVM_TOL}: the decoder's weights exceed its trace")
    return table


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
