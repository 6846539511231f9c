"""Sequential and successive decoding: POVMs, the packing bound, diagnostics.

A sequential decoder tests codewords one at a time with yes/no projective
measurements; its POVM is a product of sandwiched projectors.  The packing
bound lower-bounds the code-averaged success probability from four measured
constants (epsilon, d, D, message count).  The successive variant decodes
one sender fully, then the other, over a multiple access channel.

The assisted experiments are read on the codeword factors V_k = U_k R of
the channel output rho_n = R R† (:func:`sequential_table`,
:func:`successive_table`).  Both take ``(factor, books, projectors)``: R,
built once per run, the list of :class:`~qmac.eacode.EaCodeBook`s (one for
the sequential decoder, Alice's and Bob's for the successive one) and the
typical projectors.  Each POVM element is a product of projectors, so its
weight on a codeword is the squared norm of a product of projectors
applied to V_k, and no d x d matrix is formed.  The word projectors are
tested inside a fixed test projector, and that chain (:func:`_chain`) runs
in the coordinates of the test's range.  The dense POVMs
(:func:`sequential_povm`, :func:`successive_povm`,
:func:`ea_successive_povm`) and the brute-force
:func:`ea_protocol_instance` stay as their oracles.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from . import eacode, info, qmat, typicality
from .qmat import DensityOperator, DimensionCapError, KrausChannel, PovmSet, PureState

__all__ = [
    "PackingConstants",
    "PackingBound",
    "SeqReport",
    "sequential_projectors",
    "sequential_table",
    "sequential_tables",
    "trial_group",
    "sequential_bytes",
    "sequential_povm",
    "exact_success_probability",
    "expected_success_exhaustive",
    "packing_lower_bound",
    "packing_diagnostics",
    "ea_protocol_instance",
    "ea_packing_constants",
    "ea_sequential_protocol",
    "successive_povm",
    "ea_successive_povm",
    "frame_maps",
    "successive_table",
    "successive_bytes",
]

EXHAUSTIVE_CAP = 100_000
LN2 = math.log(2.0)
INDEX_SET_CAP = 4096


@dataclass(frozen=True, slots=True)
class PackingConstants:
    """Constants feeding the sequential packing bound."""

    epsilon: float
    d: float
    D: float
    message_count: int

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if not (self.d > 0 and self.D > 0):
            raise ValueError("d and D must be positive")


@dataclass(frozen=True, slots=True)
class PackingBound:
    """Value of the packing bound plus whether its hypotheses held."""

    value: float
    condition_holds: bool

    def __repr__(self):
        return f"PackingBound({self.value:.6g}, condition_holds={self.condition_holds})"


def _check_projector(p: np.ndarray, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=complex)
    tol = typicality.PROJECTOR_TOL
    if float(np.max(np.abs(p @ p - p))) > tol:
        raise ValueError(f"{name} is not idempotent within {tol}")
    return p


def _sandwiches(pi: np.ndarray, word_projector, name: str):
    """(Pi Pi_x Pi, Pi (I - Pi_x) Pi) for a checked word projector Pi_x."""
    px = _check_projector(word_projector, name)
    return pi @ px @ pi, pi @ (np.eye(pi.shape[0]) - px) @ pi


def sequential_povm(code: Sequence, code_projector, word_projectors: Mapping
                    ) -> PovmSet:
    """POVM of the test-codewords-in-order decoder.

    Lambda_m = Qbar_{c_1} ... Qbar_{c_{m-1}} Pibar_{c_m} Qbar_{c_{m-1}} ...
    Qbar_{c_1}, with Qbar_x = Pi (I - Pi_x) Pi and Pibar_x = Pi Pi_x Pi.
    The elements are PSD and sum to at most the identity; the leftover
    completion element is the abort outcome.

    Parameters
    ----------
    code : sequence
        Codeword letters c_m in message order; letters index
        ``word_projectors``.
    code_projector : ndarray
        The code subspace projector Pi.
    word_projectors : mapping
        Letter -> codeword subspace projector Pi_x.
    """
    pi = _check_projector(code_projector, "code projector")
    dim = pi.shape[0]
    sandwiches = {
        x: _sandwiches(pi, word_projectors[x], f"word projector {x!r}")
        for x in set(code)
    }
    elements = {}
    left = np.eye(dim)
    for m, x in enumerate(code):
        pibar, qbar = sandwiches[x]
        elements[m] = left @ pibar @ left.conj().T
        left = left @ qbar
    return PovmSet(qmat.FactorSpace(("S",), (dim,)), elements)


def exact_success_probability(states: Sequence, povm: PovmSet) -> float:
    """Average of Tr{Lambda_m rho_m} over messages; states align with POVM keys."""
    keys = list(povm.keys())
    if len(states) != len(keys):
        raise ValueError("one state per POVM element required")
    total = 0.0
    for key, rho in zip(keys, states):
        mat = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho)
        total += float(np.trace(povm[key] @ mat).real)
    return total / len(keys)


def expected_success_exhaustive(ensemble, code_projector, word_projectors,
                                message_count: int,
                                cap: int = EXHAUSTIVE_CAP) -> float:
    """Exact code-averaged success, summing over every possible codebook.

    ``ensemble`` is a sequence of (probability, density matrix) pairs; the
    codebook distribution draws each message letter independently with those
    probabilities.  Refuses to enumerate more than ``cap`` codebooks.
    """
    ensemble = list(ensemble)
    n_letters = len(ensemble)
    if n_letters**message_count > cap:
        raise ValueError(
            f"{n_letters}^{message_count} codebooks exceed the enumeration cap {cap}"
        )
    pi = _check_projector(code_projector, "code projector")
    sandwiches = [
        _sandwiches(pi, word_projectors[x], f"word projector {x}")
        for x in range(n_letters)
    ]
    mats = [np.asarray(rho, dtype=complex) for _, rho in ensemble]
    probs = [float(p) for p, _ in ensemble]

    total = 0.0

    # depth-first enumeration of codebooks, sharing left-product prefixes
    def rec(weight, left, depth, success):
        nonlocal total
        if depth == message_count:
            total += weight * success / message_count
            return
        for x, (pibar, qbar) in enumerate(sandwiches):
            lam = left @ pibar @ left.conj().T
            s_x = float(np.trace(lam @ mats[x]).real)
            rec(weight * probs[x], left @ qbar, depth + 1, success + s_x)

    rec(1.0, np.eye(pi.shape[0]), 0, 0.0)
    return total


def packing_lower_bound(c: PackingConstants) -> PackingBound:
    """|(1 - 2 eps)(2 - e^{d|M|/D})|^2, or 0 with a flag when it degenerates.

    The flag also drops when epsilon exceeds 1/2, where the guarantee is
    vacuous even though the absolute value would produce a positive number.
    The bracket is not positive once d|M|/D >= ln 2, where e^{d|M|/D} is
    not evaluated, since it overflows for large message counts.
    """
    x = c.d * c.message_count / c.D
    if not x < LN2:
        return PackingBound(0.0, False)
    bracket = 2.0 - math.exp(x)
    if bracket <= 0.0:
        return PackingBound(0.0, False)
    value = abs((1.0 - 2.0 * c.epsilon) * bracket) ** 2
    return PackingBound(value, c.epsilon <= 0.5)


def packing_diagnostics(ensemble, code_projector, word_projectors,
                        z_max: int) -> list[float]:
    """The trace sequence f_z = Tr{W_1 Pi Wbar_0^z} for z = 0..z_max.

    W_1 = sum p(x) Pi_x rho_x Pi_x and Wbar_0 = Pi (sum p(x) Pi_x) Pi; the
    power is a plain matrix product.  With measured constants these satisfy
    f_0 >= 1 - 2 eps and f_z <= (d/D)^z f_0.
    """
    ensemble = list(ensemble)
    pi = _check_projector(code_projector, "code projector")
    dim = pi.shape[0]
    w1 = np.zeros((dim, dim), dtype=complex)
    w0 = np.zeros((dim, dim), dtype=complex)
    for (p, rho), px in zip(ensemble, word_projectors):
        px = np.asarray(px, dtype=complex)
        w1 += p * (px @ np.asarray(rho) @ px)
        w0 += p * px
    w0bar = pi @ w0 @ pi
    out = []
    cur = pi.copy()
    for _ in range(z_max + 1):
        out.append(float(np.trace(w1 @ cur).real))
        cur = cur @ w0bar
    return out


@dataclass(frozen=True, slots=True)
class SeqReport:
    """Result of one sequential-decoding experiment."""

    success_mean: float
    success_stderr: float
    bound: float
    bound_condition_holds: bool
    epsilon: float
    d: float
    D: float
    n: int
    message_count: int
    seed: int
    trials: int

    def to_json(self) -> dict:
        return asdict(self)


def sequential_projectors(channel: KrausChannel, decomp, delta: float
                          ) -> typicality.ProjectorBundle:
    """Typical projectors of the assisted sequential code, kept small.

    On the channel output space (receiver share first, then the channel
    outputs), "A" is the receiver share's and "B" the channel outputs'
    typical projector; Pi_A Pi_B is the code projector.  The joint "AB" is
    the word projector of s = 0.  Each is kept as its type basis on its own
    factors, so no d x d matrix is formed.
    """
    recv = (decomp.receiver_label,)
    out = channel.out_space.labels
    return typicality.projector_bundle(
        info.ea_code_state(channel, [decomp.phi]), decomp.n, delta,
        {"A": recv, "B": out, "AB": recv + out},
        eacode.channel_output_space(channel, [decomp]),
    )


def _squared_norm(x: np.ndarray) -> float:
    return float(np.vdot(x, x).real)


def _factor_constants(r: np.ndarray, decomp,
                      projectors: typicality.ProjectorBundle
                      ) -> typicality.MeasuredConstants:
    """Packing constants over the uniform ensemble on S, read off R.

    U^T(s) is block-diagonal on the receiver's type blocks, so it commutes
    with rho_A^(x)n and with Pi_A, a spectral projector of rho_A^(x)n, hence
    with the code projector Pi = Pi_A Pi_B.  So Tr{Pi sigma_s} =
    Tr{Pi rho_n}, Tr{Pi_s sigma_s} = Tr{Pi_AB rho_n} and Pi_s sigma_s Pi_s
    has the same spectrum for every s: epsilon and d are those of s = 0,
    where sigma = rho_n = R R† and Pi_s = Pi_AB = B B†.  So
    Tr{Pi rho_n} = |Pi R|^2 and Tr{Pi_AB rho_n} = |B† R|^2, and on the
    support of Pi_AB the compressed state has the spectrum of
    (B† R)(B† R)†: 1/d is the least squared singular value of B† R (zero
    when R has fewer columns than B).  The average state is
    sum_t (P_t / d_t) (x) Y_t Y_t† (:func:`eacode.average_codeword_factors`)
    and Pi_A P_t is P_t or 0, so the top eigenvalue of Pi rho-bar Pi, 1/D,
    is the largest of lambda_max(Pi_B Y_t Y_t† Pi_B) / d_t over the blocks
    that Pi_A = B_A B_A† keeps, those where B_A†'s columns at the block's
    rows have squared norm d_t.  The commutator residual is the Frobenius
    norm of [Pi_AB, rho_n], sqrt(2) |(I - B B†) R R† B|_F, which bounds its
    max-norm.  No d x d matrix is formed.
    """
    r_b = projectors.apply("B", r)
    b = projectors.basis("AB")
    overlap = b.conj().T @ r
    epsilon = 1.0 - min(1.0, _squared_norm(projectors.apply("A", r_b)),
                        _squared_norm(overlap))
    if overlap.shape[0] == 0:
        inv_d = np.inf
    elif overlap.shape[1] < overlap.shape[0]:
        inv_d = 0.0
    else:
        inv_d = float(np.linalg.svd(overlap, compute_uv=False).min()) ** 2
    d = (1.0 / inv_d) if (np.isfinite(inv_d) and inv_d > 0) else np.inf
    b_a = projectors.basis("A").conj().T
    top = max((
        float(np.linalg.norm(y, 2)) ** 2 / len(rows)
        for rows, y in eacode.average_codeword_factors(r_b, decomp)
        if _squared_norm(b_a[:, rows]) > 0.5
    ), default=0.0)
    D = (1.0 / top) if top > 0 else np.inf
    residual = math.sqrt(2.0) * float(
        np.linalg.norm((r - b @ overlap) @ overlap.conj().T))
    return typicality.MeasuredConstants(epsilon, d, D, residual)


def ea_protocol_instance(channel: KrausChannel, phi: PureState, n: int,
                         delta: float):
    """Every codeword of the entanglement-assisted sequential experiment.

    Returns ``(decomp, code_proj, sigma_by_index, word_proj_by_index)``
    where the two dictionaries run over the full index set S.  The code
    subspace projector is the product of the one-sided typical projectors;
    each word projector is the joint typical projector conjugated by that
    index's receiver-side encoder.  This enumerates S and so refuses index
    sets beyond ``INDEX_SET_CAP``; it is the brute-force reference for
    :func:`ea_packing_constants`, for :func:`sequential_table` and for
    the exhaustive codebook average.  Every matrix is d x d.
    """
    decomp = eacode.type_decompose(phi, n)
    size = eacode.index_set_size(decomp)
    if size > INDEX_SET_CAP:
        raise DimensionCapError(
            f"index set has {size} elements, beyond the exhaustive cap "
            f"{INDEX_SET_CAP}"
        )
    p = sequential_projectors(channel, decomp, delta)
    rho_n = eacode.channel_output_state(channel, [decomp])
    code_proj, pi_ab = p.embedded("A") @ p.embedded("B"), p.embedded("AB")
    full = rho_n.space
    sigma = {}
    words = {}
    for s in eacode.enumerate_indices(decomp):
        u = eacode.receiver_encoder(decomp, s)
        sigma[s] = DensityOperator(
            full, qmat.conjugate_local(u, rho_n.matrix, full))
        words[s] = qmat.conjugate_local(u, pi_ab, full)
    return decomp, code_proj, sigma, words


def ea_packing_constants(channel: KrausChannel, phi: PureState, n: int,
                         delta: float) -> typicality.MeasuredConstants:
    """Packing constants of the assisted code, uniform over the index set S.

    Equal to :func:`typicality.measure_packing_constants` over every
    codeword of :func:`ea_protocol_instance`, but read off the channel
    output factor R by the encoders' covariance (:func:`_factor_constants`)
    at a cost that does not grow with |S|.  The commutator residual is a
    Frobenius norm here, which bounds the max-norm that
    :func:`typicality.measure_word_constants` reports.
    """
    decomp = eacode.type_decompose(phi, n)
    return _factor_constants(
        eacode.channel_output_factor(channel, [decomp]), decomp,
        sequential_projectors(channel, decomp, delta))


def _chain(y: np.ndarray, words):
    """Yield T_k = W~_k† Y~_k for the word projectors Pi_k = W_k W_k† in
    order, in the coordinates of a fixed test Pi = Q Q†.

    The d x r blocks W_k = U_k B of the stack [U_1 B ... U_K B] that
    :func:`eacode.encode` builds for Pi_AB = B B† have orthonormal columns,
    so Pi_k = U_k Pi_AB U_k† and |Pi_k Y|^2 = |W_k† Y|^2.  The chain
    Y_1 = Pi V, Y_{k+1} = Pi (Y_k - Pi_k Y_k) = Pi (I - Pi_k) Pi Y_k stays
    in Pi's range, so Y_k = Q Y~_k, and it runs on Y~_k = Q† Y_k alone:
    ``y`` is Y~_1 = Q† V and ``words`` yields the blocks W~_k = Q† W_k
    (:meth:`typicality.ProjectorBundle.coordinates`), so T_k = W_k† Y_k and
    Y~_{k+1} = Y~_k - W~_k T_k.  No projector acts and no d-row block is
    formed.  The squared block norms of T_k are those of
    Pi_k Pi Qbar_{k-1} ... Qbar_1 V, the weights of the sequential POVM's
    k-th element on V V†.  ``y`` and the W~_k may be stacks on their
    leading axes, one chain per entry; ``y`` is updated in place.
    """
    for k, w in enumerate(words):
        if k:
            y -= last @ t
        t = w.conj().swapaxes(-1, -2) @ y
        last = w
        yield t


# A group of stacked trials (:func:`trial_group`) holds at most GROUP_BYTES
# of codeword stacks V and GROUP_CODEWORDS codewords, unless one trial alone
# holds more.  Past a few hundred codewords a larger stack saves no numpy
# calls, while each trial's book holds, besides its entries' index maps and
# draws, 0.6 to 1.05 KiB of its own objects and array headers (tracemalloc
# at n = 1, in books of 2 and of 1,024 entries): 0.3 KiB a codeword in
# books of 2, which a stack of tiny trials would multiply.
GROUP_BYTES = 4 << 20
GROUP_CODEWORDS = 1024


def trial_group(v_bytes: int, message_count: int, trials: int) -> int:
    """How many of ``trials`` trials of ``message_count`` codewords each
    are decoded as one stack, when one trial's V takes ``v_bytes``: as many
    as keep the group's V within max(v_bytes, ``GROUP_BYTES``) and its
    codewords within max(message_count, ``GROUP_CODEWORDS``), and at least
    one."""
    return max(1, min(trials, GROUP_BYTES // v_bytes,
                      GROUP_CODEWORDS // message_count))


def sequential_bytes(d: int, c: int, k: int, group: int, shapes: dict
                     ) -> int:
    """The bytes that :func:`sequential_tables` allocates for ``group``
    codes of k codewords on a d x c factor R, ``shapes`` the bases' (d_X,
    r_X) (:meth:`typicality.ProjectorBundle.shapes`): its table and the
    most complex entries one stage holds.  The stages: V (d x kc a code)
    with a gathered R or the traces' temporaries; V and its coordinate
    blocks; Y = Q†V (or V) with the words W (d x kr, r = r_AB) and a
    gathered B or W's coordinate blocks; the chain's Y, its update,
    W~ = Q†W, T_k (r x kc) and W~_k's copy.
    """
    q, formed = typicality.coordinate_rows(shapes, ("A", "B"))
    r, row = shapes["AB"][1], group * k * c
    v, w = row * d, group * k * d * r
    t = row * r
    return 16 * int(max(
        v + max(group * d * c, eacode.overlap_entries(v, row)),
        v * (1 + formed),
        q * v + w + max(group * d * r, formed * w),
        2 * q * v + q * w + t + group * q * d * r
        + eacode.overlap_entries(t, row))) + 8 * (k + 1) * group * k + (
            24 * group * k * shapes["A"][0]) + eacode.object_bytes(group * k)


def sequential_table(factor: np.ndarray, books,
                     projectors: typicality.ProjectorBundle) -> np.ndarray:
    """The sequential decoder's table [T; abort] on the codeword factors.

    ``books`` holds the one sender's :class:`~qmac.eacode.EaCodeBook`, whose
    receiver encoders U_k are applied in message order, and ``factor`` is R
    with rho_n = R R† on ``projectors.space`` (:func:`sequential_projectors`).
    T[k, j] = Tr{Lambda_k sigma_j}, where Lambda is :func:`sequential_povm`
    of the word projectors U_k Pi_AB U_k† inside the code projector
    Pi_A Pi_B and sigma_j = V_j V_j†, V_j = U_j R; the last row is the
    abort weight Tr{(I - sum_k Lambda_k) sigma_j}.  The T = 1 case of
    :func:`sequential_tables`.
    """
    return sequential_tables(factor, [books], projectors)[0]


def sequential_tables(factor: np.ndarray, codes,
                      projectors: typicality.ProjectorBundle,
                      held: int = 0) -> list:
    """The tables of :func:`sequential_table` for T codes, as one stack.

    ``codes`` lists T one-book codes of the same message count.  Stack
    V = [V_1 ... V_K] per code (:func:`eacode.codeword_stack`) and the
    words W = [U_1 B ... U_K B] with Pi_AB = B B† (:func:`eacode.encode`),
    each as a (T, d, .) array, and take both in the coordinates of the code
    projector Pi = Pi_A Pi_B = Q Q†, Q = B_A (x) B_B
    (:meth:`typicality.ProjectorBundle.coordinates` of ("A", "B")): Q† V
    and Q† W, q = r_A r_B rows each.  V is dropped, and row k of a table is
    the block norms of T_k = W~_k† Y~_k, Y~ <- Y~ - W~_k T_k
    (:func:`_chain`), so memory is a T x d x Kc and a T x d x Kr block
    until they enter the coordinates, then a few T x q x . blocks.  The
    rows fill one preallocated (K + 1, T, K) table, whose last row
    :func:`eacode.codeword_table` fills with the abort weights, and table
    t is its slice [:, t].  Every product acts on each code's matrices as
    it would on that code alone, so each table is bit for bit the one of
    its code decoded alone.  Tr sigma_k = |V_k|^2 must be 1 and every abort
    weight at least -1e-9.  The run is refused first when ``held`` bytes,
    R, the bases and :func:`sequential_bytes` pass the memory limit
    (:func:`qmat.require_bytes`).
    """
    qmat.require_bytes(held + factor.nbytes + projectors.nbytes
                       + sequential_bytes(*factor.shape,
                                          codes[0][0].message_count,
                                          len(codes), projectors.shapes()))
    space = projectors.space
    sent, v, traces = eacode.codeword_stack(factor, codes, space)
    y = projectors.coordinates(("A", "B"), v)
    del v
    words = np.split(projectors.coordinates(("A", "B"), eacode.encode(
        projectors.basis("AB"), [book for (book,) in codes], space)),
        len(sent), axis=-1)
    table = np.empty((len(sent) + 1,) + traces.shape)
    for k, t in enumerate(_chain(y, words)):
        table[k] = eacode.block_overlaps(t, t, len(sent))
    eacode.codeword_table(sent, traces, table)
    return [table[:, t] for t in range(len(codes))]


def ea_sequential_protocol(channel: KrausChannel, phi: PureState, n: int,
                           message_count: int, delta: float, seed: int,
                           trials: int, held: int = 0) -> SeqReport:
    """Run the entanglement-assisted sequential decoder end to end.

    Samples ``trials`` codebooks, evaluates the exact average success of
    the sequential decoder on each (the diagonal of :func:`sequential_table`),
    and reports the empirical mean together with the packing bound at
    constants taken over the full index set (:func:`ea_packing_constants`).
    Everything is read off the channel output factor R; neither rho_n nor a
    codeword state nor a POVM element is formed.  Each sampled book is its
    draw array, and builds its entries' encoders once, as index maps
    (:class:`eacode.EaCodeBook`).
    The trials are decoded in groups of :func:`trial_group` as one stack
    (:func:`sequential_tables`, which counts its bytes on top of the
    caller's ``held``), and each group's books are drawn when it starts.
    Raises ``ValueError`` when the code or word projector is empty
    at this ``delta``.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    decomp = eacode.type_decompose(phi, n)
    projectors = sequential_projectors(channel, decomp, delta)
    typicality.require_nonempty({
        "code": projectors.rank("A") * projectors.rank("B"),
        "word": projectors.rank("AB"),
    }, delta)
    factor = eacode.channel_output_factor(channel, [decomp])
    measured = _factor_constants(factor, decomp, projectors)
    bound = packing_lower_bound(PackingConstants(
        min(max(measured.epsilon, 1e-15), 1.0), measured.d, measured.D,
        message_count))
    group = trial_group(16 * factor.size * message_count, message_count,
                        trials)
    successes = []
    for start in range(0, trials, group):
        codes = [[eacode.sample_code(decomp, message_count, seed + t)]
                 for t in range(start, min(start + group, trials))]
        successes += [float(np.diagonal(table).mean())
                      for table in sequential_tables(factor, codes, projectors,
                                                     held)]
    arr = np.array(successes)
    stderr = float(arr.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return SeqReport(
        success_mean=float(arr.mean()),
        success_stderr=stderr,
        bound=bound.value,
        bound_condition_holds=bound.condition_holds,
        epsilon=measured.epsilon,
        d=measured.d,
        D=measured.D,
        n=n,
        message_count=message_count,
        seed=seed,
        trials=trials,
    )


# ---------------------------------------------------------------------------
# two-stage (sequential and successive) decoding
# ---------------------------------------------------------------------------

def successive_povm(code1: Sequence, code2: Sequence, code_projector,
                    word_projectors_x: Mapping,
                    word_projectors_xy: Mapping) -> PovmSet:
    """Two-stage POVM: decode Alice's codeword sequentially, then Bob's.

    Lambda_{l,m} = M†M with
    M = Pi_{x(l),y(m)} Qbarbar_{x(l),y(m-1)} ... Qbarbar_{x(l),y(1)}
        Pi_{x(l)} Qbar_{x(l-1)} ... Qbar_{x(1)} Pi,
    where Qbar uses the code projector sandwich and Qbarbar the Pi_{x(l)}
    sandwich.  Since Pi_{x(l)} absorbs into Qbarbar, this is the
    sequential POVM of Bob's codewords inside Pi_{x(l)}, conjugated by
    Alice's first-stage product:
    Lambda_{l,m} = F Qbarbar ... Pibarbar_{x(l),y(m)} ... Qbarbar F†
    with F = Pi Qbar_{x(1)} ... Qbar_{x(l-1)} and Pibarbar the Pi_{x(l)}
    sandwich of Pi_{x(l),y(m)}.  F starts with Pi, as GLM's Pi Pi_x Pi
    does (arXiv:1012.0386), so the family sums to at most Pi whether or
    not Alice's tests commute with Pi; Pi Qbar = Qbar, so only l = 0 sees it.
    """
    pi = _check_projector(code_projector, "code projector")
    dim = pi.shape[0]
    # the first-stage call checks Pi_x before it serves as a sandwich
    first_stage = {
        x: _sandwiches(pi, word_projectors_x[x], f"first-stage projector {x!r}")
        for x in set(code1)
    }
    second_stage = {
        (x, y): _sandwiches(
            np.asarray(word_projectors_x[x], dtype=complex),
            word_projectors_xy[(x, y)], f"second-stage projector {(x, y)!r}",
        )
        for x in set(code1) for y in set(code2)
    }
    elements = {}
    first = pi
    for l, x in enumerate(code1):
        left = first
        for m, y in enumerate(code2):
            pibar, qbar = second_stage[(x, y)]
            elements[(l, m)] = left @ pibar @ left.conj().T
            left = left @ qbar
        first = first @ first_stage[x][1]
    return PovmSet(qmat.FactorSpace(("S",), (dim,)), elements)


def ea_successive_povm(books, projectors: typicality.ProjectorBundle
                       ) -> PovmSet:
    """Two-stage decoder of a two-book MAC code with the typical projectors.

    Code subspace: the product Pi of the three single-system projectors,
    which every element starts with.  First stage tests Alice's codewords
    with the AC-pair projector rotated by her encoder (times the B
    projector); the second stage tests Bob's with the rotated joint
    projector.  The oracle of :func:`successive_table`, whose encoders it
    builds from their indices, not from the books' index maps.
    """
    full = projectors.space
    b1, b2 = books
    code1, code2 = b1.entries, b2.entries
    pi = projectors.embedded
    code_proj = pi("A") @ pi("B") @ pi("C")
    alice = {s: eacode.receiver_encoder(b1.decomp, s) for s in code1}
    bob = {t: qmat.conjugate_local(eacode.receiver_encoder(b2.decomp, t),
                                   pi("ABC"), full)
           for t in code2}
    words_x = {s: qmat.conjugate_local(u, pi("AC"), full) @ pi("B")
               for s, u in alice.items()}
    words_xy = {(s, t): qmat.conjugate_local(u, w, full)
                for s, u in alice.items() for t, w in bob.items()}
    return successive_povm(code1, code2, code_proj, words_x, words_xy)


def frame_maps(book) -> tuple:
    """(index, phase): the (K, d_s) maps of U(s_0)† in row 0 and of the frame
    steps S_l = U(s_{l+1})† U(s_l) in row l + 1, U the receiver encoders of
    ``book``.  With inv = argsort(i), (i, p)† = (inv, conj(p[inv])) and
    (i, p)† (i', p') = (i'[inv], conj(p[inv]) p'[inv])."""
    index = np.argsort(book.index, axis=1)
    phase = np.take_along_axis(book.phase, index, axis=1).conj()
    phase[1:] *= np.take_along_axis(book.phase[:-1], index[1:], axis=1)
    index[1:] = np.take_along_axis(book.index[:-1], index[1:], axis=1)
    return index, phase


def successive_bytes(d: int, c: int, L: int, M: int, shapes: dict) -> int:
    """The bytes that :func:`successive_table` allocates for L x M
    codewords on a d x c factor R, ``shapes`` as in
    :func:`sequential_bytes`.  The stages: V (d x kc, k = LM) with Bob's
    stack and a gathered copy or the traces' temporaries; V with Bob's
    words (d x Mr, r = r_ABC) and a gathered B or their coordinate blocks;
    then, beside Q†W, Z with a gathered copy or the code projector's blocks
    (:func:`typicality.applied_blocks`); Z with the chain's start, its
    update, T_k and W~_k's copy; and, with the start and T_k held, Alice's
    update: Z with the test's blocks, or Z, Z - Pi_x Z and the code
    projector's blocks, or Z, the next Z and its gathered copy.
    """
    q, formed = typicality.coordinate_rows(shapes, ("B", "AC"))
    r, row = shapes["ABC"][1], L * M * c
    v, bob, words, t = row * d, M * c * d, q * M * d * r, row * r
    start = q * v * (q < 1)
    code = typicality.applied_blocks(shapes, ("C", "B", "A"))
    return 16 * int(max(
        v + bob + max(bob, eacode.overlap_entries(v, row)),
        v + M * d * r + max(d * r, formed * M * d * r),
        words + v * max(2, 1 + code),
        words + v + max(formed * v, start + q * v + t + q * d * r
                        + eacode.overlap_entries(t, row)),
        words + start + t + v * max(
            1 + typicality.applied_blocks(shapes, ("B", "AC")), 2 + code, 3),
    )) + 8 * (L * M + 1) * L * M + eacode.object_bytes(L * M) + 24 * (
        L * shapes["A"][0] + M * shapes["B"][0])


def successive_table(factor: np.ndarray, books,
                     projectors: typicality.ProjectorBundle,
                     held: int = 0) -> np.ndarray:
    """The successive decoder's table [T; abort] on the codeword factors.

    ``books`` holds Alice's and Bob's :class:`~qmac.eacode.EaCodeBook`s and
    ``factor`` is R with rho_n = R R† on ``projectors.space``.  Equal to
    ``eacode.overlap_table(sent, V, ea_successive_povm(books, projectors))``
    on ``(sent, V, _) = eacode.codeword_factors(factor, books, space)``
    without forming a d x d matrix.  That POVM is :func:`successive_povm`
    with the code projector Pi = Pi_A Pi_B Pi_C, Alice's words
    Pi_x(s) = U_1(s) Pi_AC U_1(s)† Pi_B = U_1(s) Pi_AC Pi_B U_1(s)† and the
    pair words Pi_xy(s, t) = U_1(s) U_2(t) Pi_ABC U_2(t)† U_1(s)†, each
    encoder on its own share.  Its element (l, m) is M†M with
    M = Pi_xy(s_l, t_m) Pi_x(s_l) times the products of the earlier tests,
    so T[(l, m), j] is the squared norm of M Pi V_j.

    Both stages run in Alice's frame Z_l = U_1(s_l)† Y_l, Y_l her stage
    before its l-th test (Y_0 = Pi V, V = [V_11 ... V_LM]); U_1 keeps
    norms.  Bob's stage is the sequential chain (:func:`_chain`) of his
    words [U_2(t_1) B ... U_2(t_M) B], Pi_ABC = B B†, encoded once
    (:func:`eacode.encode`), inside the fixed test Pi_x = Pi_B Pi_AC = Q Q†,
    Q = B_B (x) B_AC, from Q† Z_l: it runs in Q's coordinates
    (:meth:`typicality.ProjectorBundle.coordinates`), so no projector acts
    inside it.  Every U_1 is block-diagonal on A's type blocks, so it
    commutes with Pi (as in :func:`_factor_constants`), and Alice's update
    Y_{l+1} = Pi (Y_l - U_1(s_l) Pi_x U_1(s_l)† Y_l) is
    Z_{l+1} = S_l Pi (Z_l - Pi_x Z_l) with the frame steps
    S_l = U_1(s_{l+1})† U_1(s_l), index maps (:func:`frame_maps`) each
    gathered over Z (:func:`eacode.apply_map`).  Z_0 = Pi U_1(s_0)† V is
    formed once, over V, and V dropped: Pi acts on it before l = 0, since
    every element starts with Pi (:func:`successive_povm`).  So her
    encoders act L times per table.
    The chain updates its start in place, which is Z itself only when Pi_B
    and Pi_AC are full rank: then Pi_x = I and Z - Pi_x Z is zero whatever
    Z holds, so Z needs no copy.  The rows (l, m) fill one preallocated
    table, whose last row :func:`eacode.codeword_table` fills with the
    abort weights.  |V_j|^2 must be 1 and every abort weight at least
    -1e-9.  The run is refused first when ``held`` bytes, R, the bases and
    :func:`successive_bytes` pass the memory limit
    (:func:`qmat.require_bytes`).
    """
    alice, bob = books
    qmat.require_bytes(held + factor.nbytes + projectors.nbytes
                       + successive_bytes(*factor.shape, alice.message_count,
                                          bob.message_count,
                                          projectors.shapes()))
    space = projectors.space
    sent, z, traces = eacode.codeword_factors(factor, books, space)
    test, code = ("B", "AC"), ("C", "B", "A")  # Pi_x and Pi
    words = np.split(projectors.coordinates(test, eacode.encode(
        projectors.basis("ABC"), [bob], space)[0]), bob.message_count, axis=1)

    def project(y, names):  # the product of the named projectors
        for name in names:
            y = projectors.apply(name, y)
        return y

    shape = qmat.local_shape(alice.decomp.receiver_space, space)
    index, phase = frame_maps(alice)

    def on_share(l, z):  # map l of Alice's frame on her share, over z
        v = z.reshape((1,) + shape)
        eacode.apply_map(index[l:l + 1], phase[l:l + 1], v, v)
        return v.reshape(z.shape)

    table = np.empty((len(sent) + 1, len(sent)))
    z = project(on_share(0, z), code)  # Z_0; V dropped
    for l in range(alice.message_count):
        start = projectors.coordinates(test, z)
        for m, t in enumerate(_chain(start, words)):
            table[l * bob.message_count + m] = eacode.block_overlaps(
                t, t, len(sent))
        if l + 1 < alice.message_count:
            z = on_share(l + 1, project(z - project(z, test), code))
    return eacode.codeword_table(sent, traces, table)
