"""Simultaneous decoding for two-sender channels, and its coherent upgrade.

One joint square-root measurement recovers both messages at once: each
detection operator sandwiches the joint typical projector between encoder
conjugates and marginal typical projectors, and normalization by the
inverse square root of the sum yields a POVM.  A modular-shift relabeling
of both codebooks converts the average error criterion into a maximal one,
and lifting each POVM element to sqrt(Lambda) (x) |outcome> gives an
isometry that decodes coherently.

A code is a list of books, one :class:`~qmac.eacode.EaCodeBook` per
sender, and every factored decoder reads ``(factor, books, projectors)``:
R with rho_n = R R†, built once per run, the books, and the typical
projectors of :func:`mac_typical_projectors`.  Every error figure reads
one table T[k, j] = Tr{Lambda_k sigma_j} of overlaps on the codeword
factors V_j = U_j R (:func:`eacode.codeword_factors`), so no evaluation
forms rho_n or any sigma_j.  The simultaneous decoder's table is read in
Gram form (:func:`gram_table`): each detection operator is
Upsilon_lm = W_lm W_lm† with W_lm only d x r,
where r is the rank of the joint typical projector Pi_ABC = B B†, and the
square-root measurement of the W_lm is that of Hausladen, Jozsa,
Schumacher, Westmoreland and Wootters (PRA 54, 1869, 1996).  It is taken on
the row space (dimension q <= Mr) of the factor Y = [Y_1 ... Y_M] that every
W_lm = U_1(s_l) Y_m shares, on an Lq x Lq Gram matrix or on S = W W†,
whichever is smaller, so no d x d matrix is formed.  Every typical
projector is kept as its type basis B on its own factors
(:class:`~qmac.typicality.ProjectorBundle`) and applied as B (B† Y).  The
successive decoder's table is :func:`seqdecode.successive_table`.  The
dense path (:func:`build_upsilon`, :func:`sqrt_measurement` and
:func:`simultaneous_povm`, read by :func:`eacode.overlap_table`) stays as
the oracle, and it is the path of the coherent decoder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import eacode, info, qmat, seqdecode, typicality
from .qmat import KrausChannel, PovmSet

__all__ = [
    "mac_typical_projectors",
    "build_upsilon",
    "sqrt_measurement",
    "simultaneous_povm",
    "gram_table",
    "gram_bytes",
    "error_figures",
    "error_breakdown",
    "hayashi_nagaoka_check",
    "max_error_via_randomization",
    "coherent_decoder",
    "coherent_fidelity",
    "CoherentDecoder",
    "run_mac_experiment",
    "MacReport",
]

SUPPORT_CUTOFF = 1e-12


def mac_typical_projectors(channel: KrausChannel, decomps,
                           delta: float) -> typicality.ProjectorBundle:
    """The six typical projectors of a two-sender channel output, kept small.

    On the full (B..., A..., C...) space, each of "A", "B", "C", "AB", "AC"
    and the joint "ABC" is kept as its type basis on its own n-copy factors,
    a contiguous run (:class:`~qmac.typicality.ProjectorBundle`), so no
    d x d matrix is formed.  ``decomps`` holds the two senders'
    decompositions.  Raises ``ValueError`` when one of them is empty at
    this ``delta``.
    """
    a, b = (d.receiver_label for d in decomps)
    c = channel.out_space.labels
    labels = {"A": (a,), "B": (b,), "C": c, "AB": (a, b), "AC": (a,) + c,
              "ABC": (a, b) + c}
    projectors = typicality.projector_bundle(
        info.ea_code_state(channel, [d.phi for d in decomps]), decomps[0].n,
        delta, labels, eacode.channel_output_space(channel, decomps))
    typicality.require_nonempty(
        {name: projectors.rank(name) for name in labels}, delta)
    return projectors


def build_upsilon(books, l: int, m: int,
                  projectors: typicality.ProjectorBundle) -> np.ndarray:
    """Detection operator for message pair (l, m), as a dense d x d matrix.

    U^T_1 wing† U^T_2 Pi_ABC U^*_2 wing U^*_1 with the wing
    (Pi_B Pi_AC)(Pi_C Pi_AB) and the encoders pulled to the receiver shares;
    positive semidefinite by construction.  Each encoder acts only on its own
    share (``qmat.conjugate_local``).  The oracle of :func:`gram_table`,
    whose encoders it builds from the books' draws rows, not from their maps.
    """
    full = projectors.space
    u1, u2 = (eacode.receiver_encoder(b.decomp, b.draws[k])
              for b, k in zip(books, (l, m)))
    pi = projectors.embedded
    wing = (pi("B") @ pi("AC")) @ (pi("C") @ pi("AB"))
    inner = qmat.conjugate_local(u2, projectors.embedded("ABC"), full)
    core = qmat.conjugate_local(u1, wing.conj().T @ inner @ wing, full)
    return (core + core.conj().T) / 2.0


def _support(total: np.ndarray):
    """(E, f): the eigenvectors E of a family sum whose eigenvalues lambda
    exceed 1e-12, and f = lambda^{-1/2}, so total^{+1/2} = E diag(f) E†.

    The one cutoff rule of the square root.  Raises when ``total`` has an
    eigenvalue below -1e-9.
    """
    vals, vecs = qmat.eig_hermitian(total)
    if float(vals.min()) < -qmat.PSD_TOL:
        raise ValueError(
            f"detection operators sum to an eigenvalue {vals.min():.3e} "
            f"< -{qmat.PSD_TOL}"
        )
    on_support = vals > SUPPORT_CUTOFF  # a prefix: the eigenvalues descend
    return vecs[:, on_support], vals[on_support] ** -0.5


def _inverse_root(total: np.ndarray):
    """(total^{+1/2}, support projector) of a family sum (:func:`_support`)."""
    e, f = _support(total)
    return (e * f) @ e.conj().T, e @ e.conj().T


def _check_support(resolved: np.ndarray, supp: np.ndarray) -> None:
    """Raise when the measurement misses the support projector by over 1e-8."""
    defect = float(np.max(np.abs(resolved - supp), initial=0.0))
    if defect > 1e-8:
        raise ValueError(
            f"square-root measurement misses the support projector by {defect:.3e}; "
            "some detection operator leaks outside the family support"
        )


def sqrt_measurement(upsilons: Mapping) -> PovmSet:
    """Square-root (pretty good) measurement of a PSD family.

    Lambda_k = S^{-1/2} Upsilon_k S^{-1/2} with S the family sum and the
    inverse square root taken on the support (cutoff 1e-12).  The elements
    sum to the support projector of S.
    """
    mats = {k: np.asarray(v, dtype=complex) for k, v in upsilons.items()}
    if not mats:
        raise ValueError("need at least one detection operator")
    dim = next(iter(mats.values())).shape[0]
    inv_root, supp = _inverse_root(sum(mats.values()))
    elements = {}
    for k, v in mats.items():
        lam = inv_root @ v @ inv_root
        elements[k] = (lam + lam.conj().T) / 2.0
    _check_support(sum(elements.values()), supp)
    space = qmat.FactorSpace(("S",), (dim,))
    return PovmSet(space, elements)


def simultaneous_povm(books,
                      projectors: typicality.ProjectorBundle) -> PovmSet:
    """Square-root measurement over all (l, m) detection operators, dense.

    The oracle of :func:`gram_table`, for callers that need the POVM itself.
    """
    alice, bob = books
    ups = {
        (l, m): build_upsilon(books, l, m, projectors)
        for l in range(alice.message_count)
        for m in range(bob.message_count)
    }
    return sqrt_measurement(ups)


def _detection_factors(books, projectors: typicality.ProjectorBundle):
    """(W', Z) with Upsilon_lm = W_lm W_lm† and W_lm = W'_l Z_m†.

    W_lm = U^T_1(s_l) Y_m with Y = [Y_1 ... Y_M] = wing† [U^T_2(t_m) B]_m
    (d x Mr), B = ``projectors.basis("ABC")`` with Pi_ABC = B B†, and
    wing† = Pi_AB Pi_C Pi_AC Pi_B, each applied by its basis
    (:meth:`~qmac.typicality.ProjectorBundle.apply`).  Z (Mr x q)
    holds Y's right singular vectors, less those of rounding residuals
    (:func:`qmat.rounding_residuals`), so Y_m = (Y Z) Z_m† with Z_m block m
    of Z's rows, and W' = [W'_1 ... W'_L] with W'_l = U^T_1(s_l) Y Z.  A
    tall Y is first reduced to the Mr x Mr R of Y = QR, which has Y's
    singular values and right singular vectors.  Both books' encoders act
    on their own shares (:func:`eacode.encode`): book 2's on B, book 1's
    on Y Z.
    """
    alice, bob = books
    space = projectors.space
    y = eacode.encode(projectors.basis("ABC"), [bob], space)[0]
    for name in ("B", "AC", "C", "AB"):
        y = projectors.apply(name, y)
    tall = y.shape[0] > y.shape[1]
    _, sigma, zh = np.linalg.svd(np.linalg.qr(y, mode="r") if tall else y,
                                 full_matrices=False)
    z = zh[~qmat.rounding_residuals(sigma, max(y.shape))].conj().T
    return eacode.encode(y @ z, [alice], space)[0], z


def _x_order(d: int, lq: int, rs: int, cols: int) -> int:
    """How :func:`gram_table` forms X' from V's ``cols`` columns: 0 as
    (W'†E f)(E†V) when S (d x d) is the smaller, else 1 as E (f ⊙ (W'E)†V)
    or 2 as E (f ⊙ E†(W'†V)), whichever costs fewer flops."""
    if lq > d:
        return 0
    flops = (d * lq * rs + d * rs * cols, d * lq * cols + lq * rs * cols)
    return 1 if flops[0] < flops[1] else 2


def gram_bytes(d: int, c: int, L: int, M: int, shapes: dict, q: int = 0,
               rs: int = 0) -> int:
    """The bytes that :func:`gram_table` allocates for L x M codewords on a
    d x c factor R, ``shapes`` as in :func:`seqdecode.sequential_bytes`, q
    the columns of Z and rs the rank of G' or S (0 until known).  The
    stages: Y (d x Mr, r = r_ABC) with a gathered B or the wing's blocks;
    Y with the QR's copy and R, or the SVD's factors; Y, Y Z twice and W'
    (d x Lq); W', Z and W'† with seven n_s x n_s blocks, n_s = min(d, Lq);
    then W', Z, G' or S, E and E f with V (d x kc, k = LM) and Bob's stack
    and a gathered copy or the traces' temporaries, or with V, X' (Lq x kc)
    and what forms it (:func:`_x_order`), or X' twice, or X' and the one
    buffer that holds each row block Z_m X' (r x Lkc) in turn.
    """
    r, k, lq = shapes["ABC"][1], L * M, L * q
    y, mr, kc = M * d * r, M * r, L * M * c
    v, bob, x = kc * d, M * c * d, lq * kc
    small, p = min(d, lq), r * L * kc
    kept = lq * d + mr * q + small * (small + 2 * rs)  # to the end
    form = (x + rs * (lq + kc + d) + lq * d,
            max(2 * d * rs, rs * kc + max(d * rs, x)),
            x + max(lq * d, rs * (small + kc)))[_x_order(d, lq, rs, kc)]
    return 16 * int(max(
        y + max(d * r, y * typicality.applied_blocks(
            shapes, ("B", "AC", "C", "AB"))),
        y + (max(y + mr * mr, 3 * mr * mr) if d > mr else y + d * d),
        y + 2 * d * q + lq * d,
        2 * lq * d + mr * q + 7 * small * small,
        kept + v + bob + max(bob, eacode.overlap_entries(v, kc)),
        kept + v + max(form, 2 * x,
                       x + p + eacode.overlap_entries(p, L * kc)),
    )) + 8 * (k + 1) * k + eacode.object_bytes(k) + 24 * (
        L * shapes["A"][0] + M * shapes["B"][0])


def gram_table(factor: np.ndarray, books,
               projectors: typicality.ProjectorBundle,
               held: int = 0) -> np.ndarray:
    """The simultaneous decoder's table [T; abort] in Gram form.

    ``books`` holds the two senders' :class:`~qmac.eacode.EaCodeBook`s and
    ``factor`` is R with rho_n = R R† on ``projectors.space``.  Equal to
    ``eacode.overlap_table(sent, V, simultaneous_povm(books, projectors))``
    on ``(sent, V, _) = eacode.codeword_factors(factor, books, space)``
    without forming a d x d matrix.  Stack W = [W_11 ... W_LM] (l-major), so
    the family sum is S = W W† and, with G = W†W, S^{+1/2} W = W G^{+1/2} on
    the support: Lambda_lm = W G^{+1/2} P_lm† P_lm G^{+1/2} W† with P_lm the
    rows of block (l, m).  By :func:`_detection_factors`,
    W = W' (I_L (x) Z)† with Z an isometry, so S = W'W'† and
    G^{+1/2} W† = (I_L (x) Z) G'^{+1/2} W'† with G' = W'†W' only Lq x Lq.
    Hence T[(l, m), j] = |Z_m X'_{l,j}|_F^2 for the blocks X'_{l,j} of
    X' = G'^{+1/2} W'† V = W'† S^{+1/2} V, read one row block Z_m X' at a
    time, each formed in one preallocated buffer
    (:func:`eacode.block_overlaps`).  The smaller of G' and S is
    decomposed once and read on its support only (:func:`_support`): its
    r_s eigenvectors E with eigenvalues lambda > 1e-12 and f = lambda^{-1/2},
    so G'^{+1/2} = E diag(f) E† and no Lq x Lq (or d x d) square root is
    formed.  On the G' side X' = E (f ⊙ E†(W'†V)) or E (f ⊙ (W'E)†V),
    whichever costs fewer flops; on the S side X' = (W'†E f)(E†V), which
    always costs fewer than W'†(E (f ⊙ E†V)): r <= c for R's c columns, so
    Lq <= L M r <= kc.  (W', Z) and E are built before V, so V and Y are
    never held together.  The rows (l, m) fill one preallocated table,
    whose last row is the abort weight |V_j|^2 - sum_k T[k, j]
    (:func:`eacode.codeword_table`).

    The checks of :func:`sqrt_measurement` move to the smaller space: G'
    (or S) must be PSD within 1e-9, f E†G'E f must be the identity within
    1e-8 (G'^{+1/2} G' G'^{+1/2} minus its support projector, written in
    the support basis), |V_j|^2 must be 1 and every abort weight at least
    -1e-9.  The run is refused when ``held`` bytes, R, the bases and
    :func:`gram_bytes` pass the memory limit (:func:`qmat.require_bytes`):
    first with q = rs = 0, then, once G' or S is decomposed, with the real
    q and its rank rs, before V is formed.
    """
    def require(q=0, rs=0):
        qmat.require_bytes(held + factor.nbytes + projectors.nbytes
                           + gram_bytes(*factor.shape, L, M,
                                        projectors.shapes(), q, rs))

    L, M = (b.message_count for b in books)
    require()
    w, z = _detection_factors(books, projectors)
    d, lq = w.shape
    total = w.conj().T @ w if lq <= d else w @ w.conj().T  # G' or S
    e, f = _support(total)
    ef = e * f
    _check_support(ef.conj().T @ (total @ ef), np.eye(len(f)))
    rs, cols = len(f), L * M * factor.shape[1]
    require(z.shape[1], rs)
    sent, v, traces = eacode.codeword_factors(factor, books, projectors.space)
    order = _x_order(d, lq, rs, cols)
    if order == 0:  # X' = (W'†E f)(E†V), the cheaper order as Lq <= kc
        x = (w.conj().T @ ef) @ (e.conj().T @ v)
    elif order == 1:
        x = e @ ((w @ ef).conj().T @ v)  # X' = E (f ⊙ (W'E)†V)
    else:
        x = e @ (ef.conj().T @ (w.conj().T @ v))  # X' = E (f ⊙ E†(W'†V))
    K, q = len(sent), z.shape[1]
    x = x.reshape(L, q, -1).transpose(1, 0, 2).reshape(q, -1)
    table = np.empty((K + 1, K))
    rows = table[:-1].reshape(L, M, K)  # row (l, m) of the table
    p = np.empty((len(z) // M, x.shape[1]), dtype=complex)  # each Z_m X'
    for m, zm in enumerate(np.split(z, M)):
        np.matmul(zm, x, out=p)
        rows[:, m] = eacode.block_overlaps(p, p, L * K).reshape(L, K)
    return eacode.codeword_table(sent, traces, table)


def _figures(books, table: np.ndarray) -> dict:
    """Every error figure as a reduction of the table [T; abort]."""
    L, M = (b.message_count for b in books)
    success = np.diagonal(table)
    decoded = table[:-1].reshape(L, M, L, M)  # (l', m') decoded, (l, m) sent
    same_l = np.eye(L, dtype=bool)[:, None, :, None]
    same_m = np.eye(M, dtype=bool)[None, :, None, :]
    norm = L * M
    parts = {
        "wrong_alice": float(decoded.sum(where=~same_l & same_m)) / norm,
        "wrong_bob": float(decoded.sum(where=same_l & ~same_m)) / norm,
        "wrong_both": float(decoded.sum(where=~same_l & ~same_m)) / norm,
        "abort": float(table[-1].sum()) / norm,
    }
    parts["total"] = sum(parts.values())
    avg_error = 1.0 - float(success.sum()) / norm
    return {
        "avg_error": avg_error,
        # each pair's error averaged over every modular shift (S, T) of both
        # books runs over every pair once: the average error, by construction
        "max_error_randomized": avg_error,
        "epsilon_measured": 1.0 - float(success.min()),
        "breakdown": parts,
    }


def error_figures(factor: np.ndarray, books, space: qmat.FactorSpace,
                  povm: PovmSet) -> dict:
    """Every error figure of ``povm``, each a reduction of one overlap table.

    ``factor`` is R with rho_n = R R† on ``space`` and ``books`` the two
    senders' codebooks (:func:`eacode.codeword_factors`).  Returns
    ``avg_error`` (the mean over (l, m) of
    Tr{(I - Lambda_{l,m}) sigma_{l,m}}), ``max_error_randomized``,
    ``epsilon_measured`` and the ``breakdown`` dict of
    :func:`error_breakdown`.  The average and the worst pair read the
    diagonal of T; the breakdown reads the off-diagonal entries and the
    abort row, so its total is an independent second path to the average
    error.
    """
    sent, v, _ = eacode.codeword_factors(factor, books, space)
    return _figures(books, eacode.overlap_table(sent, v, povm))


def error_breakdown(factor: np.ndarray, books, space: qmat.FactorSpace,
                    povm: PovmSet) -> dict:
    """``error_figures(...)["breakdown"]``: the average error split by which
    sender was misidentified.

    The dict holds ``wrong_alice`` (l' != l, m' = m), ``wrong_bob``,
    ``wrong_both``, ``abort`` (the implicit completion outcome) and
    ``total``.  Kept as a name because the benchmark tracer
    (``perfbench/spans.py``) binds it.
    """
    return error_figures(factor, books, space, povm)["breakdown"]


def max_error_via_randomization(factor: np.ndarray, books,
                                space: qmat.FactorSpace,
                                povm: PovmSet) -> float:
    """``error_figures(...)["max_error_randomized"]``: max over message pairs
    of the shift-averaged error.

    For every (l, m), the average of the pairwise error over all modular
    shifts (S, T) of both codebooks runs over every pair once, so it is the
    same for every (l, m): the mean of the pairwise errors.  It equals
    ``avg_error`` by construction, as the same float.  Kept as a name
    because the benchmark tracer (``perfbench/spans.py``) binds it.
    """
    return error_figures(factor, books, space, povm)["max_error_randomized"]


def hayashi_nagaoka_check(S, T, tol: float = 1e-9):
    """Verify I - (S+T)^{-1/2} S (S+T)^{-1/2} <= 2(I-S) + 4T.

    Requires 0 <= S <= I and T >= 0 (within ``tol``); the inverse square
    root is the pseudo-inverse on the support of S + T.

    Returns
    -------
    (holds, min_gap_eigenvalue)
        ``holds`` is true when the least eigenvalue of RHS - LHS clears
        ``-tol``.
    """
    S = np.asarray(S, dtype=complex)
    T = np.asarray(T, dtype=complex)
    s_vals = np.linalg.eigvalsh((S + S.conj().T) / 2)
    t_vals = np.linalg.eigvalsh((T + T.conj().T) / 2)
    if s_vals.min() < -tol or s_vals.max() > 1 + tol:
        raise ValueError("S must satisfy 0 <= S <= I")
    if t_vals.min() < -tol:
        raise ValueError("T must be positive semidefinite")
    eye = np.eye(S.shape[0])
    inv_root = qmat.operator_power(S + T, -0.5, support_cutoff=SUPPORT_CUTOFF)
    lhs = eye - inv_root @ S @ inv_root
    rhs = 2.0 * (eye - S) + 4.0 * T
    gap = np.linalg.eigvalsh(((rhs - lhs) + (rhs - lhs).conj().T) / 2)
    return bool(gap.min() >= -tol), float(gap.min())


# ---------------------------------------------------------------------------
# coherent decoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True, eq=False, repr=False)
class CoherentDecoder:
    """Isometry sum_k sqrt(Lambda_k) (x) |k> over POVM outcomes plus abort."""

    matrix: np.ndarray
    outcomes: tuple

    def __post_init__(self):
        object.__setattr__(self, "matrix", qmat.frozen_copy(self.matrix))
        object.__setattr__(self, "outcomes", tuple(self.outcomes))

    def isometry_defect(self) -> float:
        dim = self.matrix.shape[1]
        return float(np.max(np.abs(
            self.matrix.conj().T @ self.matrix - np.eye(dim)
        )))

    def block(self, outcome) -> np.ndarray:
        i = self.outcomes.index(outcome)
        d = self.matrix.shape[1]
        return self.matrix[i * d:(i + 1) * d, :]


def coherent_decoder(povm: PovmSet) -> CoherentDecoder:
    """Lift a POVM to an isometry by recording the outcome coherently.

    The completion element is appended under the key ``"abort"`` so the
    blocks' squares resolve the identity and V†V = I within 1e-9.
    """
    outcomes = list(povm.keys()) + ["abort"]
    # operator_power symmetrizes each element, the completion included
    elements = [povm[k] for k in outcomes[:-1]] + [povm.completion()]
    dec = CoherentDecoder(np.vstack([
        qmat.operator_power(e, 0.5, support_cutoff=0.0) for e in elements
    ]), outcomes)
    defect = dec.isometry_defect()
    if defect > 1e-9:
        raise ValueError(f"coherent lift misses isometry by {defect:.3e}")
    return dec


def coherent_fidelity(factor: np.ndarray, books, space: qmat.FactorSpace,
                      povm: PovmSet) -> float:
    """Overlap of the coherently decoded state with its ideal target.

    Averaged over the common-randomness shifts of both senders, the overlap
    of every superposition of messages is the mean over (l, m) of
    <psi_{l,m}| sqrt(Lambda_{l,m}) |psi_{l,m}> on the purified channel
    output, so it is at least the average success probability of the
    underlying POVM.  ``factor``, ``books`` and ``space`` are those of
    :func:`error_figures`, and Tr sigma_lm = |V_lm|^2 must be 1.
    """
    sent, v, _ = eacode.codeword_factors(factor, books, space)
    total = 0.0
    for key, v_j in zip(sent, np.split(v, len(sent), axis=1)):
        root = qmat.operator_power(povm[key], 0.5, support_cutoff=0.0)
        total += float(np.vdot(v_j, root @ v_j).real)
    return total / len(sent)


def run_mac_experiment(factor: np.ndarray, books, mode: str,
                       projectors: typicality.ProjectorBundle,
                       held: int = 0) -> MacReport:
    """Decode with the requested decoder and report its exact error figures.

    Both decoders read ``(factor, books, projectors)``: R with
    rho_n = R R†, the two senders' codebooks and
    ``mac_typical_projectors`` of their decompositions.  R and the
    projectors do not depend on the codebooks, so a caller that decodes
    several pairs of books builds them once.  The simultaneous decoder is
    read in Gram form (:func:`gram_table`) and the successive decoder on the
    codeword factors (:func:`seqdecode.successive_table`); neither forms a
    d x d matrix.  Callers that need the POVM build it with
    :func:`simultaneous_povm` or :func:`seqdecode.ea_successive_povm`.
    ``epsilon_measured`` is the worst pairwise miss 1 - min Tr{Lambda sigma}
    over message pairs, so both the average success and the coherent
    fidelity clear 1 - epsilon_measured.  Each decoder counts its bytes on
    top of the caller's ``held`` and refuses a run that passes the limit.
    """
    if mode not in ("simultaneous", "successive"):
        raise ValueError(f"unknown decoder mode {mode!r}")
    decoder = (gram_table if mode == "simultaneous"
               else seqdecode.successive_table)
    table = decoder(factor, books, projectors, held)
    L, M = (b.message_count for b in books)
    return MacReport(n=books[0].decomp.n, L=L, M=M,
                     seeds=tuple(b.seed for b in books), mode=mode,
                     **_figures(books, table))


@dataclass(frozen=True, slots=True)
class MacReport:
    """Result of one multiple-access decoding experiment.

    ``max_error_randomized`` is ``avg_error`` by construction, as the same
    float (see :func:`max_error_via_randomization`).
    """

    n: int
    L: int
    M: int
    avg_error: float
    max_error_randomized: float
    epsilon_measured: float
    seeds: tuple[int, int]
    mode: str
    breakdown: dict

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "L": self.L,
            "M": self.M,
            "mode": self.mode,
            "avg_error": self.avg_error,
            "max_error_randomized": self.max_error_randomized,
            "epsilon_measured": self.epsilon_measured,
            "seeds": list(self.seeds),
            "error_terms": self.breakdown,
        }
