"""Sequential and successive decoding: POVMs, success bounds, diagnostics.

A sequential decoder tests codewords one at a time with yes/no projective
measurements; its POVM is a product of sandwiched projectors.  The packing
bound lower-bounds the code-averaged success probability from four measured
constants (epsilon, d, D, message count).  The successive variant decodes
one sender fully, then the other, over a multiple access channel.
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
    "SuccessiveConstants",
    "SuccessiveBound",
    "SeqReport",
    "sequential_povm",
    "exact_success_probability",
    "expected_success_exhaustive",
    "packing_lower_bound",
    "packing_diagnostics",
    "ea_protocol_instance",
    "ea_packing_constants",
    "ea_sequential_protocol",
    "successive_povm",
    "successive_bound",
    "unassisted_successive_exponents",
    "assisted_successive_exponents",
]

PROJECTOR_TOL = 1e-9
EXHAUSTIVE_CAP = 100_000
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
    if float(np.max(np.abs(p @ p - p))) > PROJECTOR_TOL:
        raise ValueError(f"{name} is not idempotent within {PROJECTOR_TOL}")
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
    """
    x = c.d * c.message_count / c.D
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


def _ea_projectors(channel: KrausChannel, decomp, delta: float):
    """Channel output and typical projectors of the assisted sequential code.

    Returns ``(rho_n, code_proj, pi_ab)`` on rho_n's space (receiver share
    first, then the channel outputs): the unencoded output, the code
    projector Pi_A (x) Pi_B of the one-sided typical projectors, and the
    joint typical projector Pi_AB, which is the word projector of s = 0.
    The names A and B stand for the receiver share and the channel output.
    """
    rho_n = eacode.channel_output_state(channel, decomp)
    recv = (decomp.receiver_label,)
    out = channel.out_space.labels
    p = typicality.embedded_typical_projectors(
        info.ea_code_state(channel, decomp.phi), decomp.n, delta,
        {"A": recv, "B": out, "AB": recv + out}, rho_n.space,
    )
    return rho_n, p["A"] @ p["B"], p["AB"]


def _codeword(decomp, s, rho_n: DensityOperator, pi_ab: np.ndarray):
    """(sigma_s, Pi_s): the codeword state and word projector of index s."""
    u = eacode.receiver_encoder([(decomp, s)])
    full = rho_n.space
    sigma = DensityOperator(full, qmat.conjugate_local(u, rho_n.matrix, full))
    return sigma, qmat.conjugate_local(u, pi_ab, full)


def _covariant_constants(decomp, rho_n: DensityOperator, code_proj,
                         pi_ab) -> typicality.MeasuredConstants:
    """Packing constants over the uniform ensemble on S, without enumerating S.

    U^T(s) is block-diagonal on the receiver's type blocks, so it commutes
    with rho_A^(x)n and with Pi_A, a spectral projector of rho_A^(x)n, hence
    with the code projector.  So Tr{Pi sigma_s} = Tr{Pi rho_n},
    Tr{Pi_s sigma_s} = Tr{Pi_AB rho_n} and Pi_s sigma_s Pi_s has the same
    spectrum for every s: epsilon and d are those of s = 0, where sigma =
    rho_n and Pi_s = Pi_AB.  D comes from the closed-form average state
    :func:`eacode.average_codeword_state`.  The commutator residual is the
    one of s = 0; its max-norm is not invariant under the encoders.
    """
    epsilon, d, residual = typicality.measure_word_constants(
        [rho_n.matrix], code_proj, [pi_ab]
    )
    rho_bar = eacode.average_codeword_state(rho_n, decomp)
    D = typicality.measure_code_constant(rho_bar.matrix, code_proj)
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
    :func:`ea_packing_constants` and the exhaustive codebook average.
    """
    decomp = eacode.type_decompose(phi, n)
    size = eacode.index_set_size(decomp)
    if size > INDEX_SET_CAP:
        raise DimensionCapError(
            f"index set has {size} elements, beyond the exhaustive cap "
            f"{INDEX_SET_CAP}"
        )
    rho_n, code_proj, pi_ab = _ea_projectors(channel, decomp, delta)
    sigma = {}
    words = {}
    for s in eacode.enumerate_indices(decomp):
        sigma[s], words[s] = _codeword(decomp, s, rho_n, pi_ab)
    return decomp, code_proj, sigma, words


def ea_packing_constants(channel: KrausChannel, phi: PureState, n: int,
                         delta: float) -> typicality.MeasuredConstants:
    """Packing constants of the assisted code, uniform over the index set S.

    Equal to :func:`typicality.measure_packing_constants` over every
    codeword of :func:`ea_protocol_instance`, but built from the encoders'
    covariance at a cost that does not grow with |S|.
    """
    decomp = eacode.type_decompose(phi, n)
    return _covariant_constants(
        decomp, *_ea_projectors(channel, decomp, delta)
    )


def ea_sequential_protocol(channel: KrausChannel, phi: PureState, n: int,
                           message_count: int, delta: float, seed: int,
                           trials: int) -> SeqReport:
    """Run the entanglement-assisted sequential decoder end to end.

    Samples ``trials`` codebooks, builds the sequential POVM from the
    typical code/word projectors, evaluates the exact average success per
    book, and reports the empirical mean together with the packing bound at
    constants taken over the full index set (see
    :func:`ea_packing_constants`).  Codeword states and word projectors are
    built only for the indices the books draw.  Raises ``ValueError`` when
    the code or word projector is empty at this ``delta``.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    decomp = eacode.type_decompose(phi, n)
    rho_n, code_proj, pi_ab = _ea_projectors(channel, decomp, delta)
    typicality.require_nonempty(
        {"code": np.trace(code_proj).real, "word": np.trace(pi_ab).real}, delta)
    measured = _covariant_constants(decomp, rho_n, code_proj, pi_ab)
    eps = min(max(measured.epsilon, 1e-15), 1.0)
    bound = packing_lower_bound(
        PackingConstants(eps, measured.d, measured.D, message_count)
    )
    sigma = {}
    words = {}
    successes = []
    for t in range(trials):
        book = eacode.sample_code(decomp, message_count, seed + t)
        for s in book.entries:
            if s not in sigma:
                sigma[s], words[s] = _codeword(decomp, s, rho_n, pi_ab)
        povm = sequential_povm(
            list(book.entries), code_proj, words
        )
        successes.append(
            exact_success_probability([sigma[s] for s in book.entries], povm)
        )
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

@dataclass(frozen=True, slots=True)
class SuccessiveConstants:
    """Constants of the two-stage packing bound.

    ``eps_prime`` must be consistent with the first-stage guarantee
    2 - e^{d1_minus L / D1} >= 1 - eps_prime.
    """

    epsilon: float
    eps_prime: float
    d1_minus: float
    d1_plus: float
    d2: float
    D1: float
    L: int
    M: int

    def __post_init__(self):
        if not all(
            getattr(self, k) > 0
            for k in ("epsilon", "d1_minus", "d1_plus", "d2", "D1")
        ):
            raise ValueError("successive constants must be positive")
        if not self.eps_prime >= 0:
            raise ValueError("eps_prime must be nonnegative")
        required = math.exp(self.d1_minus * self.L / self.D1) - 1.0
        if self.eps_prime < required - 1e-12:
            raise ValueError(
                f"eps_prime {self.eps_prime} below the consistent minimum "
                f"{required}"
            )

    @classmethod
    def from_measurements(cls, epsilon, d1_minus, d1_plus, d2, D1, L, M):
        """Pick the smallest consistent eps_prime."""
        eps_prime = max(0.0, math.exp(d1_minus * L / D1) - 1.0)
        return cls(epsilon, eps_prime, d1_minus, d1_plus, d2, D1, L, M)


@dataclass(frozen=True, slots=True)
class SuccessiveBound:
    """Two-stage bound, raw and clamped to [0, 1]."""

    value: float
    raw: float
    condition_holds: bool


def successive_bound(c: SuccessiveConstants) -> SuccessiveBound:
    """|(1-2eps)(2 - e^{d2 M / d1_plus})|^2 - 2 sqrt(2 (eps + eps')).

    The raw value may be negative at desk scale; the clamped value floors
    it at zero.
    """
    bracket = 2.0 - math.exp(c.d2 * c.M / c.d1_plus)
    positive = bracket > 0.0 and c.epsilon <= 0.5
    main = abs((1.0 - 2.0 * c.epsilon) * bracket) ** 2 if bracket > 0 else 0.0
    raw = main - 2.0 * math.sqrt(2.0 * (c.epsilon + c.eps_prime))
    return SuccessiveBound(max(raw, 0.0), raw, positive)


def successive_povm(code1: Sequence, code2: Sequence, code_projector,
                    word_projectors_x: Mapping,
                    word_projectors_xy: Mapping) -> PovmSet:
    """Two-stage POVM: decode Alice's codeword sequentially, then Bob's.

    Lambda_{l,m} = M†M with
    M = Pi_{x(l),y(m)} Qbarbar_{x(l),y(m-1)} ... Qbarbar_{x(l),y(1)}
        Pi_{x(l)} Qbar_{x(l-1)} ... Qbar_{x(1)},
    where Qbar uses the code projector sandwich and Qbarbar the Pi_{x(l)}
    sandwich.  Since Pi_{x(l)} absorbs into Qbarbar, this is the
    sequential POVM of Bob's codewords inside Pi_{x(l)}, conjugated by
    Alice's first-stage product:
    Lambda_{l,m} = F Qbarbar ... Pibarbar_{x(l),y(m)} ... Qbarbar F†
    with F = Qbar_{x(1)} ... Qbar_{x(l-1)} and Pibarbar the Pi_{x(l)}
    sandwich of Pi_{x(l),y(m)}.
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
    first = np.eye(dim)
    for l, x in enumerate(code1):
        left = first
        for m, y in enumerate(code2):
            pibar, qbar = second_stage[(x, y)]
            elements[(l, m)] = left @ pibar @ left.conj().T
            left = left @ qbar
        first = first @ first_stage[x][1]
    return PovmSet(qmat.FactorSpace(("S",), (dim,)), elements)


def unassisted_successive_exponents(n, delta, h_b, h_b_given_x, h_b_given_xy):
    """Base-2 exponents of the unassisted parameter choices.

    D1 = 2^{n(H(B) - delta)}, d1+ = 2^{n(H(B|X) - delta)},
    d1- = 2^{n(H(B|X) + delta)}, d2 = 2^{n(H(B|XY) + delta)}, so that
    D1/d1- = 2^{n(I(X;B) - 2 delta)} and d1+/d2 = 2^{n(I(Y;B|X) - 2 delta)}
    hold identically.  Works on floats or symbolic quantities alike.
    """
    return {
        "D1": n * (h_b - delta),
        "d1_plus": n * (h_b_given_x - delta),
        "d1_minus": n * (h_b_given_x + delta),
        "d2": n * (h_b_given_xy + delta),
    }


def assisted_successive_exponents(n, delta, h_a, h_b, h_c, h_ac, h_abc):
    """Base-2 exponents of the entanglement-assisted parameter choices.

    D1 = 2^{n(H(A)+H(B)+H(C) - delta)}, d1+ = 2^{n(H(B)+H(AC) - delta)},
    d1- = 2^{n(H(B)+H(AC) + delta)}, d2 = 2^{n(H(ABC) + delta)}, giving
    D1/d1- = 2^{n(I(A;C) - 2 delta)} and d1+/d2 = 2^{n(I(B;AC) - 2 delta)}.
    """
    return {
        "D1": n * (h_a + h_b + h_c - delta),
        "d1_plus": n * (h_b + h_ac - delta),
        "d1_minus": n * (h_b + h_ac + delta),
        "d2": n * (h_abc + delta),
    }
