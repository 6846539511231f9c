"""Simultaneous decoding for two-sender channels, and its coherent upgrade.

One joint square-root measurement recovers both messages at once: each
detection operator sandwiches the joint typical projector between encoder
conjugates and marginal typical projectors, and normalization by the
inverse square root of the sum yields a POVM.  A modular-shift relabeling
of both codebooks converts the average error criterion into a maximal one,
and lifting each POVM element to sqrt(Lambda) (x) |outcome> gives an
isometry that decodes coherently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import eacode, info, qmat, seqdecode, typicality
from .qmat import KrausChannel, PovmSet

__all__ = [
    "MacCodePair",
    "MacProjectors",
    "mac_typical_projectors",
    "build_upsilon",
    "sqrt_measurement",
    "simultaneous_povm",
    "average_error",
    "error_breakdown",
    "hayashi_nagaoka_check",
    "randomize_code",
    "max_error_via_randomization",
    "coherent_decoder",
    "coherent_fidelity",
    "CoherentDecoder",
    "ea_successive_povm",
    "run_mac_experiment",
    "MacReport",
]

SUPPORT_CUTOFF = 1e-12


@dataclass(frozen=True, slots=True)
class MacCodePair:
    """Independent random codebooks for the two senders."""

    book1: eacode.EaCodeBook
    book2: eacode.EaCodeBook

    @property
    def L(self) -> int:
        return self.book1.message_count

    @property
    def M(self) -> int:
        return self.book2.message_count

    @property
    def seeds(self) -> tuple[int, int]:
        return (self.book1.seed, self.book2.seed)

    @classmethod
    def sample(cls, decomp1, decomp2, L, M, seed1, seed2):
        if seed1 == seed2:
            raise ValueError("sender codebooks need independent seeds")
        return cls(
            eacode.sample_code(decomp1, L, seed1),
            eacode.sample_code(decomp2, M, seed2),
        )


def randomize_code(pair: MacCodePair, s_shift: int, t_shift: int) -> MacCodePair:
    """Relabel both codebooks by modular message shifts (common randomness)."""
    b1, b2 = pair.book1, pair.book2
    if not (0 <= s_shift < b1.message_count and 0 <= t_shift < b2.message_count):
        raise ValueError("shifts must lie within the message ranges")
    e1 = tuple(b1.entries[(l + s_shift) % b1.message_count]
               for l in range(b1.message_count))
    e2 = tuple(b2.entries[(m + t_shift) % b2.message_count]
               for m in range(b2.message_count))
    return MacCodePair(
        eacode.EaCodeBook(b1.message_count, e1, b1.seed, b1.decomp),
        eacode.EaCodeBook(b2.message_count, e2, b2.seed, b2.decomp),
    )


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class MacProjectors:
    """The typical-projector bundle of a two-sender channel output.

    ``marginals`` holds the six embedded typical projectors keyed
    "A", "B", "C", "AB", "AC", "ABC"; ``pi23_hat`` is the product of two
    complementary products, (B (x) AC)(C (x) AB), which every detection
    operator sandwiches, and ``pi_full`` is the joint projector.
    Everything lives on the full (A..., B..., C...) space.
    """

    space: qmat.FactorSpace
    marginals: dict
    # built once: build_upsilon reads it for every message pair
    pi23_hat: np.ndarray = field(init=False)

    def __post_init__(self):
        m = {key: qmat.frozen_copy(mat) for key, mat in self.marginals.items()}
        object.__setattr__(self, "marginals", m)
        object.__setattr__(
            self, "pi23_hat", (m["B"] @ m["AC"]) @ (m["C"] @ m["AB"])
        )

    @property
    def pi_full(self) -> np.ndarray:
        return self.marginals["ABC"]


def mac_typical_projectors(channel: KrausChannel, decomp1, decomp2,
                           delta: float) -> MacProjectors:
    """Build the six typical projectors of the channel output and bundle them.

    Raises ``ValueError`` when one of them is empty at this ``delta``.
    """
    full = eacode.channel_output_space(channel, decomp1, decomp2)
    a, b = decomp1.receiver_label, decomp2.receiver_label
    c = channel.out_space.labels
    marginals = typicality.embedded_typical_projectors(
        info.ea_code_state(channel, decomp1.phi, decomp2.phi), decomp1.n, delta,
        {"A": (a,), "B": (b,), "C": c, "AB": (a, b), "AC": (a,) + c,
         "ABC": (a, b) + c},
        full,
    )
    typicality.require_nonempty(marginals, delta)
    return MacProjectors(full, marginals)


def build_upsilon(pair: MacCodePair, l: int, m: int,
                  projectors: MacProjectors) -> np.ndarray:
    """Detection operator for message pair (l, m).

    U^T_1 Pi3 Pi2 U^T_2 Pi_full U^*_2 Pi2 Pi3 U^*_1, with the encoders
    pulled to the receiver shares; positive semidefinite by construction.
    Each encoder acts only on its own share (``qmat.conjugate_local``).
    """
    full = projectors.space
    u1 = eacode.receiver_encoder([(pair.book1.decomp, pair.book1[l])])
    u2 = eacode.receiver_encoder([(pair.book2.decomp, pair.book2[m])])
    wing = projectors.pi23_hat
    inner = qmat.conjugate_local(u2, projectors.pi_full, full)
    core = qmat.conjugate_local(u1, wing.conj().T @ inner @ wing, full)
    return (core + core.conj().T) / 2.0


def sqrt_measurement(upsilons: Mapping) -> PovmSet:
    """Square-root (pretty good) measurement of a PSD family.

    Lambda_k = S^{-1/2} Upsilon_k S^{-1/2} with S the family sum and the
    inverse square root taken on the support (cutoff 1e-12).  The elements
    sum to the support projector of S.
    """
    upsilons = dict(upsilons)
    if not upsilons:
        raise ValueError("need at least one detection operator")
    mats = {k: np.asarray(v, dtype=complex) for k, v in upsilons.items()}
    dim = next(iter(mats.values())).shape[0]
    total = sum(mats.values())
    vals, vecs = qmat.eig_hermitian(total)
    if float(vals.min()) < -qmat.PSD_TOL:
        raise ValueError(
            f"detection operators sum to an eigenvalue {vals.min():.3e} "
            f"< -{qmat.PSD_TOL}"
        )
    on_support = vals > SUPPORT_CUTOFF
    inv_root_vals = np.zeros_like(vals)
    inv_root_vals[on_support] = vals[on_support] ** -0.5
    inv_root = (vecs * inv_root_vals) @ vecs.conj().T
    supp = (vecs * on_support) @ vecs.conj().T
    elements = {}
    recomposed = np.zeros((dim, dim), dtype=complex)
    for k, v in mats.items():
        lam = inv_root @ v @ inv_root
        lam = (lam + lam.conj().T) / 2.0
        elements[k] = lam
        recomposed += lam
    defect = float(np.max(np.abs(recomposed - supp)))
    if defect > 1e-8:
        raise ValueError(
            f"square-root measurement misses the support projector by {defect:.3e}; "
            "some detection operator leaks outside the family support"
        )
    space = qmat.FactorSpace(("S",), (dim,))
    return PovmSet(space, elements)


def simultaneous_povm(pair: MacCodePair, projectors: MacProjectors) -> PovmSet:
    """Square-root measurement over all (l, m) detection operators."""
    ups = {
        (l, m): build_upsilon(pair, l, m, projectors)
        for l in range(pair.L)
        for m in range(pair.M)
    }
    return sqrt_measurement(ups)


def _error_figures(pair: MacCodePair, povm: PovmSet, rho) -> dict:
    """Every error figure of ``povm`` from one overlap table.

    Fills T[k, j] = Tr{Lambda_k sigma_j} for POVM outcomes k and sent pairs
    j = (l, m), and the abort weight Tr{(I - sum Lambda) sigma_j}, building
    each codeword state sigma_j from the channel output ``rho`` once and
    dropping it once its column is filled.  The average, the worst pair and
    the shift-randomized maximum read the diagonal; the breakdown reads the
    off-diagonal entries and the abort column, so its total is an
    independent second path to the average error.
    """
    L, M = pair.L, pair.M
    d1, d2 = pair.book1.decomp, pair.book2.decomp
    keys = list(povm.keys())
    sent = [(l, m) for l in range(L) for m in range(M)]
    flat_elements = [povm[k].ravel() for k in keys]
    flat_abort = povm.completion().ravel()
    table = np.empty((len(keys), len(sent)))
    abort = np.empty(len(sent))
    for j, (l, m) in enumerate(sent):
        sigma = eacode.conjugate_by_receiver_encoders(
            rho, [(d1, pair.book1[l]), (d2, pair.book2[m])]
        )
        # Tr{A sigma} = sum_ab A[a, b] sigma[b, a]: O(d^2), no matrix product
        flat = sigma.matrix.T.ravel()
        table[:, j] = [np.dot(e, flat).real for e in flat_elements]
        abort[j] = np.dot(flat_abort, flat).real
    table, abort = table.tolist(), abort.tolist()

    row = {k: i for i, k in enumerate(keys)}
    success = [table[row[key]][j] for j, key in enumerate(sent)]
    norm = L * M
    parts = {"wrong_alice": 0.0, "wrong_bob": 0.0, "wrong_both": 0.0, "abort": 0.0}
    for j, (l, m) in enumerate(sent):
        for i, (lp, mp) in enumerate(keys):
            if (lp, mp) == (l, m):
                continue
            w = table[i][j]
            if lp != l and mp == m:
                parts["wrong_alice"] += w / norm
            elif lp == l and mp != m:
                parts["wrong_bob"] += w / norm
            else:
                parts["wrong_both"] += w / norm
        parts["abort"] += abort[j] / norm
    parts["total"] = sum(parts.values())

    return {
        "avg_error": 1.0 - sum(success) / norm,
        # each pair's error averaged over every modular shift (S, T) of both
        # books runs over every pair once: the mean of the pairwise errors
        "max_error_randomized": sum(1.0 - p for p in success) / norm,
        "epsilon_measured": 1.0 - min(success),
        "breakdown": parts,
    }


def _standalone_figures(channel, pair, povm) -> dict:
    rho = eacode.channel_output_state(channel, pair.book1.decomp, pair.book2.decomp)
    return _error_figures(pair, povm, rho)


def average_error(channel: KrausChannel, pair: MacCodePair, povm: PovmSet
                  ) -> float:
    """Mean over (l, m) of Tr{(I - Lambda_{l,m}) sigma_{l,m}}."""
    return _standalone_figures(channel, pair, povm)["avg_error"]


def error_breakdown(channel: KrausChannel, pair: MacCodePair, povm: PovmSet
                    ) -> dict:
    """Split the average error by which sender was misidentified.

    Returns a dict with ``wrong_alice`` (l' != l, m' = m), ``wrong_bob``,
    ``wrong_both``, ``abort`` (the implicit completion outcome) and
    ``total``.
    """
    return _standalone_figures(channel, pair, povm)["breakdown"]


def max_error_via_randomization(channel: KrausChannel, pair: MacCodePair,
                                povm: PovmSet) -> float:
    """Max over message pairs of the shift-averaged error.

    For every (l, m), the average of the pairwise error over all modular
    shifts (S, T) of both codebooks runs over every pair once, so it is the
    same for every (l, m): the mean of the pairwise errors.
    """
    return _standalone_figures(channel, pair, povm)["max_error_randomized"]


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
    keys = list(povm.keys())
    dim = povm.space.dim
    blocks = []
    for k in keys:
        blocks.append(qmat.operator_power(povm[k], 0.5, support_cutoff=0.0))
    comp = povm.completion()
    blocks.append(qmat.operator_power(
        (comp + comp.conj().T) / 2, 0.5, support_cutoff=0.0
    ))
    outcomes = keys + ["abort"]
    v = np.vstack(blocks)
    dec = CoherentDecoder(v, outcomes)
    defect = dec.isometry_defect()
    if defect > 1e-9:
        raise ValueError(f"coherent lift misses isometry by {defect:.3e}")
    return dec


def coherent_fidelity(channel: KrausChannel, pair: MacCodePair, povm: PovmSet
                      ) -> float:
    """Overlap of the coherently decoded state with its ideal target.

    Averaged over the common-randomness shifts of both senders, the overlap
    of every superposition of messages is the mean over (l, m) of
    <psi_{l,m}| sqrt(Lambda_{l,m}) |psi_{l,m}> on the purified channel
    output, so it is at least the average success probability of the
    underlying POVM.
    """
    d1, d2 = pair.book1.decomp, pair.book2.decomp
    space = eacode.channel_output_space(channel, d1, d2)
    r = eacode.channel_output_factor(channel, d1, d2)
    total = 0.0
    for l in range(pair.L):
        for m in range(pair.M):
            u = eacode.receiver_encoder(
                [(d1, pair.book1[l]), (d2, pair.book2[m])]
            )
            vec = qmat.apply_local(u, r, space)
            root = qmat.operator_power(povm[(l, m)], 0.5, support_cutoff=0.0)
            total += float(np.vdot(vec, root @ vec).real)
    return total / (pair.L * pair.M)


def ea_successive_povm(pair: MacCodePair, projectors: MacProjectors) -> PovmSet:
    """Two-stage decoder instantiated with the typical-projector families.

    Code subspace: the product of the three single-system projectors.
    First stage tests Alice's codewords with the AC-pair projector rotated
    by her encoder (times the B projector); the second stage tests Bob's
    with the rotated joint projector.
    """
    full = projectors.space
    b1, b2 = pair.book1, pair.book2
    code_proj = (
        projectors.marginals["A"] @ projectors.marginals["B"]
        @ projectors.marginals["C"]
    )
    words_x = {}
    for s1 in set(b1.entries):
        u1 = eacode.receiver_encoder([(b1.decomp, s1)])
        words_x[s1] = (
            qmat.conjugate_local(u1, projectors.marginals["AC"], full)
            @ projectors.marginals["B"]
        )
    words_xy = {}
    for s1 in set(b1.entries):
        for s2 in set(b2.entries):
            u = eacode.receiver_encoder([(b1.decomp, s1), (b2.decomp, s2)])
            words_xy[(s1, s2)] = qmat.conjugate_local(
                u, projectors.pi_full, full
            )
    return seqdecode.successive_povm(
        list(b1.entries), list(b2.entries), code_proj, words_x, words_xy
    )


def run_mac_experiment(channel: KrausChannel, pair: MacCodePair, mode: str,
                       delta: float):
    """Build the requested decoder and report its exact error figures.

    ``epsilon_measured`` is the worst pairwise miss 1 - min Tr{Lambda sigma}
    over message pairs, so both the average success and the coherent
    fidelity clear 1 - epsilon_measured.
    """
    decoders = {"simultaneous": simultaneous_povm,
                "successive": ea_successive_povm}
    if mode not in decoders:
        raise ValueError(f"unknown decoder mode {mode!r}")
    d1, d2 = pair.book1.decomp, pair.book2.decomp
    # the projectors and detection operators are released before evaluation
    povm = decoders[mode](pair, mac_typical_projectors(channel, d1, d2, delta))
    figures = _error_figures(
        pair, povm, eacode.channel_output_state(channel, d1, d2)
    )
    report = MacReport(n=d1.n, L=pair.L, M=pair.M, seeds=pair.seeds,
                       mode=mode, **figures)
    return report, povm


@dataclass(frozen=True, slots=True)
class MacReport:
    """Result of one multiple-access decoding experiment."""

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
