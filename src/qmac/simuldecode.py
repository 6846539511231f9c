"""Simultaneous decoding for two-sender channels, and its coherent upgrade.

One joint square-root measurement recovers both messages at once: each
detection operator sandwiches the joint typical projector between encoder
conjugates and marginal typical projectors, and normalization by the
inverse square root of the sum yields a POVM.  A modular-shift relabeling
of both codebooks converts the average error criterion into a maximal one,
and lifting each POVM element to sqrt(Lambda) (x) |outcome> gives an
isometry that decodes coherently.

Every error figure reads one table of overlaps <V_lm, Lambda V_lm>_F =
Tr{Lambda sigma_lm} on the codeword factors V_lm = U_lm R of the channel
output rho_n = R R†, so no evaluation forms rho_n or any sigma_lm.
"""

from __future__ import annotations

import itertools
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
    "error_figures",
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
    # message l now sends the entry of message l + s (mod L), and so for Bob
    e1 = b1.entries[s_shift:] + b1.entries[:s_shift]
    e2 = b2.entries[t_shift:] + b2.entries[:t_shift]
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
    mats = {k: np.asarray(v, dtype=complex) for k, v in upsilons.items()}
    if not mats:
        raise ValueError("need at least one detection operator")
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
    for k, v in mats.items():
        lam = inv_root @ v @ inv_root
        elements[k] = (lam + lam.conj().T) / 2.0
    defect = float(np.max(np.abs(sum(elements.values()) - supp)))
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


def _codeword_factors(channel: KrausChannel, pair: MacCodePair):
    """Yield V_lm = (U^T_1(s_l) (x) U^T_2(t_m)) R for every pair, l-major.

    With rho_n = R R†, V_lm V_lm† is the codeword state sigma_lm.
    """
    d1, d2 = pair.book1.decomp, pair.book2.decomp
    space = eacode.channel_output_space(channel, d1, d2)
    r = eacode.channel_output_factor(channel, d1, d2)
    for s, t in itertools.product(pair.book1.entries, pair.book2.entries):
        u = eacode.receiver_encoder([(d1, s), (d2, t)])
        yield qmat.apply_local(u, r, space)


def _overlap_table(channel: KrausChannel, pair: MacCodePair, povm: PovmSet
                   ) -> np.ndarray:
    """The table [T; abort] of ``povm`` on the codewords, (LM + 1) x LM.

    T[k, j] = Re<V_j, Lambda_k V_j>_F = Tr{Lambda_k sigma_j} for outcome k
    and sent pair j, both l-major; the last row is the abort weight
    Re<V_j, (I - sum Lambda) V_j>_F.  Column j sums to Tr sigma_j = |V_j|^2,
    which must be 1.
    """
    sent = list(itertools.product(range(pair.L), range(pair.M)))
    if list(povm.keys()) != sent:
        raise ValueError("POVM outcomes must be the L*M message pairs, l-major")
    v = np.hstack(list(_codeword_factors(channel, pair)))
    blocks = (v.shape[0], len(sent), -1)  # row, sent pair, environment column
    table = np.array([
        (v.conj() * (op @ v)).real.reshape(blocks).sum(axis=(0, 2))
        for op in [povm[k] for k in sent] + [povm.completion()]
    ])
    for key, total in zip(sent, table.sum(axis=0)):
        if abs(total - 1.0) > qmat.TRACE_TOL:
            raise ValueError(f"codeword state {key} has trace {total}, not 1")
    return table


def error_figures(channel: KrausChannel, pair: MacCodePair, povm: PovmSet
                  ) -> dict:
    """Every error figure of ``povm``, each a reduction of one overlap table.

    Returns ``avg_error`` (the mean over (l, m) of
    Tr{(I - Lambda_{l,m}) sigma_{l,m}}), ``max_error_randomized``,
    ``epsilon_measured`` and the ``breakdown`` dict of
    :func:`error_breakdown`.  The average and the worst pair read the
    diagonal of T; the breakdown reads the off-diagonal entries and the
    abort row, so its total is an independent second path to the average
    error.
    """
    L, M = pair.L, pair.M
    table = _overlap_table(channel, pair, povm)
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


def error_breakdown(channel: KrausChannel, pair: MacCodePair, povm: PovmSet
                    ) -> dict:
    """``error_figures(...)["breakdown"]``: the average error split by which
    sender was misidentified.

    The dict holds ``wrong_alice`` (l' != l, m' = m), ``wrong_bob``,
    ``wrong_both``, ``abort`` (the implicit completion outcome) and
    ``total``.  Kept as a name because the benchmark tracer
    (``perfbench/spans.py``) binds it.
    """
    return error_figures(channel, pair, povm)["breakdown"]


def max_error_via_randomization(channel: KrausChannel, pair: MacCodePair,
                                povm: PovmSet) -> float:
    """``error_figures(...)["max_error_randomized"]``: max over message pairs
    of the shift-averaged error.

    For every (l, m), the average of the pairwise error over all modular
    shifts (S, T) of both codebooks runs over every pair once, so it is the
    same for every (l, m): the mean of the pairwise errors.  It equals
    ``avg_error`` by construction, as the same float.  Kept as a name
    because the benchmark tracer (``perfbench/spans.py``) binds it.
    """
    return error_figures(channel, pair, povm)["max_error_randomized"]


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


def coherent_fidelity(channel: KrausChannel, pair: MacCodePair, povm: PovmSet
                      ) -> float:
    """Overlap of the coherently decoded state with its ideal target.

    Averaged over the common-randomness shifts of both senders, the overlap
    of every superposition of messages is the mean over (l, m) of
    <psi_{l,m}| sqrt(Lambda_{l,m}) |psi_{l,m}> on the purified channel
    output, so it is at least the average success probability of the
    underlying POVM.
    """
    sent = list(itertools.product(range(pair.L), range(pair.M)))
    total = 0.0
    for key, v in zip(sent, _codeword_factors(channel, pair)):
        root = qmat.operator_power(povm[key], 0.5, support_cutoff=0.0)
        total += float(np.vdot(v, root @ v).real)
    return total / len(sent)


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
    for s1, s2 in itertools.product(set(b1.entries), set(b2.entries)):
        u = eacode.receiver_encoder([(b1.decomp, s1), (b2.decomp, s2)])
        words_xy[(s1, s2)] = qmat.conjugate_local(u, projectors.pi_full, full)
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
    report = MacReport(n=d1.n, L=pair.L, M=pair.M, seeds=pair.seeds,
                       mode=mode, **error_figures(channel, pair, povm))
    return report, povm


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
