"""Entropic quantities and finite-dimensional rate-region calculators.

All logarithms are base 2 and all rates are bits per channel use.  Rate
regions for a two-sender multiple access channel are pentagons
{0 <= R1 <= r1_max, 0 <= R2 <= r2_max, R1 + R2 <= sum_max} with explicit
vertex enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmat
from .qmat import DensityOperator, FactorSpace, KrausChannel, PureState

__all__ = [
    "RateRegion",
    "von_neumann_entropy",
    "mutual_information",
    "conditional_mutual_information",
    "coherent_information",
    "ea_code_state",
    "ea_cc_region",
    "unassisted_cc_region",
    "ea_q_region",
    "lsd_q_region",
]


def von_neumann_entropy(rho: DensityOperator) -> float:
    """Entropy -sum lambda log2 lambda in bits, with 0 log 0 = 0."""
    vals, _ = qmat.eig_hermitian(rho)
    h = 0.0
    for v in vals.real:
        if v > 0:
            h -= v * math.log2(v)
    return h


def _subsystem_entropy(rho: DensityOperator, labels) -> float:
    labels = tuple(labels)
    if set(labels) == set(rho.space.labels):
        return von_neumann_entropy(rho)
    return von_neumann_entropy(qmat.partial_trace(rho, labels))


def mutual_information(rho: DensityOperator, part_a, part_b) -> float:
    """I(A;B) = H(A) + H(B) - H(AB) for a bipartition of the state's labels."""
    part_a, part_b = tuple(part_a), tuple(part_b)
    if set(part_a) & set(part_b):
        raise ValueError("partitions overlap")
    if set(part_a) | set(part_b) != set(rho.space.labels):
        raise ValueError("partitions must cover the state")
    return (
        _subsystem_entropy(rho, part_a)
        + _subsystem_entropy(rho, part_b)
        - von_neumann_entropy(rho)
    )


def conditional_mutual_information(rho: DensityOperator, part_a, part_b,
                                   conditioning) -> float:
    """I(A;B|Z) = H(AZ) + H(BZ) - H(Z) - H(ABZ) over three disjoint label sets.

    Strong subadditivity makes this nonnegative up to numerical noise.  An
    empty conditioning set reduces to the plain mutual information.
    """
    part_a, part_b = tuple(part_a), tuple(part_b)
    conditioning = tuple(conditioning)
    sets = [set(part_a), set(part_b), set(conditioning)]
    if sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2]:
        raise ValueError("label sets overlap")
    if sets[0] | sets[1] | sets[2] != set(rho.space.labels):
        raise ValueError("label sets must cover the state")
    return (
        _subsystem_entropy(rho, part_a + conditioning)
        + _subsystem_entropy(rho, part_b + conditioning)
        - (_subsystem_entropy(rho, conditioning) if conditioning else 0.0)
        - von_neumann_entropy(rho)
    )


def coherent_information(rho: DensityOperator, part_a, part_b) -> float:
    """I(A>B) = H(B) - H(AB); may be negative."""
    part_a, part_b = tuple(part_a), tuple(part_b)
    if set(part_a) | set(part_b) != set(rho.space.labels) or set(part_a) & set(part_b):
        raise ValueError("need a bipartition of the state's labels")
    return _subsystem_entropy(rho, part_b) - von_neumann_entropy(rho)


# ---------------------------------------------------------------------------
# rate regions
# ---------------------------------------------------------------------------

def _pentagon_vertices(a: float, b: float, c: float) -> list[tuple[float, float]]:
    """Extreme points of {0 <= R1 <= a, 0 <= R2 <= b, R1 + R2 <= c}, CCW."""
    candidates = [
        (0.0, 0.0),
        (min(a, c), 0.0),
        (0.0, min(b, c)),
    ]
    if a + b <= c:
        candidates.append((a, b))
    else:
        if 0.0 <= c - a <= b:
            candidates.append((a, c - a))
        if 0.0 <= c - b <= a:
            candidates.append((c - b, b))
    # dedupe and order counterclockwise starting from the origin
    seen: list[tuple[float, float]] = []
    for p in candidates:
        if all(abs(p[0] - q[0]) > 1e-12 or abs(p[1] - q[1]) > 1e-12 for q in seen):
            seen.append(p)
    seen.sort(key=lambda p: (math.atan2(p[1], p[0]) if p != (0.0, 0.0) else -1.0))
    return seen


@dataclass(frozen=True, slots=True)
class RateRegion:
    """Pentagon rate region with per-sender and sum bounds in bits per use.

    Negative bounds are clamped to zero.  ``raw_bounds`` preserves the
    pre-clamping values when they are given (coherent-information regions);
    otherwise it equals the clamped triple.
    """

    r1_max: float
    r2_max: float
    sum_max: float
    raw_bounds: tuple[float, float, float] | None = None

    def __post_init__(self):
        clamped = tuple(
            max(float(x), 0.0) for x in (self.r1_max, self.r2_max, self.sum_max)
        )
        for name, value in zip(("r1_max", "r2_max", "sum_max"), clamped):
            object.__setattr__(self, name, value)
        object.__setattr__(
            self, "raw_bounds",
            clamped if self.raw_bounds is None
            else tuple(float(x) for x in self.raw_bounds),
        )

    @property
    def vertices(self) -> tuple[tuple[float, float], ...]:
        return tuple(_pentagon_vertices(self.r1_max, self.r2_max, self.sum_max))

    def bounds(self) -> tuple[float, float, float]:
        return (self.r1_max, self.r2_max, self.sum_max)

    def contains(self, r1: float, r2: float, slack: float = 1e-9) -> bool:
        return (
            r1 >= -slack
            and r2 >= -slack
            and r1 <= self.r1_max + slack
            and r2 <= self.r2_max + slack
            and r1 + r2 <= self.sum_max + slack
        )

    def scale(self, factor: float) -> "RateRegion":
        return RateRegion(
            self.r1_max * factor, self.r2_max * factor, self.sum_max * factor
        )

    def to_json(self) -> dict:
        return {
            "r1": self.r1_max,
            "r2": self.r2_max,
            "sum": self.sum_max,
            "vertices": [[x, y] for x, y in self.vertices],
        }

    def __repr__(self):
        return (
            f"RateRegion(r1<={self.r1_max:.6g}, r2<={self.r2_max:.6g}, "
            f"sum<={self.sum_max:.6g})"
        )


def ea_code_state(channel: KrausChannel, states) -> DensityOperator:
    """Single-copy code state: the channel applied to the senders' shares.

    ``states`` lists one shared pure state per sender, each on (sender,
    receiver) labels, e.g. phi on (Ap, A) and psi on (Bp, B).  The channel
    consumes the sender shares and the result lives on the receiver shares
    followed by the channel outputs: (A, B, C...) or, for a single sender,
    (A, B...).  It is R R† with R from :func:`qmat.output_factor`; refused
    above the cap.
    """
    joint = qmat.tensor(*states)
    senders = tuple(s.space.labels[0] for s in states)
    receivers = tuple(s.space.labels[1] for s in states)
    outs = channel.out_space.labels
    space = FactorSpace(receivers + outs, joint.space.subspace(receivers).dims
                        + channel.out_space.dims)
    qmat.require_dense(space)
    r = qmat.output_factor(channel, joint, [(senders, outs)], space.labels)
    return DensityOperator(space, r @ r.conj().T)


def _region_from_state(rho: DensityOperator, first, second) -> RateRegion:
    out_labels = [l for l in rho.space.labels if l not in (first, second)]
    r1 = conditional_mutual_information(rho, (first,), out_labels, (second,))
    r2 = conditional_mutual_information(rho, (second,), out_labels, (first,))
    s = mutual_information(rho, (first, second), out_labels)
    return RateRegion(r1, r2, s)


def ea_cc_region(mac: KrausChannel, phi: PureState, psi: PureState) -> RateRegion:
    """Entanglement-assisted classical rate region of a two-sender channel.

    Bounds are I(A;C|B), I(B;C|A) and I(AB;C) of the code state built from
    the shared pure states ``phi`` (Alice, e.g. on Ap/A) and ``psi`` (Bob,
    e.g. on Bp/B); A and B are the states' second labels.
    """
    rho = ea_code_state(mac, (phi, psi))
    return _region_from_state(rho, phi.space.labels[1], psi.space.labels[1])


def unassisted_cc_region(mac: KrausChannel, ensemble_x, ensemble_y) -> RateRegion:
    """Unassisted classical region from two input ensembles.

    Each ensemble is a sequence of ``(probability, density matrix)`` pairs on
    the corresponding channel input.  Classical letters become diagonal
    register factors X and Y, and the bounds are I(X;C|Y), I(Y;C|X),
    I(XY;C) of the classical-quantum code state.
    """
    ensemble_x = list(ensemble_x)
    ensemble_y = list(ensemble_y)
    for ens, who in ((ensemble_x, "X"), (ensemble_y, "Y")):
        total = sum(p for p, _ in ens)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"ensemble {who} weights sum to {total}, not 1")
    nx, ny = len(ensemble_x), len(ensemble_y)
    space_c = mac.out_space
    dim = nx * ny * space_c.dim
    space = FactorSpace(("X", "Y") + space_c.labels, (nx, ny) + space_c.dims)
    acc = np.zeros((dim, dim), dtype=complex)
    for ix, (px, rx) in enumerate(ensemble_x):
        for iy, (py, ry) in enumerate(ensemble_y):
            joint = DensityOperator(
                mac.in_space, np.kron(np.asarray(rx), np.asarray(ry))
            )
            out = qmat.apply_channel(mac, joint)
            ex = np.zeros((nx, nx))
            ey = np.zeros((ny, ny))
            ex[ix, ix] = 1.0
            ey[iy, iy] = 1.0
            acc += px * py * np.kron(np.kron(ex, ey), out.matrix)
    rho = DensityOperator(space, acc)
    return _region_from_state(rho, "X", "Y")


def ea_q_region(mac: KrausChannel, phi: PureState, psi: PureState) -> RateRegion:
    """Entanglement-assisted quantum region: exactly half the classical one."""
    return ea_cc_region(mac, phi, psi).scale(0.5)


def lsd_q_region(mac: KrausChannel, phi: PureState, psi: PureState) -> RateRegion:
    """Catalytic (no net entanglement) quantum region from coherent informations.

    Bounds are I(A>C|B) = H(CB) - H(ABC), I(B>C|A) = H(CA) - H(ABC) and
    I(AB>C) = H(C) - H(ABC), clamped at zero; the raw values are kept on
    ``raw_bounds``.
    """
    rho = ea_code_state(mac, (phi, psi))
    a, b = phi.space.labels[1], psi.space.labels[1]
    out_labels = tuple(l for l in rho.space.labels if l not in (a, b))
    h_all = von_neumann_entropy(rho)
    s1 = _subsystem_entropy(rho, out_labels + (b,)) - h_all
    s2 = _subsystem_entropy(rho, out_labels + (a,)) - h_all
    ssum = _subsystem_entropy(rho, out_labels) - h_all
    return RateRegion(s1, s2, ssum, raw_bounds=(s1, s2, ssum))
