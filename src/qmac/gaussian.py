"""Continuous-variable toolkit for the beamsplitter multiple access channel.

Covariance matrices use the vacuum-equals-identity convention (a thermal
mode with mean photon number N has diagonal 2N + 1) with quadratures
ordered (x1, p1, x2, p2, ...).  Entropies come from symplectic spectra in
bits, and the closed-form rate region of the two-mode-squeezed-vacuum
strategy is cross-checked against a numeric pipeline that builds the full
four-mode output state and reads off seven marginal entropies.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .info import RateRegion

__all__ = [
    "CovarianceState",
    "SymplecticMap",
    "BosonicMacParams",
    "g_entropy",
    "symplectic_form",
    "tms_covariance",
    "beamsplitter_symplectic",
    "apply_symplectic",
    "symplectic_eigenvalues",
    "gaussian_entropy",
    "ea_bosonic_region",
    "bosonic_output_state",
    "ea_bosonic_region_numeric",
    "yen_shapiro_bound",
    "compare_regions",
    "region_sweep",
    "sweep_csv",
    "SWEEP_CSV_HEADER",
]

SYMMETRY_TOL = 1e-10
PHYSICALITY_TOL = 1e-8
PAIRING_TOL = 1e-7


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal J = diag([[0, 1], [-1, 0]], ...) for n modes."""
    j = np.zeros((2 * n_modes, 2 * n_modes))
    for i in range(n_modes):
        j[2 * i, 2 * i + 1] = 1.0
        j[2 * i + 1, 2 * i] = -1.0
    return j


@dataclass(frozen=True, slots=True, eq=False)
class CovarianceState:
    """Covariance matrix of a Gaussian state with labeled modes.

    Parameters
    ----------
    modes : sequence of str
        Mode names, one per (x, p) quadrature pair.
    matrix : array
        Real symmetric 2n x 2n matrix; physicality V + iJ >= 0 is enforced
        within 1e-8.
    """

    modes: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        modes = tuple(str(m) for m in self.modes)
        if len(set(modes)) != len(modes):
            raise ValueError(f"duplicate mode labels in {modes}")
        v = np.array(self.matrix, dtype=float)
        n = len(modes)
        if v.shape != (2 * n, 2 * n):
            raise ValueError(f"matrix shape {v.shape} for {n} modes")
        if float(np.max(np.abs(v - v.T))) > SYMMETRY_TOL:
            raise ValueError("covariance matrix is not symmetric")
        herm = v + 1j * symplectic_form(n)
        low = float(np.linalg.eigvalsh((herm + herm.conj().T) / 2).min())
        if low < -PHYSICALITY_TOL:
            raise ValueError(f"unphysical covariance: min eig(V + iJ) = {low:.3e}")
        v.setflags(write=False)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "matrix", v)

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def mode_axis(self, mode: str) -> int:
        try:
            return self.modes.index(mode)
        except ValueError:
            raise KeyError(f"unknown mode {mode!r}; have {self.modes}")

    def marginal(self, modes: Sequence[str]) -> "CovarianceState":
        """Keep the named modes (in the given order); Gaussian partial trace."""
        modes = tuple(modes)
        idx = []
        for m in modes:
            ax = self.mode_axis(m)
            idx.extend([2 * ax, 2 * ax + 1])
        return CovarianceState(modes, self.matrix[np.ix_(idx, idx)])

    def __repr__(self):
        return f"CovarianceState(modes={self.modes})"


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class SymplecticMap:
    """A linear quadrature transform preserving the symplectic form."""

    matrix: np.ndarray

    def __post_init__(self):
        s = np.array(self.matrix, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2:
            raise ValueError("symplectic matrix must be square of even size")
        n = s.shape[0] // 2
        j = symplectic_form(n)
        defect = float(np.max(np.abs(s @ j @ s.T - j)))
        if defect > SYMMETRY_TOL:
            raise ValueError(f"S J S^T misses J by {defect:.3e}")
        s.setflags(write=False)
        object.__setattr__(self, "matrix", s)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2


@dataclass(frozen=True, slots=True)
class BosonicMacParams:
    """Transmissivity and the two senders' mean photon numbers."""

    eta: float
    nsa: float
    nsb: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta out of range: {self.eta}")
        _check_photon_numbers(self.nsa, self.nsb)


def _check_photon_numbers(nsa: float, nsb: float) -> None:
    """Refuse a negative, NaN or infinite mean photon number, naming it."""
    for name, value in (("nsa", nsa), ("nsb", nsb)):
        if not (value >= 0 and math.isfinite(value)):
            raise ValueError(
                f"{name} must be a finite nonnegative mean photon number, "
                f"got {value}"
            )


# 1 / ln 2: g(N) in bits is one multiplication of its value in nats
_INV_LN2 = 1.0 / math.log(2.0)
# the smallest normal float; below it 1/N can overflow
_TINY = sys.float_info.min


def g_entropy(N: float) -> float:
    """Thermal-state entropy g(N) = (N+1) log2(N+1) - N log2 N in bits.

    Evaluated as g(N) = (log1p(N) + N log1p(1/N)) / ln 2, a sum of two
    positive terms that does not cancel: the textbook difference loses
    3e-5 of its value at N = 10^12 and all of it at 10^16, where this form
    stays within a few ulps (log1p(N), not log2(N + 1), keeps the term
    N / ln 2 that N + 1 rounds away below N ~ 1e-16).  Below the smallest
    normal float, where 1/N can overflow, g(N) = N (1 - ln N) / ln 2 to
    within N^2.  Values in (-1e-12, 0) clamp to zero; anything lower, NaN
    or +inf raises.
    """
    N = float(N)
    if not -1e-12 <= N < math.inf:
        raise ValueError(
            f"mean photon number must be finite and nonnegative, got {N}"
        )
    if N <= 0.0:
        return 0.0
    if N < _TINY:
        return N * (1.0 - math.log(N)) * _INV_LN2
    return (math.log1p(N) + N * math.log1p(1 / N)) * _INV_LN2


def tms_covariance(n_s: float, modes=("A", "Ap")) -> CovarianceState:
    """Two-mode squeezed vacuum with mean photon number ``n_s`` per arm."""
    n_s = float(n_s)
    if not 0 <= n_s < math.inf:
        raise ValueError(
            f"mean photon number must be finite and nonnegative, got {n_s}"
        )
    a = 2 * n_s + 1
    c = 2 * math.sqrt(n_s * (n_s + 1))
    v = np.array(
        [[a, 0, c, 0],
         [0, a, 0, -c],
         [c, 0, a, 0],
         [0, -c, 0, a]]
    )
    return CovarianceState(modes, v)


def beamsplitter_symplectic(eta: float) -> SymplecticMap:
    """Two-mode beamsplitter with transmissivity eta.

    The first output port carries sqrt(eta) of the first input plus
    sqrt(1 - eta) of the second.
    """
    eta = float(eta)
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta out of range: {eta}")
    t = math.sqrt(eta)
    r = math.sqrt(1.0 - eta)
    eye = np.eye(2)
    s = np.block([[t * eye, r * eye], [-r * eye, t * eye]])
    return SymplecticMap(s)


def apply_symplectic(s: SymplecticMap, v: CovarianceState,
                     modes: Sequence[str], renames=None) -> CovarianceState:
    """S V S^T on the named modes, identity on the rest.

    ``renames`` optionally maps touched mode labels to new names (a
    beamsplitter turns input ports into output ports).
    """
    modes = tuple(modes)
    if len(modes) != s.n_modes:
        raise ValueError(
            f"map touches {s.n_modes} modes but {len(modes)} labels given"
        )
    idx = []
    for m in modes:
        ax = v.mode_axis(m)
        idx.extend([2 * ax, 2 * ax + 1])
    full = np.eye(2 * v.n_modes)
    full[np.ix_(idx, idx)] = s.matrix
    out = full @ v.matrix @ full.T
    renames = dict(renames or {})
    new_modes = tuple(renames.get(m, m) for m in v.modes)
    return CovarianceState(new_modes, out)


def symplectic_eigenvalues(v: CovarianceState) -> np.ndarray:
    """Symplectic spectrum: |eigenvalues of iJV|, one per mode, descending.

    The spectrum of iJV comes in +-nu pairs; after sorting the absolute
    values, adjacent entries must agree within 1e-7 and every value must
    clear 1 - 1e-8, otherwise the state is rejected as unphysical.
    """
    n = v.n_modes
    m = 1j * symplectic_form(n) @ v.matrix
    raw = np.sort(np.abs(np.linalg.eigvals(m)))[::-1].reshape(n, 2)
    a, b = raw[:, 0], raw[:, 1]
    unpaired = np.flatnonzero(np.abs(a - b) > PAIRING_TOL * np.maximum(1.0, a))
    if unpaired.size:
        k = unpaired[0]
        raise ValueError(
            f"unpaired symplectic spectrum: {a[k]} vs {b[k]} at position {k}"
        )
    nus = (a + b) / 2.0
    if nus.min() < 1.0 - PHYSICALITY_TOL:
        raise ValueError(f"symplectic eigenvalue {nus.min()} below 1")
    return nus


def gaussian_entropy(v: CovarianceState) -> float:
    """Entropy in bits: sum of g((nu - 1)/2) over the symplectic spectrum."""
    return float(sum(g_entropy(max(nu - 1.0, 0.0) / 2.0)
                     for nu in symplectic_eigenvalues(v)))


# ---------------------------------------------------------------------------
# the beamsplitter MAC with two-mode-squeezed assistance
# ---------------------------------------------------------------------------

def _g_array(n: np.ndarray) -> np.ndarray:
    """:func:`g_entropy` elementwise, with its domain rule and formula."""
    ok = (n >= -1e-12) & (n < math.inf)
    if not ok.all():
        raise ValueError(
            f"mean photon number must be finite and nonnegative, got {n[~ok][0]}"
        )
    normal = n >= _TINY
    m = np.where(normal, n, 1.0)  # keeps 1/0 and 1/subnormal out
    out = np.log1p(1 / m)
    out *= m
    out += np.log1p(m)
    out *= _INV_LN2
    if not normal.all():
        tiny = n[~normal]  # at most 0, or subnormal
        with np.errstate(divide="ignore", invalid="ignore"):
            out[~normal] = np.where(
                tiny > 0.0, tiny * (1.0 - np.log(tiny)) * _INV_LN2, 0.0)
    return out


def _lambda_pair(c: np.ndarray, nsa: float, nsb: float) -> np.ndarray:
    """|lambda+-| = |c D +- root|, root = sqrt(c^2 D^2 + s), D = |Na - Nb|.

    With s = 2c(2NaNb + Na + Nb) + 1, |lambda-| = root - cD is taken as
    s / (cD + root), which does not cancel.  Photon numbers at which the
    closed form overflows a float raise ``ValueError`` naming both.
    """
    c = np.asarray(c)
    with np.errstate(over="ignore", invalid="ignore"):
        cd = c * abs(nsa - nsb)
        s = 2 * c * (2 * nsa * nsb + nsa + nsb) + 1.0
        out = np.array([cd + np.sqrt(cd * cd + s), s])
        out[1] /= out[0]
    if not np.isfinite(out).all():
        raise ValueError(
            f"nsa = {nsa} and nsb = {nsb} overflow the closed form of the "
            "region: its symplectic eigenvalues exceed the float range")
    return out


def _region_figures(eta: np.ndarray, nsa: float, nsb: float
                    ) -> tuple[np.ndarray, ...]:
    """Unclamped (r1, r2, sum, ys_sum, sum_gap) over eta, then g(Na), g(Nb).

    The only place the closed forms are written.  The pair entropies enter
    through the symplectic eigenvalues lambda+- of the AC (c = 1 - eta) and
    BC (c = eta) blocks; the expressions produce the negative branch with a
    sign, so absolute values are taken, which the numeric pipeline confirms.
    h_E is the environment entropy, the sum gap is g(Na) + g(Nb) - h_E.
    Every g value, g(Na) and g(Nb) included, comes from :func:`_g_array`,
    so that g(Na) - h_E at eta = 0 (and g(Nb) - h_E at eta = 1) is an exact
    zero: numpy's vectorized logarithms need not round as the scalar ones
    of :func:`g_entropy` do.
    """
    lam_plus, lam_minus = _lambda_pair(np.array([1 - eta, eta]), nsa, nsb)
    g_plus, g_minus, (h_e, ys_sum) = _g_array(np.array([
        (lam_plus - 1) / 2, (lam_minus - 1) / 2,
        [eta * nsb + (1 - eta) * nsa, eta * nsa + (1 - eta) * nsb]]))
    ga, gb = _g_array(np.array([nsa, nsb])).tolist()
    h_ac, h_bc = g_plus + g_minus
    return (ga + h_bc - h_e, gb + h_ac - h_e, ga + gb + ys_sum - h_e, ys_sum,
            ga + gb - h_e, ga, gb)


def ea_bosonic_region(p: BosonicMacParams) -> RateRegion:
    """Closed-form entanglement-assisted region of the beamsplitter MAC."""
    return compare_regions(p)["ea"]


def bosonic_output_state(p: BosonicMacParams) -> CovarianceState:
    """Four-mode covariance after the beamsplitter, modes (A, C, B, E).

    Senders keep modes A and B entangled with their transmitted arms; the
    beamsplitter mixes the transmitted arms into receiver mode C and
    environment mode E.
    """
    v_in = CovarianceState(
        ("A", "Ap", "B", "Bp"),
        np.block([
            [tms_covariance(p.nsa).matrix, np.zeros((4, 4))],
            [np.zeros((4, 4)), tms_covariance(p.nsb).matrix],
        ]),
    )
    bs = beamsplitter_symplectic(p.eta)
    out = apply_symplectic(bs, v_in, ("Ap", "Bp"), renames={"Ap": "C", "Bp": "E"})
    return out.marginal(("A", "C", "B", "E"))


def ea_bosonic_region_numeric(p: BosonicMacParams) -> RateRegion:
    """Rate region from the seven marginal entropies of the output state.

    Serves as the independent oracle for :func:`ea_bosonic_region`: builds
    the four-mode covariance, extracts every marginal and evaluates
    I(A;BC), I(B;AC) and I(AB;C) through symplectic spectra.  A covariance
    that fails its checks at these photon numbers raises ``ValueError``
    naming ``nsa`` and ``nsb``.
    """
    try:
        v = bosonic_output_state(p)

        def h(*modes):
            return gaussian_entropy(v.marginal(modes))

        h_abc = h("E")  # the global state is pure
        return RateRegion(h("A") + h("B", "C") - h_abc,
                          h("B") + h("A", "C") - h_abc,
                          h("A", "B") + h("C") - h_abc)
    except ValueError as e:
        raise ValueError(
            f"the numeric oracle at nsa = {p.nsa} and nsb = {p.nsb}: {e}"
        ) from None


def yen_shapiro_bound(p: BosonicMacParams) -> RateRegion:
    """Outer bound for unassisted communication over the same beamsplitter."""
    return compare_regions(p)["ys"]


def compare_regions(p: BosonicMacParams) -> dict:
    """Assisted region vs the unassisted outer bound.

    Returns the two regions, the sum-rate gap
    g(Na) + g(Nb) - g(eta Nb + (1-eta) Na) (nonnegative by monotonicity of
    g), a vertex-by-vertex report, and whether the assisted region contains
    the outer bound.
    """
    *figures, ga, gb = _region_figures(np.array([p.eta]), p.nsa, p.nsb)
    r1, r2, rsum, ys_sum, sum_gap = (float(x[0]) for x in figures)
    ea, ys = RateRegion(r1, r2, rsum), RateRegion(ga, gb, ys_sum)
    vertices = [{"vertex": [x, y], "inside_ea": ea.contains(x, y)}
                for x, y in ys.vertices]
    return {"ea": ea, "ys": ys, "sum_gap": sum_gap,
            "ea_contains_ys": all(v["inside_ea"] for v in vertices),
            "vertices": vertices}


SWEEP_CSV_HEADER = "eta,r1,r2,sum,ys_r1,ys_r2,ys_sum,sum_gap"
_SWEEP_KEYS = tuple(SWEEP_CSV_HEADER.split(","))


def region_sweep(nsa: float, nsb: float, eta_grid) -> np.ndarray:
    """One region comparison per grid point; the fields are the CSV columns.

    N_a, N_b and the grid are checked once and g(Na), g(Nb) evaluated once;
    the outer bound, being g values, needs no clamp.
    """
    _check_photon_numbers(nsa, nsb)
    eta = np.asarray(eta_grid, dtype=float)
    bad = ~((eta >= 0.0) & (eta <= 1.0))
    if bad.any():
        raise ValueError(f"eta out of range: {eta[bad][0]}")
    r1, r2, rsum, ys_sum, sum_gap, ga, gb = _region_figures(eta, nsa, nsb)
    rows = np.empty(len(eta), dtype=[(key, float) for key in _SWEEP_KEYS])
    rows["eta"], rows["ys_r1"], rows["ys_r2"] = eta, ga, gb
    rows["r1"], rows["r2"], rows["sum"] = (np.maximum(x, 0.0) for x in (r1, r2, rsum))
    rows["ys_sum"], rows["sum_gap"] = ys_sum, sum_gap
    return rows


def sweep_csv(rows: np.ndarray, header: bool = True) -> str:
    """Locale-independent CSV at 12 significant digits, one row per point.

    Each row is one ``%`` on a template; ys_r1 and ys_r2, constant over a
    :func:`region_sweep`, are written into the template once.  With
    ``header`` false the header line is left out, so that the CSV of
    consecutive blocks of one grid is the concatenation of their texts.
    """
    cells, columns = [], []
    for key in _SWEEP_KEYS:
        column = rows[key]
        if key in ("ys_r1", "ys_r2") and len(column) and (column == column[0]).all():
            cells.append(format(column[0], ".12g"))
        else:
            cells.append("%.12g")
            columns.append(column.tolist())
    template = ",".join(cells)
    return "\n".join([*([SWEEP_CSV_HEADER] if header else []),
                      *(template % row for row in zip(*columns)), ""])
