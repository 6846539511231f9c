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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .info import RateRegion

__all__ = [
    "CovarianceState",
    "SymplecticMap",
    "BosonicMacParams",
    "g_entropy",
    "tms_covariance",
    "beamsplitter_symplectic",
    "apply_symplectic",
    "symplectic_eigenvalues",
    "gaussian_entropy",
    "ea_bosonic_region",
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
        for name, value in (("nsa", self.nsa), ("nsb", self.nsb)):
            if not (value >= 0 and math.isfinite(value)):
                raise ValueError(
                    f"{name} must be a finite nonnegative mean photon number, "
                    f"got {value}"
                )


def g_entropy(N: float) -> float:
    """Thermal-state entropy g(N) = (N+1) log2(N+1) - N log2 N in bits.

    Values in (-1e-12, 0) clamp to zero; anything lower, NaN or +inf raises.
    """
    N = float(N)
    if not -1e-12 <= N < math.inf:
        raise ValueError(
            f"mean photon number must be finite and nonnegative, got {N}"
        )
    if N <= 0.0:
        return 0.0
    return (N + 1) * math.log2(N + 1) - N * math.log2(N)


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
    raw = np.abs(np.linalg.eigvals(m))
    raw.sort()
    raw = raw[::-1]
    nus = []
    for k in range(n):
        a, b = raw[2 * k], raw[2 * k + 1]
        if abs(a - b) > PAIRING_TOL * max(1.0, a):
            raise ValueError(
                f"unpaired symplectic spectrum: {a} vs {b} at position {k}"
            )
        nus.append((a + b) / 2.0)
    nus = np.array(nus)
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

def _lambda_pair(coeff: float, nsa: float, nsb: float) -> tuple[float, float]:
    """|lambda+-| = |c |Na-Nb| +- sqrt(c^2 (Na-Nb)^2 + 2c(2NaNb+Na+Nb) + 1)|."""
    diff = abs(nsa - nsb)
    root = math.sqrt(
        coeff**2 * diff**2 + 2 * coeff * (2 * nsa * nsb + nsa + nsb) + 1.0
    )
    return abs(coeff * diff + root), abs(coeff * diff - root)


def ea_bosonic_region(p: BosonicMacParams) -> RateRegion:
    """Closed-form entanglement-assisted region of the beamsplitter MAC.

    The pair entropies enter through the symplectic eigenvalues of the
    sender-receiver covariance blocks; the expressions produce the negative
    branch with a sign, so absolute values are taken (symplectic spectra
    are |eig(iJV)| by definition), which the numeric pipeline confirms.
    """
    eta, nsa, nsb = p.eta, p.nsa, p.nsb
    h_e = g_entropy(eta * nsb + (1 - eta) * nsa)
    lam_ac = _lambda_pair(1 - eta, nsa, nsb)
    lam_bc = _lambda_pair(eta, nsa, nsb)
    h_ac = sum(g_entropy((lam - 1) / 2) for lam in lam_ac)
    h_bc = sum(g_entropy((lam - 1) / 2) for lam in lam_bc)
    r1 = g_entropy(nsa) + h_bc - h_e
    r2 = g_entropy(nsb) + h_ac - h_e
    rsum = (
        g_entropy(nsa) + g_entropy(nsb)
        + g_entropy(eta * nsa + (1 - eta) * nsb) - h_e
    )
    return RateRegion(r1, r2, rsum)


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
    I(A;BC), I(B;AC) and I(AB;C) through symplectic spectra.
    """
    v = bosonic_output_state(p)

    def h(modes):
        return gaussian_entropy(v.marginal(modes))

    h_a = h(("A",))
    h_b = h(("B",))
    h_c = h(("C",))
    h_ab = h(("A", "B"))
    h_ac = h(("A", "C"))
    h_bc = h(("B", "C"))
    h_abc = h(("E",))  # the global state is pure
    r1 = h_a + h_bc - h_abc
    r2 = h_b + h_ac - h_abc
    rsum = h_ab + h_c - h_abc
    return RateRegion(r1, r2, rsum)


def yen_shapiro_bound(p: BosonicMacParams) -> RateRegion:
    """Outer bound for unassisted communication over the same beamsplitter."""
    return RateRegion(
        g_entropy(p.nsa),
        g_entropy(p.nsb),
        g_entropy(p.eta * p.nsa + (1 - p.eta) * p.nsb),
    )


def compare_regions(p: BosonicMacParams) -> dict:
    """Assisted region vs the unassisted outer bound.

    Returns the two regions, the sum-rate gap
    g(Na) + g(Nb) - g(eta Nb + (1-eta) Na) (nonnegative by monotonicity of
    g), a vertex-by-vertex report, and whether the assisted region contains
    the outer bound.
    """
    ea = ea_bosonic_region(p)
    ys = yen_shapiro_bound(p)
    sum_gap = (
        g_entropy(p.nsa) + g_entropy(p.nsb)
        - g_entropy(p.eta * p.nsb + (1 - p.eta) * p.nsa)
    )
    vertex_report = [
        {"vertex": [x, y], "inside_ea": ea.contains(x, y)}
        for x, y in ys.vertices
    ]
    return {
        "ea": ea,
        "ys": ys,
        "sum_gap": sum_gap,
        "ea_contains_ys": all(rec["inside_ea"] for rec in vertex_report),
        "vertices": vertex_report,
    }


def region_sweep(nsa: float, nsb: float, eta_grid) -> list[dict]:
    """One region comparison per grid point, as plain row records."""
    rows = []
    for eta in eta_grid:
        p = BosonicMacParams(float(eta), nsa, nsb)
        ea = ea_bosonic_region(p)
        ys = yen_shapiro_bound(p)
        rows.append({
            "eta": float(eta),
            "r1": ea.r1_max,
            "r2": ea.r2_max,
            "sum": ea.sum_max,
            "ys_r1": ys.r1_max,
            "ys_r2": ys.r2_max,
            "ys_sum": ys.sum_max,
            "sum_gap": (
                g_entropy(nsa) + g_entropy(nsb)
                - g_entropy(float(eta) * nsb + (1 - float(eta)) * nsa)
            ),
        })
    return rows


SWEEP_CSV_HEADER = "eta,r1,r2,sum,ys_r1,ys_r2,ys_sum,sum_gap"


def sweep_csv(rows: list[dict]) -> str:
    """Locale-independent CSV at 12 significant digits, one row per point."""
    lines = [SWEEP_CSV_HEADER]
    for row in rows:
        lines.append(",".join(
            format(row[k], ".12g")
            for k in ("eta", "r1", "r2", "sum", "ys_r1", "ys_r2", "ys_sum",
                      "sum_gap")
        ))
    return "\n".join(lines) + "\n"
