"""Covariance toolkit and the beamsplitter MAC rate regions."""

import math

import numpy as np
import pytest

from qmac import gaussian
from qmac.gaussian import (
    BosonicMacParams,
    CovarianceState,
    SymplecticMap,
    beamsplitter_symplectic,
    bosonic_output_state,
    g_entropy,
    tms_covariance,
)

# g(10) frozen from a 30-digit mpmath evaluation
G_10 = 4.83446685613664633949
# H(AC) at eta = 1/2, N_Sa = N_Sb = 1: 2 g((sqrt5 - 1)/2), mpmath-frozen
H_AC_SQRT5 = 3.10474422341519622082


class TestGEntropy:
    def test_vacuum(self):
        assert g_entropy(0.0) == 0.0
        assert g_entropy(-1e-13) == 0.0  # clamp window

    def test_one_photon(self):
        assert np.isclose(g_entropy(1.0), 2.0, atol=1e-14)

    def test_ten_photons_oracle(self):
        assert abs(g_entropy(10.0) - G_10) < 1e-13

    def test_monotone(self):
        xs = np.linspace(0, 50, 200)
        gs = [g_entropy(x) for x in xs]
        assert all(b > a for a, b in zip(gs, gs[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            g_entropy(-0.01)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected_naming_value(self, bad):
        with pytest.raises(ValueError, match=f"got {bad}"):
            g_entropy(bad)

    # g at large, small and subnormal N, mpmath-frozen at 50 digits; the
    # textbook difference (N+1) log2(N+1) - N log2 N is off by 1.1e-3 at
    # 10^12 and gives 0 at 10^16, and log2(N + 1) drops N / ln 2 at 3e-308
    EXTREME_N = {1e12: 41.305832179538032929, 1e16: 54.593544559086761045,
                 1e154: 513.01962165354276503, 1e300: 998.02112350709766784,
                 1e-3: 0.011409200432742474159, 1e-20: 6.7881256938636206721e-19,
                 3e-308: 3.0690347572964264579e-305,
                 1e-320: 1.0644478510307969275e-317}

    @pytest.mark.parametrize("n", list(EXTREME_N))
    def test_no_cancellation_at_extreme_n(self, n):
        # a subnormal N carries an absolute error of its spacing, 5e-324
        want = self.EXTREME_N[n]
        tol = max(1e-15 * want, 1e-322)
        assert abs(g_entropy(n) - want) <= tol
        assert abs(gaussian._g_array(np.array([n]))[0] - want) <= tol


class TestTmsCovariance:
    def test_vacuum_is_identity(self):
        assert np.allclose(tms_covariance(0.0).matrix, np.eye(4))

    def test_displayed_matrix_at_one_photon(self):
        v = tms_covariance(1.0).matrix
        c = 2 * math.sqrt(2)
        expect = np.array(
            [[3, 0, c, 0], [0, 3, 0, -c], [c, 0, 3, 0], [0, -c, 0, 3]]
        )
        assert np.allclose(v, expect, atol=1e-12)

    @pytest.mark.parametrize("n_s", [0.0, 0.3, 1.0, 10.0, 1000.0])
    def test_pure_state_spectrum(self, n_s):
        nus = gaussian.symplectic_eigenvalues(tms_covariance(n_s))
        assert np.allclose(nus, 1.0, atol=1e-8)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            tms_covariance(-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected_naming_value(self, bad):
        with pytest.raises(ValueError, match=f"got {bad}"):
            tms_covariance(bad)


class TestBeamsplitter:
    def test_eta_one_identity(self):
        assert np.allclose(beamsplitter_symplectic(1.0).matrix, np.eye(4))

    def test_eta_zero_swap_with_sign(self):
        s = beamsplitter_symplectic(0.0).matrix
        expect = np.block([
            [np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]
        ])
        assert np.allclose(s, expect)

    def test_symplectic_condition(self):
        s = beamsplitter_symplectic(0.37).matrix
        j = gaussian.symplectic_form(2)
        assert np.max(np.abs(s @ j @ s.T - j)) < 1e-12

    def test_range_validation(self):
        with pytest.raises(ValueError):
            beamsplitter_symplectic(1.2)


class TestApplySymplectic:
    def test_identity_map(self):
        v = tms_covariance(0.7)
        s = SymplecticMap(np.eye(4))
        out = gaussian.apply_symplectic(s, v, ("A", "Ap"))
        assert np.allclose(out.matrix, v.matrix)

    def test_vacuum_through_beamsplitter(self):
        vac = CovarianceState(("X", "Y"), np.eye(4))
        out = gaussian.apply_symplectic(
            beamsplitter_symplectic(0.3), vac, ("X", "Y")
        )
        assert np.allclose(out.matrix, np.eye(4), atol=1e-12)

    def test_output_blocks_match_displayed_matrices(self):
        # oracle: the displayed sender-receiver covariance blocks at
        # eta = 1/2, N_Sa = N_Sb = 1 (all entries hand-evaluated)
        p = BosonicMacParams(0.5, 1.0, 1.0)
        out = bosonic_output_state(p)
        c = 2.0  # 2 sqrt(eta) sqrt(N (N+1)) = 2 at these parameters
        expect_ac = np.array(
            [[3, 0, c, 0], [0, 3, 0, -c], [c, 0, 3, 0], [0, -c, 0, 3]]
        )
        assert np.allclose(out.marginal(("A", "C")).matrix, expect_ac,
                           atol=1e-12)
        assert np.allclose(out.marginal(("B", "C")).matrix, expect_ac,
                           atol=1e-12)

    def test_unknown_mode(self):
        v = tms_covariance(0.5)
        with pytest.raises(KeyError):
            gaussian.apply_symplectic(
                beamsplitter_symplectic(0.5), v, ("A", "Q")
            )


class TestSymplecticEigenvalues:
    def test_identity(self):
        v = CovarianceState(("A", "B", "C"), np.eye(6))
        assert np.allclose(gaussian.symplectic_eigenvalues(v), 1.0)

    def test_thermal(self):
        n = 3.7
        v = CovarianceState(("A",), (2 * n + 1) * np.eye(2))
        assert np.allclose(gaussian.symplectic_eigenvalues(v), 2 * n + 1)

    def test_sqrt5_hand_check_against_two_mode_formula(self):
        # oracle: nu^2 = (Delta +- sqrt(Delta^2 - 4 det V)) / 2 with
        # Delta = det A + det B + 2 det C = 9 + 9 - 8 = 10, det V = 25
        p = BosonicMacParams(0.5, 1.0, 1.0)
        v = bosonic_output_state(p).marginal(("A", "C"))
        a = v.matrix[:2, :2]
        b = v.matrix[2:, 2:]
        c = v.matrix[:2, 2:]
        delta = np.linalg.det(a) + np.linalg.det(b) + 2 * np.linalg.det(c)
        det_v = np.linalg.det(v.matrix)
        assert np.isclose(delta, 10.0, atol=1e-10)
        assert np.isclose(det_v, 25.0, atol=1e-9)
        disc = math.sqrt(max(delta**2 - 4 * det_v, 0.0))  # degenerate here
        nu_plus = math.sqrt((delta + disc) / 2)
        nu_minus = math.sqrt((delta - disc) / 2)
        nus = gaussian.symplectic_eigenvalues(v)
        assert abs(nus[0] - nu_plus) < 1e-10
        assert abs(nus[1] - nu_minus) < 1e-10
        assert np.allclose(nus, math.sqrt(5), atol=1e-10)

    def test_physicality_enforced(self):
        with pytest.raises(ValueError):
            CovarianceState(("A",), 0.5 * np.eye(2))


class TestGaussianEntropy:
    def test_pure_tms_zero(self):
        assert abs(gaussian.gaussian_entropy(tms_covariance(3.0))) < 1e-9

    def test_thermal_equals_g(self):
        n = 2.5
        v = CovarianceState(("A",), (2 * n + 1) * np.eye(2))
        assert np.isclose(gaussian.gaussian_entropy(v), g_entropy(n), atol=1e-10)

    def test_pair_entropy_oracle_value(self):
        p = BosonicMacParams(0.5, 1.0, 1.0)
        v = bosonic_output_state(p).marginal(("A", "C"))
        assert abs(gaussian.gaussian_entropy(v) - H_AC_SQRT5) < 1e-10


class TestBosonicRegion:
    def test_symmetric_sum_is_twice_g(self):
        p = BosonicMacParams(0.5, 1.0, 1.0)
        assert np.isclose(gaussian.ea_bosonic_region(p).sum_max, 2 * g_entropy(1.0),
                          atol=1e-12)

    def test_closed_form_vs_numeric_spot(self):
        for eta, nsa, nsb in ((0.3, 2.0, 7.0), (0.9, 0.1, 1000.0),
                              (0.5, 1000.0, 10.0)):
            p = BosonicMacParams(eta, nsa, nsb)
            c = gaussian.ea_bosonic_region(p).bounds()
            o = gaussian.ea_bosonic_region_numeric(p).bounds()
            assert max(abs(x - y) for x, y in zip(c, o)) < 1e-9

    def test_pure_loss_free_r1(self):
        # eta = 1, N_Sb = 0: Alice's arm reaches the receiver untouched, and
        # H(BC) splits as H(B) + H(C) with AC pure, giving R1 = 2 g(N_Sa)
        p = BosonicMacParams(1.0, 2.0, 0.0)
        reg = gaussian.ea_bosonic_region_numeric(p)
        assert np.isclose(reg.r1_max, 2 * g_entropy(2.0), atol=1e-9)
        closed = gaussian.ea_bosonic_region(p)
        assert np.isclose(closed.r1_max, reg.r1_max, atol=1e-9)

    def test_environment_entropy_identity(self):
        # H(ABC) = H(E) = g(eta N_Sb + (1 - eta) N_Sa)
        p = BosonicMacParams(0.7, 3.0, 0.5)
        v = bosonic_output_state(p)
        h_e = gaussian.gaussian_entropy(v.marginal(("E",)))
        expect = g_entropy(0.7 * 0.5 + 0.3 * 3.0)
        assert np.isclose(h_e, expect, atol=1e-10)
        h_abc = gaussian.gaussian_entropy(v.marginal(("A", "B", "C")))
        assert np.isclose(h_abc, h_e, atol=1e-9)

    def test_output_state_is_pure(self):
        p = BosonicMacParams(0.4, 5.0, 2.0)
        nus = gaussian.symplectic_eigenvalues(bosonic_output_state(p))
        assert np.allclose(nus, 1.0, atol=1e-8)

    def test_complementarity(self):
        p = BosonicMacParams(0.25, 4.0, 9.0)
        v = bosonic_output_state(p)
        h = lambda modes: gaussian.gaussian_entropy(v.marginal(modes))
        assert np.isclose(h(("A", "C")), h(("B", "E")), atol=1e-9)
        assert np.isclose(h(("B", "C")), h(("A", "E")), atol=1e-9)

    def test_lambda_substitution_symmetry(self):
        # oracle: both displayed eigenvalue expressions written out in full;
        # the AC pair at eta equals the BC pair at 1 - eta, exactly
        def lam_ac(eta, na, nb):
            root = math.sqrt((1 - eta) ** 2 * (na - nb) ** 2
                             + 2 * (1 - eta) * (2 * na * nb + na + nb) + 1)
            base = (1 - eta) * abs(na - nb)
            return (base + root, base - root)

        def lam_bc(eta, na, nb):
            root = math.sqrt(eta**2 * (na - nb) ** 2
                             + 2 * eta * (2 * na * nb + na + nb) + 1)
            base = eta * abs(na - nb)
            return (base + root, base - root)

        for eta in (0.15, 0.4, 0.8):
            for nsa, nsb in ((2.0, 5.0), (0.1, 0.1), (1000.0, 10.0)):
                ac = lam_ac(eta, nsa, nsb)
                bc_sub = lam_bc(1 - eta, nsa, nsb)
                assert ac == bc_sub
                # the module takes absolute values of the same expressions
                mod = gaussian._lambda_pair(1 - eta, nsa, nsb)
                assert np.allclose(sorted(np.abs(ac)), sorted(mod))


class TestYenShapiro:
    def test_zero_photons(self):
        reg = gaussian.yen_shapiro_bound(BosonicMacParams(0.5, 0.0, 0.0))
        assert reg.bounds() == (0.0, 0.0, 0.0)

    def test_symmetric_one_photon(self):
        reg = gaussian.yen_shapiro_bound(BosonicMacParams(0.5, 1.0, 1.0))
        assert np.allclose(reg.bounds(), (2.0, 2.0, 2.0), atol=1e-12)

    def test_fig2b_degenerate_sum(self):
        reg = gaussian.yen_shapiro_bound(BosonicMacParams(0.95, 1.0, 1.0))
        assert np.isclose(reg.sum_max, 2.0, atol=1e-12)


class TestCompareRegions:
    def test_containment_flags(self):
        assert gaussian.compare_regions(
            BosonicMacParams(0.5, 10.0, 8.0)
        )["ea_contains_ys"] is True
        assert gaussian.compare_regions(
            BosonicMacParams(0.95, 1.0, 1.0)
        )["ea_contains_ys"] is False

    def test_symmetric_gap(self):
        p = BosonicMacParams(0.5, 3.0, 3.0)
        assert np.isclose(gaussian.compare_regions(p)["sum_gap"],
                          g_entropy(3.0), atol=1e-12)

    def test_gap_nonnegative_random(self):
        rng = np.random.default_rng(14)
        for _ in range(500):
            p = BosonicMacParams(
                rng.uniform(), rng.uniform(0, 100), rng.uniform(0, 100)
            )
            assert gaussian.compare_regions(p)["sum_gap"] >= -1e-9


class TestRegionSweep:
    def test_endpoints_finite(self):
        rows = gaussian.region_sweep(1000.0, 10.0, [0.0, 0.5, 1.0])
        assert len(rows) == 3
        assert rows.dtype.names == tuple(gaussian.SWEEP_CSV_HEADER.split(","))
        for row in rows:
            for key in rows.dtype.names:
                assert np.isfinite(row[key]), key

    def test_symmetric_sum_constant(self):
        rows = gaussian.region_sweep(10.0, 10.0, np.linspace(0, 1, 21))
        sums = [row["sum"] for row in rows]
        assert max(abs(s - 2 * G_10) for s in sums) < 1e-10

    def test_csv_format(self):
        rows = gaussian.region_sweep(1.0, 2.0, [0.0, 1.0])
        text = gaussian.sweep_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == gaussian.SWEEP_CSV_HEADER
        assert len(lines) == 3
        assert len(lines[1].split(",")) == 8
        # 12 significant digits survive a parse round trip
        val = float(lines[1].split(",")[3])
        assert np.isclose(val, rows[0]["sum"], rtol=1e-11)

    @pytest.mark.parametrize("nsa, nsb", [(1000.0, 10.0), (0.0, 7.0),
                                          (2.5, 2.5), (0.3, 0.0)])
    def test_rows_equal_point_functions(self, nsa, nsb):
        grid = np.linspace(0, 1, 41)
        for row in gaussian.region_sweep(nsa, nsb, grid):
            p = BosonicMacParams(row["eta"], nsa, nsb)
            cmp_ = gaussian.compare_regions(p)
            ea = gaussian.ea_bosonic_region(p)
            ys = gaussian.yen_shapiro_bound(p)
            assert ea.bounds() == cmp_["ea"].bounds()
            assert ys.bounds() == cmp_["ys"].bounds()
            assert (row["r1"], row["r2"], row["sum"]) == ea.bounds()
            assert (row["ys_r1"], row["ys_r2"], row["ys_sum"]) == ys.bounds()
            assert row["sum_gap"] == cmp_["sum_gap"]

    def test_scalar_entropy_calls_independent_of_grid(self, monkeypatch):
        # the grid goes through the closed form as one array, so the scalar
        # g evaluations per sweep (g(Na) and g(Nb)) do not grow with it
        calls = 0
        g = gaussian.g_entropy

        def counted(n):
            nonlocal calls
            calls += 1
            return g(n)

        monkeypatch.setattr(gaussian, "g_entropy", counted)
        counts = []
        for k in (25, 1001):
            calls = 0
            gaussian.region_sweep(30.0, 5.0, np.linspace(0, 1, k))
            counts.append(calls)
        assert counts[0] == counts[1] <= 2

    @pytest.mark.parametrize("bad", [math.nan, -0.1, 1.5])
    def test_eta_checked_over_the_grid(self, bad):
        grid = [0.0, 0.5, bad, 1.0]
        with pytest.raises(ValueError, match="eta"):
            gaussian.region_sweep(1.0, 2.0, grid)

    def test_negative_residuals_clamp_to_zero(self):
        # at N_a = 0, r1 is exactly zero; on a fine grid the unclamped
        # closed form rounds below zero at some eta, and the sweep prints 0
        grid = np.arange(1001) / 1000
        raw = gaussian._region_figures(grid, 0.0, 7.0)[0]
        assert raw.min() < 0 and np.abs(raw).max() < 1e-14
        rows = gaussian.region_sweep(0.0, 7.0, grid)
        assert np.array_equal(rows["r1"], np.maximum(raw, 0.0))
        assert rows["r1"].min() == 0.0

    def test_exact_zeros_at_the_ends(self):
        # r1 = g(Na) - h_E at eta = 0 and r2 = g(Nb) - h_E at eta = 1 are
        # exact zeros; g(Na) and g(Nb) from the scalar g_entropy printed
        # residuals such as 4.4e-16 on 75 of 4,000 of these ends, since
        # numpy's log1p need not round as math.log1p does
        rng = np.random.default_rng(1)
        for _ in range(400):
            nsa = float(f"{10 ** rng.uniform(0, 3):.6g}")
            nsb = float(f"{10 ** rng.uniform(0, 2):.6g}")
            rows = gaussian.region_sweep(nsa, nsb, [0.0, 0.5, 1.0])
            raw = gaussian._region_figures(np.array([0.0, 1.0]), nsa, nsb)
            assert (rows["r1"][0], rows["r2"][-1]) == (0.0, 0.0), (nsa, nsb)
            assert (raw[0][0], raw[1][1]) == (0.0, 0.0), (nsa, nsb)

    def test_empty_grid_header_only(self):
        rows = gaussian.region_sweep(1.0, 2.0, [])
        assert len(rows) == 0
        assert gaussian.sweep_csv(rows) == gaussian.SWEEP_CSV_HEADER + "\n"
        with pytest.raises(ValueError, match="nsb"):
            gaussian.region_sweep(1.0, math.nan, [])

    def test_constant_columns_written_once(self):
        # ys_r1 and ys_r2 go into the row template; a column that varies
        # is still written row by row
        rows = gaussian.region_sweep(3.0, 4.0, [0.0, 0.25, 1.0])
        text = gaussian.sweep_csv(rows)
        assert text.split("\n")[1].split(",")[4:6] == [
            format(g_entropy(3.0), ".12g"), format(g_entropy(4.0), ".12g")]
        rows["ys_r1"][1] = 1.5
        lines = gaussian.sweep_csv(rows).split("\n")
        assert [line.split(",")[4] for line in lines[1:4]] == [
            format(g_entropy(3.0), ".12g"), "1.5", format(g_entropy(3.0), ".12g")]

    def test_grid_matches_integer_division(self):
        # gaussian-sweep builds its grid as arange / (steps - 1)
        for steps in (2, 3, 11, 101, 100001):
            grid = (np.arange(steps) / (steps - 1)).tolist()
            assert grid == [i / (steps - 1) for i in range(steps)]


class TestGArray:
    def test_domain_rule(self):
        zeros = gaussian._g_array(np.array([-1e-12, -1e-13, -0.0, 0.0]))
        assert zeros.tolist() == [0.0, 0.0, 0.0, 0.0]
        for bad in (-2e-12, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                gaussian._g_array(np.array([1.0, bad]))

    def test_matches_scalar_g(self):
        xs = np.concatenate([[0.0, 1e-300, 1e-12, 0.5, 1.0, 10.0],
                             np.geomspace(1e-9, 1e6, 400)])
        got = gaussian._g_array(xs)
        assert np.all(np.isfinite(got))
        want = np.array([g_entropy(x) for x in xs])
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, want))
        assert abs(got[4] - 2.0) <= 1e-14 and abs(got[5] - G_10) < 1e-13


class TestLargePhotonNumbers:
    # (r1, r2, sum, ys_sum, sum_gap) at eta = 0.5, N_a = 10^16, N_b = 1,
    # mpmath-frozen at 50 digits: lambda- = c D - root cancelled to 0 there,
    # and the sweep printed ys_r1 = 0 and sum_gap = -62
    WANT = (56.593544559086760845, 3.9999999999999998, 56.593544559086761045,
            53.593544559086761262, 2.9999999999999997836)

    def test_region_figures_at_1e16(self):
        got = gaussian._region_figures(np.array([0.5]), 1e16, 1.0)
        for g, w in zip(got, self.WANT):
            assert abs(float(g[0]) - w) <= 1e-14 * w

    def test_lambda_minus_does_not_cancel(self):
        # lambda+ lambda- = s exactly, so lambda- = s / lambda+
        c, nsa, nsb = 0.5, 1e16, 1.0
        lam_plus, lam_minus = gaussian._lambda_pair(c, nsa, nsb)
        s = 2 * c * (2 * nsa * nsb + nsa + nsb) + 1
        assert lam_minus > 1.0
        assert abs(lam_plus * lam_minus - s) <= 4e-16 * s

    @pytest.mark.parametrize("nsa, nsb", [(1e155, 1.0), (1.0, 1e155),
                                          (1e300, 1e300)])
    def test_overflow_is_refused_naming_the_input(self, nsa, nsb):
        with pytest.raises(ValueError, match="nsa = .* and nsb = .* overflow"):
            gaussian.region_sweep(nsa, nsb, [0.0, 0.5, 1.0])
        with pytest.raises(ValueError, match="nsa = .* and nsb = .* overflow"):
            gaussian.compare_regions(BosonicMacParams(0.5, nsa, nsb))


def _region_figures_oracle(eta, nsa, nsb):
    """Unclamped (r1, r2, sum, ys_sum, sum_gap) at one point, on math floats."""
    ga, gb = g_entropy(nsa), g_entropy(nsb)
    diff = abs(nsa - nsb)

    def pair_entropy(c):
        root = math.sqrt(c * c * diff * diff
                         + 2 * c * (2 * nsa * nsb + nsa + nsb) + 1.0)
        return (g_entropy((abs(c * diff + root) - 1) / 2)
                + g_entropy((abs(c * diff - root) - 1) / 2))

    h_e = g_entropy(eta * nsb + (1 - eta) * nsa)
    ys_sum = g_entropy(eta * nsa + (1 - eta) * nsb)
    return (ga + pair_entropy(eta) - h_e, gb + pair_entropy(1 - eta) - h_e,
            ga + gb + ys_sum - h_e, ys_sum, ga + gb - h_e)


class TestSweepAgainstPointOracle:
    @pytest.mark.parametrize("nsa, nsb", [(1000.0, 10.0), (0.0, 7.0),
                                          (7.0, 0.0), (2.5, 2.5)])
    def test_every_row_of_a_fine_grid(self, nsa, nsb):
        steps = 100001
        grid = np.arange(steps) / (steps - 1)
        rows = gaussian.region_sweep(nsa, nsb, grid)
        want = np.array([_region_figures_oracle(eta, nsa, nsb)
                         for eta in grid.tolist()])
        want[:, :3] = np.maximum(want[:, :3], 0.0)
        assert np.array_equal(rows["eta"], grid)
        assert np.all(rows["ys_r1"] == g_entropy(nsa))
        assert np.all(rows["ys_r2"] == g_entropy(nsb))
        for j, key in enumerate(("r1", "r2", "sum", "ys_sum", "sum_gap")):
            dev = np.abs(rows[key] - want[:, j])
            assert np.all(dev <= 1e-12 * np.maximum(1.0, np.abs(want[:, j]))), (
                key, float(dev.max()))
