import math

import numpy as np
import pytest

from trapkit.heating import (
    HeatingRateResult,
    HeatingSeries,
    fit_heating_rate,
    fit_power_law,
    normalize_rate,
    position_scan_summary,
    rate_from_spectral_density,
    spectral_density_from_rate,
    weighted_linear_fit,
)
from trapkit.units import TWO_PI, get_species, make_trap_context

YB_CTX = make_trap_context("Yb-171", TWO_PI * 5.329e6, TWO_PI * 12.7e6, 20e-6)


def make_series(t, nbar, err=None):
    return HeatingSeries(tuple(t), tuple(nbar), tuple(err) if err is not None else None)


class TestHeatingRateFit:
    def test_exact_line(self):
        t = np.linspace(0, 2e-3, 6)
        series = make_series(t, 0.1 + 780.0 * t)
        res = fit_heating_rate(series)
        assert res.ndot == pytest.approx(780.0, rel=1e-9)
        assert res.intercept == pytest.approx(0.1, rel=1e-9)

    def test_flat_series(self):
        t = np.linspace(0, 2e-3, 6)
        res = fit_heating_rate(make_series(t, np.full(6, 3.0)))
        assert res.ndot == pytest.approx(0.0, abs=1e-9)

    def test_weighted_fit_uses_errors(self):
        t = np.linspace(0, 2e-3, 6)
        nbar = 0.1 + 780.0 * t
        nbar[5] += 5.0  # down-weighted outlier
        err = np.full(6, 0.05)
        err[5] = 100.0
        res = fit_heating_rate(make_series(t, nbar, err))
        assert res.ndot == pytest.approx(780.0, rel=1e-3)

    def test_time_unit_rescaling(self):
        t = np.linspace(0, 2e-3, 8)
        rng = np.random.default_rng(0)
        nbar = 0.1 + 780.0 * t + 0.05 * rng.standard_normal(8)
        res_s = fit_heating_rate(make_series(t, nbar))
        res_ms = fit_heating_rate(make_series(t * 1e3, nbar))
        assert res_s.ndot == pytest.approx(1e3 * res_ms.ndot, rel=1e-9)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            make_series([0, 1e-3], [0.1, 0.9])

    def test_non_monotonic_times(self):
        with pytest.raises(ValueError):
            make_series([0, 2e-3, 1e-3], [0.1, 0.5, 0.9])

    def test_recovery_within_three_sigma(self):
        from trapkit.simulate import SimConfig, simulate_heating_series

        waits = np.linspace(0, 2e-3, 10).tolist()
        hits = 0
        for seed in range(100):
            cfg = SimConfig(seed=seed)
            res = fit_heating_rate(simulate_heating_series(cfg, waits))
            if abs(res.ndot - 780.0) <= 3 * res.ndot_err:
                hits += 1
        assert hits >= 97


def _numpy_line(x, y, yerr):
    """(a, b, cov) of the weighted line from np.linalg.lstsq and inv, on x
    centred at x[0] and scaled by its span, then mapped back: the raw
    design of x = 1e3 + 1e-3*k has a condition number of ~1e9, and numpy's
    answer there is good to only ~1e-10."""
    x, y = np.asarray(x), np.asarray(y)
    c, s = x[0], x[-1] - x[0]
    w = np.ones_like(x) if yerr is None else 1.0 / np.asarray(yerr)
    A = np.column_stack([w, w * (x - c) / s])
    beta = np.linalg.lstsq(A, w * y, rcond=None)[0]
    cov = np.linalg.inv(A.T @ A)
    if yerr is None:
        r = y - (beta[0] + beta[1] * (x - c) / s)
        cov = cov * (r @ r / (x.size - 2))
    J = np.array([[1.0, -c / s], [0.0, 1.0 / s]])
    return beta[0] - beta[1] * c / s, beta[1] / s, J @ cov @ J.T


class TestWeightedLinearFit:
    @pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])
    @pytest.mark.parametrize("offset", [False, True], ids=["near-0", "offset"])
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_numpy_least_squares(self, seed, offset, weighted):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 13))
        if offset:
            x = 1e3 + 1e-3 * np.arange(n)
            x0 = 1e3
        else:
            x = np.sort(rng.uniform(0.0, 2e-3, n))
            x0 = 0.0
        yerr = rng.uniform(0.05, 0.3, n) if weighted else None
        noise = rng.standard_normal(n) * (yerr if weighted else 0.1)
        y = rng.uniform(0.5, 2.0) + rng.uniform(-2.0, 2.0) / 2e-3 * (x - x0) + noise
        a, b, cov = weighted_linear_fit(x.tolist(), y.tolist(), None if yerr is None else yerr.tolist())
        want_a, want_b, want_cov = _numpy_line(x, y, yerr)
        assert a == pytest.approx(want_a, rel=1e-12)
        assert b == pytest.approx(want_b, rel=1e-12)
        np.testing.assert_allclose(np.array(cov), want_cov, rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "x, yerr, match",
        [
            ([0.0, 1.0, 1e308], [0.1, 0.1, 0.1], "overflows"),  # w * x is inf
            ([0.0, 1e308, 1.5e308], None, "overflows"),  # math.fsum overflows
            ([0.0, 5e-324, 1e-323], None, "degenerate design"),  # dx * dx underflows to 0
            ([0.0, 1.0, 2.0], [1e300, 1e300, 1e300], "degenerate design"),  # every weight is 0
        ],
        ids=["inf-term", "fsum-overflow", "zero-spread", "zero-weights"],
    )
    def test_float_traps_raise_value_error(self, x, yerr, match):
        # an OverflowError or ZeroDivisionError would escape the CLI's exit 2
        with pytest.raises(ValueError, match=match):
            weighted_linear_fit(x, [1.0, 2.0, 3.0], yerr)

    @pytest.mark.parametrize("fit", [weighted_linear_fit, fit_power_law])
    @pytest.mark.parametrize("yerr", [[[0.1], [0.1], [0.1]], np.full((3, 1), 0.1)], ids=["nested-list", "column"])
    def test_errors_of_one_per_row_are_misshaped(self, fit, yerr):
        # as long as x, but not numbers: float() raised TypeError
        with pytest.raises(ValueError, match="errors must have the shape of x"):
            fit([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], yerr)


class TestSpectralDensity:
    def test_zero_rate(self):
        res = HeatingRateResult(0.0, 0.0, 0.1)
        assert spectral_density_from_rate(res, YB_CTX) == 0.0

    def test_closed_form_oracle(self):
        # independent evaluation of 4*m*hbar*omega*ndot/q^2
        res = HeatingRateResult(780.0, 50.0, 0.1)
        m = 170.936 * 1.66053906660e-27
        hbar = 1.054571817e-34
        q = 1.602176634e-19
        want = 4 * m * hbar * (TWO_PI * 5.329e6) * 780.0 / q**2
        assert spectral_density_from_rate(res, YB_CTX) == pytest.approx(want, rel=1e-12)

    def test_linearity_in_omega(self):
        res = HeatingRateResult(780.0, 50.0, 0.1)
        ctx2 = make_trap_context("Yb-171", 2 * YB_CTX.axial_freq, YB_CTX.radial_freq, 20e-6)
        assert spectral_density_from_rate(res, ctx2) == pytest.approx(
            2 * spectral_density_from_rate(res, YB_CTX), rel=1e-12
        )

    def test_round_trip(self):
        res = HeatingRateResult(780.0, 50.0, 0.1)
        s_e = spectral_density_from_rate(res, YB_CTX)
        assert rate_from_spectral_density(s_e, YB_CTX) == pytest.approx(780.0, rel=1e-12)


class TestNormalization:
    def test_identity(self):
        res = HeatingRateResult(780.0, 50.0, 0.1)
        out = normalize_rate(res, YB_CTX, YB_CTX.species, YB_CTX.axial_freq)
        assert out == pytest.approx(780.0, rel=1e-12)

    def test_worked_yb_to_ca_example(self):
        res = HeatingRateResult(780.0, 50.0, 0.1)
        out = normalize_rate(res, YB_CTX, get_species("Ca-40"), TWO_PI * 1e6)
        want = 780.0 * (170.936 / 39.963) * 5.329**2
        assert out == pytest.approx(want, rel=1e-9)

    def test_quadratic_frequency_scaling(self):
        res = HeatingRateResult(780.0, 50.0, 0.1)
        half_ctx = make_trap_context(
            "Yb-171", YB_CTX.axial_freq / 2, YB_CTX.radial_freq, 20e-6
        )
        ref = get_species("Ca-40")
        full = normalize_rate(res, YB_CTX, ref, TWO_PI * 1e6)
        half = normalize_rate(res, half_ctx, ref, TWO_PI * 1e6)
        assert half == pytest.approx(full / 4, rel=1e-12)

    def test_oracle_path_agreement(self):
        # oracle: convert to S_E, rescale S_E by omega/omega_ref (1/omega
        # law), invert the rate formula in the reference context
        rng = np.random.default_rng(5)
        ref = get_species("Ca-40")
        for _ in range(50):
            f_ax = TWO_PI * rng.uniform(0.5e6, 10e6)
            ctx = make_trap_context("Yb-171", f_ax, TWO_PI * 12.7e6, 20e-6)
            ndot = rng.uniform(10, 5000)
            f_ref = TWO_PI * rng.uniform(0.5e6, 5e6)
            res = HeatingRateResult(ndot, 0.0, 0.0)
            s_e = spectral_density_from_rate(res, ctx)
            s_e_ref = s_e * (ctx.axial_freq / f_ref)
            ref_ctx = make_trap_context("Ca-40", f_ref, f_ref, 20e-6)
            want = rate_from_spectral_density(s_e_ref, ref_ctx)
            assert normalize_rate(res, ctx, ref, f_ref) == pytest.approx(want, rel=1e-9)


class TestPowerLaw:
    def test_exact_inverse_square(self):
        x = np.linspace(1.0, 10.0, 9)
        fit = fit_power_law(x, 5.0 / x**2)
        assert fit.exponent == pytest.approx(2.0, abs=1e-10)
        assert fit.amplitude == pytest.approx(5.0, rel=1e-10)

    @pytest.mark.parametrize("exponent", [0.5, 1.0, 2.2, 4.0, 6.0])
    def test_exact_recovery_over_exponent_range(self, exponent):
        x = np.geomspace(2.5, 5.2, 7)
        fit = fit_power_law(x, 3.0 * x ** (-exponent))
        assert fit.exponent == pytest.approx(exponent, abs=1e-10)

    def test_distance_scaling_synthetic(self):
        rng = np.random.default_rng(2)
        d = np.linspace(20e-6, 100e-6, 9)
        y = 1e-12 / d**4 * (1 + 0.01 * rng.standard_normal(9))
        fit = fit_power_law(d, y, 0.01 * y)
        assert fit.exponent == pytest.approx(4.0, abs=0.1)

    def test_frequency_scaling_monte_carlo(self):
        in_band = 0
        exps = []
        f = np.linspace(2.5e6, 5.2e6, 7)
        for seed in range(200):
            rng = np.random.default_rng(seed)
            y = 50.0 * (f / 1e6) ** (-2.2) * (1 + 0.1 * rng.standard_normal(7))
            fit = fit_power_law(f, np.abs(y), 0.1 * np.abs(y))
            exps.append(fit.exponent)
            if abs(fit.exponent - 2.2) <= 0.3:
                in_band += 1
        assert in_band / 200 >= 0.9
        assert np.mean(exps) == pytest.approx(2.2, abs=0.05)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
        with pytest.raises(ValueError):
            fit_power_law([0.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        for err in (0.0, -0.1):
            with pytest.raises(ValueError, match="errors must be positive"):
                fit_power_law([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.1, err, 0.1])

    @pytest.mark.parametrize(
        "x, y, yerr",
        [
            ([1.0, 2.0, 3.0], [1.0, math.inf, 3.0], None),
            ([1.0, math.nan, 3.0], [1.0, 2.0, 3.0], None),
            ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.1, math.nan, 0.1]),
            ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.1, math.inf, 0.1]),
        ],
        ids=["inf-y", "nan-x", "nan-yerr", "inf-yerr"],
    )
    def test_rejects_non_finite(self, x, y, yerr):
        # none may reach the solver: an inf y gave nan parameters, a nan
        # raised inside LAPACK and an inf error weighted its point zero
        with pytest.raises(ValueError, match="must be finite"):
            fit_power_law(x, y, yerr)

    @pytest.mark.parametrize(
        "fit, yerr",
        [(fit_power_law, [0.1, 0.1]), (weighted_linear_fit, [[0.1, 0.1, 0.1]])],
        ids=["short-power-law", "2d-linear"],
    )
    def test_rejects_errors_of_another_shape(self, fit, yerr):
        # a short yerr failed numpy's broadcast, which names no argument, and
        # a (1, 3) yerr reached the solver as a singular matrix
        with pytest.raises(ValueError, match="errors must have the shape of x"):
            fit([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], yerr)


class TestPositionScanSummary:
    def test_nine_equal_rates(self):
        rates = [(i * 10e-6, HeatingRateResult(0.78, 0.05, 0.1)) for i in range(9)]
        mean, err, p = position_scan_summary(rates)
        assert mean == pytest.approx(0.78)
        assert p == pytest.approx(1.0)

    def test_scatter_within_errors_is_flat(self):
        vals = [0.7, 0.75, 0.8, 0.85, 0.9, 0.72, 0.78, 0.82, 0.76]
        rates = [
            (i * 10e-6, HeatingRateResult(v, 0.08, 0.1)) for i, v in enumerate(vals)
        ]
        _, _, p = position_scan_summary(rates)
        assert p > 0.05

    def test_large_outlier_detected(self):
        vals = [0.78] * 8 + [0.78 + 10 * 0.05]
        rates = [
            (i * 10e-6, HeatingRateResult(v, 0.05, 0.1)) for i, v in enumerate(vals)
        ]
        _, _, p = position_scan_summary(rates)
        assert p < 0.001

    def test_needs_two_positions(self):
        with pytest.raises(ValueError):
            position_scan_summary([(0.0, HeatingRateResult(0.78, 0.05, 0.1))])

    @pytest.mark.parametrize(
        "vals",
        [[0.78, 0.80], [0.7, 0.75, 0.8, 0.85, 0.9], [0.78] * 8 + [1.28], [0.1, 5.0, 0.2, 9.0]],
    )
    def test_p_value_equals_chi2_sf(self, vals):
        from scipy.stats import chi2

        rates = [(i * 10e-6, HeatingRateResult(v, 0.05, 0.1)) for i, v in enumerate(vals)]
        mean, _, p = position_scan_summary(rates)
        w = 1.0 / np.full(len(vals), 0.05) ** 2
        chisq = float(np.sum(w * (np.array(vals) - mean) ** 2))
        assert p == float(chi2.sf(chisq, len(vals) - 1))
