import bisect
import dataclasses
import functools
import math

import numpy as np
import pytest

from trapkit import charging, fitting
from trapkit.charging import (
    ChargingModelParams,
    DischargeModelParams,
    DutyCycle,
    FrequencySeries,
    charging_freq,
    compensation_field,
    discharge_freq,
    fit_charging,
    fit_discharge,
    settled_offset,
    settled_stability,
    settled_window_start,
)
from trapkit.datasets import from_frequency_series
from trapkit.simulate import SimConfig, simulate_charging_series

PAPER_CHARGING = ChargingModelParams(
    df1=151e3, df2=50e3, T1=21.0, T2=900.0, t_on=400.0, f0=5.329e6
)
PAPER_DISCHARGE = DischargeModelParams(
    df3=-80e3, df4=-26.4e3, T3=360.0, T4=18000.0, t_off=2400.0, f0=5.329e6
)


def series_from_model(times, freqs, errs=None, intervals=()):
    return FrequencySeries(
        tuple(times),
        tuple(freqs),
        tuple(errs) if errs is not None else None,
        tuple(intervals),
    )


def criterion7_series(seed):
    """Acceptance criterion 7's series for one seed, and its part from
    light-off on."""
    series = simulate_charging_series(SimConfig(seed=seed, noise_floor=1e3), 15.0, (400.0, 2400.0), 5000.0)
    t = np.asarray(series.times)
    off = t >= 2400.0
    sub = series_from_model(t[off], np.asarray(series.freqs)[off], np.asarray(series.freq_errs)[off])
    return series, sub


class TestModelCurves:
    def test_charging_at_turn_on(self):
        assert charging_freq(400.0, PAPER_CHARGING) == pytest.approx(5.329e6)

    def test_charging_long_time_limit(self):
        f_inf = charging_freq(400.0 + 50 * 900.0, PAPER_CHARGING)
        assert f_inf == pytest.approx(5.329e6 + 151e3 - 50e3, rel=1e-12)
        assert f_inf - PAPER_CHARGING.f0 == pytest.approx(settled_offset(PAPER_CHARGING))

    def test_charging_one_fast_time_constant(self):
        t = 400.0 + 21.0
        want = (
            5.329e6
            + 151e3 * (1 - math.exp(-1.0))
            - 50e3 * (1 - math.exp(-21.0 / 900.0))
        )
        assert charging_freq(t, PAPER_CHARGING) == pytest.approx(want, rel=1e-12)

    def test_charging_before_turn_on_rejected(self):
        with pytest.raises(ValueError):
            charging_freq(399.0, PAPER_CHARGING)

    def test_discharge_returns_to_baseline(self):
        t = 2400.0 + 100 * 18000.0
        assert discharge_freq(t, PAPER_DISCHARGE) == pytest.approx(5.329e6, rel=1e-12)

    def test_discharge_at_turn_off(self):
        want = 5.329e6 - (-80e3) - (-26.4e3)
        assert discharge_freq(2400.0, PAPER_DISCHARGE) == pytest.approx(want, rel=1e-12)

    def test_discharge_zero_amplitudes(self):
        p = DischargeModelParams(0.0, 0.0, 360.0, 18000.0, 2400.0, 5.329e6)
        for t in (2400.0, 3000.0, 9000.0):
            assert discharge_freq(t, p) == pytest.approx(5.329e6)

    def test_discharge_monotone_once_past_time_constants(self):
        t = 2400.0 + np.linspace(5 * 18000.0, 20 * 18000.0, 50)
        f = discharge_freq(t, PAPER_DISCHARGE)
        gaps = np.abs(f - 5.329e6)
        assert np.all(np.diff(gaps) <= 1e-12)

    def test_time_constant_ordering_enforced(self):
        with pytest.raises(ValueError):
            ChargingModelParams(1e3, 1e3, 900.0, 21.0, 0.0, 5.329e6)
        with pytest.raises(ValueError):
            DischargeModelParams(1e3, 1e3, 18000.0, 360.0, 0.0, 5.329e6)
        # equal time constants are a fit that holds one exponential, flagged
        # by the fitter, not an invalid model
        assert ChargingModelParams(1e3, 1e3, 900.0, 900.0, 0.0, 5.329e6).T1 == 900.0
        assert DischargeModelParams(1e3, 1e3, 360.0, 360.0, 0.0, 5.329e6).T3 == 360.0


class TestSettledQuantities:
    def test_settled_offset(self):
        assert settled_offset(PAPER_CHARGING) == pytest.approx(101e3)
        flat = ChargingModelParams(5e3, 5e3, 21.0, 900.0, 0.0, 5.329e6)
        assert settled_offset(flat) == 0.0

    def test_compensation_field_anchor(self):
        # 0.1 MHz offset <-> 2.4 kV/cm calibration pair
        assert compensation_field(0.1e6) == pytest.approx(2.4e5)
        assert compensation_field(0.0) == 0.0
        assert compensation_field(101e3) == pytest.approx(2.424e5)

    def test_duty_cycle_period(self):
        duty = DutyCycle(probe_time=15e-6, duty_fraction=0.0061)
        assert duty.cycle_period == pytest.approx(2.459e-3, rel=1e-3)

    def test_duty_fraction_bounds(self):
        with pytest.raises(ValueError):
            DutyCycle(15e-6, 0.0)
        with pytest.raises(ValueError):
            DutyCycle(15e-6, 1.5)


class TestChargingFit:
    @pytest.mark.parametrize("t_start, t_end", [
        (400.0, 2400.0), (400.0, None), (401.0, 2399.0), (-10.0, 1e9), (0.0, 0.0), (2400.0, 400.0), (5e3, None),
        (1e9, None), (0.0, math.inf),
    ])
    def test_window_is_the_samples_between_its_edges(self, t_start, t_end):
        # the window is cut by bisection; it holds the samples a mask on
        # t_start <= t <= t_end would, weights included
        series = criterion7_series(3)[0]
        t, f, w = charging._select(series, t_start, t_end)
        times = np.array(series.times)
        mask = (times >= t_start) & (times <= (math.inf if t_end is None else t_end))
        np.testing.assert_array_equal(t, times[mask])
        np.testing.assert_array_equal(f, np.array(series.freqs)[mask])
        np.testing.assert_array_equal(w, 1.0 / np.array(series.freq_errs)[mask])

    @pytest.mark.parametrize("t_start, t_end", [(math.nan, None), (math.inf, None), (-math.inf, 2400.0), (400.0, math.nan)])
    def test_window_that_is_not_a_span_of_time(self, t_start, t_end):
        # a bisection at NaN would take the whole record, and times since a
        # start of -inf are all infinite
        with pytest.raises(ValueError, match="a window must start at a finite time and end at a number"):
            charging._select(criterion7_series(3)[0], t_start, t_end)

    def test_noiseless_closed_loop(self):
        t = np.arange(400.0, 2400.0, 15.0)
        series = series_from_model(t, charging_freq(t, PAPER_CHARGING))
        p, report = fit_charging(series, 400.0)
        assert p.df1 == pytest.approx(151e3, rel=1e-6)
        assert p.df2 == pytest.approx(50e3, rel=1e-6)
        assert p.T1 == pytest.approx(21.0, rel=1e-6)
        assert p.T2 == pytest.approx(900.0, rel=1e-6)
        assert p.f0 == pytest.approx(5.329e6, rel=1e-9)
        assert report.extras["settled_offset"] == pytest.approx(101e3, rel=1e-6)

    def test_baseline_f0_mode(self):
        t = np.arange(0.0, 2400.0, 15.0)
        f = np.where(t < 400.0, 5.329e6, 0.0)
        mask = t >= 400.0
        f[mask] = charging_freq(t[mask], PAPER_CHARGING)
        series = series_from_model(t, f)
        p, report = fit_charging(series, 400.0, f0_mode="baseline")
        assert p.f0 == pytest.approx(5.329e6, rel=1e-12)
        assert report.extras["f0_fixed"] == 1.0

    def test_flat_series_flagged(self):
        rng = np.random.default_rng(3)
        t = np.arange(0.0, 2000.0, 15.0)
        f = 5.329e6 + rng.normal(0, 1e3, t.size)
        series = series_from_model(t, f, np.full(t.size, 1e3))
        p, report = fit_charging(series, 0.0)
        assert "amplitudes-consistent-with-zero" in report.flags or abs(
            settled_offset(p)
        ) < 3e3

    def test_insufficient_data(self):
        t = np.arange(400.0, 475.0, 15.0)
        series = series_from_model(t, charging_freq(t, PAPER_CHARGING))
        with pytest.raises(ValueError):
            fit_charging(series, 400.0)

    def test_parameter_round_trip_random_params(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            T1 = 10 ** rng.uniform(0.5, 2.0)
            T2 = T1 * rng.uniform(5.0, 50.0)
            df1 = rng.uniform(20e3, 300e3)
            df2 = rng.uniform(1e3, df1 * 0.8)
            truth = ChargingModelParams(df1, df2, T1, T2, 0.0, 5.329e6)
            t = np.linspace(0.0, 8 * T2, 300)
            series = series_from_model(t, charging_freq(t, truth))
            p, _ = fit_charging(series, 0.0)
            assert p.df1 == pytest.approx(df1, rel=1e-5)
            assert p.df2 == pytest.approx(df2, rel=1e-5)
            assert p.T1 == pytest.approx(T1, rel=1e-5)
            assert p.T2 == pytest.approx(T2, rel=1e-5)


    def test_offset_pull_width(self):
        # closed loop of acceptance criterion 7, charging fit only
        pulls = []
        for seed in range(200):
            series = simulate_charging_series(
                SimConfig(seed=seed, noise_floor=1e3), 15.0, (400.0, 2400.0), 5000.0
            )
            p, report = fit_charging(series, 400.0, t_end=2400.0, f0_mode="baseline")
            pulls.append((settled_offset(p) - 101e3) / report.extras["settled_offset_err"])
        assert abs(np.mean(pulls)) <= 0.25
        assert 0.8 <= np.std(pulls, ddof=1) <= 1.25


class TestDischargeFit:
    def test_noiseless_closed_loop(self):
        truth = PAPER_DISCHARGE
        t = np.arange(2400.0, 2400.0 + 5 * 18000.0, 60.0)
        series = series_from_model(t, discharge_freq(t, truth))
        p, _ = fit_discharge(series, 2400.0)
        assert p.df3 == pytest.approx(truth.df3, rel=1e-6)
        assert p.df4 == pytest.approx(truth.df4, rel=1e-6)
        assert p.T3 == pytest.approx(360.0, rel=1e-6)
        assert p.T4 == pytest.approx(18000.0, rel=1e-6)

    def test_truncated_window_weak_t4(self):
        rng = np.random.default_rng(1)
        t = np.arange(2400.0, 5000.0, 15.0)
        f = discharge_freq(t, PAPER_DISCHARGE) + rng.normal(0, 1e3, t.size)
        series = series_from_model(t, f, np.full(t.size, 1e3))
        _, report = fit_discharge(series, 2400.0)
        assert "weakly-identified:T4" in report.flags

    def test_unidentified_t4_flagged_at_ceiling(self):
        # closed loop of acceptance criterion 7: a 2600 s window after
        # turn-off cannot pin T4 = 18000 s, so it often runs to the ceiling
        at_bound = 0
        for seed in range(10):
            _, sub = criterion7_series(seed)
            p, report = fit_discharge(sub, 2400.0)
            ceiling = 1e3 * (sub.times[-1] - 2400.0)
            if "time-constant-at-bound:T4" in report.flags:
                at_bound += 1
                assert p.T4 == pytest.approx(ceiling, rel=1e-3)
                assert "weakly-identified:T4" in report.flags
                assert "weakly-identified:df4" in report.flags
            else:
                assert p.T4 < 0.99 * ceiling
            assert "time-constant-at-bound:T3" not in report.flags
        assert 0 < at_bound < 10

    def test_baseline_f0_is_the_record_before_the_light(self):
        # the points between light-on and t_off are the charged window, not
        # the level the field relaxes back to
        series, _ = criterion7_series(3)
        p, report = fit_discharge(series, 2400.0, f0_mode="baseline")
        dark = [f for t, f in zip(series.times, series.freqs) if t < 400.0]
        assert p.f0 == float(np.mean(dark))
        assert abs(p.f0 - 5.329e6) <= 3e3 / math.sqrt(len(dark))  # the mean's 3-sigma noise
        assert report.extras["f0_fixed"] == 1.0
        assert "time-constant-at-bound:T4" not in report.flags

    def test_default_f0_is_the_baseline_where_the_record_has_one(self):
        # the whole record has points before its first light-on; the part
        # after light-off, and a record whose light comes on at its first
        # sample, have none, and their f0 is fitted
        series, sub = criterion7_series(3)
        lit_first = dataclasses.replace(series, light_on_intervals=((series.times[0], 2400.0),))
        for record, mode in ((series, "baseline"), (sub, "fit"), (lit_first, "fit")):
            assert fit_discharge(record, 2400.0) == fit_discharge(record, 2400.0, f0_mode=mode)
        assert charging.fit_record(from_frequency_series(series), "discharge") == charging.fit_record(
            from_frequency_series(series), "discharge", f0_mode="baseline"
        )
        # a charging window keeps fitting f0 by default
        assert charging.fit_record(from_frequency_series(series), "charging") == charging.fit_record(
            from_frequency_series(series), "charging", f0_mode="fit"
        )

    def test_baseline_f0_needs_a_light_on_interval(self):
        # without one the charged window cannot be told from the baseline
        series, _ = criterion7_series(3)
        unlit = series_from_model(series.times, series.freqs, series.freq_errs)
        with pytest.raises(ValueError, match="no light_on interval"):
            fit_discharge(unlit, 2400.0, f0_mode="baseline")

    def test_baseline_t3_pull_width(self):
        # criterion 7's records, the discharge window fitted against the
        # record's pre-light baseline: T3's error is calibrated, and the
        # fixed f0 leaves T4 inside its bounds
        pulls, at_bound = [], 0
        for seed in range(200):
            series, _ = criterion7_series(seed)
            p, report = fit_discharge(series, 2400.0, f0_mode="baseline")
            pulls.append((p.T3 - 360.0) / report.param_errs["T3"])
            at_bound += "time-constant-at-bound:T4" in report.flags
        assert abs(np.mean(pulls)) <= 0.25
        assert 0.8 <= np.std(pulls, ddof=1) <= 1.25
        assert at_bound == 0

    def test_short_window_drops_seeds_below_the_floor(self, monkeypatch):
        # on 20 samples the floor, gap/ln(1/eps), lies above the grid's
        # smallest span fractions: those seeds are dropped, not clipped to
        # the floor after the prescreen ranked them at their unclipped costs
        given, polished = [], []
        multistart, lm = charging.multistart_least_squares, fitting.least_squares

        def recorded(fun, seeds, **kwargs):
            given.append((seeds, kwargs["bounds"], kwargs["costs"](), [float(r @ r) for r in map(fun, seeds)]))
            return multistart(fun, seeds, **kwargs)

        def polish(fun, x0, **kwargs):
            polished.append((np.asarray(x0), kwargs["bounds"]))
            return lm(fun, x0, **kwargs)

        monkeypatch.setattr(charging, "multistart_least_squares", recorded)
        monkeypatch.setattr(fitting, "least_squares", polish)
        rng = np.random.default_rng(2)
        t = 2400.0 + 15.0 * np.arange(20)
        truth = DischargeModelParams(-80e3, -26.4e3, 40.0, 400.0, 2400.0, 5.329e6)
        f = discharge_freq(t, truth) + rng.normal(0, 1e3, t.size)
        fit_discharge(series_from_model(t, f, np.full(t.size, 1e3)), 2400.0)
        (seeds, (floor, _), prescreened, want), = given
        assert floor == pytest.approx(math.log(15.0 / math.log(2.0**52)))
        kept = sum(math.log(a * 19 * 15.0) > floor for a in charging.TIME_CONSTANT_SEED_GRID)
        assert kept < len(charging.TIME_CONSTANT_SEED_GRID)
        # one (s, 2) array of the distinct pairs of the seeds above the floor
        assert seeds.shape == (kept * (kept - 1) // 2, 2)
        assert len(np.unique(seeds, axis=0)) == len(seeds)
        assert np.all((floor < seeds[:, 0]) & (seeds[:, 0] < seeds[:, 1]))
        # the prescreen, built from the kept grid and its index pairs, ranks
        # those seeds as per-seed solves do. Its costs are not compared: the
        # fastest pair (0.66 s, 1.4 s) against the 15 s gap has two columns
        # that are nearly the first sample alone, and there its Gram
        # reduction and the solve differ by ~2e-6 (relative)
        np.testing.assert_array_equal(np.argsort(prescreened), np.argsort(want))
        assert polished and all(np.min(x0) > lo for x0, (lo, _) in polished)


@pytest.mark.parametrize("k", [1e-3, 1e-2, 1e2, 1e3])
def test_fits_do_not_depend_on_the_time_unit(k):
    # criterion 7's records with the time axis and the light-on interval
    # scaled by k: the time constants scale by k, and nothing else moves
    def fits(k):
        out = []
        for seed in range(20):
            series, sub = criterion7_series(seed)
            scaled = series_from_model(np.asarray(series.times) * k, series.freqs, series.freq_errs)
            scaled_sub = series_from_model(np.asarray(sub.times) * k, sub.freqs, sub.freq_errs)
            out.append(fit_charging(scaled, 400.0 * k, t_end=2400.0 * k, f0_mode="baseline")[1])
            out.append(fit_discharge(scaled_sub, 2400.0 * k)[1])
        return out

    for want, got in zip(fits(1.0), fits(k)):
        assert got.flags == want.flags
        for name, value in want.params.items():
            unit = k if name.startswith("T") else 1.0
            assert abs(got.params[name] / unit - value) <= 1e-3 * want.param_errs[name], name


class TestProjection:
    """charging._projector's linear solve, its Jacobian and cache, and the
    multistart stop rule."""

    # (kind, truth as (dfa, dfb, Ta, Tb, f0), fix_f0); noiseless data at
    # the true time constants, where Kaufman's Jacobian is exact
    SETUPS = {
        "charging-f0-free": ("charging", (151e3, 50e3, 21.0, 900.0, 5.329e6), None),
        "charging-f0-fixed": ("charging", (151e3, 50e3, 21.0, 900.0, 5.329e6), 5.329e6),
        "discharge": ("discharge", (-80e3, -26.4e3, 360.0, 18000.0, 5.329e6), None),
    }

    @pytest.mark.parametrize("setup", list(SETUPS))
    def test_jacobian_matches_finite_difference(self, setup):
        kind, (dfa, dfb, Ta, Tb, f0), fix_f0 = self.SETUPS[setup]
        tau = np.arange(0.0, 5 * Tb, Tb / 100)
        if kind == "charging":
            f = f0 + dfa * (1 - np.exp(-tau / Ta)) - dfb * (1 - np.exp(-tau / Tb))
        else:
            f = f0 - dfa * np.exp(-tau / Ta) - dfb * np.exp(-tau / Tb)
        core, resid_fn, jac, _ = charging._projector(tau, f, np.full(tau.size, 1e-3), kind, fix_f0)
        log_T = np.log([Ta, Tb])
        lin, resid = core(log_T)[:2]
        assert lin[0] == pytest.approx(dfa, rel=1e-9)
        assert np.max(np.abs(resid)) < 1e-6
        h = 1e-5
        fd = np.column_stack([
            (resid_fn(log_T + h * np.eye(2)[k]) - resid_fn(log_T - h * np.eye(2)[k])) / (2 * h)
            for k in range(2)
        ])
        assert np.linalg.norm(jac(log_T) - fd) <= 1e-5 * np.linalg.norm(fd)

    @pytest.mark.parametrize("kind", ["charging", "discharge"])
    @pytest.mark.parametrize("Tb, rank", [(900.0, 3), (21.0, 2)])
    def test_linear_solve_matches_lstsq(self, kind, Tb, rank):
        # the closed-form solve gives np.linalg.lstsq's amplitudes, f0 and
        # residuals; with Ta == Tb the two basis columns coincide and both
        # give the minimum-norm split, |dfa| = |dfb|
        tau = np.arange(0.0, 4500.0, 15.0)
        f = 5.329e6 + 1e5 * (1 - np.exp(-tau / 300.0)) + np.random.default_rng(5).normal(0, 1e3, tau.size)
        w = np.full(tau.size, 1e-3)
        core, resid_fn, _, _ = charging._projector(tau, f, w, kind)
        log_T = np.log([21.0, Tb])
        lin, resid = core(log_T)[:2]
        e = np.exp(-tau[:, None] / np.array([21.0, Tb]))
        basis = [1 - e[:, 0], e[:, 1] - 1] if kind == "charging" else [-e[:, 0], -e[:, 1]]
        A = w[:, None] * np.column_stack(basis + [np.ones_like(tau)])
        want, _, got_rank, _ = np.linalg.lstsq(A, w * f, rcond=None)
        assert got_rank == rank
        np.testing.assert_allclose(lin, want, rtol=1e-9)
        np.testing.assert_allclose(resid, A @ want - w * f, rtol=0, atol=1e-6)
        np.testing.assert_array_equal(resid_fn(log_T), resid)
        if rank == 2:
            assert abs(lin[0]) == pytest.approx(abs(lin[1]), rel=1e-12)
            # a hair off the ridge the columns coincide to rounding, and the
            # amplitudes stay that split, not two huge ones that cancel
            np.testing.assert_allclose(core(np.log([21.0, 21.0 * (1 + 1e-10)]))[0], lin, rtol=1e-6)

    def test_one_solve_per_point(self, monkeypatch):
        # the residual at a new point costs one solve, one exponential of
        # the basis and no SVD; the Jacobian there reuses that solve. A whole
        # fit makes one SVD, the covariance's
        svd, svds, exps = np.linalg.svd, [], []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(a) or svd(*a, **k))
        tau = np.arange(0.0, 4500.0, 15.0)
        f = 5.329e6 + 151e3 * (1 - np.exp(-tau / 21.0)) - 50e3 * (1 - np.exp(-tau / 900.0))
        _, resid_fn, jac, _ = charging._projector(tau, f, None, "charging")
        with monkeypatch.context() as m:
            for name in ("exp", "expm1"):
                m.setattr(np, name, lambda *a, f=getattr(np, name), **k: exps.append(a) or f(*a, **k))
            for k, log_T in enumerate((np.log([21.0, 900.0]), np.log([30.0, 800.0])), start=1):
                resid_fn(log_T)
                assert len(exps) == k
                jac(log_T)
                assert len(exps) == k
        assert svds == []
        series, sub = criterion7_series(0)
        fit_charging(series, 400.0, t_end=2400.0, f0_mode="baseline")
        assert len(svds) == 1
        fit_discharge(sub, 2400.0)
        assert len(svds) == 2

    @pytest.mark.parametrize("setup", list(SETUPS))
    def test_stacked_costs_match_the_residuals(self, setup):
        # the prescreen ranks the seeds, each a pair of indices into a grid
        # of log T, as one solve per seed would; the last member has
        # Ta == Tb, where its second column is dropped. The prescreen takes
        # each cost as |y|^2 less the projections onto the columns, which
        # cancels to a relative error of about eps |y|^2 / cost: up to
        # 2e-11 on these stacks
        kind, (dfa, dfb, Ta, Tb, f0), fix_f0 = self.SETUPS[setup]
        tau = np.arange(0.0, 2.5 * Tb, 15.0)
        rng = np.random.default_rng(4)
        f = f0 + dfa * (1 - np.exp(-tau / Ta)) + rng.normal(0, 1e3, tau.size)
        _, resid_fn, _, costs = charging._projector(tau, f, np.full(tau.size, 1e-3), kind, fix_f0)
        grid = np.log([1.0, 10.0, Ta, 50.0, 0.1 * Tb, Tb, 3 * Tb, 5e4])
        pairs = np.array([[0, 1], [2, 5], [4, 6], [3, 7], [2, 2]])
        want = [float(r @ r) for r in map(resid_fn, grid[pairs])]
        got = costs(grid, pairs)
        np.testing.assert_array_equal(np.argsort(got), np.argsort(want))
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)

    def test_no_svd_in_the_prescreen(self, monkeypatch):
        # the multistart's prescreen ranks all 78 seed pairs of a criterion-7
        # window from one matrix product of the basis columns, without an SVD
        svd, calls, ranked = np.linalg.svd, [], []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a) or svd(*a, **k))
        multistart = charging.multistart_least_squares

        def recorded(fun, seeds, costs, **kwargs):
            def counted():
                before = len(calls)
                out = costs()
                ranked.append((len(out), len(calls) - before))
                return out

            return multistart(fun, seeds, costs=counted, **kwargs)

        monkeypatch.setattr(charging, "multistart_least_squares", recorded)
        series, sub = criterion7_series(0)
        fit_charging(series, 400.0, t_end=2400.0, f0_mode="baseline")
        fit_discharge(sub, 2400.0)
        assert ranked == [(78, 0), (78, 0)]

    def test_discharge_fits_stop_after_two_starts(self, monkeypatch):
        # criterion 7's seeds 0-199, counted on fitting.least_squares as
        # tools/fit_drift.py counts: no start may run Tb far below the first
        # sampling gap, where the basis column is the first sample alone and
        # the cost is well above the minimum, so most discharge fits stop
        # once their first two starts agree
        lm, nfev = fitting.least_squares, []

        def counted(*args, **kwargs):
            res = lm(*args, **kwargs)
            nfev.append(res.nfev)
            return res

        monkeypatch.setattr(fitting, "least_squares", counted)
        third = 0
        for seed in range(200):
            series, sub = criterion7_series(seed)
            fit_charging(series, 400.0, t_end=2400.0, f0_mode="baseline")
            before = len(nfev)
            fit_discharge(sub, 2400.0)
            third += len(nfev) - before >= 3
        assert third <= 5
        assert sum(nfev) <= 8600

    @staticmethod
    def polish_on_ridge(monkeypatch, offset):
        """Polish every start along the ridge Ta = Tb, where the cost is
        stationary, and end it offset (in log T) either side of the ridge.
        Returns the list the starts' seeds are appended to."""
        lm, starts = fitting.least_squares, []

        def on_ridge(fun, x0, jac, bounds):
            starts.append(x0)
            res = lm(
                lambda z: fun(np.repeat(z, 2)),
                [np.mean(x0)],
                jac=lambda z: jac(np.repeat(z, 2)).sum(axis=1, keepdims=True),
                bounds=bounds,
            )
            res.x = res.x + [-offset, offset]
            return res

        monkeypatch.setattr(fitting, "least_squares", on_ridge)
        return starts

    def test_starts_agreeing_at_coinciding_time_constants_are_flagged(self, monkeypatch):
        # starts stopped a hair off the ridge, as the real starts stop: two
        # starts reach the same cost and stop polishing, and the fit that
        # holds one exponential says so
        starts = self.polish_on_ridge(monkeypatch, 1e-7)
        _, report = fit_discharge(criterion7_series(2)[1], 2400.0)
        assert len(starts) == 2
        assert report.params["T3"] == pytest.approx(report.params["T4"], rel=1e-6)
        assert "time-constants-coincide" in report.flags

    def test_time_constants_exactly_equal_give_a_flagged_report(self, monkeypatch):
        # a fit that ends exactly on the ridge returns its report, flagged,
        # rather than failing the model's T3 <= T4 check
        self.polish_on_ridge(monkeypatch, 0.0)
        params, report = fit_discharge(criterion7_series(2)[1], 2400.0)
        assert params.T3 == params.T4 == report.params["T3"] == report.params["T4"]
        assert "time-constants-coincide" in report.flags
        report.to_json()  # strict JSON: every value finite

    def test_stop_rule_keeps_the_best_cost(self, monkeypatch):
        # criterion 7's seeds 0-19: the fits that stop once two starts agree
        # reach the cost of the fits that polish all three kept starts
        def costs():
            out = []
            for seed in range(20):
                series, sub = criterion7_series(seed)
                _, c = fit_charging(series, 400.0, t_end=2400.0, f0_mode="baseline")
                _, d = fit_discharge(sub, 2400.0)
                out += [c.residual_rms**2, d.residual_rms**2]
            return np.array(out)

        with_rule = costs()
        monkeypatch.setattr(fitting, "AGREE_RTOL", -math.inf)  # no two costs agree
        np.testing.assert_allclose(with_rule, costs(), rtol=1e-9, atol=0)


# charging._projector before its algebra moved into
# fitting.variable_projection, kept verbatim as the reference the shared
# core must match
def _reference_projector(tau, f, w, kind, fix_f0=None):
    """(core, resid, jac, costs) for the model of _fit_window at fixed
    time constants log_T. core(log_T) -> (lin, resid, J): the linear
    parameters (dfa, dfb, then f0 if free), the weighted residuals A lin - y
    and the weighted model's Jacobian in (dfa, dfb, log Ta, log Tb[, f0]).
    With w projected out of y once per fit, a point costs one matrix
    product: the basis columns' Gram matrix G less its part along w gives
    lin from G^-1, or where they coincide from G's pseudo-inverse
    G/tr(G)^2, as lstsq's minimum-norm split; with f0 free they are
    sign*(1 - e)*w from expm1, exact where T >> tau. jac builds Kaufman's
    Jacobian D - A (A^T A)^-1 A^T D, D = dA/dlog T lin, from the same cached
    solve, keyed by log_T as Python floats. costs(grid, pairs) gives
    |resid|^2 at (grid[i], grid[j]) for each row (i, j) of pairs from one
    Gram matrix of y and the weighted basis at the log T grid, reduced as
    solve reduces G; where two columns coincide, the second is dropped."""
    level = 1.0 if kind == "charging" else 0.0
    free = fix_f0 is None
    ntcol = -tau[:, None]
    wcol = (np.ones_like(tau) if w is None else w)[:, None]
    nsw = wcol * ([-1.0, 1.0] if kind == "charging" else [-1.0, -1.0])  # -sign*w
    ntsw = tau[:, None] * nsw  # -tau*sign*w
    target = wcol[:, 0] * (f if free else f - fix_f0)
    A = np.zeros((tau.size, 4))  # [the weighted basis, w (0 if f0 is fixed), y less its part along w]
    A[:, 2] = wcol[:, 0] * free
    ww = float(A[:, 2] @ A[:, 2]) or 1.0
    f0_y = float(A[:, 2] @ target) / ww  # the f0 that fits y alone
    A[:, 3] = target - f0_y * A[:, 2]
    Bw, design = A[:, :2], A[:, :3]
    shift = 0.0 if free else level - 1.0  # a basis column is (em1 - shift)*(-sign*w)
    cutoff = np.finfo(float).eps * max(A.shape)

    @functools.lru_cache(maxsize=1)
    def solve(log_T):
        k = [math.exp(-log_T[0]), math.exp(-log_T[1])]  # 1/T
        em1 = np.expm1(ntcol * k)
        np.multiply(em1 - shift if shift else em1, nsw, out=Bw)
        (g00, g01, p0, h0), (_, g11, p1, h1) = (Bw.T @ A).tolist()
        q0, q1 = p0 / ww, p1 / ww  # each column's part along w
        g00, g01, g11 = g00 - q0 * p0, g01 - q0 * p1, g11 - q1 * p1
        det, t2 = g00 * g11 - g01 * g01, (g00 + g11) ** 2 or 1.0
        # G^-1, or where the columns coincide (where costs drops the second) G's pseudo-inverse
        inv = (g11 / det, -g01 / det, g00 / det) if det > cutoff * g00 * g11 else (g00 / t2, g01 / t2, g11 / t2)
        c0, c1 = inv[0] * h0 + inv[1] * h1, inv[1] * h0 + inv[2] * h1
        df0 = -q0 * c0 - q1 * c1
        lin = [c0, c1, f0_y + df0 + (1.0 - level) * (c0 + c1)]  # the discharge's -e*w is (1 - e)*w - w
        return lin[: 2 + free], A @ [c0, c1, df0, -1.0], (*inv, q0, q1), em1, k

    def core(log_T):
        lin, resid, _, em1, k = solve(tuple(log_T.tolist()))
        D = (em1 + 1.0) * (ntsw * [k[0] * lin[0], k[1] * lin[1]])
        return lin, resid, np.hstack([(em1 + 1.0 - level) * nsw, D, wcol])[:, : 4 + free]

    def jac(log_T):
        lin, _, (i00, i01, i11, q0, q1), em1, k = solve(tuple(log_T.tolist()))
        D = (em1 + 1.0) * (ntsw * [k[0] * lin[0], k[1] * lin[1]])  # (dA/dlog T) lin
        u0, u1 = i00 * q0 + i01 * q1, i01 * q0 + i11 * q1  # (A^T A)^-1: the 2x2 inverse bordered by w's part
        inv = [[i00, i01, -u0], [i01, i11, -u1], [-u0, -u1, 1.0 / ww + q0 * u0 + q1 * u1]]
        return D - design @ (np.array(inv) @ (design.T @ D))

    def costs(grid, pairs):
        X = np.concatenate([(level - np.exp(ntcol * np.exp(-grid))) * wcol, target[:, None]], axis=1)
        if free:  # project out the f0 column
            X -= wcol @ (wcol.T @ X) / ww
        G = X.T @ X
        a, b = pairs.T
        ya, gab, gaa = G[a, -1], G[a, b], G[a, a]
        yb, gbb = G[b, -1] - gab * ya / gaa, G[b, b] - gab * gab / gaa  # b less its part along a
        keep = gbb > cutoff * G[b, b]  # where the columns coincide, b is dropped as solve drops it
        return G[-1, -1] - ya * ya / gaa - np.divide(yb * yb, gbb, out=np.zeros_like(gbb), where=keep)

    return core, lambda log_T: solve(tuple(log_T.tolist()))[1], jac, costs


def _criterion7_windows(seed):
    """Yields (tau, f, w, kind, fix_f0) of criterion 7's charging window at the
    baseline and at a free f0, and of its discharge window at a free f0,
    as the criterion fits it, and at the baseline."""
    series, sub = criterion7_series(seed)
    baseline = float(np.mean(series.freqs[: bisect.bisect_left(series.times, 400.0)]))
    for s, t_start, t_end, kind, fix_f0 in (
        (series, 400.0, 2400.0, "charging", baseline),
        (series, 400.0, 2400.0, "charging", None),
        (sub, 2400.0, None, "discharge", None),
        (series, 2400.0, None, "discharge", baseline),
    ):
        t, f, w = charging._select(s, t_start, t_end)
        yield t - t_start, f, w, kind, fix_f0


def test_projector_matches_the_reference():
    # criterion 7's seeds 0-19: the residuals, linear parameters, Kaufman
    # Jacobian and model Jacobian at a sixth of the seed pairs and at a
    # point where the columns coincide (the pseudo-inverse), and the
    # prescreen's costs, which rank the pairs in the same order. The
    # reference took the prescreen's columns as 1 - exp(-tau/T), the
    # solve's from expm1; both now come from expm1, and each cost, |y|^2
    # less its projections, moves by up to 4e-12 (relative) with them
    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    for seed in range(20):
        for tau, f, w, kind, fix_f0 in _criterion7_windows(seed):
            new, ref = charging._projector(tau, f, w, kind, fix_f0), _reference_projector(tau, f, w, kind, fix_f0)
            grid = np.log(np.array(charging.TIME_CONSTANT_SEED_GRID) * tau[-1])
            pairs = charging._seed_pairs(grid.size)
            got, want = new[3](grid, pairs), ref[3](grid, pairs)
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=0)
            np.testing.assert_array_equal(np.argsort(got, kind="stable"), np.argsort(want, kind="stable"))
            for log_T in (*grid[pairs[::6]], grid[[4, 4]]):
                (lin, resid, J), (want_lin, want_resid, want_J) = new[0](log_T), ref[0](log_T)
                close(resid, want_resid)
                np.testing.assert_allclose(lin, want_lin, rtol=1e-12, atol=0)
                close(J, want_J)
                close(new[2](log_T), ref[2](log_T))
                np.testing.assert_array_equal(new[1](log_T), resid)


def _four_window_fits(seed):
    """The fits of criterion 7's charging window at the baseline and at a
    free f0, and of its discharge window at a free f0, as the criterion
    fits it, and at the baseline, each as a callable."""
    series, sub = criterion7_series(seed)
    return (
        functools.partial(fit_charging, series, 400.0, t_end=2400.0, f0_mode="baseline"),
        functools.partial(fit_charging, series, 400.0, t_end=2400.0, f0_mode="fit"),
        functools.partial(fit_discharge, sub, 2400.0),
        functools.partial(fit_discharge, series, 2400.0, f0_mode="baseline"),
    )


def _same_fit(got, want):
    assert got[0] == want[0]
    assert got[1].to_json() == want[1].to_json()


class TestSamplingCache:
    """charging._sampling: the fit set-up a window's sampling alone fixes,
    kept for the last SAMPLING_CACHE_SIZE samplings."""

    def test_warm_fit_equals_a_cold_one(self):
        # criterion 7's four window types, seeds 0-19: a fit that reuses the
        # set-up gives the cold fit's parameters and report to the bit
        for seed in range(20):
            for fit in _four_window_fits(seed):
                charging._sampling.cache_clear()
                cold = fit()
                hits = charging._sampling.cache_info().hits
                _same_fit(fit(), cold)
                assert charging._sampling.cache_info().hits == hits + 1

    def test_a_sampling_is_its_times_errors_start_and_f0(self):
        # records that share times but not errors, or both but not the
        # window's start, or whose f0 is fixed where the other's is free,
        # never share an entry: each fits as it does cold. So does an
        # unweighted record on the same times
        series = criterion7_series(0)[0]
        errs = tuple(2e3 if i % 2 else e for i, e in enumerate(series.freq_errs))
        fits = [
            functools.partial(fit_charging, series, 400.0, t_end=2400.0, f0_mode="baseline"),
            functools.partial(fit_charging, dataclasses.replace(series, freq_errs=errs), 400.0, t_end=2400.0, f0_mode="baseline"),
            functools.partial(fit_charging, dataclasses.replace(series, freq_errs=None), 400.0, t_end=2400.0, f0_mode="baseline"),
            # the first sample after 400 s and after 401 s is 405 s: the same times, another start
            functools.partial(fit_charging, series, 401.0, t_end=2400.0, f0_mode="baseline"),
            functools.partial(fit_charging, series, 400.0, t_end=2400.0, f0_mode="fit"),
        ]
        cold = []
        for fit in fits:
            charging._sampling.cache_clear()
            cold.append(fit())
        charging._sampling.cache_clear()
        for k, (fit, want) in enumerate(zip(fits, cold), start=1):
            _same_fit(fit(), want)
            assert charging._sampling.cache_info().currsize == min(k, charging.SAMPLING_CACHE_SIZE)
        assert charging._sampling.cache_info().hits == 0

    def test_cached_arrays_are_read_only(self):
        series = criterion7_series(0)[0]
        window = charging._window(series, 400.0, 2400.0)
        for kind, free in (("charging", True), ("charging", False), ("discharge", True), ("discharge", False)):
            entry = charging._sampling(series.times[window], series.freq_errs[window], 400.0, kind, free)
            arrays, todo = [], list(entry)
            while todo:
                item = todo.pop()
                if isinstance(item, tuple):
                    todo.extend(item)
                elif isinstance(item, np.ndarray):
                    arrays.append(item)
            assert len(arrays) == 9  # tau, w, three basis inputs, grid, pairs, seeds, the grid columns
            assert not any(a.flags.writeable for a in arrays)

    def test_entries_are_bounded(self):
        # 50 distinct samplings, each window one sample shorter than the last
        series = criterion7_series(0)[0]
        charging._sampling.cache_clear()
        for k in range(50):
            fit_charging(series, 400.0, t_end=2400.0 - 15.0 * k, f0_mode="baseline")
        info = charging._sampling.cache_info()
        assert info.misses == 50
        assert info.currsize <= info.maxsize == charging.SAMPLING_CACHE_SIZE < 50

    def test_overflowing_window_is_out_of_range(self):
        # a fit that fails because the window's weighted frequencies or its
        # time span overflow is a validation error that names the window
        series = criterion7_series(0)[0]
        tiny = dataclasses.replace(series, freq_errs=tuple(1e-300 * e for e in series.freq_errs))
        with pytest.raises(ValueError, match=r"the discharge window \[2400\.0, end\] s: the sum of its squared weighted frequencies overflows"):
            fit_discharge(tiny, 2400.0)
        huge = dataclasses.replace(series, freqs=tuple(1e300 * f for f in series.freqs))
        with pytest.raises(ValueError, match=r"the charging window \[400\.0, 2400\.0\] s: the sum of its squared"):
            fit_charging(huge, 400.0, t_end=2400.0)
        times = tuple(-1.5e308 * (1 - k / 30) for k in range(60))
        wide = series_from_model(times, series.freqs[:60], series.freq_errs[:60])
        with pytest.raises(ValueError, match=r"the discharge window \[-1\.5e\+308, end\] s: the time span x 1000 overflows"):
            fit_discharge(wide, times[0])

    def test_overflowing_record_that_converges_still_fits(self):
        # the squared frequencies of an unweighted record at ~1e160 Hz
        # overflow, but its fit converges: it is reported, not refused
        t = 2400.0 + 15.0 * np.arange(60)
        f = discharge_freq(t, PAPER_DISCHARGE) + np.random.default_rng(0).normal(0, 1e3, t.size)
        _, report = fit_discharge(series_from_model(t, 1e160 * f), 2400.0)
        assert report.n_points == 60


class TestSettledStability:
    def _settled_series(self, sigma, seed=0, n=240):
        t = np.arange(0.0, n * 15.0, 15.0) + settled_window_start(PAPER_CHARGING)
        f = charging_freq(t, PAPER_CHARGING)
        if sigma > 0:
            f = f + np.random.default_rng(seed).normal(0, sigma, t.size)
        return series_from_model(t, f)

    def test_noiseless_sigma_zero(self):
        series = self._settled_series(0.0)
        out = settled_stability(
            series,
            lambda t: charging_freq(t, PAPER_CHARGING),
            (series.times[0], series.times[-1]),
        )
        assert out.sigma == pytest.approx(0.0, abs=1e-9)

    def test_recovers_injected_sigma(self):
        series = self._settled_series(0.9e3, seed=7)
        out = settled_stability(
            series,
            lambda t: charging_freq(t, PAPER_CHARGING),
            (series.times[0], series.times[-1]),
        )
        assert out.sigma == pytest.approx(0.9e3, rel=0.15)

    def test_leftover_transient_flagged(self):
        # model missing a decaying transient leaves skewed residuals
        series = self._settled_series(0.9e3, seed=3)
        t0 = series.times[0]
        out = settled_stability(
            series,
            lambda t: charging_freq(t, PAPER_CHARGING) - 5e3 * np.exp(-(t - t0) / 300.0),
            (series.times[0], series.times[-1]),
        )
        assert "residuals-non-normal" in out.flags

    def test_settled_window_default(self):
        assert settled_window_start(PAPER_CHARGING) == pytest.approx(400.0 + 5 * 900.0)
