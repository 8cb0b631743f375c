import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from conftest import cli_env
from trapkit import simulate
from trapkit.charging import (
    ChargingModelParams,
    DischargeModelParams,
    FrequencySeries,
    charging_freq,
    discharge_freq,
    fit_discharge,
)
from trapkit.simulate import (
    STREAM_CHARGING,
    STREAM_SIDEBAND_BLUE,
    SimConfig,
    point_rng,
    simulate_charging_series,
    simulate_heating_series,
    simulate_position_scan,
    simulate_sideband_scan,
)
from trapkit.thermometry import RabiParams, nbar_with_uncertainty, sideband_excitation, ThermalMotionalState
from trapkit.beam import GratingOutputModel
from trapkit.units import TWO_PI



class TestPointRng:
    def test_same_key_same_stream(self):
        a = point_rng(42, STREAM_CHARGING, 7).random(5)
        b = point_rng(42, STREAM_CHARGING, 7).random(5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_keys_differ(self):
        base = point_rng(42, STREAM_CHARGING, 7).random(5)
        assert not np.array_equal(base, point_rng(43, STREAM_CHARGING, 7).random(5))
        assert not np.array_equal(base, point_rng(42, STREAM_SIDEBAND_BLUE, 7).random(5))
        assert not np.array_equal(base, point_rng(42, STREAM_CHARGING, 8).random(5))


class TestSidebandScan:
    def test_deterministic(self):
        cfg = SimConfig(seed=5)
        a = simulate_sideband_scan(cfg, 1e-3, index=3)
        b = simulate_sideband_scan(cfg, 1e-3, index=3)
        assert (a.p_red, a.p_blue) == (b.p_red, b.p_blue)

    def test_analytic_mode_matches_model(self):
        cfg = SimConfig(seed=0, shots_per_point=None)
        obs = simulate_sideband_scan(cfg, 2e-3)
        state = ThermalMotionalState(cfg.initial_nbar + cfg.heating_rate * 2e-3)
        assert obs.shots is None
        assert obs.p_blue == pytest.approx(
            sideband_excitation(state, cfg.rabi, cfg.probe_time, +1), rel=1e-12
        )
        assert obs.p_red == pytest.approx(
            sideband_excitation(state, cfg.rabi, cfg.probe_time, -1), rel=1e-12
        )

    def test_analytic_nbar_exact(self):
        cfg = SimConfig(seed=0, shots_per_point=None)
        obs = simulate_sideband_scan(cfg, 1e-3)
        nbar, err = nbar_with_uncertainty(obs)
        assert nbar == pytest.approx(cfg.initial_nbar + 780.0 * 1e-3, rel=1e-9)
        assert err == 0.0

    def test_binomial_spread(self):
        # std of the drawn blue probability across many indices matches
        # sqrt(p(1-p)/shots) at the analytic excitation
        cfg = SimConfig(seed=1, shots_per_point=500)
        exact = simulate_sideband_scan(
            SimConfig(seed=1, shots_per_point=None), 0.0
        )
        draws = [
            simulate_sideband_scan(cfg, 0.0, index=i).p_blue for i in range(10000)
        ]
        want = np.sqrt(exact.p_blue * (1 - exact.p_blue) / 500)
        assert np.std(draws) == pytest.approx(want, rel=0.05)
        assert np.mean(draws) == pytest.approx(exact.p_blue, abs=3 * want / 100)

    def test_negative_wait_rejected(self):
        with pytest.raises(ValueError):
            simulate_sideband_scan(SimConfig(), -1.0)


class TestHeatingSeries:
    def test_deterministic(self):
        waits = np.linspace(0, 2e-3, 8).tolist()
        a = simulate_heating_series(SimConfig(seed=3), waits)
        b = simulate_heating_series(SimConfig(seed=3), waits)
        assert a.nbar == b.nbar
        assert a.nbar_err == b.nbar_err

    def test_schedule_independent_points(self):
        # a point's value depends only on (seed, index), not on which other
        # points were generated
        full = simulate_heating_series(SimConfig(seed=4), [0.0, 1e-3, 2e-3])
        obs = simulate_sideband_scan(SimConfig(seed=4), 1e-3, index=1)
        nbar, _ = nbar_with_uncertainty(obs)
        assert full.nbar[1] == pytest.approx(nbar, rel=1e-12)

    def test_analytic_mode_is_exact_line(self):
        cfg = SimConfig(seed=0, shots_per_point=None)
        waits = np.linspace(0, 2e-3, 6)
        series = simulate_heating_series(cfg, waits.tolist())
        np.testing.assert_allclose(
            series.nbar, cfg.initial_nbar + cfg.heating_rate * waits, rtol=1e-9
        )
        assert series.nbar_err is None

    def test_repeated_wait_times_rejected_before_line_fit(self, capfd):
        # the preliminary line fit through equal wait times would make
        # LAPACK print to file descriptor 1 and fail with an SVD error
        with pytest.raises(ValueError, match="wait_times must be strictly increasing"):
            simulate_heating_series(SimConfig(seed=0), [0.0, 0.0, 0.0])
        assert capfd.readouterr().out == ""


class TestChargingSeries:
    def test_noiseless_matches_models(self):
        cfg = SimConfig(seed=0, noise_floor=0.0)
        series = simulate_charging_series(cfg, 30.0, (400.0, 2400.0), 4000.0)
        t = np.asarray(series.times)
        f = np.asarray(series.freqs)
        base = t < 400.0
        np.testing.assert_allclose(f[base], cfg.charging.f0)
        on = (t >= 400.0) & (t < 2400.0)
        np.testing.assert_allclose(f[on], charging_freq(t[on], cfg.charging), rtol=1e-12)
        assert series.light_on_intervals == ((400.0, 2400.0),)
        # discharge segment is continuous with the charging curve at t_off
        i_off = int(np.argmax(t >= 2400.0))
        assert f[i_off] == pytest.approx(charging_freq(2400.0, cfg.charging), rel=1e-9)

    def test_discharge_segment_round_trip(self):
        cfg = SimConfig(seed=0, noise_floor=0.0)
        series = simulate_charging_series(cfg, 60.0, (400.0, 2400.0), 90000.0)
        t = np.asarray(series.times)
        f = np.asarray(series.freqs)
        after = t >= 2400.0
        from trapkit.charging import FrequencySeries

        sub = FrequencySeries(
            tuple(t[after].tolist()), tuple(f[after].tolist()), None, ()
        )
        p, _ = fit_discharge(sub, 2400.0)
        assert p.T3 == pytest.approx(cfg.discharge.T3, rel=1e-4)
        assert p.T4 == pytest.approx(cfg.discharge.T4, rel=1e-4)

    def test_empty_light_window_stays_at_f0(self):
        cfg = SimConfig(seed=0, noise_floor=0.0)
        series = simulate_charging_series(cfg, 30.0, (400.0, 400.0), 3000.0)
        assert set(series.freqs) == {cfg.charging.f0}
        assert series.light_on_intervals == ()

    @pytest.mark.parametrize("interval", [40.0, 30.0], ids=["on-grid", "off-grid"])
    def test_light_window_ending_at_total(self, interval):
        # on the grid the last sample starts the discharge; off it no sample does
        cfg = SimConfig(seed=0, noise_floor=0.0)
        series = simulate_charging_series(cfg, interval, (400.0, 4000.0), 4000.0)
        t, f = np.asarray(series.times), np.asarray(series.freqs)
        on = t >= 400.0
        np.testing.assert_allclose(f[on], charging_freq(t[on], replace(cfg.charging, t_on=400.0)), rtol=1e-12)
        assert np.all(f[~on] == cfg.charging.f0)
        assert series.light_on_intervals == ((400.0, 4000.0),)

    @pytest.mark.parametrize("interval, total, n", [(30.0, 4010.0, 134), (0.1, 1.0, 11)], ids=["off-grid", "on-grid"])
    def test_record_ends_at_total(self, interval, total, n):
        # 4010 s is off the 30 s grid, whose next step, 4020 s, passes it;
        # 10 * 0.1 is 1.0 exactly, though 1.0 // 0.1 is 9
        series = simulate_charging_series(SimConfig(seed=0, noise_floor=0.0), interval, (0.0, 0.5 * total), total)
        assert series.times == tuple(interval * k for k in range(n))

    def test_noise_floor_zero_is_the_model_exactly(self):
        cfg = SimConfig(seed=4, noise_floor=0.0)
        t_on, t_off = 300.0, 2000.0
        series = simulate_charging_series(cfg, 15.0, (t_on, t_off), 5000.0)
        assert series.freq_errs is None
        t, f = np.asarray(series.times), np.asarray(series.freqs)
        charge = replace(cfg.charging, t_on=t_on)
        # the discharge amplitudes scaled to join the charging curve at t_off
        scale = -(charging_freq(t_off, charge) - charge.f0) / (cfg.discharge.df3 + cfg.discharge.df4)
        dis = replace(cfg.discharge, df3=cfg.discharge.df3 * scale, df4=cfg.discharge.df4 * scale, t_off=t_off)
        on, after = (t >= t_on) & (t < t_off), t >= t_off
        assert np.all(f[t < t_on] == charge.f0)
        np.testing.assert_array_equal(f[on], charging_freq(t[on], charge))
        np.testing.assert_array_equal(f[after], discharge_freq(t[after], dis))

    def test_noise_is_seeded(self):
        a = simulate_charging_series(SimConfig(seed=8), 30.0, (400.0, 2400.0), 3000.0)
        b = simulate_charging_series(SimConfig(seed=8), 30.0, (400.0, 2400.0), 3000.0)
        c = simulate_charging_series(SimConfig(seed=9), 30.0, (400.0, 2400.0), 3000.0)
        assert a.freqs == b.freqs
        assert a.freqs != c.freqs

    def test_bad_window(self):
        with pytest.raises(ValueError):
            simulate_charging_series(SimConfig(), 30.0, (2400.0, 400.0), 4000.0)
        with pytest.raises(ValueError):
            simulate_charging_series(SimConfig(), 0.0, (0.0, 10.0), 100.0)


def _reference_charging_series(cfg, sample_interval, on_window, total):
    """simulate_charging_series as it was before it kept its curves, kept
    verbatim as the reference the cached record must match."""
    t_on, t_off = on_window
    times = np.arange(0.0, total + 0.5 * sample_interval, sample_interval)
    times = times[times <= total]
    charge_p = replace(cfg.charging, t_on=t_on)
    freqs = np.full_like(times, charge_p.f0)
    on = (times >= t_on) & (times < t_off)
    freqs[on] = charging_freq(times[on], charge_p)
    scale = -(charging_freq(t_off, charge_p) - charge_p.f0) / (cfg.discharge.df3 + cfg.discharge.df4)
    dis_p = replace(cfg.discharge, df3=cfg.discharge.df3 * scale, df4=cfg.discharge.df4 * scale, t_off=t_off, f0=charge_p.f0)
    after = times >= t_off
    freqs[after] = discharge_freq(times[after], dis_p)
    freqs = freqs + point_rng(cfg.seed, STREAM_CHARGING).normal(0.0, cfg.noise_floor, times.size)
    errs = None if cfg.noise_floor == 0 else tuple([cfg.noise_floor] * times.size)
    intervals = ((t_on, t_off),) if t_off > t_on else ()
    return FrequencySeries(tuple(times.tolist()), tuple(freqs.tolist()), freq_errs=errs, light_on_intervals=intervals)


class TestChargingCurveCache:
    """simulate._charging_curve: a record's times and noise-free curve,
    kept for the last CURVE_CACHE_SIZE samplings."""

    # (cadence, light window, total): criterion 7's, the same on a longer
    # record, an empty window, a window ending at total, an off-grid end
    CASES = [
        (15.0, (400.0, 2400.0), 5000.0),
        (15.0, (400.0, 2400.0), 6000.0),
        (30.0, (400.0, 400.0), 3000.0),
        (40.0, (400.0, 4000.0), 4000.0),
        (30.0, (0.0, 2005.0), 4010.0),
    ]

    def test_records_match_the_reference(self):
        # every case, cold and then warm, for seeds that share each sampling
        # and for a record without noise
        simulate._charging_curve.cache_clear()
        for interval, window, total in self.CASES:
            for cfg in (SimConfig(seed=0), SimConfig(seed=1, noise_floor=1e3), SimConfig(seed=2, noise_floor=0.0)) * 2:
                got = simulate_charging_series(cfg, interval, window, total)
                assert repr(got) == repr(_reference_charging_series(cfg, interval, window, total))
        info = simulate._charging_curve.cache_info()
        assert (info.misses, info.hits) == (len(self.CASES), 5 * len(self.CASES))

    def test_curves_are_read_only_and_bounded(self):
        simulate._charging_curve.cache_clear()
        for k in range(50):
            simulate_charging_series(SimConfig(seed=k), 15.0, (400.0, 2400.0), 5000.0 + k)
        info = simulate._charging_curve.cache_info()
        assert info.misses == 50
        assert info.currsize <= info.maxsize == simulate.CURVE_CACHE_SIZE < 50
        times, curve = simulate._charging_curve(SimConfig.charging, SimConfig.discharge, 15.0, 400.0, 2400.0, 5000.0)
        assert isinstance(times, tuple) and not curve.flags.writeable


class TestPositionScan:
    def test_deterministic(self):
        beam = GratingOutputModel(mode="single-gaussian", waist=2.5e-6, center=11e-6)
        x = np.linspace(5e-6, 17e-6, 20).tolist()
        a = simulate_position_scan(SimConfig(seed=2), beam, x)
        b = simulate_position_scan(SimConfig(seed=2), beam, x)
        assert a.rabi == b.rabi

    def test_noiseless_peak_value(self):
        beam = GratingOutputModel(mode="single-gaussian", waist=2.5e-6, center=11e-6)
        cfg = SimConfig(seed=0, rabi_noise_frac=0.0)
        scan = simulate_position_scan(cfg, beam, [10e-6, 11e-6, 12e-6])
        assert scan.rabi[1] == pytest.approx(2 * np.pi * 121.1e3, rel=1e-12)
        assert scan.rabi_err is None

    def test_non_monotonic_positions_rejected(self):
        beam = GratingOutputModel(mode="single-gaussian", waist=2.5e-6)
        with pytest.raises(ValueError, match="positions must be strictly increasing"):
            simulate_position_scan(SimConfig(), beam, [0.0, 2e-6, 1e-6])


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            SimConfig(shots_per_point=0)
        with pytest.raises(ValueError):
            SimConfig(initial_nbar=-1.0)
        with pytest.raises(ValueError):
            SimConfig(heating_rate=-1.0)

    def test_probe_time_default(self):
        cfg = SimConfig()
        assert cfg.probe_time == pytest.approx(
            np.pi / (cfg.rabi.base_rabi * cfg.rabi.lamb_dicke)
        )

    @pytest.mark.parametrize("first", ["charging", "discharge", "rabi"])
    def test_simulated_trap_in_any_read_order(self, first):
        """SimConfig builds each value of the simulated trap on its first
        read and then holds it as a plain class attribute; in a fresh
        interpreter the values do not depend on which is read first."""
        script = (
            "from trapkit.simulate import SimConfig\n"
            f"value = getattr(SimConfig(), {first!r})\n"
            f"assert vars(SimConfig)[{first!r}] is value is getattr(SimConfig, {first!r})\n"
            "print(repr((SimConfig().charging, SimConfig().discharge, SimConfig().rabi)))\n"
        )
        env = cli_env()
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        charging = ChargingModelParams(df1=151e3, df2=50e3, T1=21.0, T2=900.0, t_on=400.0, f0=5.329e6)
        discharge = DischargeModelParams(
            df3=-0.75 * (charging_freq(2400.0, charging) - charging.f0),
            df4=-0.25 * (charging_freq(2400.0, charging) - charging.f0),
            T3=360.0, T4=18000.0, t_off=2400.0, f0=charging.f0,
        )
        rabi = RabiParams(base_rabi=TWO_PI * 200e3, lamb_dicke=0.1)
        assert proc.stdout == repr((charging, discharge, rabi)) + "\n"
