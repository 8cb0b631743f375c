"""Seeded synthetic-experiment generator for closed-loop fit testing.

Randomness comes from the counter-based Philox generator keyed by
(seed, stream, point index), so every simulated point is reproducible
independently of evaluation order and safe to generate concurrently.

Each simulator imports the domain module of the record it makes, so a
heating or sideband record loads thermometry (and heating), a charging
record charging and fitting, and a position scan beam and fitting.

A charging record's times and noise-free curve are kept, read-only, for the
last CURVE_CACHE_SIZE samplings, so a closed loop pays for its noise alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .units import TWO_PI

# stream tags keep the per-experiment generators independent
STREAM_SIDEBAND_RED = 1
STREAM_SIDEBAND_BLUE = 2
STREAM_CHARGING = 3
STREAM_POSITION = 4

# (trap, cadence, light window, total) samplings whose curve _charging_curve keeps
CURVE_CACHE_SIZE = 4


def point_rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    """Philox generator for one simulated point; splittable by index."""
    key = (int(seed) & (2**64 - 1)) << 64 | ((stream & 0xFFFF) << 32 | (index & 0xFFFFFFFF))
    return np.random.Generator(np.random.Philox(key=key))


class _BuiltOnFirstRead:
    """A class attribute that build(cls) makes on its first read; the value
    then takes the descriptor's place, so later reads are plain lookups."""

    def __init__(self, build):
        self.build = build

    def __get__(self, obj, cls):
        setattr(cls, self.build.__name__, self.build(cls))
        return getattr(cls, self.build.__name__)


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    shots_per_point: int | None = 500  # None means analytic (infinite shots)
    initial_nbar: float = 0.1
    heating_rate: float = 780.0  # quanta/s
    noise_floor: float = 1e3  # Hz, charging-measurement noise
    rabi_noise_frac: float = 0.05

    # the simulated trap, the same for every configuration; each value is
    # built on its first read, so only the simulator that reads it loads its module
    @_BuiltOnFirstRead
    def rabi(cls):
        from .thermometry import RabiParams
        return RabiParams(base_rabi=TWO_PI * 200e3, lamb_dicke=0.1)

    @_BuiltOnFirstRead
    def charging(cls):
        from .charging import ChargingModelParams
        return ChargingModelParams(df1=151e3, df2=50e3, T1=21.0, T2=900.0, t_on=400.0, f0=5.329e6)

    @_BuiltOnFirstRead
    def discharge(cls):
        # amplitudes continuous with the charging curve at t_off=2400 s
        from .charging import DischargeModelParams, charging_freq
        jump = charging_freq(2400.0, cls.charging) - cls.charging.f0
        return DischargeModelParams(df3=-0.75 * jump, df4=-0.25 * jump, T3=360.0, T4=18000.0, t_off=2400.0, f0=cls.charging.f0)

    def __post_init__(self):
        if self.shots_per_point is not None and self.shots_per_point < 1:
            raise ValueError("shots_per_point must be >= 1")
        if self.initial_nbar < 0:
            raise ValueError("initial_nbar must be >= 0")
        if self.heating_rate < 0:
            raise ValueError("heating_rate must be >= 0")
        if self.noise_floor < 0:
            raise ValueError("noise_floor must be >= 0")

    @property
    def probe_time(self) -> float:
        # roughly a blue-sideband pi-pulse from n=0
        return math.pi / (self.rabi.base_rabi * self.rabi.lamb_dicke)


def _expected_observation(cfg: SimConfig, nbar: float) -> SidebandObservation:
    """Noise-free red/blue sideband probe of a thermal state of mean nbar."""
    from . import thermometry

    state = thermometry.ThermalMotionalState(nbar)
    t = cfg.probe_time
    p_blue = thermometry.sideband_excitation(state, cfg.rabi, t, +1)
    p_red = thermometry.sideband_excitation(state, cfg.rabi, t, -1)
    return thermometry.SidebandObservation(t, p_red, p_blue, shots=cfg.shots_per_point)


def simulate_sideband_scan(cfg: SimConfig, wait_time: float, index: int = 0) -> SidebandObservation:
    """One red/blue sideband probe after the given heating wait."""
    if wait_time < 0:
        raise ValueError("wait_time must be >= 0")
    expected = _expected_observation(cfg, cfg.initial_nbar + cfg.heating_rate * wait_time)
    if cfg.shots_per_point is None:
        return expected
    shots = cfg.shots_per_point
    k_red = point_rng(cfg.seed, STREAM_SIDEBAND_RED, index).binomial(shots, expected.p_red)
    k_blue = point_rng(cfg.seed, STREAM_SIDEBAND_BLUE, index).binomial(shots, expected.p_blue)
    return replace(expected, p_red=k_red / shots, p_blue=k_blue / shots)


def simulate_heating_series(cfg: SimConfig, wait_times) -> HeatingSeries:
    """Thermometry applied to simulated sideband scans at each wait time.

    Per-point errors are propagated at the occupations predicted by a
    preliminary unweighted line fit, not at each point's own noisy
    estimate: weights correlated with the point noise would bias the
    downstream weighted heating fit.
    """
    from . import thermometry
    from .heating import HeatingSeries, weighted_linear_fit

    wait_times = list(wait_times)
    nbars = []
    for i, wt in enumerate(wait_times):
        obs = simulate_sideband_scan(cfg, wt, index=i)
        try:
            nbars.append(thermometry.nbar_with_uncertainty(obs)[0])
        except ValueError as exc:
            raise ValueError(f"wait {i} (t = {wt:g} s), {cfg.shots_per_point} shots per point (--shots): {exc}") from None
    # validated before the line fit, which a degenerate design would break
    series = HeatingSeries(wait_times=tuple(wait_times), nbar=tuple(nbars), nbar_err=None)
    if cfg.shots_per_point is None:
        return series
    a, b, _ = weighted_linear_fit(wait_times, nbars)
    errs = [thermometry.nbar_with_uncertainty(_expected_observation(cfg, max(a + b * t, 1e-3)))[1] for t in wait_times]
    return replace(series, nbar_err=tuple(errs))


def simulate_charging_series(
    cfg: SimConfig,
    sample_interval: float,
    on_window: tuple[float, float],
    total: float,
) -> FrequencySeries:
    """Baseline / charging / discharge frequency record on a fixed cadence."""
    from .charging import FrequencySeries

    if sample_interval <= 0:
        raise ValueError("sample_interval must be positive")
    t_on, t_off = on_window
    times, curve = _charging_curve(cfg.charging, cfg.discharge, sample_interval, t_on, t_off, total)
    freqs = curve + point_rng(cfg.seed, STREAM_CHARGING).normal(0.0, cfg.noise_floor, curve.size)
    errs = None if cfg.noise_floor == 0 else tuple([cfg.noise_floor] * curve.size)
    intervals = ((t_on, t_off),) if t_off > t_on else ()
    return FrequencySeries(times, tuple(freqs.tolist()), freq_errs=errs, light_on_intervals=intervals)


@functools.lru_cache(maxsize=CURVE_CACHE_SIZE)
def _charging_curve(charging, discharge, sample_interval, t_on, t_off, total):
    """A charging record's times, as a tuple, and its read-only noise-free
    frequencies: the charging model from t_on, the discharge from t_off."""
    from .charging import charging_freq, discharge_freq

    if not (0 <= t_on <= t_off <= total):
        raise ValueError("on_window must lie within [0, total]")
    times = np.arange(0.0, total + 0.5 * sample_interval, sample_interval)
    times = times[times <= total]  # the grid's last step may pass total
    charge_p = replace(charging, t_on=t_on)
    freqs = np.full_like(times, charge_p.f0)
    on = (times >= t_on) & (times < t_off)
    freqs[on] = charging_freq(times[on], charge_p)
    # rescale the configured amplitude split so the curves join at t_off;
    # at t_off = t_on the join's amplitude is 0 and the record stays at f0
    scale = -(charging_freq(t_off, charge_p) - charge_p.f0) / (discharge.df3 + discharge.df4)
    dis_p = replace(discharge, df3=discharge.df3 * scale, df4=discharge.df4 * scale, t_off=t_off, f0=charge_p.f0)
    after = times >= t_off
    freqs[after] = discharge_freq(times[after], dis_p)
    freqs.flags.writeable = False
    return tuple(times.tolist()), freqs


def simulate_position_scan(cfg: SimConfig, beam: GratingOutputModel, positions) -> RabiPositionScan:
    """Rabi frequency sampled across the beam with multiplicative noise;
    a unit model intensity drives a 2*pi x 121.1 kHz Rabi frequency."""
    from .beam import RabiPositionScan, rabi_profile

    x = np.asarray(list(positions), dtype=float)
    rabi = rabi_profile(x, beam, TWO_PI * 121.1e3)
    frac, errs = cfg.rabi_noise_frac, None
    if frac > 0:
        rabi = np.abs(rabi * (1.0 + point_rng(cfg.seed, STREAM_POSITION).normal(0.0, frac, x.size)))
        errs = tuple((frac * np.maximum(rabi, 1e-6 * np.max(rabi) + 1e-30)).tolist())
    return RabiPositionScan(positions=tuple(x.tolist()), rabi=tuple(rabi.tolist()), rabi_err=errs)
