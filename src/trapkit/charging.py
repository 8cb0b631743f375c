"""Photo-induced charging and discharging of the exposed grating dielectric.

Two superimposed exponentials describe the secular-frequency shift while
light is on (fast negative metal effect, slow positive dielectric effect)
and again while it discharges. Both models are fitted by variable
projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)): the
nonlinear search runs over (log Ta, log Tb) only, multi-started from
decade-spaced pairs, and the amplitudes and a free f0 are solved by linear
least squares at every step. The discharge continuity constraint is one
more design column. Time constants are bounded to 1e-9..1e3 times the fit
window's span; one the data cannot identify runs to the ceiling and is
flagged as sitting at the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import normaltest

from .fitting import (
    FitReport,
    covariance_from_jacobian,
    multistart_least_squares,
    weak_parameter_flags,
)

# Decade grid for time-constant seeding, seconds
TIME_CONSTANT_SEED_GRID = (1.0, 10.0, 100.0, 1e3, 1e4)

# Time-constant search range as multiples of the fit window's span
TIME_CONSTANT_FLOOR = 1e-9
TIME_CONSTANT_CEILING = 1e3

# A fitted time constant within this relative distance of a bound is
# reported as sitting at it: its value is then the bound, not a measurement
BOUND_TOLERANCE = 1e-3

# Default settled-window start: this many slow time constants after turn-on
SETTLED_WINDOW_FACTOR = 5.0

# Calibration pair: a 0.1 MHz settled offset is nulled by 2.4 kV/cm
DEFAULT_FIELD_SENSITIVITY = 2.4e5 / 0.1e6  # (V/m)/Hz


@dataclass(frozen=True)
class ChargingModelParams:
    df1: float  # Hz, fast effect settling offset
    df2: float  # Hz, slow effect settling offset (enters with minus sign)
    T1: float  # s
    T2: float  # s
    t_on: float  # s
    f0: float  # Hz

    def __post_init__(self):
        if self.T1 <= 0 or self.T2 <= 0:
            raise ValueError("time constants must be positive")
        if self.T1 >= self.T2:
            raise ValueError("expected T1 < T2 (fast metal effect, slow dielectric)")
        if self.f0 <= 0:
            raise ValueError("f0 must be positive")


@dataclass(frozen=True)
class DischargeModelParams:
    df3: float  # Hz
    df4: float  # Hz
    T3: float  # s
    T4: float  # s
    t_off: float  # s
    f0: float  # Hz

    def __post_init__(self):
        if self.T3 <= 0 or self.T4 <= 0:
            raise ValueError("time constants must be positive")
        if self.T3 >= self.T4:
            raise ValueError("expected T3 < T4")
        if self.f0 <= 0:
            raise ValueError("f0 must be positive")


@dataclass(frozen=True)
class FrequencySeries:
    """Secular frequency vs wall-clock time with light on/off intervals."""

    times: tuple  # s, strictly increasing
    freqs: tuple  # Hz
    freq_errs: tuple | None = None
    light_on_intervals: tuple = ()

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        f = np.asarray(self.freqs, dtype=float)
        if t.size != f.size:
            raise ValueError("times and freqs must have equal length")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(f))):
            raise ValueError("times and freqs must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(f <= 0):
            raise ValueError("frequencies must be positive")
        if self.freq_errs is not None:
            e = np.asarray(self.freq_errs, dtype=float)
            if e.size != t.size:
                raise ValueError("freq_errs length mismatch")
            if not np.all(np.isfinite(e)):
                raise ValueError("freq_errs must be finite")
            if np.any(e <= 0):
                raise ValueError("freq_errs must be positive")
        for start, end in self.light_on_intervals:
            if not (math.isfinite(start) and math.isfinite(end)):
                raise ValueError("light_on interval bounds must be finite")
            if end <= start:
                raise ValueError("light_on interval must have end > start")


@dataclass(frozen=True)
class DutyCycle:
    probe_time: float  # s, light-on time per cycle
    duty_fraction: float

    def __post_init__(self):
        if not 0 < self.duty_fraction <= 1:
            raise ValueError("duty_fraction must lie in (0, 1]")
        if self.probe_time <= 0:
            raise ValueError("probe_time must be positive")

    @property
    def cycle_period(self) -> float:
        return self.probe_time / self.duty_fraction


def charging_freq(t, p: ChargingModelParams):
    """Secular frequency while light is on: two saturating exponentials."""
    t = np.asarray(t, dtype=float)
    if np.any(t < p.t_on):
        raise ValueError("charging model only applies for t >= t_on")
    tau = t - p.t_on
    out = (
        p.f0
        + p.df1 * (1.0 - np.exp(-tau / p.T1))
        - p.df2 * (1.0 - np.exp(-tau / p.T2))
    )
    return float(out) if out.ndim == 0 else out


def discharge_freq(t, p: DischargeModelParams):
    """Secular frequency after light off, relaxing back toward f0."""
    t = np.asarray(t, dtype=float)
    if np.any(t < p.t_off):
        raise ValueError("discharge model only applies for t >= t_off")
    tau = t - p.t_off
    out = p.f0 - p.df3 * np.exp(-tau / p.T3) - p.df4 * np.exp(-tau / p.T4)
    return float(out) if out.ndim == 0 else out


def settled_offset(p: ChargingModelParams) -> float:
    """Long-time frequency offset with the light on, df1 - df2."""
    return p.df1 - p.df2


def compensation_field(offset: float, sensitivity: float = DEFAULT_FIELD_SENSITIVITY) -> float:
    """Vertical electric field (V/m) needed to null a settled offset (Hz)."""
    if sensitivity <= 0:
        raise ValueError("sensitivity must be positive")
    return offset * sensitivity


def effective_exposure(duty: DutyCycle, wall_time: float) -> float:
    """Equivalent continuous light-on time accumulated over wall_time."""
    if wall_time < 0:
        raise ValueError("wall_time must be >= 0")
    return wall_time * duty.duty_fraction


def _select(series: FrequencySeries, t_start, t_end):
    t = np.asarray(series.times, dtype=float)
    f = np.asarray(series.freqs, dtype=float)
    mask = t >= t_start
    if t_end is not None:
        mask &= t <= t_end
    w = None
    if series.freq_errs is not None:
        w = 1.0 / np.asarray(series.freq_errs, dtype=float)[mask]
    return t[mask], f[mask], w


def _baseline_f0(series: FrequencySeries, t_on: float):
    t = np.asarray(series.times, dtype=float)
    f = np.asarray(series.freqs, dtype=float)
    pre = f[t < t_on]
    return float(np.mean(pre)) if pre.size else None


def _double_exp_fit(tau, f, w, kind, fix_f0, names, shift=None):
    """Variable-projection fit of f0 + dfa*ba(tau; Ta) + dfb*bb(tau; Tb).

    kind 'charging' uses ba = 1 - exp(-tau/Ta), bb = -(1 - exp(-tau/Tb));
    'discharge' uses ba = -exp(-tau/Ta), bb = -exp(-tau/Tb). Only
    (log Ta, log Tb) are searched; the amplitudes and a free f0 are solved
    linearly at each evaluation. With shift set, dfb = -shift - dfa.
    names labels (dfa, dfb, Ta, Tb). Returns (values, errs, cov, residuals,
    flags) with Ta <= Tb and cov over (dfa, dfb, log Ta, log Tb[, f0]).
    """
    if tau.size < 8:
        raise ValueError("need at least 8 points for a double-exponential fit")
    level = 1.0 if kind == "charging" else 0.0
    signs = np.array([1.0, -1.0] if kind == "charging" else [1.0, 1.0])
    span = max(float(tau[-1]), 1.0)
    bounds = (math.log(TIME_CONSTANT_FLOOR * span), math.log(TIME_CONSTANT_CEILING * span))
    ones = np.ones_like(tau)

    def basis(log_T):
        e = np.exp(-tau[:, None] / np.exp(log_T))
        return signs * (level - e), e

    def solve(log_T):
        """Linear parameters and weighted residuals at fixed time constants."""
        B, _ = basis(log_T)
        if shift is None:
            cols, target = [B[:, 0], B[:, 1]], f
        else:
            cols, target = [B[:, 0] - B[:, 1]], f + shift * B[:, 1]
        if fix_f0 is None:
            cols.append(ones)
        else:
            target = target - fix_f0
        A = np.column_stack(cols)
        if w is not None:
            A, target = A * w[:, None], target * w
        lin = np.linalg.lstsq(A, target, rcond=None)[0]
        return lin, A @ lin - target

    seeds = [
        np.clip([math.log(Ta), math.log(Tb)], *bounds)
        for i, Ta in enumerate(TIME_CONSTANT_SEED_GRID)
        for Tb in TIME_CONSTANT_SEED_GRID[i + 1 :]
    ]
    res = multistart_least_squares(lambda x: solve(x)[1], seeds, bounds=bounds)
    log_T = np.sort(res.x)
    lin, resid = solve(log_T)
    B, e = basis(log_T)
    Ta, Tb = np.exp(log_T)
    dB = -signs * e * (tau[:, None] / np.array([Ta, Tb]))  # d B / d log T

    # map the free parameters onto (dfa, dfb, log Ta, log Tb[, f0])
    n_full = 4 if fix_f0 is not None else 5
    G = np.eye(n_full)
    if shift is None:
        dfa, dfb = lin[0], lin[1]
    else:
        dfa = lin[0]
        dfb = -shift - dfa
        G = np.delete(G, 1, axis=1)
        G[1, 0] = -1.0
    f0 = lin[-1] if fix_f0 is None else fix_f0
    J = np.column_stack([B[:, 0], B[:, 1], dfa * dB[:, 0], dfb * dB[:, 1], ones][:n_full])
    if w is not None:
        J = J * w[:, None]
    cov = G @ covariance_from_jacobian(J @ G, resid, absolute_sigma=w is not None) @ G.T
    sd = np.sqrt(np.clip(np.diag(cov), 0, None))

    name_a, name_b, name_Ta, name_Tb = names
    values = {name_a: dfa, name_b: dfb, name_Ta: Ta, name_Tb: Tb, "f0": f0}
    errs = {
        name_a: sd[0],
        name_b: sd[1],
        name_Ta: Ta * sd[2],
        name_Tb: Tb * sd[3],
        "f0": sd[4] if fix_f0 is None else 0.0,
    }
    flags = weak_parameter_flags(values, errs)
    if abs(dfa) <= errs[name_a] and abs(dfb) <= errs[name_b]:
        flags.append("amplitudes-consistent-with-zero")
    for name, x in ((name_Ta, log_T[0]), (name_Tb, log_T[1])):
        if min(x - bounds[0], bounds[1] - x) <= BOUND_TOLERANCE:
            flags.append(f"time-constant-at-bound:{name}")
    return values, errs, cov, resid, flags


def fit_charging(
    series: FrequencySeries,
    t_on: float,
    t_end: float | None = None,
    f0_mode: str = "fit",
) -> tuple[ChargingModelParams, FitReport]:
    """Fit the light-on charging model to the points in [t_on, t_end].

    f0_mode: 'fit' floats the baseline, 'baseline' fixes it to the mean of
    the pre-t_on points. Raises FitConvergenceError with best-so-far
    diagnostics if no start converges.
    """
    if f0_mode not in ("fit", "baseline"):
        raise ValueError("f0_mode must be 'fit' or 'baseline'")
    fix_f0 = None
    if f0_mode == "baseline":
        fix_f0 = _baseline_f0(series, t_on)
        if fix_f0 is None:
            raise ValueError("no pre-t_on points to fix the baseline from")
    t, f, w = _select(series, t_on, t_end)
    named, named_errs, cov, resid, flags = _double_exp_fit(
        t - t_on, f, w, "charging", fix_f0, ("df1", "df2", "T1", "T2")
    )
    params = ChargingModelParams(t_on=t_on, **named)
    offset_var = cov[0, 0] + cov[1, 1] - 2 * cov[0, 1]
    report = FitReport(
        model="charging-double-exponential",
        params=named,
        param_errs=named_errs,
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        n_points=t.size,
        flags=flags,
        extras={
            "settled_offset": settled_offset(params),
            "settled_offset_err": math.sqrt(max(offset_var, 0.0)),
            "t_on": t_on,
            "f0_fixed": 0.0 if f0_mode == "fit" else 1.0,
        },
    )
    return params, report


def fit_discharge(
    series: FrequencySeries,
    t_off: float,
    t_end: float | None = None,
    f0_mode: str = "fit",
    f0_baseline_before: float | None = None,
    continuity_shift: float | None = None,
) -> tuple[DischargeModelParams, FitReport]:
    """Fit the light-off discharge model to the points in [t_off, t_end].

    With continuity_shift set (the charging model's shift above f0 at
    t_off), the amplitude sum is constrained by df3 + df4 = -shift so the
    two curves join continuously; this removes one free parameter.
    """
    if f0_mode not in ("fit", "baseline"):
        raise ValueError("f0_mode must be 'fit' or 'baseline'")
    fix_f0 = None
    if f0_mode == "baseline":
        ref = f0_baseline_before if f0_baseline_before is not None else t_off
        fix_f0 = _baseline_f0(series, ref)
        if fix_f0 is None:
            raise ValueError("no baseline points to fix f0 from")
    t, f, w = _select(series, t_off, t_end)
    named, named_errs, _, resid, flags = _double_exp_fit(
        t - t_off, f, w, "discharge", fix_f0, ("df3", "df4", "T3", "T4"), continuity_shift
    )
    params = DischargeModelParams(t_off=t_off, **named)
    if continuity_shift is not None:
        flags.append("continuity-constrained")
    report = FitReport(
        model="discharge-double-exponential",
        params=named,
        param_errs=named_errs,
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        n_points=t.size,
        flags=flags,
        extras={"t_off": t_off, "f0_fixed": 0.0 if f0_mode == "fit" else 1.0},
    )
    return params, report


def settled_window_start(params: ChargingModelParams, factor: float = SETTLED_WINDOW_FACTOR) -> float:
    """Default start of the settled region: several slow time constants in."""
    return params.t_on + factor * params.T2


@dataclass(frozen=True)
class SettledStability:
    residuals: tuple  # Hz
    sigma: float  # Hz
    hist_counts: tuple
    hist_edges: tuple  # Hz
    normality_p: float
    flags: tuple


def settled_stability(
    series: FrequencySeries,
    predict,
    window: tuple[float, float],
    n_bins: int = 20,
) -> SettledStability:
    """Residual scatter of the settled region against a fitted model.

    predict maps times (s) to model frequencies (Hz). Flags non-normal
    residuals (e.g. leftover drift) via a D'Agostino-Pearson test.
    """
    t, f, _ = _select(series, window[0], window[1])
    if t.size < 3:
        raise ValueError("settled window contains fewer than 3 points")
    resid = f - np.asarray(predict(t), dtype=float)
    sigma = float(np.std(resid, ddof=1))
    counts, edges = np.histogram(resid, bins=n_bins)
    flags = []
    p_norm = float("nan")
    if t.size >= 20:
        if sigma == 0:
            p_norm = 1.0
        else:
            p_norm = float(normaltest(resid).pvalue)
            if p_norm < 0.05:
                flags.append("residuals-non-normal")
    return SettledStability(
        residuals=tuple(resid.tolist()),
        sigma=sigma,
        hist_counts=tuple(int(c) for c in counts),
        hist_edges=tuple(edges.tolist()),
        normality_p=p_norm,
        flags=tuple(flags),
    )
