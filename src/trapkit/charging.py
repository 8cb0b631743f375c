"""Photo-induced charging and discharging of the exposed grating dielectric.

Two superimposed exponentials describe the secular-frequency shift while
light is on (fast negative metal effect, slow positive dielectric effect)
and again while it discharges. _window alone cuts a window from a series.
Each window is fitted by fitting.variable_projection, given its basis
columns and target here, and polished from seed pairs of time constants by
fitting's Levenberg-Marquardt, so these fits load no scipy.optimize. The
seeds and bounds scale with the window's span, so a fit does not depend on
the time unit. The multistart polishes one start per basin of the seed
grid: once a start has converged, a seed pair with a grid neighbour of
lower prescreen cost is skipped. A time constant the data cannot identify
runs to a bound and is flagged as sitting at it, and two that meet are
flagged as coinciding.
What a fit needs of its window's sampling alone, the basis columns' callable
and the prescreen's seeds and grid columns among it, is built in one place,
_sampling, and kept, read-only, for the last SAMPLING_CACHE_SIZE samplings,
so a refit pays for its frequencies.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .datasets import DatasetError, check_series, to_frequency_series
from .fitting import fit_report, grid_columns, multistart_least_squares, variable_projection
from .reports import FitConvergenceError, FitReport
from .units import CHARGING_WINDOWS

# Time-constant seeds a third of a decade apart, as fractions of the fit
# window's span, so that a fit does not depend on the time unit
TIME_CONSTANT_SEED_GRID = tuple(5e-4 * 10 ** (k / 3) for k in range(13))

# Time-constant ceiling as a multiple of the fit window's span
TIME_CONSTANT_CEILING = 1e3

# A fitted time constant within this relative distance of a bound, or of
# the other time constant, is reported as sitting at it: its value is then
# the bound, not a measurement, or the fit holds one exponential, not two
BOUND_TOLERANCE = 1e-3

# Default settled-window start: this many slow time constants after turn-on
SETTLED_WINDOW_FACTOR = 5.0

# Window samplings whose fit set-up _sampling keeps, each ~20 floats a sample
SAMPLING_CACHE_SIZE = 4

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
        # equal is allowed: a fit whose time constants coincide is flagged
        if self.T1 > self.T2:
            raise ValueError("expected T1 <= T2 (fast metal effect, slow dielectric)")
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
        if self.T3 > self.T4:
            raise ValueError("expected T3 <= T4")
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
        check_series(self.times, self.freqs, self.freq_errs, ("times", "freqs", "freq_errs"))
        if min(self.freqs, default=math.inf) <= 0:
            raise ValueError("frequencies must be positive")
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


def compensation_field(offset: float) -> float:
    """Vertical electric field (V/m) needed to null a settled offset (Hz)."""
    return offset * DEFAULT_FIELD_SENSITIVITY


def _window(series: FrequencySeries, t_start, t_end) -> slice:
    """The indices of the samples in [t_start, t_end], by bisection."""
    if not math.isfinite(t_start) or (t_end is not None and math.isnan(t_end)):
        raise ValueError(f"a window must start at a finite time and end at a number, not [{t_start}, {t_end}]")
    return slice(bisect.bisect_left(series.times, t_start), None if t_end is None else bisect.bisect_right(series.times, t_end))


def _columns(basis, log_T, out):
    """fitting.variable_projection's columns(log_T, out), given _sampling's
    basis: sign*(1 - e)*w, e = exp(-tau/T) from expm1, or -e*w."""
    ntcol, nsw, ntsw, one = basis
    k = [math.exp(-x) for x in log_T]  # 1/T
    em1 = np.expm1(ntcol.dot([k]))  # -tau/T
    np.multiply(em1 + one if one else em1, nsw if len(k) == 2 else nsw[:, :1], out=out)
    return lambda lin: (em1 + 1.0) * (ntsw * [k[0] * lin[0], k[1] * lin[1]])  # d(B lin)/dlog T


def _projector(columns, f, w, kind, fix_f0=None):
    """fitting.variable_projection's (core, resid, jac, costs) for the model
    of _fit_window, from _sampling's columns for the window, kind and f0
    mode: the basis columns sign*(1 - e)*w, e = exp(-tau/T) from expm1, so
    exact where T >> tau, or for a discharge at a fixed f0 -e*w. A discharge
    at a free f0 solves (1 - e)*w too, and core maps its f0 and Jacobian to
    -e*w. The prescreen's grid, whose costs no column's sign changes, takes
    the first sign throughout."""
    wv = np.ones_like(f) if w is None else w
    y = wv * (f if fix_f0 is None else f - fix_f0)
    core, resid, jac, costs = variable_projection(columns, y, None if fix_f0 is not None else wv)
    if kind == "charging" or fix_f0 is not None:
        return core, resid, jac, costs

    def level(log_T):  # a discharge at a free f0
        lin, r, J = core(log_T)
        J[:, :2] -= J[:, 4:]
        return [*lin[:2], lin[2] + (lin[0] + lin[1])], r, J

    return level, resid, jac, costs


@functools.lru_cache(maxsize=SAMPLING_CACHE_SIZE)
def _sampling(times, errs, t_start, kind, free):
    """Every fixed input of _fit_window, built here alone from a window's
    times, errs (None unweighted), t_start, kind and whether f0 is free,
    read-only: the weights, the log T bounds, _projector's columns, the
    seeds (log Ta, log Tb), their index pairs into the log T seed grid, the
    grid's fitting.grid_columns, the prescreen's X, and each seed's
    neighbours, the seeds one grid step away in Ta, Tb or both."""
    tau = np.array(times, dtype=float) - t_start
    if tau.size < 8:
        raise ValueError("need at least 8 points for a double-exponential fit")
    w = None if errs is None else 1.0 / np.array(errs, dtype=float)
    wv = np.ones_like(tau) if w is None else w
    span = float(tau[-1])
    # below the floor exp(-gap/T) < eps: the column is the first sample alone
    floor = math.log(float(tau[1] - tau[0]) / -math.log(np.finfo(float).eps))
    bounds = (floor, math.log(TIME_CONSTANT_CEILING * span))
    # _columns' basis: -tau and -sign*w as columns, -tau*sign*w, and a
    # fixed-f0 discharge's 1 in -e = (e - 1) + 1
    nsw = wv[:, None] * ([-1.0, 1.0] if kind == "charging" else [-1.0, -1.0])
    basis = (-tau[:, None], nsw, tau[:, None] * nsw, 1.0 if kind == "discharge" and not free else 0.0)
    columns = functools.partial(_columns, basis)
    grid = np.array([g for g in (math.log(a * span) for a in TIME_CONSTANT_SEED_GRID) if g > floor])
    pairs = np.array(list(itertools.combinations(range(grid.size), 2)), dtype=int).reshape(-1, 2)  # (Ta, Tb), Ta < Tb
    seeds = grid[pairs]
    index = {pair: k for k, pair in enumerate(map(tuple, pairs.tolist()))}
    steps = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if di or dj]
    neighbours = tuple(tuple(index[n] for n in ((i + di, j + dj) for di, dj in steps) if n in index) for i, j in index)
    X = grid_columns(columns, grid, tau.size, wv if free else None)
    for array in (*basis[:3], pairs, seeds, *([] if w is None else [w])):
        array.flags.writeable = False
    return w, bounds, columns, seeds, pairs, X, neighbours


@np.errstate(all="ignore")  # an extreme record's overflow ends in a non-finite value the fit checks
def _fit_window(series, t_start, t_end, f0_mode, kind, names):
    """Variable-projection fit of f0 + dfa*ba(tau; Ta) + dfb*bb(tau; Tb) to
    the points in [t_start, t_end], tau = t - t_start, and its report,
    before the caller adds its own extras.

    kind 'charging' uses ba = 1 - exp(-tau/Ta), bb = -(1 - exp(-tau/Tb));
    'discharge' uses ba = -exp(-tau/Ta), bb = -exp(-tau/Tb). names labels
    (dfa, dfb, Ta, Tb). f0_mode: 'fit' floats the baseline, 'baseline'
    fixes it to the mean of the points before both t_start and the series'
    first light-on start, which a discharge fit needs (ValueError without
    one), and None is 'baseline' for a discharge fit on a series with such
    points, else 'fit'. Returns (values, cov, report) with Ta <= Tb and cov
    over (dfa, dfb, log Ta, log Tb[, f0]); extras holds t_start as t_on or
    t_off. A fit that fails where the window's time span or weighted
    frequencies overflow raises ValueError, not FitConvergenceError.
    """
    if f0_mode not in ("fit", "baseline", None):
        raise ValueError("f0_mode must be 'fit' or 'baseline'")
    window = _window(series, t_start, t_end)
    f = np.array(series.freqs[window], dtype=float)
    # the baseline is the record before the light first comes on, not the charged window
    starts = [start for start, _ in series.light_on_intervals]
    dark = min([t_start, *starts])
    before = series.freqs[: bisect.bisect_left(series.times, dark)]
    if f0_mode is None:
        f0_mode = "baseline" if kind == "discharge" and starts and before else "fit"
    fix_f0 = None
    if f0_mode == "baseline":
        if kind == "discharge" and not starts:
            raise ValueError("no light_on interval to tell the baseline f0 from the charged window")
        if not before:
            raise ValueError(f"no points before t = {dark} s to fix the baseline f0 from")
        fix_f0 = float(np.mean(before))
    errs = None if series.freq_errs is None else tuple(series.freq_errs[window])
    w, bounds, columns, seeds, pairs, X, neighbours = _sampling(tuple(series.times[window]), errs, t_start, kind, fix_f0 is None)
    core, resid_fn, jac, costs = _projector(columns, f, w, kind, fix_f0)
    try:
        res = multistart_least_squares(resid_fn, seeds, bounds=bounds, jac=jac, costs=costs(pairs, X), neighbours=neighbours)
    except FitConvergenceError:  # a window whose numbers overflow the fit is out of range, not unconverged
        wf = f if w is None else f * w
        for quantity, value in (("time span x 1000", bounds[1]), ("sum of its squared weighted frequencies", wf @ wf)):
            if not math.isfinite(value):
                raise ValueError(f"the {kind} window [{t_start}, {'end' if t_end is None else t_end}] s: the {quantity} overflows") from None
        raise
    log_T = np.sort(res.x)
    lin, resid, J = core(log_T)
    Ta, Tb = np.exp(log_T)

    dfa, dfb = lin[:2]
    name_a, name_b, name_Ta, name_Tb = names
    values = {name_a: dfa, name_b: dfb, name_Ta: Ta, name_Tb: Tb, "f0": lin[-1] if fix_f0 is None else fix_f0}
    G = np.diag([1.0, 1.0, Ta, Tb, 1.0])[:, : J.shape[1]]  # the fit searches log T; a fixed f0 has no column
    extras = {"f0_fixed": 0.0 if f0_mode == "fit" else 1.0, f"t_{CHARGING_WINDOWS[kind][0]}": t_start}
    report, cov = fit_report(f"{kind}-double-exponential", values, G, J, resid, f.size, w is not None, res.status, extras)
    errs, flags = report.param_errs, report.flags
    if abs(dfa) <= errs[name_a] and abs(dfb) <= errs[name_b]:
        flags.append("amplitudes-consistent-with-zero")
    for name, x in ((name_Ta, log_T[0]), (name_Tb, log_T[1])):
        if min(x - bounds[0], bounds[1] - x) <= BOUND_TOLERANCE:
            flags.append(f"time-constant-at-bound:{name}")
    # Ta = Tb is stationary (swapping them leaves the cost unchanged), so
    # starts can stop and agree there
    if log_T[1] - log_T[0] <= BOUND_TOLERANCE:
        flags.append("time-constants-coincide")
    return values, cov, report


def fit_charging(
    series: FrequencySeries,
    t_on: float,
    t_end: float | None = None,
    f0_mode: str = "fit",
) -> tuple[ChargingModelParams, FitReport]:
    """Fit the light-on charging model to the points in [t_on, t_end].

    f0_mode: 'fit' floats the baseline, 'baseline' fixes it to the mean of
    the points before t_on and before the first light-on start. Raises
    FitConvergenceError with best-so-far diagnostics if no start converges.
    """
    values, cov, report = _fit_window(series, t_on, t_end, f0_mode, "charging", ("df1", "df2", "T1", "T2"))
    params = ChargingModelParams(t_on=t_on, **values)
    offset_var = cov[0, 0] + cov[1, 1] - 2 * cov[0, 1]
    report.extras.update(
        settled_offset=settled_offset(params),
        settled_offset_err=math.sqrt(max(offset_var, 0.0)),
    )
    return params, report


def fit_discharge(
    series: FrequencySeries,
    t_off: float,
    t_end: float | None = None,
    f0_mode: str | None = None,
) -> tuple[DischargeModelParams, FitReport]:
    """Fit the light-off discharge model to the points in [t_off, t_end].

    f0_mode 'baseline' fixes f0 to the mean of the points before the
    series' first light-on start, the level the field relaxes back to; it
    raises ValueError if the series has no light-on interval. 'fit' floats
    f0. The default, None, is 'baseline' where the series has points
    before its first light-on start and t_off, and 'fit' otherwise.
    """
    values, _, report = _fit_window(series, t_off, t_end, f0_mode, "discharge", ("df3", "df4", "T3", "T4"))
    params = object.__new__(DischargeModelParams)  # unchecked: an f0 the window cannot pin down may be <= 0
    vars(params).update(t_off=t_off, **values)
    return params, report


def fit_record(ds, window, edge=None, f0_mode=None) -> tuple[FitReport, list]:
    """Fit one window of a charging record: its report and rows, each time,
    frequency and model frequency.

    window 'charging' runs from edge, else the first light_on start, to the
    end of the first interval that ends after it; 'discharge' runs from
    edge, else the first light_on end, to the next start after it. f0_mode
    None is the window's default: 'fit' for charging, fit_discharge's for
    discharge.
    """
    light, first = CHARGING_WINDOWS[window]
    series = to_frequency_series(ds)
    intervals = series.light_on_intervals
    t_start = edge
    if t_start is None:
        if not intervals:
            raise DatasetError(f"no --t-{light} flag and no light_on metadata in the input")
        t_start = intervals[0][first]
    if window == "charging":
        t_end = next((end for _, end in intervals if end > t_start), None)
        fit, model = fit_charging, charging_freq
    else:
        t_end = min((start for start, _ in intervals if start > t_start), default=None)
        fit, model = fit_discharge, discharge_freq
    params, report = fit(series, t_start, t_end=t_end, f0_mode=f0_mode)
    window = _window(series, t_start, t_end)
    t = series.times[window]
    return report, list(zip(t, series.freqs[window], model(t, params)))


def settled_window_start(params: ChargingModelParams) -> float:
    """Default start of the settled region: several slow time constants in."""
    return params.t_on + SETTLED_WINDOW_FACTOR * params.T2


@dataclass(frozen=True)
class SettledStability:
    residuals: tuple  # Hz
    sigma: float  # Hz
    normality_p: float
    flags: tuple


def settled_stability(
    series: FrequencySeries,
    predict,
    window: tuple[float, float],
) -> SettledStability:
    """Residual scatter of the settled region against a fitted model.

    predict maps times (s) to model frequencies (Hz). Flags non-normal
    residuals (e.g. leftover drift) via a D'Agostino-Pearson test.
    """
    cut = _window(series, window[0], window[1])
    t = np.array(series.times[cut], dtype=float)
    if t.size < 3:
        raise ValueError("settled window contains fewer than 3 points")
    resid = np.array(series.freqs[cut], dtype=float) - np.asarray(predict(t), dtype=float)
    sigma = float(np.std(resid, ddof=1))
    flags = []
    p_norm = float("nan")
    if t.size >= 20:
        from scipy.stats import normaltest

        if sigma == 0:
            p_norm = 1.0
        else:
            p_norm = float(normaltest(resid).pvalue)
            if p_norm < 0.05:
                flags.append("residuals-non-normal")
    return SettledStability(
        residuals=tuple(resid.tolist()),
        sigma=sigma,
        normality_p=p_norm,
        flags=tuple(flags),
    )
