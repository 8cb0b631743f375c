"""Photo-induced charging and discharging of the exposed grating dielectric.

Two superimposed exponentials describe the secular-frequency shift while
light is on (fast negative metal effect, slow positive dielectric effect)
and again while it discharges. Both models are fitted by variable
projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)): the
nonlinear search runs over (log Ta, log Tb) only, multi-started from pairs
a third of a decade apart ranked by one matrix product, and the amplitudes
and a free f0 are solved in closed form from a 2x2 Gram matrix at every
step. The optimizer, fitting's numpy Levenberg-Marquardt (so these fits
load no scipy.optimize), gets Kaufman's Jacobian of the projected residuals
(BIT 15, 49 (1975)) from the same 2x2 inverse; polishing stops once two
starts reach the same cost, and only the covariance takes an SVD. The
seeds are 5e-4..5 times the fit window's span; the bounds run from the gap
between its first two samples over ln(1/eps) ~ 36, below which
exp(-gap/T) < eps and a basis column is its first sample alone, to 1e3
times the span, and seeds below the floor are dropped, so a fit does not
depend on the time unit. A time constant the data cannot identify runs
to a bound and is flagged as sitting at it, and two that meet are flagged
as coinciding.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .datasets import DatasetError, check_series, to_frequency_series
from .fitting import fit_report, multistart_least_squares
from .reports import FitReport
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


def _select(series: FrequencySeries, t_start, t_end):
    """Times, frequencies and weights (None unweighted) in [t_start, t_end]."""
    window = _window(series, t_start, t_end)
    w = None if series.freq_errs is None else 1.0 / np.array(series.freq_errs[window], dtype=float)
    return np.array(series.times[window], dtype=float), np.array(series.freqs[window], dtype=float), w


def _projector(tau, f, w, kind, fix_f0=None):
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


def _fit_window(series, t_start, t_end, f0_mode, kind, names):
    """Variable-projection fit of f0 + dfa*ba(tau; Ta) + dfb*bb(tau; Tb) to
    the points in [t_start, t_end], tau = t - t_start, and its report,
    before the caller adds its own extras.

    kind 'charging' uses ba = 1 - exp(-tau/Ta), bb = -(1 - exp(-tau/Tb));
    'discharge' uses ba = -exp(-tau/Ta), bb = -exp(-tau/Tb). Only
    (log Ta, log Tb) are searched; the amplitudes and a free f0 are solved
    linearly at each evaluation. names labels (dfa, dfb, Ta, Tb). f0_mode:
    'fit' floats the baseline, 'baseline' fixes it to the mean of the points
    before both t_start and the series' first light-on start, which a
    discharge fit needs (ValueError without one). Returns (values, cov,
    report) with Ta <= Tb and cov over (dfa, dfb, log Ta, log Tb[, f0]);
    extras holds t_start as t_on or t_off.
    """
    if f0_mode not in ("fit", "baseline"):
        raise ValueError("f0_mode must be 'fit' or 'baseline'")
    t, f, w = _select(series, t_start, t_end)
    fix_f0 = None
    if f0_mode == "baseline":
        # the baseline is the record before the light first comes on, not the charged window
        starts = [start for start, _ in series.light_on_intervals]
        if kind == "discharge" and not starts:
            raise ValueError("no light_on interval to tell the baseline f0 from the charged window")
        dark = min([t_start, *starts])
        before = series.freqs[: bisect.bisect_left(series.times, dark)]
        if not before:
            raise ValueError(f"no points before t = {dark} s to fix the baseline f0 from")
        fix_f0 = float(np.mean(before))
    tau = t - t_start
    if tau.size < 8:
        raise ValueError("need at least 8 points for a double-exponential fit")
    span = float(tau[-1])
    # below the floor exp(-gap/T) < eps: the column is the first sample alone
    floor = math.log(float(tau[1] - tau[0]) / -math.log(np.finfo(float).eps))
    bounds = (floor, math.log(TIME_CONSTANT_CEILING * span))
    core, resid_fn, jac, costs = _projector(tau, f, w, kind, fix_f0)

    grid = np.array([g for g in (math.log(a * span) for a in TIME_CONSTANT_SEED_GRID) if g > floor])
    pairs = np.array(list(itertools.combinations(range(grid.size), 2)))  # each (Ta, Tb) with Ta < Tb
    res = multistart_least_squares(resid_fn, grid[pairs], bounds=bounds, jac=jac, costs=functools.partial(costs, grid, pairs))
    log_T = np.sort(res.x)
    lin, resid, J = core(log_T)
    Ta, Tb = np.exp(log_T)

    dfa, dfb = lin[:2]
    name_a, name_b, name_Ta, name_Tb = names
    values = {name_a: dfa, name_b: dfb, name_Ta: Ta, name_Tb: Tb, "f0": lin[-1] if fix_f0 is None else fix_f0}
    G = np.diag([1.0, 1.0, Ta, Tb, 1.0])[:, : J.shape[1]]  # the fit searches log T; a fixed f0 has no column
    extras = {"f0_fixed": 0.0 if f0_mode == "fit" else 1.0, f"t_{CHARGING_WINDOWS[kind][0]}": t_start}
    report, cov = fit_report(f"{kind}-double-exponential", values, G, J, resid, t.size, w is not None, res.status, extras)
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
    f0_mode: str = "fit",
) -> tuple[DischargeModelParams, FitReport]:
    """Fit the light-off discharge model to the points in [t_off, t_end].

    f0_mode 'baseline' fixes f0 to the mean of the points before the
    series' first light-on start, the level the field relaxes back to; it
    raises ValueError if the series has no light-on interval.
    """
    values, _, report = _fit_window(series, t_off, t_end, f0_mode, "discharge", ("df3", "df4", "T3", "T4"))
    params = object.__new__(DischargeModelParams)  # unchecked: an f0 the window cannot pin down may be <= 0
    vars(params).update(t_off=t_off, **values)
    return params, report


def fit_record(ds, window, edge=None, f0_mode="fit") -> tuple[FitReport, list]:
    """Fit one window of a charging record: its report and rows, each time,
    frequency and model frequency.

    window 'charging' runs from edge, else the first light_on start, to the
    end of the first interval that ends after it; 'discharge' runs from
    edge, else the first light_on end, to the next start after it.
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
    t, f, _ = _select(series, window[0], window[1])
    if t.size < 3:
        raise ValueError("settled window contains fewer than 3 points")
    resid = f - np.asarray(predict(t), dtype=float)
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
