"""Photo-induced charging and discharging of the exposed grating dielectric.

Two superimposed exponentials describe the secular-frequency shift while
light is on (fast negative metal effect, slow positive dielectric effect)
and again while it discharges. Both models are fitted by variable
projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)): the
nonlinear search runs over (log Ta, log Tb) only, multi-started from
decade-spaced pairs ranked by one stacked solve, and the amplitudes and a
free f0 are solved by linear least squares at every step. The discharge
continuity constraint is one more design column. The optimizer, fitting's
numpy Levenberg-Marquardt (so these fits load no scipy.optimize), gets
Kaufman's Jacobian of the projected residuals (BIT 15, 49 (1975)) from the
SVD that solves the linear part, and polishing stops once two starts reach
the same cost. The seeds are 5e-4..5 and the bounds 1e-9..1e3 times the fit
window's span, so a fit does not depend on the time unit; a time constant
the data cannot identify runs to the ceiling and is flagged as sitting at
the bound, and two that meet are flagged as coinciding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fitting import check_series, covariance_from_jacobian, multistart_least_squares, weak_parameter_flags
from .reports import FitReport

# Decade grid for time-constant seeding, as fractions of the fit window's
# span, so that a fit does not depend on the time unit
TIME_CONSTANT_SEED_GRID = (5e-4, 5e-3, 5e-2, 0.5, 5.0)

# Time-constant search range as multiples of the fit window's span
TIME_CONSTANT_FLOOR = 1e-9
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
        _, f = check_series(self.times, self.freqs, self.freq_errs, ("times", "freqs", "freq_errs"))
        if np.any(f <= 0):
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


def _projector(tau, f, w, kind, fix_f0=None, shift=None):
    """(core, resid, jac, costs) for the model of _double_exp_fit at fixed
    time constants log_T. core(log_T) -> (lin, resid, U, B, dB): the linear
    parameters (dfa, then dfb unless shift is set, then f0 if free), the
    weighted residuals U(U^T y) - y, U of the SVD of the weighted design
    matrix A that gives lin (singular values below eps*max(A.shape)*s0
    dropped, as by np.linalg.lstsq(rcond=None)), and the unweighted basis B
    and its derivative dB in log T. A new point costs one SVD, with the
    weighted basis written into A in place; its exponentials are cached, so
    B and dB are formed only by core and by jac, which builds Kaufman's
    Jacobian D - U(U^T D) only when asked. costs(log_Ts) ranks an (s, 2)
    stack of points by |resid|^2 from one stacked SVD, each truncated as
    one solve truncates."""
    level = 1.0 if kind == "charging" else 0.0
    signs = np.array([1.0, -1.0] if kind == "charging" else [1.0, 1.0])
    ntcol = -tau[:, None]
    wcol = (np.ones_like(tau) if w is None else w)[:, None]
    sw = signs * wcol
    target = wcol[:, 0] * (f if fix_f0 is None else f - fix_f0)
    A = np.empty((tau.size, (2 if shift is None else 1) + (fix_f0 is None)))
    if fix_f0 is None:
        A[:, -1] = wcol[:, 0]
    Bw = A[:, :2] if shift is None else np.empty((tau.size, 2))
    cutoff = np.finfo(float).eps * max(A.shape)

    @functools.lru_cache(maxsize=1)
    def solve(log_T):
        x = ntcol * np.array([math.exp(-log_T[0]), math.exp(-log_T[1])])  # -tau/T
        e = np.exp(x)
        np.multiply(np.subtract(level, e, out=Bw), sw, out=Bw)
        y = target
        if shift is not None:
            np.subtract(Bw[:, 0], Bw[:, 1], out=A[:, 0])
            y = target + shift * Bw[:, 1]
        U, sv, Vt = np.linalg.svd(A, full_matrices=False)
        if sv[-1] <= cutoff * sv[0]:  # sv is sorted: keep a prefix
            k = np.count_nonzero(sv > cutoff * sv[0])
            U, sv, Vt = U[:, :k], sv[:k], Vt[:k]
        uy = U.T @ y
        return (uy / sv) @ Vt, U @ uy - y, U, e, x

    def core(log_T):
        lin, resid, U, e, x = solve(tuple(log_T))
        return lin, resid, U, signs * (level - e), signs * e * x

    def jac(log_T):
        lin, _, U, e, x = solve(tuple(log_T))
        # with the shift, dfb = -shift - dfa: one rule for both models and every f0 mode
        D = e * x * sw * [lin[0], lin[1] if shift is None else -shift - lin[0]]
        return D - U @ (U.T @ D)

    def costs(log_Ts):
        Bws = (level - np.exp(ntcol * np.exp(-log_Ts)[:, None, :])) * sw
        As = np.repeat(A[None], len(log_Ts), axis=0)
        if shift is None:
            As[..., :2], y = Bws, target
        else:
            As[..., 0], y = Bws[..., 0] - Bws[..., 1], target + shift * Bws[..., 1]
        U, sv, _ = np.linalg.svd(As, full_matrices=False)
        U *= (sv > cutoff * sv[:, :1])[:, None, :]  # zeroes the columns solve drops
        y = y[..., None]
        r = U @ (U.transpose(0, 2, 1) @ y) - y
        return np.einsum("sni,sni->s", r, r)

    return core, lambda log_T: solve(tuple(log_T))[1], jac, costs


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
    span = float(tau[-1])
    bounds = (math.log(TIME_CONSTANT_FLOOR * span), math.log(TIME_CONSTANT_CEILING * span))
    core, resid_fn, jac, costs = _projector(tau, f, w, kind, fix_f0, shift)

    seeds = [
        (math.log(a * span), math.log(b * span))
        for i, a in enumerate(TIME_CONSTANT_SEED_GRID)
        for b in TIME_CONSTANT_SEED_GRID[i + 1 :]
    ]
    res = multistart_least_squares(resid_fn, seeds, bounds=bounds, jac=jac, costs=costs)
    log_T = np.sort(res.x)
    lin, resid, _, B, dB = core(log_T)
    Ta, Tb = np.exp(log_T)

    # map the free parameters onto (dfa, dfb, log Ta, log Tb[, f0])
    n_full = 4 if fix_f0 is not None else 5
    G = np.eye(n_full)
    dfa = lin[0]
    dfb = lin[1] if shift is None else -shift - dfa
    if shift is not None:
        G = np.delete(G, 1, axis=1)
        G[1, 0] = -1.0
    f0 = lin[-1] if fix_f0 is None else fix_f0
    J = np.column_stack([B[:, 0], B[:, 1], dfa * dB[:, 0], dfb * dB[:, 1], np.ones_like(tau)][:n_full])
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
    # Ta = Tb is stationary (swapping them leaves the cost unchanged), so
    # starts can stop and agree there
    if log_T[1] - log_T[0] <= BOUND_TOLERANCE:
        flags.append("time-constants-coincide")
    if res.status == 0:
        flags.append("max-nfev-reached")
    return values, errs, cov, resid, flags


def _fit_window(series, t_start, t_end, f0_mode, kind, names, shift=None):
    """The double-exponential fit of one kind to the points in [t_start,
    t_end] and its report, before the caller adds its own extras.

    f0_mode: 'fit' floats the baseline, 'baseline' fixes it to the mean of
    the points before t_start. Returns (values, cov, report).
    """
    if f0_mode not in ("fit", "baseline"):
        raise ValueError("f0_mode must be 'fit' or 'baseline'")
    fix_f0 = None
    if f0_mode == "baseline":
        before = np.asarray(series.freqs, dtype=float)[np.asarray(series.times, dtype=float) < t_start]
        if not before.size:
            raise ValueError(f"no points before t = {t_start} s to fix the baseline f0 from")
        fix_f0 = float(np.mean(before))
    t, f, w = _select(series, t_start, t_end)
    values, errs, cov, resid, flags = _double_exp_fit(t - t_start, f, w, kind, fix_f0, names, shift)
    report = FitReport(
        model=f"{kind}-double-exponential",
        params=values,
        param_errs=errs,
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        n_points=t.size,
        flags=flags,
        extras={"f0_fixed": 0.0 if f0_mode == "fit" else 1.0},
    )
    return values, cov, report


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
    values, cov, report = _fit_window(series, t_on, t_end, f0_mode, "charging", ("df1", "df2", "T1", "T2"))
    params = ChargingModelParams(t_on=t_on, **values)
    offset_var = cov[0, 0] + cov[1, 1] - 2 * cov[0, 1]
    report.extras.update(
        settled_offset=settled_offset(params),
        settled_offset_err=math.sqrt(max(offset_var, 0.0)),
        t_on=t_on,
    )
    return params, report


def fit_discharge(
    series: FrequencySeries,
    t_off: float,
    t_end: float | None = None,
    f0_mode: str = "fit",
    continuity_shift: float | None = None,
) -> tuple[DischargeModelParams, FitReport]:
    """Fit the light-off discharge model to the points in [t_off, t_end].

    f0_mode 'baseline' fixes f0 to the mean of the pre-t_off points. With
    continuity_shift set (the charging model's shift above f0 at t_off),
    the amplitude sum is constrained by df3 + df4 = -shift so the two
    curves join continuously; this removes one free parameter.
    """
    values, _, report = _fit_window(
        series, t_off, t_end, f0_mode, "discharge", ("df3", "df4", "T3", "T4"), continuity_shift
    )
    if continuity_shift is not None:
        report.flags.append("continuity-constrained")
    report.extras["t_off"] = t_off
    return DischargeModelParams(t_off=t_off, **values), report


def settled_window_start(params: ChargingModelParams) -> float:
    """Default start of the settled region: several slow time constants in."""
    return params.t_on + SETTLED_WINDOW_FACTOR * params.T2


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
    counts, edges = np.histogram(resid, bins=20)
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
        hist_counts=tuple(int(c) for c in counts),
        hist_edges=tuple(edges.tolist()),
        normality_p=p_norm,
        flags=tuple(flags),
    )
