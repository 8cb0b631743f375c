"""Heating-rate extraction, electric-field noise conversion, cross-experiment
normalization, and power-law fits in frequency and distance."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .reports import FitReport
from .units import HBAR, TWO_PI, IonSpecies, TrapContext, get_species, make_trap_context


@dataclass(frozen=True)
class HeatingSeries:
    """A record of mean occupation vs wait time."""

    wait_times: tuple  # s, strictly increasing
    nbar: tuple
    nbar_err: tuple | None

    def __post_init__(self):
        from .datasets import check_series
        check_series(self.wait_times, self.nbar, self.nbar_err, ("wait_times", "nbar", "nbar_err"))
        if len(self.nbar) < 3:
            raise ValueError("heating fits need at least 3 points")
        if min(self.nbar) < 0:
            raise ValueError("nbar values must be >= 0")


@dataclass(frozen=True)
class HeatingRateResult:
    ndot: float  # quanta/s
    ndot_err: float
    intercept: float  # quanta
    intercept_err: float = 0.0

    def __post_init__(self):
        for name, v in (("ndot", self.ndot), ("intercept", self.intercept)):
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if not 0 <= self.ndot_err < math.inf:
            raise ValueError(f"ndot_err must be >= 0 and finite, got {self.ndot_err}")


@dataclass(frozen=True)
class PowerLawFit:
    """y = amplitude * x**(-exponent); positive exponent means decay."""

    amplitude: float
    exponent: float
    exponent_err: float

    def __post_init__(self):
        if self.amplitude <= 0:
            raise ValueError("amplitude must be positive")


def weighted_linear_fit(x, y, yerr=None):
    """Weighted least-squares line y = a + b*x, in closed form about the
    weighted mean of x in plain floats: here, beside its callers, so that
    fit-heating loads no numpy. Returns (a, b, cov), cov the 2x2 parameter
    covariance as nested tuples, at face value (absolute sigma) with errors
    and scaled by the residual variance with unit weights."""
    x, y = [float(v) for v in x], [float(v) for v in y]
    n = len(x)
    if len(y) != n:
        raise ValueError("x and y must have equal length")
    if n < 3:
        raise ValueError("need at least 3 points to fit a line with errors")
    if not all(map(math.isfinite, x + y)):
        raise ValueError("x and y must be finite")
    if min(x) == max(x):
        raise ValueError("degenerate design: all x values are equal")
    try:
        e = [1.0] * n if yerr is None else [float(v) for v in yerr]
    except TypeError:  # a nested sequence
        e = []
    if len(e) != n:
        raise ValueError("errors must have the shape of x")
    if not all(map(math.isfinite, e)):
        raise ValueError("errors must be finite")
    if min(e) <= 0:
        raise ValueError("errors must be positive")
    w = [1.0 / v / v for v in e]
    try:
        s = math.fsum(w)
        xm, ym = (math.fsum(wi * v for wi, v in zip(w, c)) / s for c in (x, y))
        dx, dy = [v - xm for v in x], [v - ym for v in y]
        sxx = math.fsum(wi * d * d for wi, d in zip(w, dx))
        b = math.fsum(wi * d * r for wi, d, r in zip(w, dx, dy)) / sxx
        scale = 1.0 if yerr is not None else math.fsum((r - b * d) ** 2 for d, r in zip(dx, dy)) / (n - 2)
        cab = -scale * xm / sxx  # cov(a, b)
        a, cov = ym - b * xm, ((scale / s - cab * xm, cab), (cab, scale / sxx))
        if not all(map(math.isfinite, (a, b, *cov[0], cov[1][1]))):
            raise OverflowError
    except ZeroDivisionError:
        raise ValueError("degenerate design: the weighted sums vanish") from None
    except (OverflowError, ValueError):  # an inf, or fsum's overflow or inf - inf
        raise ValueError("the line overflows floating point; rescale x, y or the errors") from None
    return a, b, cov


def fit_heating_rate(series: HeatingSeries) -> HeatingRateResult:
    """Weighted linear fit nbar(t) = intercept + ndot*t."""
    a, b, cov = weighted_linear_fit(series.wait_times, series.nbar, series.nbar_err)
    return HeatingRateResult(ndot=b, ndot_err=math.sqrt(cov[1][1]), intercept=a, intercept_err=math.sqrt(cov[0][0]))


def fit_record(ds) -> tuple[FitReport, list]:
    """The 'heating-linear' report of a heating record's rate fit, and its
    rows: each wait time, nbar and the fitted line there."""
    from .datasets import to_heating_series
    series = to_heating_series(ds)
    result = fit_heating_rate(series)
    model = [result.intercept + result.ndot * t for t in series.wait_times]
    try:
        rms = math.sqrt(math.fsum((n - m) ** 2 for n, m in zip(series.nbar, model)) / len(model))
    except OverflowError:  # a residual's square
        raise ValueError("the residuals overflow floating point; rescale nbar or its errors") from None
    report = FitReport(
        model="heating-linear",
        params={"ndot": result.ndot, "intercept": result.intercept},
        param_errs={"ndot": result.ndot_err, "intercept": result.intercept_err},
        residual_rms=rms,
        n_points=len(series.wait_times),
        extras={"ndot_q_per_ms": result.ndot / 1e3},
    )
    return report, list(zip(series.wait_times, series.nbar, model))


def spectral_density_from_rate(result: HeatingRateResult, ctx: TrapContext) -> float:
    """Electric-field noise spectral density S_E = 4*m*hbar*omega*ndot/q^2,
    in (V/m)^2/Hz, at the context's axial frequency."""
    if result.ndot < 0:
        raise ValueError("ndot must be >= 0 for a spectral density")
    m = ctx.species.mass
    q = ctx.species.charge
    return 4.0 * m * HBAR * ctx.axial_freq * result.ndot / (q * q)


def rate_from_spectral_density(s_e: float, ctx: TrapContext) -> float:
    """Inverse of spectral_density_from_rate: ndot = q^2 S_E/(4 m hbar omega)."""
    m = ctx.species.mass
    q = ctx.species.charge
    return q * q * s_e / (4.0 * m * HBAR * ctx.axial_freq)


def normalize_rate(
    result: HeatingRateResult,
    ctx: TrapContext,
    ref_species: IonSpecies,
    ref_freq: float,
) -> float:
    """Rescale a heating rate to a reference species and angular frequency.

    Assumes the field-noise spectral density scales as 1/omega, which with
    ndot = q^2 S_E/(4 m hbar omega) gives
    ndot_ref = ndot * (m/m_ref) * (omega/omega_ref)^2.
    """
    if not 0 < ref_freq < math.inf:
        raise ValueError(f"ref_freq must be positive and finite, got {ref_freq}")
    m_ratio = ctx.species.mass / ref_species.mass
    f_ratio = ctx.axial_freq / ref_freq
    return result.ndot * m_ratio * f_ratio * f_ratio


def normalization_report(rate, rate_err, species, freq, ref_species, ref_freq, config=None) -> FitReport:
    """The 'rate-normalization' report of a rate +- rate_err (quanta/s) of
    species at axial freq (Hz): the rate at ref_species and ref_freq (Hz),
    and S_E; config is load_config's path."""
    if config is not None:  # only a config file needs the dataset reader
        from .datasets import load_config
    table = None if config is None else load_config(config)
    # neither conversion reads the ion-surface distance; the context takes 20 um
    ctx = make_trap_context(species, TWO_PI * freq, TWO_PI * freq, 20e-6, species_table=table)
    result = HeatingRateResult(ndot=rate, ndot_err=rate_err, intercept=0.0)
    ref = get_species(ref_species, table)

    def convert(r):
        return {
            "ndot_normalized": normalize_rate(r, ctx, ref, TWO_PI * ref_freq),
            "spectral_density": spectral_density_from_rate(r, ctx),
        }

    # both conversions are linear in the rate, so its error converts alike
    params, errs = convert(result), convert(replace(result, ndot=result.ndot_err))
    return FitReport("rate-normalization", params, errs, 0.0, 1, extras={"ndot_input": rate})


def fit_power_law(x, y, yerr=None) -> PowerLawFit:
    """Fit y = A * x**(-k) by weighted linear regression in log-log space.

    Relative y errors map to absolute errors on log y. Note the fit is
    biased for large relative error bars; at the ~10% level used here the
    bias on the exponent is negligible.
    """
    x, y = [float(v) for v in x], [float(v) for v in y]
    if min(x) <= 0 or min(y) <= 0:
        raise ValueError("power-law fits require positive x and y")
    # zip would stop at the shorter; y > 0, so weighted_linear_fit's checks
    # reject a nested, non-finite or non-positive yerr
    if yerr is not None and len(yerr) != len(x):
        raise ValueError("errors must have the shape of x")
    log_err = None if yerr is None else (e / v for e, v in zip(yerr, y))
    a, b, cov = weighted_linear_fit(map(math.log, x), map(math.log, y), log_err)
    return PowerLawFit(amplitude=math.exp(a), exponent=-b, exponent_err=math.sqrt(cov[1][1]))


def position_scan_summary(rates):
    """Summarize heating rates measured at several trap positions.

    rates: sequence of (position_m, HeatingRateResult). Returns the
    inverse-variance-weighted mean rate, its standard error, and the
    chi-square p-value of the constant-rate model; a large p-value means
    no measurable position dependence.
    """
    import numpy as np

    rates = list(rates)
    if len(rates) < 2:
        raise ValueError("need at least 2 positions")
    vals = np.array([r.ndot for _, r in rates])
    errs = np.array([r.ndot_err for _, r in rates])
    if np.any(errs <= 0):
        raise ValueError("all rates need positive errors for the weighted mean")
    w = 1.0 / errs**2
    mean = float(np.sum(w * vals) / np.sum(w))
    mean_err = float(1.0 / math.sqrt(np.sum(w)))
    chisq = float(np.sum(w * (vals - mean) ** 2))
    dof = len(rates) - 1
    # chdtrc is the chi-square survival function that scipy.stats.chi2.sf calls
    from scipy.special import chdtrc

    p_value = float(chdtrc(dof, chisq))
    return mean, mean_err, p_value
