"""Heating-rate extraction, electric-field noise conversion, cross-experiment
normalization, and power-law fits in frequency and distance."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2

from .fitting import weighted_linear_fit
from .units import HBAR, IonSpecies, TrapContext


@dataclass(frozen=True)
class HeatingSeries:
    """A record of mean occupation vs wait time in one trap context."""

    wait_times: tuple  # s, strictly increasing
    nbar: tuple
    nbar_err: tuple | None
    context: TrapContext | None = None

    def __post_init__(self):
        t = np.asarray(self.wait_times, dtype=float)
        n = np.asarray(self.nbar, dtype=float)
        if t.size != n.size:
            raise ValueError("wait_times and nbar must have equal length")
        if t.size < 3:
            raise ValueError("heating fits need at least 3 points")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(n))):
            raise ValueError("wait_times and nbar must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("wait_times must be strictly increasing")
        if np.any(n < 0):
            raise ValueError("nbar values must be >= 0")
        if self.nbar_err is not None:
            e = np.asarray(self.nbar_err, dtype=float)
            if e.size != t.size:
                raise ValueError("nbar_err length mismatch")
            if not np.all(np.isfinite(e)):
                raise ValueError("nbar_err values must be finite")
            if np.any(e <= 0):
                raise ValueError("nbar_err values must be positive")


@dataclass(frozen=True)
class HeatingRateResult:
    ndot: float  # quanta/s
    ndot_err: float
    intercept: float  # quanta

    def __post_init__(self):
        if self.ndot_err < 0:
            raise ValueError("ndot_err must be >= 0")


@dataclass(frozen=True)
class PowerLawFit:
    """y = amplitude * x**(-exponent); positive exponent means decay."""

    amplitude: float
    exponent: float
    exponent_err: float

    def __post_init__(self):
        if self.amplitude <= 0:
            raise ValueError("amplitude must be positive")

    def __call__(self, x):
        return self.amplitude * np.asarray(x, dtype=float) ** (-self.exponent)


def fit_heating_rate(series: HeatingSeries) -> HeatingRateResult:
    """Weighted linear fit nbar(t) = intercept + ndot*t."""
    a, b, cov = weighted_linear_fit(series.wait_times, series.nbar, series.nbar_err)
    return HeatingRateResult(ndot=b, ndot_err=math.sqrt(cov[1, 1]), intercept=a)


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
    if ref_freq <= 0:
        raise ValueError("ref_freq must be positive")
    m_ratio = ctx.species.mass / ref_species.mass
    f_ratio = ctx.axial_freq / ref_freq
    return result.ndot * m_ratio * f_ratio * f_ratio


def fit_power_law(x, y, yerr=None) -> PowerLawFit:
    """Fit y = A * x**(-k) by weighted linear regression in log-log space.

    Relative y errors map to absolute errors on log y. Note the fit is
    biased for large relative error bars; at the ~10% level used here the
    bias on the exponent is negligible.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fits require positive x and y")
    log_err = None
    if yerr is not None:
        yerr = np.asarray(yerr, dtype=float)
        if np.any(yerr <= 0):
            raise ValueError("errors must be positive")
        log_err = yerr / y
    a, b, cov = weighted_linear_fit(np.log(x), np.log(y), log_err)
    return PowerLawFit(
        amplitude=math.exp(a), exponent=-b, exponent_err=math.sqrt(cov[1, 1])
    )


def position_scan_summary(rates):
    """Summarize heating rates measured at several trap positions.

    rates: sequence of (position_m, HeatingRateResult). Returns the
    inverse-variance-weighted mean rate, its standard error, and the
    chi-square p-value of the constant-rate model; a large p-value means
    no measurable position dependence.
    """
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
    p_value = float(chi2.sf(chisq, dof))
    return mean, mean_err, p_value
