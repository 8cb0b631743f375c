"""Grating output-beam models and the intensity <-> Rabi-frequency mapping.

The measured double-peak profile is represented by a phenomenological
two-beamlet interference surrogate: two Gaussian field envelopes with a
relative phase, whose coherent sum reproduces the two maxima and central
dip without re-running a full optical simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fitting import (
    FitReport,
    check_series,
    covariance_from_jacobian,
    multistart_least_squares,
)

BEAM_MODES = ("single-gaussian", "two-beamlet")

DEFAULT_BEAMLET_WAIST = 0.9e-6  # m, sub-micron beamlets


@dataclass(frozen=True)
class GratingOutputModel:
    """Parameterized output-beam intensity along the trap axis.

    The profile is evaluated directly in the along-trap coordinate.
    """

    mode: str
    waist: float  # m; beam waist (single) or beamlet waist (two-beamlet)
    peak_intensity: float = 1.0  # W/m^2, relative scale
    center: float = 0.0  # m, beam (or beamlet-midpoint) position
    beamlet_separation: float = 0.0  # m
    beamlet_phase: float = math.pi  # rad
    beamlet_amplitude_ratio: float = 1.0

    def __post_init__(self):
        if self.mode not in BEAM_MODES:
            raise ValueError(f"mode must be one of {BEAM_MODES}")
        if self.waist <= 0:
            raise ValueError("waist must be positive")
        if self.beamlet_amplitude_ratio < 0:
            raise ValueError("beamlet_amplitude_ratio must be >= 0")


@dataclass(frozen=True)
class RabiPositionScan:
    positions: tuple  # m, strictly increasing
    rabi: tuple  # rad/s
    rabi_err: tuple | None = None

    def __post_init__(self):
        check_series(self.positions, self.rabi, self.rabi_err, ("positions", "rabi", "rabi_err"))


def two_beamlet_intensity(x, model: GratingOutputModel):
    """Coherent two-beamlet interference profile along the scan axis.

    |a1 g(x-x1) + a2 g(x-x2) e^{i phi}|^2 with Gaussian field envelopes
    g(u) = exp(-u^2/waist^2); a2 = 0 reduces to a single Gaussian of the
    beamlet waist.
    """
    if model.mode != "two-beamlet":
        raise ValueError("two_beamlet_intensity requires mode='two-beamlet'")
    x = np.asarray(x, dtype=float)
    w = model.waist
    x1 = model.center - 0.5 * model.beamlet_separation
    x2 = model.center + 0.5 * model.beamlet_separation
    g1 = np.exp(-((x - x1) ** 2) / (w * w))
    g2 = model.beamlet_amplitude_ratio * np.exp(-((x - x2) ** 2) / (w * w))
    out = model.peak_intensity * (
        g1 * g1 + g2 * g2 + 2.0 * g1 * g2 * math.cos(model.beamlet_phase)
    )
    # the coherent sum is >= (g1-g2)^2; clamp rounding-level negatives
    out = np.clip(out, 0.0, None)
    return float(out) if out.ndim == 0 else out


def profile_intensity(x, model: GratingOutputModel):
    """Evaluate the model intensity along the scan axis for either mode."""
    if model.mode == "two-beamlet":
        return two_beamlet_intensity(x, model)
    x = np.asarray(x, dtype=float)
    out = model.peak_intensity * np.exp(
        -2.0 * (x - model.center) ** 2 / (model.waist**2)
    )
    return float(out) if out.ndim == 0 else out


def rabi_profile(x, model: GratingOutputModel, rabi_scale: float):
    """Model Rabi frequency along the scan axis, rabi_scale * sqrt(I(x)/I_peak).

    The fit's residuals and the CLI's model column both use this curve. It
    skips rabi_from_intensity's input checks because the fit calls it on
    every residual evaluation.
    """
    return rabi_scale * np.sqrt(np.asarray(profile_intensity(x, model)) / model.peak_intensity)


def rabi_from_intensity(intensity, reference: tuple[float, float]):
    """Map intensity to Rabi frequency via field-amplitude proportionality.

    reference is a (rabi_ref, intensity_ref) calibration pair; the map is
    Omega = rabi_ref * sqrt(I / I_ref).
    """
    rabi_ref, intensity_ref = reference
    if intensity_ref <= 0:
        raise ValueError("reference intensity must be positive")
    intensity = np.asarray(intensity, dtype=float)
    if np.any(intensity < 0):
        raise ValueError("intensity must be >= 0")
    out = rabi_ref * np.sqrt(intensity / intensity_ref)
    return float(out) if out.ndim == 0 else out


def pi_time_to_rabi(t_pi: float) -> float:
    """Rabi frequency (rad/s) of a pulse with the given pi-time."""
    if t_pi <= 0:
        raise ValueError("pi-time must be positive")
    return math.pi / t_pi


def profile_extrema(model: GratingOutputModel):
    """Locate the intensity maxima (and the dip between them, if any).

    Returns (peak_positions, dip_depth) where dip_depth is 1 - I_dip/I_peak
    for a double-peaked profile and 0.0 otherwise. Grid search refined by
    bounded scalar minimization.
    """
    span = 4.0 * model.waist + abs(model.beamlet_separation)
    xs = np.linspace(model.center - span, model.center + span, 4001)
    ys = np.asarray(profile_intensity(xs, model))
    interior = np.arange(1, xs.size - 1)
    is_max = (ys[interior] > ys[interior - 1]) & (ys[interior] >= ys[interior + 1])
    peak_idx = interior[is_max]
    from scipy.optimize import minimize_scalar

    peaks = []
    for i in peak_idx:
        res = minimize_scalar(
            lambda u: -profile_intensity(u, model),
            bounds=(xs[i - 1], xs[i + 1]),
            method="bounded",
            options={"xatol": 1e-6 * span},
        )
        peaks.append(float(res.x))
    peaks.sort()
    if len(peaks) >= 2:
        lo, hi = peaks[0], peaks[-1]
        res = minimize_scalar(
            lambda u: profile_intensity(u, model),
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-6 * span},
        )
        i_peak = max(profile_intensity(lo, model), profile_intensity(hi, model))
        dip_depth = 1.0 - profile_intensity(float(res.x), model) / i_peak
    else:
        dip_depth = 0.0
    return peaks, float(dip_depth)


def fit_profile(
    scan: RabiPositionScan,
    mode: str = "two-beamlet",
) -> tuple[GratingOutputModel, FitReport]:
    """Least-squares fit of an intensity model to a Rabi-vs-position scan.

    The model Rabi curve is rabi_scale * sqrt(I_rel(x)). Reports peak
    positions, separation, and dip depth of the fitted profile.
    """
    if mode not in BEAM_MODES:
        raise ValueError(f"mode must be one of {BEAM_MODES}")
    x = np.asarray(scan.positions, dtype=float)
    r = np.asarray(scan.rabi, dtype=float)
    if x.size < 7:
        raise ValueError("need at least 7 scan points")
    w = None
    if scan.rabi_err is not None:
        w = 1.0 / np.asarray(scan.rabi_err, dtype=float)

    r_max = float(np.max(r))
    x_peak = float(x[np.argmax(r)])
    span = float(np.ptp(x))

    if mode == "single-gaussian":

        def unpack(theta):
            return GratingOutputModel(
                mode="single-gaussian",
                waist=math.exp(theta[1]),
                center=theta[0],
            ), theta[2]

        seeds = [
            [x_peak, math.log(wg), r_max]
            for wg in (0.25 * span, 0.1 * span, DEFAULT_BEAMLET_WAIST)
        ]
        param_names = ("center", "waist", "rabi_scale")
    else:
        # crude double-peak seed from the data: distance between the two
        # highest well-separated samples
        order = np.argsort(r)[::-1]
        x_second = x_peak
        for i in order[1:]:
            if abs(x[i] - x_peak) > 0.1 * span:
                x_second = float(x[i])
                break
        sep_guess = abs(x_second - x_peak) or 0.2 * span
        center_guess = 0.5 * (x_peak + x_second)

        def unpack(theta):
            return GratingOutputModel(
                mode="two-beamlet",
                waist=math.exp(theta[2]),
                center=theta[0],
                beamlet_separation=abs(theta[1]),
                beamlet_phase=theta[3],
                beamlet_amplitude_ratio=abs(theta[4]),
            ), theta[5]

        seeds = [
            [center_guess, sep_guess, math.log(wg), phase, 1.0, r_max]
            for wg in (0.5 * sep_guess, DEFAULT_BEAMLET_WAIST)
            for phase in (math.pi, 0.5 * math.pi, 2.0)
        ]
        param_names = (
            "center",
            "separation",
            "waist",
            "phase",
            "amplitude_ratio",
            "rabi_scale",
        )

    def residuals(theta):
        resid = rabi_profile(x, *unpack(theta)) - r
        return resid * w if w is not None else resid

    res = multistart_least_squares(residuals, seeds, max_keep=3)
    model, scale = unpack(res.x)

    cov = covariance_from_jacobian(res.jac, res.fun, absolute_sigma=w is not None)
    raw_errs = np.sqrt(np.clip(np.diag(cov), 0, None))
    fitted = {
        "center": model.center,
        "separation": model.beamlet_separation,
        "waist": model.waist,
        "phase": model.beamlet_phase,
        "amplitude_ratio": model.beamlet_amplitude_ratio,
        "rabi_scale": scale,
    }
    params = {name: fitted[name] for name in param_names}
    errs = dict(zip(param_names, raw_errs))
    errs["waist"] = model.waist * errs["waist"]  # the fit searches log(waist)

    peaks, dip_depth = profile_extrema(model)
    flags = []
    if mode == "two-beamlet" and (
        model.beamlet_amplitude_ratio < 1e-3
        or errs["amplitude_ratio"] > 10 * max(model.beamlet_amplitude_ratio, 1e-12)
    ):
        flags.append("degenerate-two-beamlet-fit")
    if res.status == 0:
        flags.append("max-nfev-reached")
    extras = {"dip_depth": dip_depth, "n_peaks": float(len(peaks))}
    for i, p in enumerate(peaks[:2]):
        extras[f"peak_{i}"] = p
    if len(peaks) >= 2:
        extras["peak_separation"] = peaks[-1] - peaks[0]
    report = FitReport(
        model=f"beam-profile-{mode}",
        params=params,
        param_errs=errs,
        residual_rms=float(np.sqrt(np.mean(res.fun**2))),
        n_points=x.size,
        flags=flags,
        extras=extras,
    )
    return replace(model, peak_intensity=1.0), report
