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

from .fitting import check_series, covariance_from_jacobian, multistart_least_squares
from .reports import FitReport
from .units import BEAM_MODES

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
    for a double-peaked profile and 0.0 otherwise. A grid search, with each
    grid maximum, and the lowest grid point between the outer peaks,
    refined inside its grid bracket by golden-section search to 1e-6 of the
    grid's half-span.
    """
    span = 4.0 * model.waist + abs(model.beamlet_separation)
    xs = np.linspace(model.center - span, model.center + span, 4001)
    ys = np.asarray(profile_intensity(xs, model))
    interior = np.arange(1, xs.size - 1)
    is_max = (ys[interior] > ys[interior - 1]) & (ys[interior] >= ys[interior + 1])
    peak_idx = interior[is_max]
    tol = 1e-6 * span
    peaks = sorted(
        _golden_section_min(lambda u: -profile_intensity(u, model), xs[i - 1], xs[i + 1], tol)
        for i in peak_idx
    )
    if len(peaks) < 2:
        return peaks, 0.0
    j = peak_idx[0] + int(np.argmin(ys[peak_idx[0] : peak_idx[-1] + 1]))
    dip = _golden_section_min(lambda u: profile_intensity(u, model), xs[j - 1], xs[j + 1], tol)
    i_peak = max(profile_intensity(peaks[0], model), profile_intensity(peaks[-1], model))
    return peaks, float(1.0 - profile_intensity(dip, model) / i_peak)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section_min(f, a, b, tol):
    """The minimiser of f, unimodal on [a, b], to within tol/2."""
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return float(0.5 * (a + b))


def _unpack(theta, mode):
    """The model and rabi_scale that fit_profile's parameters describe:
    (center, log waist, rabi_scale) for a single Gaussian, and (center,
    separation, log waist, phase, amplitude ratio, rabi_scale) for two
    beamlets, whose separation and ratio enter as their absolute values."""
    if mode == "single-gaussian":
        return GratingOutputModel(mode=mode, waist=math.exp(theta[1]), center=theta[0]), theta[2]
    return GratingOutputModel(
        mode=mode,
        waist=math.exp(theta[2]),
        center=theta[0],
        beamlet_separation=abs(theta[1]),
        beamlet_phase=theta[3],
        beamlet_amplitude_ratio=abs(theta[4]),
    ), theta[5]


def _rabi_jacobian(x, theta, mode):
    """The derivative of rabi_profile(x, *_unpack(theta, mode)) in theta.

    With f = sqrt(I) = |E|, df/dtheta = rabi_scale * (dI/dtheta) / (2f) and
    df/drabi_scale = f. Where f is 0 exactly, at a kink of |E|, the entries
    are the one-sided slopes rabi_scale * |dE/dtheta|, the limit of a
    forward difference. A zero row there would hide the kink from the
    solver, and a start that puts E = 0 on a sample could not leave it.
    """
    model, scale = _unpack(theta, mode)
    f = np.asarray(rabi_profile(x, model, 1.0))
    if mode == "single-gaussian":
        u = x - model.center
        w2 = model.waist**2
        return np.column_stack([scale * f * 2.0 * u / w2, scale * f * 2.0 * u * u / w2, f])
    re, im, d_re, d_im = _field(x, theta)
    kink = np.sqrt(d_re * d_re + d_im * d_im)
    with np.errstate(divide="ignore", invalid="ignore"):
        df = np.where(f[:, None] > 0, (re[:, None] * d_re + im[:, None] * d_im) / f[:, None], kink)
    return np.column_stack([scale * df, f])


def _field(x, theta):
    """The two-beamlet field E = g1 + g2 exp(i phase) at x, whose modulus is
    rabi_profile / rabi_scale, as (Re E, Im E, dRe E, dIm E): the derivatives
    in the first five of fit_profile's parameters, one column each, with
    the signs of separation and ratio, which enter as absolute values."""
    model, _ = _unpack(theta, "two-beamlet")
    w2 = model.waist**2
    # dg/du = -2u g / w^2
    u1 = x - model.center + 0.5 * model.beamlet_separation
    u2 = u1 - model.beamlet_separation
    g1 = np.exp(-u1 * u1 / w2)
    e2 = np.exp(-u2 * u2 / w2)
    g2 = model.beamlet_amplitude_ratio * e2
    cos, sin = math.cos(model.beamlet_phase), math.sin(model.beamlet_phase)
    zero = np.zeros_like(x)
    dg1 = np.column_stack([2.0 * g1 * u1 / w2, -g1 * u1 / w2, 2.0 * g1 * u1 * u1 / w2, zero, zero])
    dg2 = np.column_stack([2.0 * g2 * u2 / w2, g2 * u2 / w2, 2.0 * g2 * u2 * u2 / w2, zero, e2])
    d_re = dg1 + cos * dg2
    d_im = sin * dg2
    d_re[:, 3], d_im[:, 3] = -sin * g2, cos * g2
    signs = np.ones(5)
    signs[[1, 4]] = np.sign([theta[1], theta[4]])
    return g1 + cos * g2, sin * g2, d_re * signs, d_im * signs


def fit_profile(
    scan: RabiPositionScan,
    mode: str = "two-beamlet",
) -> tuple[GratingOutputModel, FitReport]:
    """Least-squares fit of an intensity model to a Rabi-vs-position scan.

    The model Rabi curve is rabi_scale * sqrt(I_rel(x)), polished from the
    best 3 of several seeds by the numpy trust region on the analytic
    Jacobian. Reports peak positions, separation, and dip depth of the
    fitted profile.
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
        seeds = [
            [center_guess, sep_guess, math.log(wg), phase, 1.0, r_max]
            for wg in (0.5 * sep_guess, DEFAULT_BEAMLET_WAIST)
            # not at phase pi, where dI/dphase = 0: the trust region's
            # column scaling would then fling the phase, and the start stall
            for phase in (0.9 * math.pi, 0.5 * math.pi, 2.0)
        ]
        param_names = (
            "center",
            "separation",
            "waist",
            "phase",
            "amplitude_ratio",
            "rabi_scale",
        )

    # A sample measured at zero asks for E = 0 there, and its residual
    # rabi_scale * |E| has a cone at the solution: the solver stalls at its
    # tip. It enters as rabi_scale * (Re E, Im E), the same cost, smooth.
    on = r != 0 if mode == "two-beamlet" else np.ones(x.size, dtype=bool)
    x_on, r_on, x_off = x[on], r[on], x[~on]
    w_rows = None if w is None else np.concatenate([w[on], w[~on], w[~on]])

    def residuals(theta):
        resid = rabi_profile(x_on, *_unpack(theta, mode)) - r_on
        if x_off.size:
            re, im, _, _ = _field(x_off, theta)
            resid = np.concatenate([resid, theta[5] * re, theta[5] * im])
        return resid * w_rows if w is not None else resid

    def jacobian(theta):
        jac = _rabi_jacobian(x_on, theta, mode)
        if x_off.size:
            re, im, d_re, d_im = _field(x_off, theta)
            jac = np.vstack([jac, np.column_stack([theta[5] * d_re, re]), np.column_stack([theta[5] * d_im, im])])
        return jac * w_rows[:, None] if w is not None else jac

    res = multistart_least_squares(residuals, seeds, jac=jacobian, max_keep=3, method="trf")
    model, scale = _unpack(res.x, mode)

    cov = covariance_from_jacobian(res.jac, res.fun, absolute_sigma=True)
    if w is None:  # scaled by the residual variance over the samples, not the rows
        cov = cov * 2.0 * res.cost / max(x.size - len(param_names), 1)
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
    # a vanishing second beamlet, or two beamlets that coincide
    if mode == "two-beamlet" and (
        model.beamlet_amplitude_ratio < 1e-3
        or errs["amplitude_ratio"] > 10 * max(model.beamlet_amplitude_ratio, 1e-12)
        or model.beamlet_separation < 1e-3 * model.waist
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
        residual_rms=float(np.sqrt(2.0 * res.cost / x.size)),
        n_points=x.size,
        flags=flags,
        extras=extras,
    )
    return replace(model, peak_intensity=1.0), report
