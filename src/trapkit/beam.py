"""Grating output-beam models and the intensity <-> Rabi-frequency mapping.

The measured double-peak profile is represented by a phenomenological
two-beamlet interference surrogate: two Gaussian field envelopes with a
relative phase, whose coherent sum reproduces the two maxima and central
dip without re-running a full optical simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import check_series, to_position_scan
from .fitting import fit_report, multistart_least_squares
from .reports import FitReport
from .units import BEAM_MODES

DEFAULT_BEAMLET_WAIST = 0.9e-6  # m, sub-micron beamlets


@dataclass(frozen=True)
class GratingOutputModel:
    """Parameterized output-beam intensity along the trap axis.

    The profile is evaluated directly in the along-trap coordinate, in units
    of the (first) beam's peak intensity.
    """

    mode: str
    waist: float  # m; beam waist (single) or beamlet waist (two-beamlet)
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


def profile_intensity(x, model: GratingOutputModel):
    """Evaluate the model intensity along the scan axis for either mode.

    Two beamlets give the coherent interference profile
    |a1 g(x-x1) + a2 g(x-x2) e^{i phi}|^2 with Gaussian field envelopes
    g(u) = exp(-u^2/waist^2); a2 = 0 reduces to a single Gaussian of the
    beamlet waist.
    """
    x = np.asarray(x, dtype=float)
    if model.mode == "two-beamlet":
        w = model.waist
        x1 = model.center - 0.5 * model.beamlet_separation
        x2 = model.center + 0.5 * model.beamlet_separation
        g1 = np.exp(-((x - x1) ** 2) / (w * w))
        g2 = model.beamlet_amplitude_ratio * np.exp(-((x - x2) ** 2) / (w * w))
        out = g1 * g1 + g2 * g2 + 2.0 * g1 * g2 * math.cos(model.beamlet_phase)
        # the coherent sum is >= (g1-g2)^2; clamp rounding-level negatives
        out = np.clip(out, 0.0, None)
    else:
        out = np.exp(-2.0 * (x - model.center) ** 2 / (model.waist**2))
    return float(out) if out.ndim == 0 else out


def rabi_profile(x, model: GratingOutputModel, rabi_scale: float):
    """Model Rabi frequency along the scan axis, rabi_scale * sqrt(I(x)):
    the Rabi frequency is proportional to the field amplitude, and
    rabi_scale is the Rabi frequency at unit model intensity.

    The simulator, the fit's residuals and the CLI's model column all use
    this curve.
    """
    return rabi_scale * np.sqrt(np.asarray(profile_intensity(x, model)))


def pi_time_to_rabi(t_pi: float) -> float:
    """Rabi frequency (rad/s) of a pulse with the given pi-time."""
    if t_pi <= 0:
        raise ValueError("pi-time must be positive")
    return math.pi / t_pi


def profile_extrema(model: GratingOutputModel):
    """Locate the intensity maxima (and the dip between them, if any).

    Returns (peak_positions, dip_depth) where dip_depth is 1 - I_dip/I_peak
    for a double-peaked profile and 0.0 otherwise. A grid search, with each
    grid maximum, and the lowest grid point between the outer peaks, moved
    to the vertex of the parabola through it and its two neighbours: the
    interpolation step of Brent's method, which stays within half a cell.
    """
    span = 4.0 * model.waist + abs(model.beamlet_separation)
    xs = np.linspace(model.center - span, model.center + span, 4001)
    ys = np.asarray(profile_intensity(xs, model))
    interior = np.arange(1, xs.size - 1)
    is_max = (ys[interior] > ys[interior - 1]) & (ys[interior] >= ys[interior + 1])
    peak_idx = interior[is_max]
    peaks = [_vertex(xs, ys, i) for i in peak_idx]
    if len(peaks) < 2:
        return peaks, 0.0
    dip = _vertex(xs, ys, peak_idx[0] + int(np.argmin(ys[peak_idx[0] : peak_idx[-1] + 1])))
    i_peak = max(profile_intensity(peaks[0], model), profile_intensity(peaks[-1], model))
    return peaks, float(1.0 - profile_intensity(dip, model) / i_peak)


def _vertex(xs, ys, i):
    """xs[i] moved to the vertex of the parabola through the samples at
    i - 1, i and i + 1 of the uniform grid xs; xs[i] where their curvature
    is 0."""
    curvature = ys[i - 1] - 2.0 * ys[i] + ys[i + 1]
    step = 0.5 * (ys[i - 1] - ys[i + 1]) / curvature if curvature else 0.0
    return float(xs[i] + step * (xs[1] - xs[0]))


# fit_profile's parameters in each mode, as indices into the full vector
# (center, separation, log waist, a, b, rabi_scale), where a + ib is the
# second beamlet's complex amplitude; a single Gaussian is two beamlets
# with separation 0 and a = b = 0
_FREE = {"single-gaussian": [0, 2, 5], "two-beamlet": [0, 1, 2, 3, 4, 5]}
# the names the report gives the full vector's entries: a + ib is reported
# as its phase and amplitude ratio
_NAMES = ("center", "separation", "waist", "phase", "amplitude_ratio", "rabi_scale")


def _unpack(theta, mode):
    """The full parameter vector that fit_profile's parameters theta give in
    mode, and the model and rabi_scale it describes. The separation enters
    as its absolute value; a + ib is the ratio times exp(i phase)."""
    full = np.zeros(6)
    full[_FREE[mode]] = theta
    center, separation, log_waist, a, b, scale = full
    beamlets = {}
    if mode == "two-beamlet":
        phase, ratio = math.atan2(b, a), math.hypot(a, b)
        beamlets = dict(beamlet_separation=abs(separation), beamlet_phase=phase, beamlet_amplitude_ratio=ratio)
    return full, GratingOutputModel(mode=mode, waist=math.exp(log_waist), center=center, **beamlets), scale


def _field(x, full):
    """The field E = g1 + (a + ib) g2 at x, whose modulus is rabi_profile /
    rabi_scale in either mode, as (Re E, Im E, dRe E, dIm E): the
    derivatives in the first five full parameters, one column each, with
    the sign of the separation, which enters as its absolute value."""
    center, separation, log_waist, a, b, _ = full
    w2 = math.exp(log_waist) ** 2
    sign = 1.0 if separation >= 0 else -1.0
    # dg/du = -2u g / w^2
    u1 = x - center + 0.5 * abs(separation)
    u2 = u1 - abs(separation)
    g1 = np.exp(-u1 * u1 / w2)
    g2 = np.exp(-u2 * u2 / w2)
    dg1 = np.column_stack([2.0 * g1 * u1 / w2, -sign * g1 * u1 / w2, 2.0 * g1 * u1 * u1 / w2])
    dg2 = np.column_stack([2.0 * g2 * u2 / w2, sign * g2 * u2 / w2, 2.0 * g2 * u2 * u2 / w2])
    zero = np.zeros_like(x)
    d_re = np.column_stack([dg1 + a * dg2, g2, zero])
    d_im = np.column_stack([b * dg2, zero, g2])
    return g1 + a * g2, b * g2, d_re, d_im


@np.errstate(all="ignore")  # an extreme scan's overflow ends in a non-finite value the fit checks
def fit_profile(
    scan: RabiPositionScan,
    mode: str = "two-beamlet",
) -> tuple[GratingOutputModel, FitReport]:
    """Least-squares fit of an intensity model to a Rabi-vs-position scan.

    The model Rabi curve is rabi_scale * sqrt(I_rel(x)), polished from the
    best of several seeds by the numpy trust region on the analytic
    Jacobian. Two beamlets are fitted with the second's complex amplitude
    a + ib, whose argument and modulus are the reported phase and
    amplitude ratio. Reports peak positions, separation, and dip depth of the
    fitted profile.
    """
    if mode not in BEAM_MODES:
        raise ValueError(f"mode must be one of {BEAM_MODES}")
    x = np.asarray(scan.positions, dtype=float)
    r = np.asarray(scan.rabi, dtype=float)
    if x.size < 7:
        raise ValueError("need at least 7 scan points")
    if not np.any(r):
        raise ValueError("no scan point has a nonzero Rabi frequency to fit")
    w = None
    if scan.rabi_err is not None:
        w = 1.0 / np.asarray(scan.rabi_err, dtype=float)

    span = float(np.ptp(x))
    if math.isinf(span * span):  # the model squares lengths of the scan's size
        raise ValueError(f"the positions span {span:g} m, whose square overflows floating point")
    r_max = float(np.max(r))
    x_peak = float(x[np.argmax(r)])

    if mode == "single-gaussian":
        seeds = [
            [x_peak, math.log(wg), r_max]
            for wg in (0.25 * span, 0.1 * span, DEFAULT_BEAMLET_WAIST)
        ]
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
            [center_guess, sep_guess, math.log(wg), math.cos(phase), math.sin(phase), r_max]
            for wg in (0.5 * sep_guess, DEFAULT_BEAMLET_WAIST)
            # not at phase pi: from there criterion 9's fits still find both
            # peaks, but with about 3.5x the evaluations
            for phase in (0.9 * math.pi, 0.5 * math.pi, 2.0)
        ]

    # A sample measured at zero asks for E = 0 there, and its residual
    # rabi_scale * |E| has a cone at the solution: the solver stalls at its
    # tip. It enters as rabi_scale * (Re E, Im E), the same cost, smooth.
    on = r != 0 if mode == "two-beamlet" else np.ones(x.size, dtype=bool)
    x_on, r_on, x_off = x[on], r[on], x[~on]
    w_rows = None if w is None else np.concatenate([w[on], w[~on], w[~on]])
    cols = _FREE[mode]

    def residuals(theta):
        full, model, scale = _unpack(theta, mode)
        resid = rabi_profile(x_on, model, scale) - r_on
        if x_off.size:
            re, im, _, _ = _field(x_off, full)
            resid = np.concatenate([resid, scale * re, scale * im])
        return resid * w_rows if w is not None else resid

    def jacobian(theta):
        # d(rabi_scale |E|) = rabi_scale (Re E dRe E + Im E dIm E) / |E|.
        # Where |E| is 0 exactly, at a kink, the entries are the one-sided
        # slopes rabi_scale |dE|, the limit of a forward difference: a zero
        # row would hide the kink, and a start that puts E = 0 on a sample
        # could not leave it
        full = _unpack(theta, mode)[0]
        scale = full[5]
        re, im, d_re, d_im = _field(x, full)
        f = np.hypot(re, im)
        with np.errstate(divide="ignore", invalid="ignore"):
            df = np.where(f[:, None] > 0, (re[:, None] * d_re + im[:, None] * d_im) / f[:, None], np.hypot(d_re, d_im))
        jac = np.vstack([
            np.column_stack([scale * df, f])[on],
            np.column_stack([scale * d_re, re])[~on],
            np.column_stack([scale * d_im, im])[~on],
        ])[:, cols]
        return jac * w_rows[:, None] if w is not None else jac

    res = multistart_least_squares(residuals, seeds, jac=jacobian)
    full, model, scale = _unpack(res.x, mode)

    # the reported parameters' derivatives in the fitted ones: the fit
    # searches log(waist), and the phase and ratio are those of a + ib
    G = np.eye(6)
    G[2, 2] = model.waist
    if mode == "two-beamlet":
        a, b, ratio = full[3], full[4], model.beamlet_amplitude_ratio
        G[3:5, 3:5] = [[-b / ratio**2, a / ratio**2], [a / ratio, b / ratio]]
    G = G[np.ix_(cols, cols)]
    values = (model.center, model.beamlet_separation, model.waist, model.beamlet_phase, model.beamlet_amplitude_ratio, scale)
    params = {_NAMES[i]: values[i] for i in cols}

    peaks, dip_depth = profile_extrema(model)
    extras = {"dip_depth": dip_depth, "n_peaks": float(len(peaks))}
    for i, p in enumerate(peaks[:2]):
        extras[f"peak_{i}"] = p
    if len(peaks) >= 2:
        extras["peak_separation"] = peaks[-1] - peaks[0]
    # a sample measured as zero gives two rows: n_points counts the samples
    report, _ = fit_report(f"beam-profile-{mode}", params, G, res.jac, res.fun, x.size, w is not None, res.status, extras)
    # a vanishing second beamlet, or two beamlets that coincide
    if mode == "two-beamlet" and (
        model.beamlet_amplitude_ratio < 1e-3
        or report.param_errs["amplitude_ratio"] > 10 * max(model.beamlet_amplitude_ratio, 1e-12)
        or model.beamlet_separation < 1e-3 * model.waist
    ):
        report.flags.append("degenerate-two-beamlet-fit")
    return model, report


def fit_record(ds, mode="two-beamlet") -> tuple[FitReport, list]:
    """Fit a position-scan record: fit_profile's report and the rows, each
    position, Rabi frequency and model Rabi frequency."""
    scan = to_position_scan(ds)
    model, report = fit_profile(scan, mode=mode)
    rows = zip(scan.positions, scan.rabi, rabi_profile(scan.positions, model, report.params["rabi_scale"]))
    return report, list(rows)
