"""Shared fit machinery: weighted linear regression, multi-start nonlinear
least squares, and the structured fit report emitted by every pipeline."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

# Relative parameter uncertainty above which a parameter is reported as
# weakly identified by the data.
WEAK_IDENTIFIABILITY_THRESHOLD = 0.15


class FitConvergenceError(RuntimeError):
    """Nonlinear fit failed to converge within the bounded restarts.

    Carries the best parameter vector and cost seen, for diagnostics.
    """

    def __init__(self, message, best_params=None, best_cost=None):
        super().__init__(message)
        self.best_params = best_params
        self.best_cost = best_cost


@dataclass
class FitReport:
    """Serializable record of one fit: parameters, errors, quality flags."""

    model: str
    params: dict[str, float]
    param_errs: dict[str, float]
    residual_rms: float
    n_points: int
    flags: list[str] = field(default_factory=list)
    extras: dict[str, float] = field(default_factory=dict)
    provenance: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "params": dict(sorted(self.params.items())),
            "param_errs": dict(sorted(self.param_errs.items())),
            "residual_rms": self.residual_rms,
            "n_points": self.n_points,
            "flags": sorted(self.flags),
            "extras": dict(sorted(self.extras.items())),
            "provenance": dict(sorted(self.provenance.items())),
        }

    def to_json(self) -> str:
        # strict JSON: a NaN or Infinity anywhere raises ValueError
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "FitReport":
        return cls(
            model=d["model"],
            params=dict(d["params"]),
            param_errs=dict(d["param_errs"]),
            residual_rms=d["residual_rms"],
            n_points=d["n_points"],
            flags=list(d["flags"]),
            extras=dict(d.get("extras", {})),
            provenance=dict(d.get("provenance", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "FitReport":
        return cls.from_dict(json.loads(text))


def weighted_linear_fit(x, y, yerr=None):
    """Weighted least-squares line y = a + b*x.

    Returns (a, b, cov) where cov is the 2x2 parameter covariance. With
    explicit errors the covariance is taken at face value (absolute
    sigma); with unit weights it is scaled by the residual variance.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValueError("x and y must have equal length")
    if x.size < 3:
        raise ValueError("need at least 3 points to fit a line with errors")
    if np.ptp(x) == 0:
        raise ValueError("degenerate design: all x values are equal")
    if yerr is not None:
        yerr = np.asarray(yerr, dtype=float)
        if np.any(yerr <= 0):
            raise ValueError("errors must be positive")
        w = 1.0 / yerr
    else:
        w = np.ones_like(x)
    A = np.column_stack([w, w * x])
    beta, _, _, _ = np.linalg.lstsq(A, w * y, rcond=None)
    cov = np.linalg.inv(A.T @ A)
    if yerr is None:
        resid = y - (beta[0] + beta[1] * x)
        dof = x.size - 2
        cov = cov * (resid @ resid / dof if dof > 0 else np.nan)
    return beta[0], beta[1], cov


def multistart_least_squares(
    residual_fn,
    seeds,
    bounds=(-np.inf, np.inf),
    max_keep=4,
    x_scale="jac",
):
    """Run scipy damped least squares from several seeds; keep the best.

    seeds: iterable of parameter vectors. The seeds are prescreened by
    initial cost and only the most promising max_keep are polished. Raises
    FitConvergenceError (with best-so-far attached) if nothing converges.
    """
    seeds = [np.asarray(s, dtype=float) for s in seeds]
    if not seeds:
        raise ValueError("at least one seed is required")
    scored = []
    for s in seeds:
        r = residual_fn(s)
        c = float(r @ r) if np.all(np.isfinite(r)) else np.inf
        scored.append((c, s))
    scored.sort(key=lambda t: t[0])
    best = None
    for _, s in scored[:max_keep]:
        try:
            res = least_squares(
                residual_fn,
                s,
                bounds=bounds,
                method="trf",
                x_scale=x_scale,
                ftol=1e-12,
                xtol=1e-12,
                gtol=1e-12,
                max_nfev=1000,
            )
        except Exception:
            continue
        if not np.all(np.isfinite(res.x)):
            continue
        if best is None or res.cost < best.cost:
            best = res
    if best is None or not np.all(np.isfinite(best.fun)):
        bp = scored[0][1] if best is None else best.x
        bc = scored[0][0] if best is None else 2 * best.cost
        raise FitConvergenceError(
            "nonlinear fit failed to converge from all seeds",
            best_params=bp,
            best_cost=bc,
        )
    return best


def covariance_from_jacobian(jac: np.ndarray, residuals: np.ndarray, absolute_sigma: bool):
    """Parameter covariance from the weighted Jacobian at the solution.

    Uses the pseudo-inverse so rank-deficient (weakly identified) fits give
    large but finite variances where possible.
    """
    n, p = jac.shape
    jtj = jac.T @ jac
    cov = np.linalg.pinv(jtj)
    if not absolute_sigma:
        dof = max(n - p, 1)
        cov = cov * float(residuals @ residuals) / dof
    return cov


def weak_parameter_flags(params: dict[str, float], errs: dict[str, float]) -> list[str]:
    """Flag parameters whose relative uncertainty exceeds the threshold."""
    flags = []
    for name, value in params.items():
        err = errs.get(name, 0.0)
        if not math.isfinite(err):
            flags.append(f"weakly-identified:{name}")
        elif value != 0 and err / abs(value) > WEAK_IDENTIFIABILITY_THRESHOLD:
            flags.append(f"weakly-identified:{name}")
    return flags
