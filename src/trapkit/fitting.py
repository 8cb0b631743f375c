"""Shared fit machinery: weighted linear regression and multi-start
nonlinear least squares. The fit report every pipeline emits is in
trapkit.reports.

Every nonlinear fit has an analytic Jacobian and is polished by a numpy
solver: a bounded Levenberg-Marquardt for the charging fits, an unbounded
trust region for the beam fit. No subcommand imports scipy.optimize."""

from __future__ import annotations

import math
import operator
from types import SimpleNamespace

import numpy as np

from .reports import FitConvergenceError, FitReport  # noqa: F401 (FitReport is re-exported)

# Relative parameter uncertainty above which a parameter is reported as
# weakly identified by the data.
WEAK_IDENTIFIABILITY_THRESHOLD = 0.15

# Every multistart polishes at most this many seeds, the best by initial
# cost, and stops once two polished costs agree within AGREE_RTOL (relative)
MAX_POLISHED = 3
AGREE_RTOL = 1e-9


def check_series(x, y, err, names: tuple[str, str, str]):
    """The contract every measured series keeps: x and y finite and of equal
    length, x strictly increasing, and err, if given, of the same length,
    finite and > 0. names labels (x, y, err) in the error messages.
    Returns x and y as float arrays."""
    x_name, y_name, err_name = names
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValueError(f"{x_name} and {y_name} must have equal length")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError(f"{x_name} and {y_name} must be finite")
    if np.any(np.diff(x) <= 0):
        raise ValueError(f"{x_name} must be strictly increasing")
    if err is not None:
        e = np.asarray(err, dtype=float)
        if e.size != x.size:
            raise ValueError(f"{err_name} length mismatch")
        if not np.all(np.isfinite(e)):
            raise ValueError(f"{err_name} must be finite")
        if np.any(e <= 0):
            raise ValueError(f"{err_name} must be positive")
    return x, y


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


def least_squares(fun, x0, jac, bounds=(-np.inf, np.inf), tol=1e-12, max_nfev=1000, method="lm"):
    """Minimise 0.5*|fun(x)|^2 over the box bounds, starting from x0.

    jac is the Jacobian of fun, a callable. method "lm" runs the bounded
    Levenberg-Marquardt below; "trf" runs the unbounded trust region below
    and ignores bounds. Each fit uses the solver that is faster on it. The
    beam fit uses the trust region: the Levenberg-Marquardt also finds both
    peaks in all of criterion 9's first 100 noisy fits, but with about 20x
    the evaluations. The charging fits, which need the bounds, use the
    Levenberg-Marquardt. tol is the ftol, xtol and gtol of both. The result
    has x, fun, jac, cost = 0.5*fun@fun, nfev and scipy's status codes:
    0 max_nfev reached, 1 gtol, 2 ftol, 3 xtol, 4 ftol and xtol.
    """
    if method == "trf":
        return _trust_region(fun, jac, x0, tol, max_nfev)
    return _levenberg_marquardt(fun, jac, x0, bounds, tol, max_nfev)


def _levenberg_marquardt(fun, jac, x0, bounds, tol, max_nfev):
    """Bounded Levenberg-Marquardt with Nielsen's damping update (Madsen,
    Nielsen & Tingleff, Methods for non-linear least squares problems,
    2004), damping each parameter in units of its Jacobian column's current
    norm (Marquardt 1963). A running maximum of the norms, as in scipy's
    x_scale="jac", sent criterion 7 seed 50's first discharge start into
    the swapped (Tb, Ta) basin. Steps are clipped to the box, and a
    parameter on a bound whose gradient points out of the box is held for
    that step. Per iteration numpy forms only g = J^T r, the column norms
    and one SVD J*scale = U S Vt, which serves every trial step; the trial
    steps, the box clip and the stop tests run on Python floats over the
    few parameters, with |J step| taken as |S Vt z| for the scaled step
    z = step/scale. jac is called only at accepted points. The ftol and
    xtol tests and the status codes follow scipy's; gtol bounds the free
    parameters' scaled gradient."""
    lb, ub = (np.broadcast_to(np.asarray(b, dtype=float), np.shape(x0)).tolist() for b in bounds)
    x = np.clip(np.asarray(x0, dtype=float), lb, ub)
    r = np.asarray(fun(x), dtype=float)
    if not np.all(np.isfinite(r)):
        raise ValueError("Residuals are not finite in the initial point.")
    nfev, cost, J, xs = 1, 0.5 * float(r @ r), jac(x), x.tolist()
    mu, nu = 1.0, 2.0  # mu: the largest diagonal entry of the scaled J^T J
    status = None
    while status is None:
        g = (J.T @ r).tolist()
        norms = np.sqrt(np.einsum("ij,ij->j", J, J)).tolist()
        # 0 holds a parameter: its column and its step vanish
        held = [(xi <= lo and gi > 0) or (xi >= hi and gi < 0) for xi, lo, hi, gi in zip(xs, lb, ub, g)]
        scale = [0.0 if h else 1.0 / (n or 1.0) for h, n in zip(held, norms)]
        if max(abs(gi * si) for gi, si in zip(g, scale)) < tol:
            status = 1
            break
        U, s, Vt = np.linalg.svd(J * scale, full_matrices=False)
        su, s2, s, Vt = (s * (U.T @ r)).tolist(), (s * s).tolist(), s.tolist(), Vt.tolist()
        V = list(zip(*Vt))
        while status is None:
            if nfev == max_nfev:
                status = 0
                break
            c = [a / (b + mu) for a, b in zip(su, s2)]
            x_new = [min(max(xi - si * _dot(vi, c), lo), hi) for xi, si, vi, lo, hi in zip(xs, scale, V, lb, ub)]
            step = [a - b for a, b in zip(x_new, xs)]
            x_arr = np.array(x_new)
            r_new = np.asarray(fun(x_arr), dtype=float)
            nfev += 1
            cost_new = 0.5 * float(r_new @ r_new)  # a non-finite cost fails every test below
            actual = cost - cost_new
            # as _predicted_reduction, with J step = U S Vt z
            z = [st / si if si else 0.0 for st, si in zip(step, scale)]
            predicted = -_dot(step, g) - 0.5 * sum((si * _dot(row, z)) ** 2 for si, row in zip(s, Vt))
            ratio = actual / predicted if predicted > 0 else 0.0
            ftol_met = actual < tol * cost and ratio > 0.25
            xtol_met = math.sqrt(_dot(step, step)) < tol * (tol + math.sqrt(_dot(xs, xs)))
            if ftol_met or xtol_met:
                status = 4 if ftol_met and xtol_met else 2 if ftol_met else 3
            if actual > 0:
                x, xs, r, cost, J = x_arr, x_new, r_new, cost_new, jac(x_arr)
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
                nu = 2.0
                break
            mu *= nu
            nu *= 2.0
    return SimpleNamespace(x=x, fun=r, jac=J, cost=cost, nfev=nfev, status=status)


def _dot(u, v):
    """The dot product of two short sequences of floats."""
    return sum(map(operator.mul, u, v))


def _predicted_reduction(J, g, h):
    """cost - 0.5*|r + J h|^2, the reduction the linear model predicts for
    the step h, as -h.g - 0.5*|J h|^2 with g = J^T r: near a minimum with a
    large residual, the difference of the two costs keeps no digits."""
    Jh = J @ h
    return -float(h @ g) - 0.5 * float(Jh @ Jh)


def _trust_region(fun, jac, x0, tol, max_nfev):
    """Unbounded trust-region least squares: a numpy port of scipy's
    trf_no_bounds with tr_solver="exact" and x_scale="jac" (Branch, Coleman
    & Li, SIAM J. Sci. Comput. 21, 1 (1999)). Parameters are scaled by the
    running maximum of the Jacobian's column norms, and the radius starts
    at the norm of the scaled x0. One SVD of the scaled Jacobian per
    iteration serves every trial step, each solved exactly by _more_step.
    The ftol and xtol tests, the gtol test on the unscaled gradient and the
    status codes are scipy's."""
    x = np.asarray(x0, dtype=float)
    r = np.asarray(fun(x), dtype=float)
    if not np.all(np.isfinite(r)):
        raise ValueError("Residuals are not finite in the initial point.")
    nfev, cost, J = 1, 0.5 * float(r @ r), jac(x)
    scale_inv = np.sum(J**2, axis=0) ** 0.5
    scale_inv[scale_inv == 0] = 1.0
    radius = float(np.linalg.norm(x * scale_inv)) or 1.0
    alpha, status = 0.0, None
    while True:
        g = J.T @ r
        if np.max(np.abs(g)) < tol:
            status = 1
        if status is not None or nfev == max_nfev:
            break
        d = 1.0 / scale_inv
        Jh = J * d
        U, s, Vt = np.linalg.svd(Jh, full_matrices=False)
        ur = U.T @ r
        actual = -1.0
        while actual <= 0 and nfev < max_nfev:
            h, alpha = _more_step(ur, s, Vt, r.size, radius, alpha)
            predicted = _predicted_reduction(Jh, d * g, h)
            step = d * h
            x_new = x + step
            r_new = np.asarray(fun(x_new), dtype=float)
            nfev += 1
            h_norm = float(np.linalg.norm(h))
            if not np.all(np.isfinite(r_new)):
                radius = 0.25 * h_norm
                continue
            cost_new = 0.5 * float(r_new @ r_new)
            actual = cost - cost_new
            ratio = actual / predicted if predicted > 0 else 1.0 if predicted == actual == 0 else 0.0
            new_radius = radius
            if ratio < 0.25:
                new_radius = 0.25 * h_norm
            elif ratio > 0.75 and h_norm > 0.95 * radius:
                new_radius = 2.0 * radius
            ftol_met = actual < tol * cost and ratio > 0.25
            xtol_met = np.linalg.norm(step) < tol * (tol + np.linalg.norm(x))
            if ftol_met or xtol_met:
                status = 4 if ftol_met and xtol_met else 2 if ftol_met else 3
                break
            alpha *= radius / new_radius
            radius = new_radius
        if actual > 0:
            x, r, cost, J = x_new, r_new, cost_new, jac(x_new)
            scale_inv = np.maximum(scale_inv, np.sum(J**2, axis=0) ** 0.5)
    return SimpleNamespace(x=x, fun=r, jac=J, cost=cost, nfev=nfev, status=0 if status is None else status)


def _more_step(ur, s, Vt, m, radius, alpha):
    """The step h minimising |J h + r| subject to |h| <= radius, from the SVD
    J = U diag(s) Vt with ur = U^T r and m residuals (Moré, Lecture Notes in
    Math. 630, 105 (1978); scipy's solve_lsq_trust_region). The Gauss-Newton
    step if it is inside the radius; otherwise h = -V (s ur / (s^2 + alpha))
    with the Levenberg-Marquardt parameter alpha found by safeguarded Newton
    steps on |h(alpha)| - radius, from the previous alpha, to 1% of the
    radius. Returns (h, alpha)."""
    su = s * ur
    full_rank = m >= Vt.shape[1] and s[-1] > np.finfo(float).eps * m * s[0]
    if full_rank:
        h = -Vt.T @ (ur / s)
        if np.linalg.norm(h) <= radius:
            return h, 0.0

    def phi(a):
        denom = s * s + a
        p_norm = np.linalg.norm(su / denom)
        return p_norm - radius, -np.sum(su * su / denom**3) / p_norm

    upper, lower = np.linalg.norm(su) / radius, 0.0
    if full_rank:
        value, slope = phi(0.0)
        lower = -value / slope
    elif alpha == 0:
        alpha = max(1e-3 * upper, (lower * upper) ** 0.5)
    for _ in range(10):
        if not lower <= alpha <= upper:
            alpha = max(1e-3 * upper, (lower * upper) ** 0.5)
        value, slope = phi(alpha)
        if value < 0:
            upper = alpha
        lower = max(lower, alpha - value / slope)
        alpha -= (value + radius) * (value / slope) / radius
        if abs(value) < 0.01 * radius:
            break
    h = -Vt.T @ (su / (s * s + alpha))
    return h * (radius / np.linalg.norm(h)), alpha


def multistart_least_squares(residual_fn, seeds, jac, bounds=(-np.inf, np.inf), method="lm", costs=None):
    """Polish the best few of several seeds by least squares; keep the best.

    seeds: iterable of parameter vectors. The seeds are prescreened by
    initial cost |residual_fn(seed)|^2, one call per seed, or, if costs is
    given, by costs(stack), which returns those costs for the (s, p) stack
    of all seeds at once (the charging fits' one stacked solve). The best
    MAX_POLISHED are polished, in order of initial cost, by least_squares
    with the Jacobian jac, the bounds and the method. Polishing stops as
    soon as a polished cost is within AGREE_RTOL (relative) of the best
    cost so far. Raises
    FitConvergenceError (with best-so-far and every polished start's
    outcome attached) if nothing converges.
    """
    seeds = [np.asarray(s, dtype=float) for s in seeds]
    if not seeds:
        raise ValueError("at least one seed is required")
    initial = [float(r @ r) for r in map(residual_fn, seeds)] if costs is None else costs(np.array(seeds)).tolist()
    scored = sorted(((c if math.isfinite(c) else math.inf, s) for c, s in zip(initial, seeds)), key=lambda t: t[0])
    best = None
    starts = []
    for c, s in scored[:MAX_POLISHED]:
        try:
            res = least_squares(residual_fn, s, jac=jac, bounds=bounds, method=method)
        except Exception as exc:
            starts.append((c, None, None, f"{type(exc).__name__}: {exc}"))
            continue
        final = 2 * res.cost if math.isfinite(res.cost) else None
        starts.append((c, final, res.nfev, res.status))
        if not np.all(np.isfinite(res.x)):
            continue
        agree = best is not None and abs(res.cost - best.cost) <= AGREE_RTOL * best.cost
        if best is None or res.cost < best.cost:
            best = res
        if agree:
            break
    if best is None or not np.all(np.isfinite(best.fun)):
        bp = scored[0][1] if best is None else best.x
        bc = scored[0][0] if best is None else 2 * best.cost
        raise FitConvergenceError(
            "nonlinear fit failed to converge from all seeds",
            best_params=bp,
            best_cost=bc,
            starts=starts,
        )
    return best


def covariance_from_jacobian(jac: np.ndarray, residuals: np.ndarray, absolute_sigma: bool):
    """Parameter covariance from the weighted Jacobian at the solution.

    Takes the SVD of J with its columns scaled to unit norm, not the
    pseudo-inverse of J^T J: forming J^T J squares the condition number,
    and the pseudo-inverse then drops a weakly identified direction and
    reports near-zero errors along it. Singular values below
    eps*max(n, p)*s_max are truncated; what remains gives large but finite
    variances to weakly identified parameters.
    """
    n, p = jac.shape
    norms = np.linalg.norm(jac, axis=0)
    norms[norms == 0] = 1.0
    _, s, vt = np.linalg.svd(jac / norms, full_matrices=False)
    keep = s > np.finfo(float).eps * max(n, p) * s[0]
    v = vt[keep].T / s[keep]
    cov = (v @ v.T) / np.outer(norms, norms)
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
