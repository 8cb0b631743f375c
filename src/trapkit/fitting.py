"""Shared nonlinear fit machinery: multi-start least squares, the variable
projection of the charging fits and the report of every nonlinear fit. The
FitReport class itself is in trapkit.reports.

Every nonlinear fit has an analytic Jacobian and is polished by a numpy
solver, a bounded Levenberg-Marquardt over the charging fits' one or two
time constants and an unbounded trust region for the beam fit, so no
subcommand imports scipy.optimize. Both end in fit_report, which writes
every nonlinear report's covariance, errors, shared flags and residual
RMS."""

from __future__ import annotations

import functools
import math
from types import SimpleNamespace

import numpy as np

from .reports import FitConvergenceError, FitReport

# Relative parameter uncertainty above which a parameter is reported as
# weakly identified by the data.
WEAK_IDENTIFIABILITY_THRESHOLD = 0.15

# Every multistart polishes at most this many seeds, the best by initial
# cost, and stops once two polished costs agree within AGREE_RTOL (relative).
# Given each seed's neighbours, it runs one polish per basin of the sample
# (Rinnooy Kan & Timmer, Math. Programming 39, 57 (1987)): once a start has
# converged, a seed with a lower-cost neighbour lies in that neighbour's
# basin and is skipped
MAX_POLISHED = 3
AGREE_RTOL = 1e-9

# The ftol, xtol and gtol of both least-squares solvers, the most residual
# evaluations either makes, and the Levenberg-Marquardt's first damping
TOL = 1e-12
MAX_NFEV = 1000
FIRST_DAMPING = 0.1


def least_squares(fun, x0, jac, bounds=(-np.inf, np.inf)):
    """Minimise 0.5*|fun(x)|^2 over the box bounds, starting from x0.

    fun returns a 1-D float ndarray, used as returned, and jac, a callable,
    its Jacobian; each bound is one value or one per parameter. One or two
    parameters run the bounded Levenberg-Marquardt below, which solves each
    damped step in closed form from the 2x2 normal matrix,
    det = max(a*d - b^2, 0) + mu*(a + d + mu); more run the unbounded trust
    region below, and a finite bound then raises ValueError. The charging
    fits, which need the bounds, search one or two time constants; the beam
    fit searches three or six parameters without bounds (an n-parameter
    Levenberg-Marquardt also found both peaks in all of criterion 9's first
    100 noisy fits, but with about 20x the evaluations). Both stop on ftol,
    xtol and gtol all equal to TOL, or after MAX_NFEV evaluations. The
    result has x, fun, jac, cost = 0.5*fun@fun, nfev and scipy's status
    codes: 0 MAX_NFEV reached, 1 gtol, 2 ftol, 3 xtol, 4 ftol and xtol, and
    decrement, True where the ftol met was the Gauss-Newton decrement.
    """
    if np.size(x0) <= 2:
        return _levenberg_marquardt(fun, jac, x0, bounds)
    if np.any(np.isfinite(bounds[0])) or np.any(np.isfinite(bounds[1])):
        raise ValueError("the trust region for more than two parameters takes no bounds")
    return _trust_region(fun, jac, x0)


def _levenberg_marquardt(fun, jac, x0, bounds):
    """Bounded Levenberg-Marquardt over one or two parameters, with
    Nielsen's damping update (Madsen, Nielsen & Tingleff, Methods for
    non-linear least squares problems, 2004), damping each parameter in
    units of its Jacobian column's current norm (Marquardt 1963). The first
    damping is their tau, FIRST_DAMPING = 0.1: tau = 1 is meant for poor
    starts, and from 0.05 in log T off a minimum, about as near as the
    charging seeds start, it still took ~8 evaluations. A running
    maximum of the norms, as in scipy's x_scale="jac", sent criterion 7
    seed 50's first discharge start into the swapped (Tb, Ta) basin. x0 and
    steps are clipped to the box, and a parameter on a bound whose gradient
    points out of the box is held for that step. Numpy forms only g = J^T r
    and J^T J per iteration and checks only the first residuals; the rest
    is bookkeeping on named Python floats (x0, x1, their bounds, ga, gb,
    G00, G01, G11, the scales, trial point and step), not lists. One
    parameter pads to two: a phantom x1 = 0 in the box [0, 0], with a zero
    column, gb = 0 and scale 0. The scaled normal matrix [[a, b], [b, d]]
    (J^T J with each column scaled, a held or phantom column zeroed) gives
    the damped scaled step z = (A + mu I)^-1 (g*scale) in closed form, over
    det = max(a*d - b^2, 0) + mu*(a + d + mu), which stays > 0 for every
    mu > 0 even where the columns coincide, and |J step|^2 = z.A.z for the
    predicted reduction. jac is called only at accepted points. The ftol
    and gtol tests are MINPACK's (Moré, Lecture Notes in Math. 630, 105
    (1978)), so neither depends on the residuals' units: ftol bounds the
    actual and the predicted reduction by TOL*cost, with ratio <= 2, and
    gtol the cosine between r and each free parameter's column,
    max|g_i*scale_i| <= TOL*|r|. ftol also ends the polish before a trial,
    once the Gauss-Newton decrement 0.5 g.A^-1.g over the free parameters
    (untested where two coincide) is <= TOL times the cost less it and each
    held parameter's own. The xtol test and the status codes follow scipy's."""
    lb, ub = ([float(b)] * np.size(x0) if np.ndim(b) == 0 else [float(v) for v in b] for b in bounds)
    xs = [min(max(xi, lo), hi) for xi, lo, hi in zip(np.asarray(x0, dtype=float).tolist(), lb, ub, strict=True)]
    x, n, pad = np.array(xs), len(xs), [0.0] * (2 - len(xs))  # pad: one parameter's phantom x1, lo1 and hi1
    r = fun(x)
    if not np.all(np.isfinite(r)):
        raise ValueError("Residuals are not finite in the initial point.")
    nfev, cost, J = 1, 0.5 * float(r @ r), jac(x)
    (x0, x1), (lo0, lo1), (hi0, hi1) = xs + pad, lb + pad, ub + pad
    tol, max_nfev, mu, nu = TOL, MAX_NFEV, FIRST_DAMPING, 2.0  # read per call; mu in units of the scaled J^T J's unit diagonal
    status, decrement = None, False
    while status is None:
        g, G = (J.T @ r).tolist(), (J.T @ J).tolist()
        ga, gb, G00, G01, G11 = (*g, *G[0], G[1][1]) if n == 2 else (g[0], 0.0, G[0][0], 0.0, 0.0)
        # a zero scale holds a parameter, or the phantom: its column and its step vanish
        held0, held1 = (x0 <= lo0 and ga > 0) or (x0 >= hi0 and ga < 0), (x1 <= lo1 and gb > 0) or (x1 >= hi1 and gb < 0)
        s0 = 0.0 if held0 else 1.0 / (math.sqrt(G00) or 1.0)
        s1 = 0.0 if held1 or n == 1 else 1.0 / (math.sqrt(G11) or 1.0)
        g0, g1 = ga * s0, gb * s1
        if max(abs(g0), abs(g1)) <= tol * math.sqrt(2.0 * cost):
            status = 1
            break
        a = G00 * s0 * s0
        b, d = (G01 * s0 * s1, G11 * s1 * s1) if s1 else (0.0, 0.0)  # s1 = 0: held or phantom
        minor = max(a * d - b * b, 0.0)  # rounding can make it negative for near-parallel columns
        if minor > 0 or not (s0 and s1):  # the decrement, doubled, over one free parameter or two
            gain = (d * g0 * g0 - 2.0 * b * g0 * g1 + a * g1 * g1) / minor if minor else (g0 * g0 + g1 * g1) / (a + d)
            own = (ga * ga / G00 if held0 else 0.0) + (gb * gb / G11 if held1 else 0.0)  # the held parameters'
            if gain <= tol * (2.0 * cost - gain - own):
                status, decrement = 2, True
                break
        while status is None:
            if nfev == max_nfev:
                status = 0
                break
            det = minor + mu * (a + d + mu)
            # (A + mu I)^-1 (g0, g1); where the columns coincide d*g0 - b*g1 is
            # exactly 0, so the step stays exact as mu falls below eps
            z0, z1 = (d * g0 - b * g1 + mu * g0) / det, (a * g1 - b * g0 + mu * g1) / det
            t0, t1 = min(max(x0 - s0 * z0, lo0), hi0), min(max(x1 - s1 * z1, lo1), hi1)
            step0, step1 = t0 - x0, t1 - x1
            x_new = np.array((t0, t1)[:n])
            r_new = fun(x_new)
            nfev += 1
            cost_new = 0.5 * float(r_new @ r_new)  # a non-finite cost fails every test below
            actual = cost - cost_new
            # as _predicted_reduction, with |J step|^2 = z.A.z for the clipped scaled step z
            z0, z1 = step0 / s0 if s0 else 0.0, step1 / s1 if s1 else 0.0
            predicted = -(step0 * ga + step1 * gb) - 0.5 * (a * z0 * z0 + 2.0 * b * z0 * z1 + d * z1 * z1)
            ratio = actual / predicted if predicted > 0 else 0.0
            ftol_met = abs(actual) <= tol * cost and predicted <= tol * cost and ratio <= 2.0
            xtol_met = math.sqrt(step0 * step0 + step1 * step1) < tol * (tol + math.sqrt(x0 * x0 + x1 * x1))
            if ftol_met or xtol_met:
                status = 4 if ftol_met and xtol_met else 2 if ftol_met else 3
            if actual > 0:
                x, x0, x1, r, cost, J = x_new, t0, t1, r_new, cost_new, jac(x_new)
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
                nu = 2.0
                break
            mu *= nu
            nu *= 2.0
    return SimpleNamespace(x=x, fun=r, jac=J, cost=cost, nfev=nfev, status=status, decrement=decrement)


def _predicted_reduction(J, g, h):
    """cost - 0.5*|r + J h|^2, the reduction the linear model predicts for
    the step h, as -h.g - 0.5*|J h|^2 with g = J^T r: near a minimum with a
    large residual, the difference of the two costs keeps no digits."""
    Jh = J @ h
    return -float(h @ g) - 0.5 * float(Jh @ Jh)


def _trust_region(fun, jac, x0):
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
        if np.max(np.abs(g)) < TOL:
            status = 1
        if status is not None or nfev == MAX_NFEV:
            break
        d = 1.0 / scale_inv
        Jh = J * d
        U, s, Vt = np.linalg.svd(Jh, full_matrices=False)
        ur = U.T @ r
        actual = -1.0
        while actual <= 0 and nfev < MAX_NFEV:
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
            ftol_met = actual < TOL * cost and ratio > 0.25
            xtol_met = np.linalg.norm(step) < TOL * (TOL + np.linalg.norm(x))
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


def multistart_least_squares(residual_fn, seeds, jac, bounds=(-np.inf, np.inf), costs=None, neighbours=None):
    """Polish the best few of several seeds by least squares; keep the best.

    seeds: an (s, p) array of parameter vectors, or what np.asarray makes
    one of. The seeds are prescreened by initial cost |residual_fn(seed)|^2,
    one call per seed, or given as costs, an array in seed order (the
    charging fits' variable_projection costs, one matrix product over their
    seed grid), and ranked by one stable argsort. The best MAX_POLISHED are
    polished, in order of initial cost, by least_squares with the Jacobian
    jac and the bounds; the number of parameters picks the solver.
    neighbours, if given, holds for each seed the indices of its
    neighbouring seeds: once a polished start has converged (returned a
    finite x), a seed that has a neighbour of lower initial cost lies in
    that neighbour's basin and is not polished, while a seed with none, a
    second basin, still is. Polishing stops as soon as a polished cost is
    within AGREE_RTOL (relative) of the best cost so far. Raises
    FitConvergenceError (with the best cost and every polished start's
    outcome attached) if nothing converges.
    """
    seeds = np.asarray(seeds, dtype=float)
    if not len(seeds):
        raise ValueError("at least one seed is required")
    initial = np.array([r @ r for r in map(residual_fn, seeds)] if costs is None else costs, dtype=float)
    initial[~np.isfinite(initial)] = np.inf
    order = np.argsort(initial, kind="stable")[:MAX_POLISHED]
    best = None
    starts = []
    for i, c, s in zip(order.tolist(), initial[order].tolist(), seeds[order]):
        if best is not None and neighbours is not None and any(initial[j] < c for j in neighbours[i]):
            continue  # in a lower neighbour's basin
        try:
            res = least_squares(residual_fn, s, jac=jac, bounds=bounds)
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
        raise FitConvergenceError(
            "nonlinear fit failed to converge from all seeds",
            best_cost=float(initial[order[0]]) if best is None else 2 * best.cost,
            starts=starts,
        )
    return best


def variable_projection(columns, y, w=None):
    """(core, resid, jac, costs) for fitting the weighted target y by B c +
    f0 w, searching the log time constants log T alone (Golub & Pereyra,
    SIAM J. Numer. Anal. 10, 413 (1973)); w, the weighted column of a free
    f0, is None where the caller fixed f0 and took it out of y. The caller
    knows the model: columns(log_T, out) writes the weighted basis columns B
    at log T (floats: a pair, or a grid) into out and returns a callable of
    the amplitudes c that gives D = d(B c)/d log T.

    core(log_T) -> (lin, resid, J): c, then f0 if free, the residuals
    B c + f0 w - y and their Jacobian in (c, log T[, f0]). A point costs one
    matrix product: B's Gram matrix G less its part along w gives lin from
    G^-1, or where the columns coincide from G's pseudo-inverse G/tr(G)^2,
    lstsq's minimum-norm split. jac forms Kaufman's Jacobian D - P D (BIT
    15, 49 (1975)) from the same solve, cached by log T as floats; J^T J
    from Gram products could go negative. costs(pairs, X) gives |resid|^2
    at (grid[i], grid[j]) for each row (i, j) of pairs from one Gram matrix
    of X, grid_columns(columns, grid, y.size, w) built once by the caller,
    and y less its part along w, reduced as solve reduces G; where two
    columns coincide, the second is dropped."""
    free = w is not None
    A = np.zeros((y.size, 4))  # [the basis at the last point solved, w (0 if f0 is fixed), y less its part along w]
    A[:, 2] = w if free else 0.0
    ww = float(A[:, 2] @ A[:, 2]) or 1.0
    f0_y = float(A[:, 2] @ y) / ww  # the f0 that fits y alone
    A[:, 3] = y - f0_y * A[:, 2]
    B, design = A[:, :2], A[:, :3]
    cutoff = np.finfo(float).eps * max(A.shape)

    @functools.lru_cache(maxsize=1)
    def solve(log_T):
        slope = columns(log_T, B)
        (g00, g01, p0, h0), (_, g11, p1, h1) = (B.T @ A).tolist()
        q0, q1 = p0 / ww, p1 / ww  # each column's part along w
        g00, g01, g11 = g00 - q0 * p0, g01 - q0 * p1, g11 - q1 * p1
        det, t2 = g00 * g11 - g01 * g01, (g00 + g11) ** 2 or 1.0
        # G^-1, or where the columns coincide (where costs drops the second) G's pseudo-inverse
        inv = (g11 / det, -g01 / det, g00 / det) if det > cutoff * g00 * g11 else (g00 / t2, g01 / t2, g11 / t2)
        c0, c1 = inv[0] * h0 + inv[1] * h1, inv[1] * h0 + inv[2] * h1
        df0 = -q0 * c0 - q1 * c1
        return [c0, c1, f0_y + df0][: 2 + free], A.dot([c0, c1, df0, -1.0]), (*inv, q0, q1), slope

    def core(log_T):
        lin, resid, _, slope = solve(tuple(log_T.tolist()))
        return lin, resid, np.hstack([B, slope(lin), A[:, 2:3]])[:, : 4 + free]

    def jac(log_T):
        lin, _, (i00, i01, i11, q0, q1), slope = solve(tuple(log_T.tolist()))
        D = slope(lin)
        u0, u1 = i00 * q0 + i01 * q1, i01 * q0 + i11 * q1  # ([B w]^T [B w])^-1: the 2x2 inverse bordered by w's part
        inv = np.array((i00, i01, -u0, i01, i11, -u1, -u0, -u1, 1.0 / ww + q0 * u0 + q1 * u1)).reshape(3, 3)
        return D - design @ (inv @ (design.T @ D))

    def costs(pairs, X):
        X = np.column_stack([X, A[:, 3]])
        G = X.T @ X
        a, b = pairs.T
        ya, gab, gaa = G[a, -1], G[a, b], G[a, a]
        yb, gbb = G[b, -1] - gab * ya / gaa, G[b, b] - gab * gab / gaa  # b less its part along a
        keep = gbb > cutoff * G[b, b]  # where the columns coincide, b is dropped as solve drops it
        return G[-1, -1] - ya * ya / gaa - np.divide(yb * yb, gbb, out=np.zeros_like(gbb), where=keep)

    return core, lambda log_T: solve(tuple(log_T.tolist()))[1], jac, costs


def grid_columns(columns, grid, n, w):
    """variable_projection's basis columns over n samples at each log T of grid,
    read-only, with w, a free f0's column, projected out twice: one pass
    leaves a part along w that the costs of near-parallel columns carry up
    to ~1e-9 (relative), and a second takes it out (Giraud et al., Numer.
    Math. 101, 87 (2005)). Its costs' X."""
    X = np.empty((n, grid.size))
    columns(grid, X)
    for _ in range(2 if w is not None else 0):
        X -= w[:, None] @ (w @ X)[None, :] / (float(w @ w) or 1.0)
    X.flags.writeable = False
    return X


def covariance_from_jacobian(jac: np.ndarray) -> np.ndarray:
    """Parameter covariance (J^T J)^-1 from the weighted Jacobian at the
    solution, at face value: fit_report scales it for an unweighted fit.

    Takes the SVD of J with its columns scaled to unit norm, not the
    pseudo-inverse of J^T J: forming J^T J squares the condition number,
    and the pseudo-inverse then drops a weakly identified direction and
    reports near-zero errors along it. Singular values below
    eps*max(n, p)*s_max are truncated; what remains gives large but finite
    variances to weakly identified parameters.
    """
    n, p = jac.shape
    norms = np.sqrt(np.add.reduce(jac * jac, axis=0))  # np.linalg.norm's own expression
    norms[norms == 0] = 1.0
    _, s, vt = np.linalg.svd(jac / norms, full_matrices=False)
    keep = s > np.finfo(float).eps * max(n, p) * s[0]
    v = vt[keep].T / s[keep]
    return (v @ v.T) / np.outer(norms, norms)


def fit_report(model, params, G, J, resid, n_points, weighted, status, extras):
    """The report of a polished nonlinear fit, and the covariance C of its
    fitted parameters, from their Jacobian J and residuals resid at the
    solution. params maps each reported name to its value, G is those
    values' Jacobian in the fitted parameters, and n_points counts samples,
    which may be fewer than J's rows. C is covariance_from_jacobian(J),
    scaled for an unweighted fit by |resid|^2 / (n_points - p); each error
    is sqrt(diag(G C G^T)); residual_rms is sqrt(|resid|^2 / n_points). A
    value whose error is not finite or above WEAK_IDENTIFIABILITY_THRESHOLD
    of its size is flagged weakly-identified:<name>, and a polish that
    stopped at MAX_NFEV (status 0) max-nfev-reached; the fitter appends its
    own flags."""
    chi2 = float(resid @ resid)
    cov = covariance_from_jacobian(J)
    if not weighted:
        cov = cov * chi2 / max(n_points - J.shape[1], 1)
    errs = dict(zip(params, np.sqrt(np.clip(np.einsum("ij,jk,ik->i", G, cov, G), 0, None)).tolist()))
    flags = [
        f"weakly-identified:{name}"
        for name, value in params.items()
        if not math.isfinite(errs[name]) or (value != 0 and errs[name] / abs(value) > WEAK_IDENTIFIABILITY_THRESHOLD)
    ]
    if status == 0:
        flags.append("max-nfev-reached")
    return FitReport(model, params, errs, math.sqrt(chi2 / n_points), n_points, flags, extras), cov
