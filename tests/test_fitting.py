"""The series contract that every measured series keeps (datasets.check_series),
the numpy Levenberg-Marquardt and trust region behind fitting.least_squares,
the multistart's stop rule and diagnostics, and the report every nonlinear
fit ends in (fitting.fit_report)."""

import math
import operator
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import trapkit.fitting
from test_charging import criterion7_series
from trapkit import charging
from trapkit.beam import RabiPositionScan
from trapkit.charging import FrequencySeries, fit_charging, fit_discharge
from trapkit.fitting import (
    FIRST_DAMPING, MAX_NFEV, TOL, FitConvergenceError, _trust_region, fit_report, least_squares, multistart_least_squares,
)
from trapkit.heating import HeatingSeries

# a valid (x, y, err) triple for each series type
VALID = {
    HeatingSeries: ((0.0, 1e-3, 2e-3, 3e-3), (0.1, 0.9, 1.7, 2.5), (0.05, 0.06, 0.07, 0.08)),
    FrequencySeries: ((0.0, 15.0, 30.0, 45.0), (5.33e6, 5.34e6, 5.35e6, 5.36e6), (1e3, 1e3, 1e3, 1e3)),
    RabiPositionScan: ((1e-6, 2e-6, 3e-6, 4e-6), (1e5, 3e5, 4e5, 2e5), (5e3, 5e3, 5e3, 5e3)),
}


def _with(values, i, v):
    return values[:i] + (v,) + values[i + 1 :]


# each case maps a valid (x, y, err) to one that breaks the contract
BREAKS = {
    "nan-in-y": lambda x, y, e: (x, _with(y, 1, math.nan), e),
    "inf-in-y": lambda x, y, e: (x, _with(y, 2, math.inf), e),
    "nan-error": lambda x, y, e: (x, y, _with(e, 0, math.nan)),
    "zero-error": lambda x, y, e: (x, y, _with(e, 3, 0.0)),
    "error-length": lambda x, y, e: (x, y, e[:-1]),
    "repeated-x": lambda x, y, e: (_with(x, 2, x[1]), y, e),
}


@pytest.mark.parametrize("series", list(VALID), ids=lambda c: c.__name__)
@pytest.mark.parametrize("case", list(BREAKS))
def test_series_contract(series, case):
    series(*VALID[series])  # the unbroken input is accepted
    with pytest.raises(ValueError):
        series(*BREAKS[case](*VALID[series]))


# a toy residual with two minima: a higher one near x = +1 and a lower one
# near x = -1; initial costs order the seeds below as listed in each test
def _two_minima(x):
    return np.array([x[0] ** 2 - 1.0, 0.2 * x[0] + 0.5])


def _two_minima_jac(x):
    return np.array([[2.0 * x[0]], [0.2]])


@pytest.fixture
def polishes(monkeypatch):
    """The list of seeds that trapkit.fitting.least_squares polishes."""
    seen = []
    original = trapkit.fitting.least_squares

    def counted(fun, x0, **kwargs):
        seen.append(float(x0[0]))
        return original(fun, x0, **kwargs)

    monkeypatch.setattr(trapkit.fitting, "least_squares", counted)
    return seen


def test_multistart_stops_when_two_starts_agree(polishes):
    # both +1-basin seeds have lower initial cost than the -1-basin seed
    res = multistart_least_squares(_two_minima, [[1.0], [0.98], [-1.35]], jac=_two_minima_jac)
    assert polishes == [0.98, 1.0]
    assert res.x[0] > 0


def test_multistart_keeps_the_lower_minimum_after_disagreement(polishes):
    seeds = [[0.98], [-1.35], [-1.3], [1.5]]
    res = multistart_least_squares(_two_minima, seeds, jac=_two_minima_jac)
    assert polishes == [0.98, -1.3, -1.35]
    assert res.x[0] < 0
    assert 2 * res.cost < 0.1


def test_multistart_without_the_rule_polishes_every_kept_start(polishes, monkeypatch):
    # no two costs agree within a negative tolerance
    monkeypatch.setattr(trapkit.fitting, "AGREE_RTOL", -math.inf)
    res = multistart_least_squares(_two_minima, [[1.0], [0.98], [-1.35]], jac=_two_minima_jac)
    assert polishes == [0.98, 1.0, -1.35]
    assert res.x[0] < 0


def test_convergence_error_carries_every_start():
    with pytest.raises(FitConvergenceError) as info:
        multistart_least_squares(
            lambda x: np.full(3, np.nan), [[0.0], [1.0], [2.0], [3.0]], jac=lambda x: np.zeros((3, 1))
        )
    starts = info.value.starts
    assert len(starts) == trapkit.fitting.MAX_POLISHED == 3
    for initial, final, nfev, status in starts:
        assert initial == math.inf
        assert final is None and nfev is None
        assert "not finite" in status


def _rosenbrock(x):
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


def _rosenbrock_jac(x):
    return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])


class TestLevenbergMarquardt:
    def test_converges_and_stops_at_max_nfev(self, monkeypatch):
        res = least_squares(_rosenbrock, [-1.2, 1.0], jac=_rosenbrock_jac)
        assert res.status in (1, 2, 3, 4)
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-8)
        assert res.cost == pytest.approx(0.5 * res.fun @ res.fun)
        monkeypatch.setattr(trapkit.fitting, "MAX_NFEV", 5)
        cut = least_squares(_rosenbrock, [-1.2, 1.0], jac=_rosenbrock_jac)
        assert cut.status == 0 and cut.nfev == 5

    def test_minimum_outside_the_box_ends_on_the_bound(self):
        # unbounded minimum at (2, 0.5); the box caps x0 at 1
        res = least_squares(
            lambda x: np.array([x[0] - 2.0, x[1] - 0.5]), [0.0, 0.0],
            jac=lambda x: np.eye(2), bounds=([-1.0, -1.0], [1.0, 1.0]),
        )
        assert res.x[0] == 1.0
        assert res.x[1] == pytest.approx(0.5, abs=1e-9)
        gradient = res.jac.T @ res.fun
        assert gradient[0] < 0  # descent would leave the box through x0 = 1

    def test_nan_initial_residual_raises(self):
        with pytest.raises(ValueError, match="not finite"):
            least_squares(lambda x: np.array([np.nan, x[0]]), [0.0], jac=lambda x: np.array([[0.0], [1.0]]))

    @pytest.mark.parametrize(
        "bounds",
        [
            (-1.5, 0.8),
            (np.float64(-1.5), np.array(0.8)),
            ([-1.5, -1.5], [0.8, 0.8]),
            (-1.5, [0.8, 0.8]),
            ((-1.5, -1.5), np.float64(0.8)),
        ],
        ids=["scalar", "numpy-scalar", "per-parameter", "mixed", "mixed-tuple"],
    )
    def test_bounds_in_any_form_give_the_fit_of_array_bounds(self, bounds):
        # the box binds: Rosenbrock's minimum (1, 1) lies above 0.8, and the
        # start's x1 = 1 is clipped into the box
        def fit(b):
            return least_squares(_rosenbrock, [-1.2, 1.0], jac=_rosenbrock_jac, bounds=b)

        want, got = fit((np.full(2, -1.5), np.full(2, 0.8))), fit(bounds)
        assert want.x[0] == 0.8
        np.testing.assert_array_equal(got.x, want.x)
        assert (got.cost, got.nfev, got.status) == (want.cost, want.nfev, want.status)
        # one parameter: its bound as a scalar, a one-entry list or an array
        one = [least_squares(lambda x: x - 2.0, [0.0], jac=lambda x: np.eye(1), bounds=(-1.0, b)) for b in (1.0, [1.0], np.ones(1))]
        assert all(res.x.tolist() == [1.0] and (res.cost, res.nfev, res.status) == (one[0].cost, one[0].nfev, one[0].status) for res in one)

    def test_a_bound_of_the_wrong_length_raises(self):
        with pytest.raises(ValueError):
            least_squares(_rosenbrock, [-1.2, 1.0], jac=_rosenbrock_jac, bounds=([-1.5, -1.5, -1.5], 0.8))

    def test_non_finite_trial_step_is_rejected(self):
        calls = []

        def fun(x):
            calls.append(x.copy())
            r = _rosenbrock(x)
            return np.full(2, np.inf) if len(calls) == 2 else r

        res = least_squares(fun, [-1.2, 1.0], jac=_rosenbrock_jac)
        assert res.status in (1, 2, 3, 4)
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-8)
        # the next trial starts again from x0, with more damping, so its step
        # is shorter in the solver's metric, each parameter scaled by its
        # Jacobian column's norm at x0 (Moré 1978)
        norms = np.linalg.norm(_rosenbrock_jac(calls[0]), axis=0)
        assert np.linalg.norm(norms * (calls[2] - calls[0])) < np.linalg.norm(norms * (calls[1] - calls[0]))

    @pytest.mark.parametrize("case", ["two", "one", "held"])
    def test_first_trial_is_the_damped_least_squares_step(self, monkeypatch, case):
        # the closed-form step against the damped least-squares problem it
        # solves, min |J scale z - r|^2 + mu |z|^2 with mu the first damping,
        # by lstsq on the stacked system [J scale; sqrt(mu) I] z = [r; 0]
        rng = np.random.default_rng(["two", "one", "held"].index(case))
        p = 1 if case == "one" else 2
        J = rng.normal(size=(12, p)) * [3.0, 0.02][:p]
        r0 = rng.normal(size=12)
        lb = [-np.inf] * p
        if case == "held":
            r0 *= np.sign(J[:, 0] @ r0)  # the gradient points out of the box through x0's lower bound
            lb[0] = 0.0
        calls = []

        def fun(x):
            calls.append(x.copy())
            return r0 + J @ x

        monkeypatch.setattr(trapkit.fitting, "MAX_NFEV", 2)
        least_squares(fun, np.zeros(p), jac=lambda x: J, bounds=(lb, np.inf))
        scale = 1.0 / np.linalg.norm(J, axis=0)
        if case == "held":
            scale[0] = 0.0
        A = np.vstack([J * scale, math.sqrt(trapkit.fitting.FIRST_DAMPING) * np.eye(p)])
        z = np.linalg.lstsq(A, np.concatenate([r0, np.zeros(p)]), rcond=None)[0]
        np.testing.assert_allclose(calls[1], -scale * z, rtol=1e-10, atol=0)

    def test_coinciding_columns_keep_the_step_finite(self):
        # both parameters enter only through their sum, so J's two columns
        # are identical, as at coinciding time constants, and a*d - b^2 = 0;
        # every step succeeds, which drives mu toward 0: the damped system's
        # determinant must not vanish with it
        c = np.array([1.0, 2.0, 3.0])
        calls = []

        def fun(x):
            calls.append(x.copy())
            return c * np.exp(-x[0] - x[1])

        def jac(x):
            col = -c * np.exp(-x[0] - x[1])
            return np.column_stack([col, col])

        res = least_squares(fun, [0.0, 0.0], jac=jac)
        assert res.status in (1, 2, 3, 4)
        assert np.all(np.isfinite(calls))
        # the late steps are undamped Gauss-Newton steps, x0 + x1 += 1, split
        # evenly between the two parameters
        assert res.nfev > 300
        np.testing.assert_allclose(np.diff(calls[-20:], axis=0), 0.5, rtol=1e-9)

    def test_linear_residual_stops_on_the_decrement(self):
        # a linear residual with a nonzero minimum: the solver stops once the
        # Gauss-Newton decrement, the most any step could gain, is below TOL
        # of the cost, so every evaluation it makes is an accepted step that
        # gains more than that, and none is a trial that only confirms it
        rng = np.random.default_rng(7)
        J, y = rng.normal(size=(10, 2)), rng.normal(size=10)
        costs = []

        def fun(x):
            costs.append(0.5 * float((J @ x - y) @ (J @ x - y)))
            return J @ x - y

        res = least_squares(fun, [0.0, 0.0], jac=lambda x: J)
        assert (res.status, res.decrement, res.nfev) == (2, True, 6)
        assert costs[-1] == res.cost
        assert np.all(np.diff(costs) < -trapkit.fitting.TOL * res.cost)
        best = np.linalg.lstsq(J, y, rcond=None)[0]
        assert res.cost - 0.5 * float((J @ best - y) @ (J @ best - y)) <= trapkit.fitting.TOL * res.cost

    def test_a_held_parameter_still_stops_on_the_free_one(self):
        # x0's gradient points out of the box through its lower bound, so x0
        # is held there; the decrement over x1 alone stops the solver at x1's
        # least-squares value. x0's residual stays in the cost, so the test
        # takes x0's own decrement out of the cost it compares with
        res = least_squares(
            lambda x: np.array([x[0] + 1.0, x[1] - 2.0, x[1] + 1.0]), [0.0, 0.0],
            jac=lambda x: np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]), bounds=([0.0, -np.inf], np.inf),
        )
        assert (res.status, res.decrement) == (2, True)
        assert res.x[0] == 0.0
        assert res.x[1] == pytest.approx(0.5, abs=1e-5)

    def test_the_time_constant_ridge_never_stops_on_the_decrement(self):
        # a discharge polish started at Ta = Tb: the basis columns, and so
        # J's two columns, coincide, J^T J is singular, and the gradient
        # across the ridge vanishes, so the polish stays on the ridge. It
        # ends by MINPACK's ftol, never by the decrement test
        sub = criterion7_series(2)[1]
        tau = np.asarray(sub.times) - 2400.0
        _, resid, jac, _ = charging._projector(tau, np.asarray(sub.freqs), 1 / np.asarray(sub.freq_errs), "discharge")
        res = least_squares(resid, np.log([300.0, 300.0]), jac=jac, bounds=(0.0, math.log(2.6e6)))
        assert res.x[0] == res.x[1]
        assert (res.status, res.decrement) == (2, False)

    def test_rosenbrock_makes_no_svd(self, monkeypatch):
        # each step comes from the 2x2 normal matrix on floats
        svd, calls = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a[0].shape) or svd(*a, **k))
        res = least_squares(_rosenbrock, [-1.2, 1.0], jac=_rosenbrock_jac)
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-8)
        assert calls == []

    def test_stop_does_not_depend_on_the_residual_units(self):
        # a noisy exponential decay with its residuals in four units: gtol
        # bounds the cosine between r and J's columns and ftol the relative
        # reduction, so every unit takes the same steps to the same minimum
        t = np.linspace(0.0, 5.0, 60)
        y = 2.0 * np.exp(-t / 1.3) + np.random.default_rng(1).normal(0, 0.02, t.size)

        def fit(k):
            return least_squares(
                lambda x: k * (x[0] * np.exp(-t / x[1]) - y), [1.0, 1.0],
                jac=lambda x: k * np.column_stack([np.exp(-t / x[1]), x[0] * t / x[1] ** 2 * np.exp(-t / x[1])]),
            )

        want = fit(1.0)
        for k in (1e-9, 1e-6, 1e6):
            res = fit(k)
            assert (res.nfev, res.status) == (want.nfev, want.status)
            np.testing.assert_allclose(res.x, want.x, rtol=1e-12)

    def test_charging_fits_match_scipy_trf(self, monkeypatch):
        # criterion 7's seeds 0-19: the numpy solver reaches the costs of
        # scipy's trust-region reflective solver with the same Jacobian
        def costs():
            out = []
            for seed in range(20):
                series, sub = criterion7_series(seed)
                for f0_mode in ("baseline", "fit"):
                    _, c = fit_charging(series, 400.0, t_end=2400.0, f0_mode=f0_mode)
                    out.append(c.residual_rms**2)
                _, d = fit_discharge(sub, 2400.0)
                out.append(d.residual_rms**2)
            return np.array(out)

        numpy_lm = costs()

        def scipy_trf(fun, x0, jac, bounds):
            from scipy.optimize import least_squares as trf

            return trf(fun, x0, jac=jac, bounds=bounds, method="trf", x_scale="jac",
                       ftol=1e-12, xtol=1e-12, gtol=1e-12, max_nfev=1000)

        monkeypatch.setattr(trapkit.fitting, "least_squares", scipy_trf)
        np.testing.assert_allclose(numpy_lm, costs(), rtol=1e-9, atol=0)


# The list-based Levenberg-Marquardt that fitting._levenberg_marquardt
# replaced by the same arithmetic on named floats, kept verbatim as the
# reference the rewrite must match bit for bit
def _list_levenberg_marquardt(fun, jac, x0, bounds):
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
    and J^T J per iteration and checks only the first residuals; the bounds,
    made floats once per polish, trial steps, box clip and stop tests run on
    Python floats. The scaled normal matrix [[a, b], [b, d]]
    (J^T J with each column scaled, a held column zeroed; one parameter
    pads b = d = 0 and its second gradient entry 0) gives the damped scaled
    step z = (A + mu I)^-1 (g*scale) in closed form, over
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
    x = np.array([min(max(xi, lo), hi) for xi, lo, hi in zip(np.asarray(x0, dtype=float).tolist(), lb, ub, strict=True)])
    r = fun(x)
    if not np.all(np.isfinite(r)):
        raise ValueError("Residuals are not finite in the initial point.")
    nfev, cost, J, xs = 1, 0.5 * float(r @ r), jac(x), x.tolist()
    pad = [0.0] * (2 - len(xs))  # one parameter: a second one with a zero column
    mu, nu = FIRST_DAMPING, 2.0  # mu in units of the scaled J^T J's unit diagonal
    status, decrement = None, False
    while status is None:
        g = (J.T @ r).tolist()
        G = (J.T @ J).tolist()
        # 0 holds a parameter: its column and its step vanish
        held = [(xi <= lo and gi > 0) or (xi >= hi and gi < 0) for xi, lo, hi, gi in zip(xs, lb, ub, g)]
        scale = [0.0 if h else 1.0 / (math.sqrt(G[i][i]) or 1.0) for i, h in enumerate(held)]
        g0, g1 = [gi * si for gi, si in zip(g, scale)] + pad
        if max(abs(g0), abs(g1)) <= TOL * math.sqrt(2.0 * cost):
            status = 1
            break
        s0, s1 = scale + pad
        a = G[0][0] * s0 * s0
        b, d = (G[0][1] * s0 * s1, G[1][1] * s1 * s1) if s1 else (0.0, 0.0)  # s1 = 0: held or padded
        minor = max(a * d - b * b, 0.0)  # rounding can make it negative for near-parallel columns
        if minor > 0 or not (s0 and s1):  # the decrement, doubled, over one free parameter or two
            gain = (d * g0 * g0 - 2.0 * b * g0 * g1 + a * g1 * g1) / minor if minor else (g0 * g0 + g1 * g1) / (a + d)
            if gain <= TOL * (2.0 * cost - gain - sum(gi * gi / G[i][i] for i, gi in enumerate(g) if held[i])):
                status, decrement = 2, True
                break
        while status is None:
            if nfev == MAX_NFEV:
                status = 0
                break
            det = minor + mu * (a + d + mu)
            # (A + mu I)^-1 (g0, g1); where the columns coincide d*g0 - b*g1 is
            # exactly 0, so the step stays exact as mu falls below eps
            z = ((d * g0 - b * g1 + mu * g0) / det, (a * g1 - b * g0 + mu * g1) / det)
            x_new = [min(max(xi - si * zi, lo), hi) for xi, si, zi, lo, hi in zip(xs, scale, z, lb, ub)]
            step = [u - v for u, v in zip(x_new, xs)]
            x_arr = np.array(x_new)
            r_new = fun(x_arr)
            nfev += 1
            cost_new = 0.5 * float(r_new @ r_new)  # a non-finite cost fails every test below
            actual = cost - cost_new
            # as _predicted_reduction, with |J step|^2 = z.A.z for the clipped scaled step z
            z0, z1 = [st / si if si else 0.0 for st, si in zip(step, scale)] + pad
            predicted = -_dot(step, g) - 0.5 * (a * z0 * z0 + 2.0 * b * z0 * z1 + d * z1 * z1)
            ratio = actual / predicted if predicted > 0 else 0.0
            ftol_met = abs(actual) <= TOL * cost and predicted <= TOL * cost and ratio <= 2.0
            xtol_met = math.sqrt(_dot(step, step)) < TOL * (TOL + math.sqrt(_dot(xs, xs)))
            if ftol_met or xtol_met:
                status = 4 if ftol_met and xtol_met else 2 if ftol_met else 3
            if actual > 0:
                x, xs, r, cost, J = x_arr, x_new, r_new, cost_new, jac(x_arr)
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
                nu = 2.0
                break
            mu *= nu
            nu *= 2.0
    return SimpleNamespace(x=x, fun=r, jac=J, cost=cost, nfev=nfev, status=status, decrement=decrement)


def _dot(u, v):
    """The dot product of two short sequences of floats."""
    return sum(map(operator.mul, u, v))


def _assert_same_polish(want, got):
    assert got.x.tobytes() == want.x.tobytes() and got.fun.tobytes() == want.fun.tobytes()
    assert (got.cost, got.nfev, got.status, got.decrement) == (want.cost, want.nfev, want.status, want.decrement)


def _linear(J, y):
    J, y = np.asarray(J, dtype=float), np.asarray(y, dtype=float)
    return lambda x: J @ x - y, lambda x: J


# each: (fun, jac, x0, bounds), from the cases TestLevenbergMarquardt builds
_RIDGE, _RNG = np.array([1.0, 2.0, 3.0]), np.random.default_rng(7)
REFERENCE_CASES = {
    "rosenbrock": (_rosenbrock, _rosenbrock_jac, [-1.2, 1.0], (-np.inf, np.inf)),
    "rosenbrock-boxed": (_rosenbrock, _rosenbrock_jac, [-1.2, 1.0], (-1.5, [0.8, 0.8])),
    "one-parameter": (lambda x: x - 2.0, lambda x: np.eye(1), [0.0], (-1.0, [1.0])),
    "one-parameter-two-minima": (_two_minima, _two_minima_jac, [0.98], (-np.inf, np.inf)),
    "one-parameter-held": (lambda x: np.array([x[0] + 1.0, 0.5 * x[0] + 2.0]), lambda x: np.array([[1.0], [0.5]]), [0.0], (0.0, np.inf)),
    "held-bound": (*_linear([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], [-1.0, 2.0, -1.0]), [0.0, 0.0], ([0.0, -np.inf], np.inf)),
    "minimum-outside-the-box": (*_linear(np.eye(2), [2.0, 0.5]), [0.0, 0.0], ([-1.0, -1.0], [1.0, 1.0])),
    "linear-decrement": (*_linear(_RNG.normal(size=(10, 2)), _RNG.normal(size=10)), [0.0, 0.0], (-np.inf, np.inf)),
    "coinciding-columns": (
        lambda x: _RIDGE * np.exp(-x[0] - x[1]),
        lambda x: np.column_stack([-_RIDGE * np.exp(-x[0] - x[1])] * 2),
        [0.0, 0.0], (-np.inf, np.inf),
    ),
}


@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_named_floats_match_the_list_reference(case):
    fun, jac, x0, bounds = REFERENCE_CASES[case]
    _assert_same_polish(_list_levenberg_marquardt(fun, jac, x0, bounds), trapkit.fitting._levenberg_marquardt(fun, jac, x0, bounds))


def test_criterion7_polishes_match_the_list_reference(monkeypatch):
    # every start polished in criterion 7's charging (f0 fixed and free) and
    # discharge fits, seeds 0-19, by both solvers from the same point
    polished = []

    def both(fun, x0, jac, bounds):
        want, got = _list_levenberg_marquardt(fun, jac, x0, bounds), trapkit.fitting._levenberg_marquardt(fun, jac, x0, bounds)
        polished.append((want, got))
        return got

    monkeypatch.setattr(trapkit.fitting, "least_squares", both)
    for seed in range(20):
        series, sub = criterion7_series(seed)
        for f0_mode in ("baseline", "fit"):
            fit_charging(series, 400.0, t_end=2400.0, f0_mode=f0_mode)
        fit_discharge(sub, 2400.0)
    assert len(polished) >= 2 * 60
    for want, got in polished:
        _assert_same_polish(want, got)


def test_predicted_reduction_beside_a_large_irreducible_residual():
    # two residuals the step moves and 100 at 1e6 that no parameter reaches:
    # the cost is 5e13, the reduction 2.82e-4, below the cost's last digit
    J = np.zeros((102, 2))
    J[0, 0], J[1, 1] = 1.0, 2.0
    r = np.full(102, 1e6)
    r[:2] = [3e-2, -1e-2]
    h = np.array([-1e-2, 2e-3])
    r_new = [Fraction(v) + Fraction(a) * Fraction(h[0]) + Fraction(b) * Fraction(h[1]) for v, (a, b) in zip(r, J)]
    exact = float((sum(Fraction(v) ** 2 for v in r) - sum(v**2 for v in r_new)) / 2)
    assert trapkit.fitting._predicted_reduction(J, J.T @ r, h) == pytest.approx(exact, rel=1e-12)
    difference_of_costs = 0.5 * float(r @ r) - 0.5 * float(np.sum((r + J @ h) ** 2))
    assert abs(difference_of_costs - exact) > 0.1 * exact


def test_more_than_two_parameters_with_a_bound_raise():
    # the trust region that polishes three or more parameters takes no bounds
    for bounds in ((0.0, np.inf), (-np.inf, [1.0, np.inf, np.inf])):
        with pytest.raises(ValueError, match="takes no bounds"):
            least_squares(lambda x: x - 1.0, np.zeros(3), jac=lambda x: np.eye(3), bounds=bounds)


def test_the_parameter_count_picks_the_solver(monkeypatch):
    called = []

    def spy(name):
        solver = getattr(trapkit.fitting, name)

        def spied(*args):
            called.append(name)
            return solver(*args)

        return spied

    for name in ("_levenberg_marquardt", "_trust_region"):
        monkeypatch.setattr(trapkit.fitting, name, spy(name))
    for p in (1, 2, 3):
        res = least_squares(lambda x: x - 1.0, np.zeros(p), jac=lambda x: np.eye(x.size))
        np.testing.assert_allclose(res.x, np.ones(p))
    assert called == ["_levenberg_marquardt", "_levenberg_marquardt", "_trust_region"]


class TestTrustRegion:
    # least_squares runs the trust region on three or more parameters; these
    # call it directly on two
    def test_converges_and_stops_at_max_nfev(self, monkeypatch):
        res = _trust_region(_rosenbrock, _rosenbrock_jac, [-1.2, 1.0])
        assert res.status in (1, 2, 3, 4)
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-8)
        assert res.cost == pytest.approx(0.5 * res.fun @ res.fun)
        monkeypatch.setattr(trapkit.fitting, "MAX_NFEV", 5)
        cut = _trust_region(_rosenbrock, _rosenbrock_jac, [-1.2, 1.0])
        assert cut.status == 0 and cut.nfev == 5

    def test_follows_scipy_trf(self):
        # a port of scipy's unbounded trust region: the same evaluations
        # and the same minimum on a problem without rounding-level chaos
        from scipy.optimize import least_squares as trf

        res = _trust_region(_rosenbrock, _rosenbrock_jac, [-1.2, 1.0])
        ref = trf(_rosenbrock, [-1.2, 1.0], jac=_rosenbrock_jac, method="trf", x_scale="jac",
                  ftol=1e-12, xtol=1e-12, gtol=1e-12, max_nfev=1000)
        assert (res.nfev, res.status) == (ref.nfev, ref.status)
        np.testing.assert_allclose(res.x, ref.x, rtol=1e-12)

    def test_nan_initial_residual_raises(self):
        with pytest.raises(ValueError, match="not finite"):
            _trust_region(lambda x: np.array([np.nan, x[0]]), lambda x: np.array([[0.0], [1.0]]), [0.0])

    def test_non_finite_trial_step_shrinks_the_radius(self):
        calls = []

        def fun(x):
            calls.append(x.copy())
            return np.full(2, np.inf) if len(calls) == 2 else _rosenbrock(x)

        res = _trust_region(fun, _rosenbrock_jac, [-1.2, 1.0])
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-8)
        assert np.linalg.norm(calls[2] - calls[0]) < np.linalg.norm(calls[1] - calls[0])


class TestFitReport:
    def test_unweighted_errors_scale_by_the_residual_variance_over_the_samples(self):
        # 8 rows from 6 samples, as a beam scan with two samples measured as
        # zero gives, and 3 fitted parameters
        rng = np.random.default_rng(0)
        J, resid = rng.normal(size=(8, 3)), rng.normal(size=8)
        G = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.5], [0.0, 0.0, 3.0]])
        report, cov = fit_report("toy", {"a": 1.0, "b": 2.0, "c": 3.0}, G, J, resid, 6, False, 1, {})
        C = np.linalg.inv(J.T @ J) * (resid @ resid) / (6 - 3)
        np.testing.assert_allclose(cov, C, rtol=1e-12)
        np.testing.assert_allclose(list(report.param_errs.values()), np.sqrt(np.diag(G @ C @ G.T)), rtol=1e-12)
        assert report.residual_rms == pytest.approx(math.sqrt(resid @ resid / 6), rel=1e-15)
        assert report.n_points == 6

    def test_shared_flags(self):
        # weighted: the covariance is (J^T J)^-1 = I, so each error is 1
        report, _ = fit_report("toy", {"a": 10.0, "b": 2.0}, np.eye(2), np.eye(2), np.ones(2), 2, True, 0, {})
        assert report.param_errs == {"a": 1.0, "b": 1.0}
        assert sorted(report.flags) == ["max-nfev-reached", "weakly-identified:b"]
