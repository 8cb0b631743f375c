"""The series contract that every measured series keeps (datasets.check_series),
the numpy Levenberg-Marquardt and trust region behind fitting.least_squares,
the multistart's stop rule and diagnostics, and the report every nonlinear
fit ends in (fitting.fit_report)."""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import oracle
import trapkit.fitting
from test_charging import _criterion7_windows, criterion7_series
from trapkit import charging
from trapkit.beam import RabiPositionScan
from trapkit.charging import FrequencySeries, fit_charging, fit_discharge
from trapkit.fitting import (
    TOL, FitConvergenceError, _trust_region, fit_report, least_squares, multistart_least_squares,
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


# the +1 seeds 1.0 and 0.98 are neighbours, in one basin; -1.35 has none
NEIGHBOURS = ((1,), (0,), ())


def test_multistart_skips_a_seed_with_a_lower_neighbour(polishes):
    # once 0.98 has converged, 1.0 lies in its lower neighbour's basin and
    # is skipped; -1.35, a second basin, is still polished
    res = multistart_least_squares(_two_minima, [[1.0], [0.98], [-1.35]], jac=_two_minima_jac, neighbours=NEIGHBOURS)
    assert polishes == [0.98, -1.35]
    assert res.x[0] < 0


@pytest.mark.parametrize("failure", ["raises", "non-finite-x"])
def test_multistart_polishes_a_neighbour_while_no_start_has_converged(polishes, monkeypatch, failure):
    # the first start fails, so 1.0 is polished although its neighbour
    # 0.98 has the lower cost
    counted = trapkit.fitting.least_squares

    def first_fails(fun, x0, **kwargs):
        res = counted(fun, x0, **kwargs)
        if len(polishes) > 1:
            return res
        if failure == "raises":
            raise ValueError("the first start fails")
        return SimpleNamespace(**{**vars(res), "x": np.full_like(res.x, np.nan)})

    monkeypatch.setattr(trapkit.fitting, "least_squares", first_fails)
    res = multistart_least_squares(_two_minima, [[1.0], [0.98], [-1.35]], jac=_two_minima_jac, neighbours=NEIGHBOURS)
    assert polishes == [0.98, 1.0, -1.35]
    assert res.x[0] < 0


def test_multistart_without_neighbours_polishes_as_before(polishes):
    res = multistart_least_squares(_two_minima, [[1.0], [0.98], [-1.35]], jac=_two_minima_jac, neighbours=None)
    assert polishes == [0.98, 1.0]
    assert res.x[0] > 0


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
        window = charging._window(sub, 2400.0, None)
        w, _, columns, *_ = charging._sampling(sub.times[window], sub.freq_errs[window], 2400.0, "discharge", True)
        _, resid, jac, _ = charging._projector(columns, np.array(sub.freqs[window], dtype=float), w, "discharge")
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


def _recorded(fun, jac):
    """fun and jac, each appending ("fun" or "jac", x) to calls."""
    calls = []
    return (lambda x: calls.append(("fun", x.copy())) or fun(x)), (lambda x: calls.append(("jac", x.copy())) or jac(x)), calls


def _assert_stop_test_holds(res, calls, exact_at, bounds):
    """A polish ends where the stop test its status reports holds against
    exact_at(x), the residuals and Jacobian at x in long double, and at a
    KKT point: into the box, no gradient along a unit column exceeds what
    the decrement test leaves, sqrt(2 TOL) |r|. A cost below the smallest
    normal double counts as zero."""
    assert res.status != 0  # no polish here runs to MAX_NFEV
    x, (r, J) = res.x, exact_at(res.x)
    lo, hi = (np.broadcast_to(np.asarray(b, dtype=float), x.shape) for b in bounds)
    g, G, rr = J.T @ r, J.T @ J, r @ r
    zero, held = rr / 2 < np.finfo(float).tiny, ((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0))
    slope = g / np.sqrt(np.diag(G))
    if res.status == 1:
        assert zero or np.all(np.abs(slope[~held]) <= TOL * np.sqrt(rr))
    elif res.decrement:  # the Gauss-Newton decrement g.G^-1.g over the free parameters
        (i, *k), own = np.flatnonzero(~held), np.sum(g[held] ** 2 / np.diag(G)[held])
        j = k[0] if k else i
        a, b, d = G[i, i], G[i, j], G[j, j]
        gain = (d * g[i] ** 2 - 2 * b * g[i] * g[j] + a * g[j] ** 2) / (a * d - b * b) if k else g[i] ** 2 / a
        assert gain <= TOL * (rr - gain - own)
    else:  # ftol or xtol on the last trial, made from the last accepted point
        last = max(k for k, (name, _) in enumerate(calls) if name == "fun")
        base, trial = [x for name, x in calls[:last] if name == "jac"][-1], calls[last][1]
        step = trial - base
        assert res.status == 2 or np.linalg.norm(step) < TOL * (TOL + np.linalg.norm(base))
        if res.status in (2, 4):
            (rb, Jb), (rt, _) = exact_at(base), exact_at(trial)
            cost, Jh = rb @ rb / 2, Jb @ step
            actual, predicted = cost - rt @ rt / 2, -step @ (Jb.T @ rb) - Jh @ Jh / 2
            assert abs(actual) <= TOL * cost and predicted <= TOL * cost and (predicted <= 0 or actual <= 2 * predicted)
    into_box = np.where(x <= lo, np.minimum(slope, 0), np.where(x >= hi, np.maximum(slope, 0), slope))
    assert zero or np.all(np.abs(into_box) <= math.sqrt(2 * TOL * rr))


@oracle.needs_long_double
@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_polish_ends_where_its_stop_test_holds(case):
    fun, jac, x0, bounds = REFERENCE_CASES[case]
    recorded_fun, recorded_jac, calls = _recorded(fun, jac)
    res = least_squares(recorded_fun, x0, jac=recorded_jac, bounds=bounds)
    _assert_stop_test_holds(res, calls, lambda x: tuple(np.asarray(f(x.astype(np.longdouble)), dtype=np.longdouble) for f in (fun, jac)), bounds)


@oracle.needs_long_double
def test_criterion7_polishes_end_where_their_stop_tests_hold(monkeypatch):
    # every start polished in criterion 7's four window fits, seeds 0-39,
    # the window fitted as _fit_window fits it, checked against the
    # long-double projection at each end
    polished, lm = [], trapkit.fitting.least_squares

    def recorded(fun, x0, jac, bounds):
        fun, jac, calls = _recorded(fun, jac)
        res = lm(fun, x0, jac=jac, bounds=bounds)
        polished.append((res, calls))
        return res

    monkeypatch.setattr(trapkit.fitting, "least_squares", recorded)
    for seed in range(40):
        for tau, (w, bounds, columns, seeds, pairs, X, neighbours), f, kind, fix_f0 in _criterion7_windows(seed):
            _, resid, jac, costs = charging._projector(columns, f, w, kind, fix_f0)
            polished.clear()
            multistart_least_squares(resid, seeds, jac=jac, bounds=bounds, costs=costs(pairs, X), neighbours=neighbours)

            def exact_at(x):
                exact = oracle.projection(tau, f, w, kind, fix_f0, x)
                return exact.resid[0], oracle.jacobian(exact)[0][0]

            for res, calls in polished:
                _assert_stop_test_holds(res, calls, exact_at, bounds)


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
