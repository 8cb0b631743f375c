"""The series contract that every measured series keeps (fitting.check_series)
and the multistart's stop rule and diagnostics."""

import math

import numpy as np
import pytest

import trapkit.fitting
from trapkit.beam import RabiPositionScan
from trapkit.charging import FrequencySeries
from trapkit.fitting import FitConvergenceError, multistart_least_squares
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
    res = multistart_least_squares(_two_minima, [[1.0], [0.98], [-1.35]], max_keep=3, agree_rtol=1e-9)
    assert polishes == [0.98, 1.0]
    assert res.x[0] > 0


def test_multistart_keeps_the_lower_minimum_after_disagreement(polishes):
    seeds = [[0.98], [-1.35], [-1.3], [1.5]]
    res = multistart_least_squares(_two_minima, seeds, max_keep=4, agree_rtol=1e-9)
    assert polishes == [0.98, -1.3, -1.35]
    assert res.x[0] < 0
    assert 2 * res.cost < 0.1


def test_multistart_without_the_rule_polishes_every_kept_start(polishes):
    res = multistart_least_squares(_two_minima, [[1.0], [0.98], [-1.35]], max_keep=3)
    assert polishes == [0.98, 1.0, -1.35]
    assert res.x[0] < 0


def test_convergence_error_carries_every_start():
    with pytest.raises(FitConvergenceError) as info:
        multistart_least_squares(lambda x: np.full(3, np.nan), [[0.0], [1.0], [2.0]], max_keep=2)
    starts = info.value.starts
    assert len(starts) == 2
    for initial, final, nfev, status in starts:
        assert initial == math.inf
        assert final is None and nfev is None
        assert "not finite" in status
