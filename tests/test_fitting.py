"""The series contract that every measured series keeps (fitting.check_series)."""

import math

import pytest

from trapkit.beam import RabiPositionScan
from trapkit.charging import FrequencySeries
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
