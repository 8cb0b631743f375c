"""Machine-speed probes: fixed work timed between records.

The benchmark runs on a few cores of a shared host whose speed moves by
up to a factor of two between states that last from under a second to a
minute, and process CPU time moves with it. A run that lands in a slow
state would read as a slower program. So the worker times a probe after
every record, and every timed metric is scaled to a machine on which the
probe takes its reference time: a record's time is multiplied by the
reference over the median of the probes around it. The probes use
neither trapkit nor its inputs, so a change to trapkit moves the scaled
times as much as the raw ones.

Each workload's probe does the kind of work its records do, because the
host's slow states do not slow all work alike:

- ``kernel_probe``, for in-process records: interpreted Python, small
  numpy arrays and a scipy ``least_squares`` fit.
- ``import_probe``, for records that are CLI subprocesses, whose time is
  mostly interpreter start-up and imports: a fresh ``python -c "import
  numpy"``.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np
from scipy.optimize import least_squares

# Reference times of the probes, which the scaled figures refer to: about
# their medians on a 2-vCPU VM in a fast state, with Python 3.11.7, numpy
# 2.4.6, scipy 1.17.1 and one BLAS thread.
KERNEL_REFERENCE_S = 0.0062
IMPORT_REFERENCE_S = 0.12

# probes on each side of a record whose median scales it
WINDOW = 2

_T = np.linspace(0.0, 10.0, 400)
_Y = 3.0 * np.exp(-_T / 2.5) - 1.2 * np.exp(-_T / 0.4) + 0.5 + 0.01 * np.sin(7.0 * _T)

_LO = [-10.0, 0.05, -10.0, 0.05, -10.0]
_HI = [10.0, 20.0, 10.0, 20.0, 10.0]
_STARTS = ([1.0, 1.0, -1.0, 0.3, 0.0], [2.0, 3.0, -1.5, 0.5, 0.4])


def _residuals(p):
    return p[0] * np.exp(-_T / p[1]) + p[2] * np.exp(-_T / p[3]) + p[4] - _Y


def _kernel() -> float:
    acc = 0
    for i in range(20000):
        acc += (i * 7) % 13
    for start in _STARTS:
        fit = least_squares(_residuals, start, bounds=(_LO, _HI), method="trf")
        acc += float(fit.x[0])
    return acc


def kernel_probe() -> float:
    """Run the kernel once and return its wall time in seconds."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def import_probe(env: dict) -> float:
    """Start ``python -c "import numpy"`` once and return its wall time in seconds."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, capture_output=True, check=True, timeout=60)
    return time.perf_counter() - start


def factors(probes: list[float], reference_s: float) -> list[float]:
    """Scale factor per record: reference_s / median of the probes around it.

    ``probes[i]`` is the probe taken right after record i.
    """
    n = len(probes)
    return [
        reference_s / statistics.median(probes[max(0, i - WINDOW): min(n, i + WINDOW + 1)])
        for i in range(n)
    ]
