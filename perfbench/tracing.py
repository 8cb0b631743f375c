"""In-memory span and counter tracing, installed on trapkit from outside.

The tracer replaces module-level names that trapkit layers call through
(for example ``trapkit.charging.fit_charging`` or
``trapkit.fitting.least_squares``) with wrappers that record a span per
call, and restores the originals on ``uninstall``. Nothing under ``src/``
is modified. Spans are kept in memory as lists
``[name, start, end, parent_index, record_id]`` and written out by the
caller when the run ends. Counters are keyed by ``(record_id, name)``.
"""

from __future__ import annotations

import functools
import math
import os
import time
from collections import defaultdict

# (module, attribute) pairs wrapped with a plain span. A function reached
# through several module names is listed once per name it is called through.
SPANNED = (
    ("trapkit.simulate", "simulate_charging_series"),
    ("trapkit.simulate", "simulate_position_scan"),
    ("trapkit.simulate", "simulate_heating_series"),
    ("trapkit.thermometry", "sideband_excitation"),
    ("trapkit.thermometry", "nbar_with_uncertainty"),
    ("trapkit.heating", "fit_heating_rate"),
    ("trapkit.charging", "fit_charging"),
    ("trapkit.charging", "fit_discharge"),
    ("trapkit.beam", "fit_profile"),
    ("trapkit.beam", "profile_extrema"),
    ("trapkit.datasets", "load_dataset"),
)

# fitters whose multistart calls are counted separately
FITTERS = ("fit_charging", "fit_discharge", "fit_profile")


class Tracer:
    """Spans and counters for one traced pass, keyed by record id."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(int)
        self.record = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._evals = 0  # residual evaluations seen so far in this process
        self._multistart: list[tuple] = []  # per open multistart call: (fitter, [(result, evals)])

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), math.nan, parent, self.record])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def add_span(self, name, start, end) -> None:
        """Record a finished span under the innermost open span."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.record])

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.record, name)] += n

    def _parent_name(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else ""

    # -- wrappers --------------------------------------------------------

    def _replace(self, module, attr, wrapper):
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _spanned(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(f"{name}_calls")
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def install(self) -> None:
        """Wrap the traced trapkit names; ``uninstall`` restores them."""
        import importlib

        for modname, attr in SPANNED:
            module = importlib.import_module(modname)
            name = f"{modname.split('.')[-1]}.{attr}"
            self._replace(module, attr, self._spanned(getattr(module, attr), name))

        datasets = importlib.import_module("trapkit.datasets")
        self._replace(datasets, "write_dataset", self._write_dataset(datasets.write_dataset))

        fitting = importlib.import_module("trapkit.fitting")
        for modname in ("trapkit.charging", "trapkit.beam"):
            module = importlib.import_module(modname)
            self._replace(
                module, "multistart_least_squares", self._multistart_wrapper(module.multistart_least_squares)
            )
        self._replace(fitting, "least_squares", self._least_squares_wrapper(fitting.least_squares))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def _write_dataset(self, fn):
        span = self._spanned(fn, "datasets.write_dataset")

        @functools.wraps(fn)
        def wrapper(path, dataset):
            span(path, dataset)
            # computed from the file written, not measured as device I/O
            self.count("datasets.bytes_written", os.path.getsize(path))

        return wrapper

    def _multistart_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(residual_fn, seeds, *args, **kwargs):
            fitter = self._parent_name().split(".")[-1]
            tag = fitter if fitter in FITTERS else "other"

            def counted(theta):
                self._evals += 1
                self.count(f"fitting.residual_evals.{tag}")
                return residual_fn(theta)

            starts: list = []
            self._multistart.append((tag, starts))
            before = self._evals
            idx = self.open("fitting.multistart_least_squares")
            try:
                best = fn(counted, seeds, *args, **kwargs)
            finally:
                self.close(idx)
                self._multistart.pop()
            total = self._evals - before
            self.count("fitting.multistart_evals", total)
            self.count("fitting.winning_start_evals", sum(n for res, n in starts if res is best))
            return best

        return wrapper

    def _least_squares_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fitter, starts = self._multistart[-1] if self._multistart else ("other", [])
            self.count(f"fitting.starts_polished.{fitter}")
            before = self._evals
            idx = self.open("fitting.least_squares")
            try:
                res = fn(*args, **kwargs)
            except Exception:
                self.count("fitting.starts_failed")
                raise
            finally:
                self.close(idx)
            if not all(math.isfinite(v) for v in res.x):
                self.count("fitting.starts_failed")
            starts.append((res, self._evals - before))
            return res

        return wrapper


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out
