#!/usr/bin/env python3
"""Drift of the charging and discharge fits between two source trees.

    python3 tools/fit_drift.py SRC_A SRC_B

Fits acceptance criterion 7's records, seeds 0-199, under ``PYTHONPATH=SRC_A``
and under ``PYTHONPATH=SRC_B``, each in its own interpreter: the charging
window with the baseline f0 (as criterion 7 fits it) and the discharge
window after light-off. It prints the worst |delta param| / sigma over every
reported parameter, sigma being tree A's reported error, then every fit
whose flags (or whose failure) differ, then, for each fit kind and in
total, each tree's polishing evaluations (nfev), polished starts and fits
that polished a third start, counted on ``trapkit.fitting.least_squares``,
and its ``np.linalg.svd`` calls, a measure of each evaluation's cost that
does not depend on the machine. Two trees give the same fits when the
drift is at rounding level and no flag differs:

    python3 tools/fit_drift.py PARENT/src src
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

SEEDS = range(200)
# each count over one fit's line
COUNTS = {
    "nfev": lambda fit: sum(fit["nfev"]),
    "polished starts": lambda fit: len(fit["nfev"]),
    "fits polishing a third start": lambda fit: len(fit["nfev"]) >= 3,
    "svd calls": lambda fit: fit["svd"],
}


def emit() -> int:
    """Fit every record with the trapkit on the path; one JSON line per fit,
    with the nfev of each polished start and the fit's SVD count."""
    import numpy as np

    from trapkit import fitting
    from trapkit.charging import FrequencySeries, fit_charging, fit_discharge
    from trapkit.simulate import SimConfig, simulate_charging_series

    polish, nfev = fitting.least_squares, []

    def counted(*args, **kwargs):
        res = polish(*args, **kwargs)
        nfev.append(res.nfev)
        return res

    fitting.least_squares = counted
    svd, svds = np.linalg.svd, []
    np.linalg.svd = lambda *args, **kwargs: svds.append(None) or svd(*args, **kwargs)
    for seed in SEEDS:
        series = simulate_charging_series(SimConfig(seed=seed, noise_floor=1e3), 15.0, (400.0, 2400.0), 5000.0)
        t = np.asarray(series.times)
        off = t >= 2400.0
        sub = FrequencySeries(
            tuple(t[off].tolist()),
            tuple(np.asarray(series.freqs)[off].tolist()),
            tuple(np.asarray(series.freq_errs)[off].tolist()),
        )
        fits = {
            "charging": lambda: fit_charging(series, 400.0, t_end=2400.0, f0_mode="baseline"),
            "discharge": lambda: fit_discharge(sub, 2400.0),
        }
        for kind, fit in fits.items():
            nfev.clear()
            svds.clear()
            try:
                _, report = fit()
                out = {"params": report.params, "errs": report.param_errs, "flags": sorted(report.flags)}
            except fitting.FitConvergenceError as exc:
                out = {"failed": str(exc)}
            print(json.dumps({"seed": seed, "kind": kind, "nfev": nfev, "svd": len(svds), **out}))
    return 0


def fits(src: str):
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    proc = subprocess.run(
        [sys.executable, __file__, "--emit"], env=env, capture_output=True, text=True, check=True, timeout=1800
    )
    return [json.loads(line) for line in proc.stdout.splitlines()]


def drift(a: dict, b: dict) -> tuple[float, str]:
    """The worst |a - b| / sigma over a's reported parameters, and its name."""
    worst, where = 0.0, ""
    for name, value in a["params"].items():
        delta, sigma = abs(value - b["params"][name]), a["errs"][name]
        d = delta / sigma if sigma > 0 else 0.0 if delta == 0 else math.inf
        if d > worst:
            worst, where = d, name
    return worst, where


def main(src_a: str, src_b: str) -> int:
    fits_a, fits_b = fits(src_a), fits(src_b)
    worst, where, differ = 0.0, "none", []
    for a, b in zip(fits_a, fits_b):
        label = f"seed {a['seed']} {a['kind']}"
        if "failed" in a or "failed" in b:
            if a.get("failed") != b.get("failed"):
                differ.append(f"{label}: {a.get('failed', 'fitted')} | {b.get('failed', 'fitted')}")
            continue
        d, name = drift(a, b)
        if d > worst:
            worst, where = d, f"{label} {name}"
        if a["flags"] != b["flags"]:
            differ.append(f"{label}: {' '.join(a['flags']) or '-'} | {' '.join(b['flags']) or '-'}")
    print(f"criterion 7 seeds {SEEDS.start}-{SEEDS.stop - 1}: {len(fits_a)} fits")
    print(f"worst |delta param|/sigma: {worst:.3g} ({where})")
    print(f"flag differences: {len(differ)}")
    for line in differ:
        print(f"  {line}")
    for kind in ("charging", "discharge", None):
        for label, count in COUNTS.items():
            a, b = (sum(count(f) for f in fs if kind in (None, f["kind"])) for fs in (fits_a, fits_b))
            print(f"{kind or 'all'} {label}: {a} -> {b}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--emit"]:
        sys.exit(emit())
    sys.exit(main(*sys.argv[1:3]))
