#!/usr/bin/env python3
"""Drift of the charging, discharge and beam fits between two source trees.

    python3 tools/fit_drift.py SRC_A SRC_B

Fits, under ``PYTHONPATH=SRC_A`` and under ``PYTHONPATH=SRC_B``, each in its
own interpreter, acceptance criterion 7's records, seeds 0-199 (the charging
window with the baseline f0, as criterion 7 fits it, and the discharge
window after light-off), criterion 9's noisy two-beamlet scans, seeds 0-99
on its 41-point grid, and criterion 7's held-out seeds 200-999, which no
seed grid or damping was chosen on. For each block it prints the worst
|delta param| / sigma over every reported parameter, sigma being tree A's
reported error, then every fit whose flags (or whose failure) differ, then
the fits whose chi^2 (residual_rms^2 * n_points) rises, and those whose
chi^2 falls, by more than CHI2_RTOL (relative), each with both chi^2 and
both sets of flags: a fit whose minimum moves shows there even when its
drift is hidden by a large error. Then, for each fit kind and over the
block, each tree's polishing evaluations (nfev), polished starts and fits
that polished a second and a third start, counted on
``trapkit.fitting.least_squares``, its polished starts by the test that
ended them (the Gauss-Newton decrement, ftol, xtol, both, gtol or
max-nfev), and its ``np.linalg.svd`` calls. The charging and discharge
fits solve each evaluation in closed form, so for them the SVD calls
count the covariance's alone, one per fit; the beam's trust region adds
one per iteration. The beam's phase is left
out of the drift: criterion 9's grid measures the truth's field zero as
exactly 0, so every fitted phase is pi to rounding with an error of ~1e-7
rad, and its drift in sigma means nothing. For a block of beam fits it
also prints the worst |delta| of the reported peak positions and their
separation (m) and of the dip depth, over the fits whose peaks both trees
report. A fit that raises ValueError, its parameters failing
their model's check, counts as failed. Two trees give the same fits when
the drift is at rounding level and no flag differs:

    python3 tools/fit_drift.py PARENT/src src
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

# each criterion's seeds and the fit kinds fitted on each seed's record
CRITERIA = {
    "criterion 7": (range(200), ("charging", "discharge")),
    "criterion 9": (range(100), ("beam",)),
    "criterion 7 held out": (range(200, 1000), ("charging", "discharge")),
}
CHI2_RTOL = 1e-9
NO_DRIFT = {"phase"}
# the beam report's extras whose worst |delta| is printed, and their unit
EXTRAS = {("peak_0", "peak_1", "peak_separation"): " m", ("dip_depth",): ""}
# the test that ended a polished start, by fitting.least_squares' status,
# unless the Levenberg-Marquardt stopped on the Gauss-Newton decrement
STOPS = {0: "max-nfev", 1: "gtol", 2: "ftol", 3: "xtol", 4: "ftol and xtol"}
# each count over one fit's line
COUNTS = {
    "nfev": lambda fit: sum(fit["nfev"]),
    "polished starts": lambda fit: len(fit["nfev"]),
    "fits polishing a second start": lambda fit: len(fit["nfev"]) >= 2,
    "fits polishing a third start": lambda fit: len(fit["nfev"]) >= 3,
    "svd calls": lambda fit: fit["svd"],
}


def emit() -> int:
    """Fit every record with the trapkit on the path; one JSON line per fit,
    with the nfev and the end of each polished start and the fit's SVD
    count."""
    import numpy as np

    from trapkit import fitting
    from trapkit.beam import GratingOutputModel, fit_profile
    from trapkit.charging import fit_charging, fit_discharge
    from trapkit.simulate import SimConfig, simulate_charging_series, simulate_position_scan

    polish, nfev, stops = fitting.least_squares, [], []

    def counted(*args, **kwargs):
        res = polish(*args, **kwargs)
        nfev.append(res.nfev)
        stops.append("decrement" if getattr(res, "decrement", False) else STOPS[res.status])
        return res

    fitting.least_squares = counted
    svd, svds = np.linalg.svd, []
    np.linalg.svd = lambda *args, **kwargs: svds.append(None) or svd(*args, **kwargs)
    beam = GratingOutputModel(mode="two-beamlet", waist=0.9e-6, beamlet_separation=1.8e-6, center=11e-6)
    grid = np.linspace(6e-6, 16e-6, 41).tolist()

    def fits_of(seed, kinds):
        """The fit of each kind on the seed's simulated record."""
        if kinds == ("beam",):
            scan = simulate_position_scan(SimConfig(seed=seed, rabi_noise_frac=0.05), beam, grid)
            return {"beam": lambda: fit_profile(scan, mode="two-beamlet")}
        series = simulate_charging_series(SimConfig(seed=seed, noise_floor=1e3), 15.0, (400.0, 2400.0), 5000.0)
        return {
            "charging": lambda: fit_charging(series, 400.0, t_end=2400.0, f0_mode="baseline"),
            "discharge": lambda: fit_discharge(series, 2400.0),
        }

    for criterion, (seeds, kinds) in CRITERIA.items():
        for seed in seeds:
            for kind, fit in fits_of(seed, kinds).items():
                nfev.clear()
                stops.clear()
                svds.clear()
                try:
                    _, report = fit()
                    out = {
                        "params": report.params,
                        "errs": report.param_errs,
                        "flags": sorted(report.flags),
                        "chi2": report.residual_rms**2 * report.n_points,
                    }
                    if kind == "beam":
                        out["extras"] = report.extras
                except (fitting.FitConvergenceError, ValueError) as exc:
                    out = {"failed": str(exc)}
                line = {"criterion": criterion, "seed": seed, "kind": kind}
                line.update(nfev=nfev, stops=stops, svd=len(svds))
                print(json.dumps({**line, **out}))
    return 0


def fits(src: str):
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    proc = subprocess.run(
        [sys.executable, __file__, "--emit"], env=env, capture_output=True, text=True, check=True, timeout=1800
    )
    return [json.loads(line) for line in proc.stdout.splitlines()]


def ended_by(fits: list, stop: str) -> int:
    """The polished starts of the fits that ended by stop."""
    return sum(fit["stops"].count(stop) for fit in fits)


def drift(a: dict, b: dict) -> tuple[float, str]:
    """The worst |a - b| / sigma over a's reported parameters, but those in
    NO_DRIFT, and its name."""
    worst, where = 0.0, ""
    for name, value in a["params"].items():
        if name in NO_DRIFT:
            continue
        delta, sigma = abs(value - b["params"][name]), a["errs"][name]
        d = delta / sigma if sigma > 0 else 0.0 if delta == 0 else math.inf
        if d > worst:
            worst, where = d, name
    return worst, where


def extras_drift(pairs: list, names: tuple) -> tuple[float, str]:
    """The worst |a - b| over the names in the fits' extras that both
    report, and where."""
    worst, where = 0.0, "none"
    for a, b in pairs:
        for name in names:
            if name in a.get("extras", {}) and name in b.get("extras", {}):
                delta = abs(a["extras"][name] - b["extras"][name])
                if delta > worst:
                    worst, where = delta, f"seed {a['seed']} {a['kind']} {name}"
    return worst, where


def main(src_a: str, src_b: str) -> int:
    fits_a, fits_b = fits(src_a), fits(src_b)
    for criterion, (seeds, kinds) in CRITERIA.items():
        pairs = [(a, b) for a, b in zip(fits_a, fits_b) if a["criterion"] == criterion]
        worst, where, differ, moved = 0.0, "none", [], {"rises": [], "falls": []}
        for a, b in pairs:
            label = f"seed {a['seed']} {a['kind']}"
            if "failed" in a or "failed" in b:
                if a.get("failed") != b.get("failed"):
                    differ.append(f"{label}: {a.get('failed', 'fitted')} | {b.get('failed', 'fitted')}")
                continue
            d, name = drift(a, b)
            if d > worst:
                worst, where = d, f"{label} {name}"
            flags = f"{' '.join(a['flags']) or '-'} | {' '.join(b['flags']) or '-'}"
            if a["flags"] != b["flags"]:
                differ.append(f"{label}: {flags}")
            if abs(b["chi2"] - a["chi2"]) > CHI2_RTOL * a["chi2"]:
                moved["rises" if b["chi2"] > a["chi2"] else "falls"].append(
                    f"{label}: chi2 {a['chi2']:.6g} -> {b['chi2']:.6g}; flags {flags}"
                )
        print(f"{criterion} seeds {seeds.start}-{seeds.stop - 1}: {len(pairs)} fits")
        print(f"worst |delta param|/sigma: {worst:.3g} ({where})")
        if "beam" in kinds:
            for names, unit in EXTRAS.items():
                delta, at = extras_drift(pairs, names)
                print(f"worst |delta {', '.join(names)}|: {delta:.3g}{unit} ({at})")
        print(f"flag differences: {len(differ)}")
        for line in differ:
            print(f"  {line}")
        for way, lines in moved.items():
            print(f"chi2 {way} by more than {CHI2_RTOL:g}: {len(lines)}")
            for line in lines:
                print(f"  {line}")
        for kind in (*kinds, None) if len(kinds) > 1 else kinds:
            of_a, of_b = ([pair[i] for pair in pairs if kind in (None, pair[i]["kind"])] for i in (0, 1))
            for label, count in COUNTS.items():
                print(f"{kind or 'all'} {label}: {sum(map(count, of_a))} -> {sum(map(count, of_b))}")
            ends = (f"{stop} {ended_by(of_a, stop)} -> {ended_by(of_b, stop)}" for stop in ("decrement", *STOPS.values()))
            print(f"{kind or 'all'} polished starts by end: {', '.join(ends)}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--emit"]:
        sys.exit(emit())
    sys.exit(main(*sys.argv[1:3]))
