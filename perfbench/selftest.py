#!/usr/bin/env python3
"""Self-test: the traced counts repeat exactly between runs with one seed.

    python3 perfbench/selftest.py

Runs the traced benchmark twice per workload with the same seed (one CLI
cycle, ten charging records) and requires every metric whose unit is
``count`` to be identical, and the counts each workload exercises to be
nonzero. Counts are work done, not timings, so they must not depend on
the machine or its load. Exits 0 when all hold, 1 otherwise. Takes about
two minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# workload -> (records to run, counts it must exercise, so nonzero)
EXERCISED = {
    "cli-session": (22, (
        "thermometry.sideband_excitation_calls",
        "fitting.residual_evals.fit_profile", "fitting.starts_polished.fit_profile",
    )),
    "charging-loop": (10, (
        "fitting.residual_evals.fit_charging", "fitting.residual_evals.fit_discharge",
        "fitting.starts_polished.fit_charging", "fitting.starts_polished.fit_discharge",
    )),
}
SEED = 3


def traced_counts(workload: str, records: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "2", "--trace", "1", "--records", str(records)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170, check=True,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}


def main() -> int:
    ok = True
    for workload, (records, exercised) in EXERCISED.items():
        first, second = traced_counts(workload, records), traced_counts(workload, records)
        for name in sorted(first):
            same = first[name] == second[name]
            used = name not in exercised or first[name] > 0
            ok &= same and used
            verdict = "PASS" if same and used else "FAIL"
            print(f"{verdict} {workload} {name} (count, not a timing): {first[name]} then {second[name]}")
    print("counts repeat exactly" if ok else "counts differ between runs")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
