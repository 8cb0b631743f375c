#!/usr/bin/env python3
"""trapkit benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload cli-session --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload charging-loop --seed 1 --seconds 30 --trace 1

Run from the root of a source checkout; trapkit is imported from ./src.
Each workload runs in a fresh worker process (perfbench/worker.py), so the
set-up time includes importing trapkit. Set-up is measured in
SETUP_RUNS separate processes, started one after another before and
after the timed run, and reported as their median. Times are scaled to a
reference machine speed (perfbench/speed.py). The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the workloads in workloads.py; this script imports neither trapkit nor numpy
WORKLOADS = ("cli-session", "charging-loop")
SETUP_RUNS = 3
TIME_LIMIT_S = 170.0


def worker(args, extra, deadline, env):
    """Start one worker, wait for it, and return its JSON result."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    if args.records is not None:
        cmd += ["--records", str(args.records)]
    t0 = time.monotonic()
    # own session, so a timeout also stops the worker's CLI child
    proc = subprocess.Popen(
        [*cmd, "--t0", repr(t0)], cwd=ROOT, env=env, stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - t0, 1.0))
    except BaseException:  # timeout or interrupt: stop the whole group first
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--records", type=int, default=None,
                    help="run exactly this many records instead of --seconds (one-off checks)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "trapkit" / "__init__.py").is_file():
        print(f"error: no trapkit source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # one client and no extra threads: pin the BLAS pools to one thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"

    deadline = time.monotonic() + TIME_LIMIT_S
    # one set-up sample is taken before the timed run, one is the run's own
    # and one after, so their median straddles the run rather than one moment
    extra = SETUP_RUNS - 1 if args.trace == 0 else 0
    try:
        setups = [worker(args, ["--setup-only"], deadline, env) for _ in range(extra // 2)]
        result = worker(args, [], deadline, env)
        setups.append(result)
        setups += [worker(args, ["--setup-only"], deadline, env) for _ in range(extra - extra // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    details = result["details"]
    if args.trace == 0:
        metrics["setup_s"] = {"value": statistics.median(r["setup_s"] for r in setups), "unit": "s"}
        details["setup_runs_s"] = [r["setup_s"] for r in setups]
        details["unscaled_setup_s"] = statistics.median(r["unscaled_setup_s"] for r in setups)
    env_info = dict(result["env"], workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print("env " + json.dumps(env_info, sort_keys=True))
    print("details " + json.dumps(details, sort_keys=True))
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
