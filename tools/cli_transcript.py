#!/usr/bin/env python3
"""Transcript of a fixed set of trapkit CLI calls, for byte-identity checks.

    python3 tools/cli_transcript.py SRC_DIR > transcript.txt

Runs, with ``PYTHONPATH=SRC_DIR``, the README's CLI examples, seventeen
calls that take the branches the README leaves out (an explicit charging
and discharge edge, a table with artifacts, a non-finite reference
frequency, a single-Gaussian beam fit, a discharge fit with the baseline
f0, a two-beamlet fit of the default 7-point scan, an unweighted charging
fit of a noiseless record, which has no err column, analytic heating and
sideband records, a heating record at one shot per point, whose
thermometry fails, the help of two simulated kinds, which argparse
prints to stdout, analytic thermometry, and a normalization with a
species from a config file and with a malformed one) and one
``cli-session`` cycle of the benchmark
(``perfbench/workloads.py``: two analysis sessions and the four malformed
inputs) in a fresh temporary directory. For each call it prints the exit
code and the sha256 of stdout, then the sha256 of every file the calls
left (datasets, reports and tables). Two source trees give CLI output that is byte-identical when
their transcripts are:

    diff <(python3 tools/cli_transcript.py PARENT/src) <(python3 tools/cli_transcript.py src)

stderr is left out: it carries error details, not results.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

README = [
    ["simulate", "heating", "--out", "heating.csv", "--seed", "3"],
    ["fit-heating", "--input", "heating.csv", "--out-dir", "out/"],
    ["simulate", "charging", "--out", "charging.csv", "--noise", "1000"],
    ["fit-charging", "--input", "charging.csv", "--f0-mode", "baseline"],
    ["fit-discharge", "--input", "charging.csv"],
    ["thermometry", "--p-red", "0.075", "--p-blue", "0.75", "--shots", "400"],
    ["normalize", "--rate", "780", "--rate-err", "50", "--freq", "5.329e6", "--ref-species", "Ca-40", "--ref-freq", "1e6"],
    # the README does not say how scan.csv is made; a 41-point scan, as in the benchmark
    ["simulate", "position", "--out", "scan.csv", "--points", "41"],
    ["beam-profile", "--input", "scan.csv", "--mode", "two-beamlet"],
    ["simulate", "sideband", "--out", "sideband.csv", "--seed", "3"],
]

# the branches the README's examples leave out, on its charging.csv and scan.csv
# and on two files of their own
BRANCHES = [
    ["fit-charging", "--input", "charging.csv", "--t-on", "400"],
    ["fit-discharge", "--input", "charging.csv", "--t-off", "2400", "--format", "table", "--out-dir", "out/"],
    ["normalize", "--rate", "780", "--freq", "5.329e6", "--ref-freq", "inf"],
    ["beam-profile", "--input", "scan.csv", "--mode", "single-gaussian"],
    ["fit-discharge", "--input", "charging.csv", "--f0-mode", "baseline"],
    ["simulate", "position", "--out", "scan7.csv", "--seed", "3"],
    ["beam-profile", "--input", "scan7.csv"],
    ["simulate", "charging", "--out", "flat.csv", "--noise", "0"],
    ["fit-charging", "--input", "flat.csv"],
    ["simulate", "heating", "--out", "analytic.csv", "--shots", "0"],
    ["simulate", "sideband", "--out", "analytic_sideband.csv", "--shots", "0", "--points", "4"],
    ["simulate", "heating", "--out", "few_shots.csv", "--shots", "1"],
    ["simulate", "heating", "--help"],
    ["simulate", "charging", "--help"],
    ["thermometry", "--p-red", "0.075", "--p-blue", "0.75"],
    ["normalize", "--config", "species.json", "--rate", "780", "--freq", "5.329e6", "--species", "Ba-138"],
    ["normalize", "--config", "no_mass.json", "--rate", "780", "--freq", "5.329e6"],
]

# the config files the normalize calls read, written into the work directory
CONFIGS = {
    "species.json": '{"species": {"Ba-138": {"mass_u": 137.905, "charge_e": 1}}}\n',
    "no_mass.json": '{"species": {"Ba-138": {"charge_e": 1}}}\n',
}

SEED = 1  # the cli-session cycle's first seed


def session_calls(workdir: Path, run) -> None:
    """One cli-session cycle: sessions SEED and SEED + 1, then the four
    malformed inputs, as CliSession.unit writes and runs them."""
    sys.path[:0] = [str(ROOT / "perfbench"), os.environ["PYTHONPATH"]]
    from workloads import MALFORMED, _malformed, _session

    for s in (SEED, SEED + 1):
        for _, argv in _session(s, s == SEED):
            run(argv)
    rng = random.Random(SEED)
    for kind, src, argv in MALFORMED:
        bad = f"{src}{SEED}_{kind}.csv"
        (workdir / bad).write_text(_malformed(kind, (workdir / f"{src}{SEED}.csv").read_text(encoding="utf-8"), rng))
        run([argv[0], "--input", bad, *argv[1:]])


def main(src: str) -> int:
    os.environ["PYTHONPATH"] = str(Path(src).resolve())  # for the calls and for session_calls
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)

        def run(argv):
            proc = subprocess.run(
                [sys.executable, "-m", "trapkit.cli", *argv], cwd=workdir, capture_output=True, timeout=300
            )
            print(f"{proc.returncode} {hashlib.sha256(proc.stdout).hexdigest()} trapkit {' '.join(argv)}")

        for name, text in CONFIGS.items():
            (workdir / name).write_text(text, encoding="utf-8")
        for argv in README + BRANCHES:
            run(argv)
        session_calls(workdir, run)
        for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
            print(f"file {hashlib.sha256(path.read_bytes()).hexdigest()} {path.relative_to(workdir)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
