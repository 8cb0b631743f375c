#!/usr/bin/env python3
"""The source paper's abstract, claim by claim, as the trapkit CLI reports it.

    PYTHONPATH=src python3 tools/paper_claims.py

For each measured statement of the abstract the tool simulates the
experiment with the seeded simulator and runs the fit command on the
record, each as a ``python -m trapkit.cli`` subprocess of the trapkit it
imports, in a fresh temporary directory. It prints the claim, the two
commands, the value +- error, the simulator's truth and the pull
(value - truth) / error. A claim that no command reaches prints "no CLI
path" and why. The truths are the
simulator's own: ``SimConfig``'s heating rate and its charging model's
settled offset, df1 - df2, and the beamlet separation the scan is
simulated with. It exits 1 if a command fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import trapkit
from trapkit.charging import settled_offset
from trapkit.simulate import SimConfig

SEPARATION_UM = 1.8

# claim -> (the simulate call, the fit call, where the report holds the
# value and its error, the unit scale, the unit, the truth), or, for a
# claim that no command reaches, the reason
CLAIMS = {
    "axial heating rate, 0.78 +- 0.05 q/ms, from an nbar record": (
        ["simulate", "heating", "--out", "heating.csv", "--seed", "3"],
        ["fit-heating", "--input", "heating.csv"],
        ("params", "ndot", "param_errs", "ndot"), 1.0, "quanta/s", SimConfig.heating_rate,
    ),
    "axial heating rate from sideband scans": "fit-heating takes no sideband-scan record",
    "no increase of the heating rate near the waveguide": "no command reaches heating.position_scan_summary",
    "charging settles after an initial shift (settled offset)": (
        ["simulate", "charging", "--out", "charging.csv", "--seed", "3"],
        ["fit-charging", "--input", "charging.csv", "--f0-mode", "baseline"],
        ("extras", "settled_offset", "extras", "settled_offset_err"), 1.0, "Hz", settled_offset(SimConfig.charging),
    ),
    "0.9 kHz frequency instability after settling": "no command reaches charging.settled_stability",
    "light delivered by the grating (beamlet separation)": (
        ["simulate", "position", "--out", "scan.csv", "--points", "41", "--separation", str(SEPARATION_UM)],
        ["beam-profile", "--input", "scan.csv"],
        ("params", "separation", "param_errs", "separation"), 1e6, "um", SEPARATION_UM,
    ),
}


def main() -> int:
    failed = 0
    # the calls run the trapkit imported here, from whichever directory
    home = str(Path(trapkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [home, os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as tmp:

        def cli(argv):
            proc = subprocess.run(
                [sys.executable, "-m", "trapkit.cli", *argv], cwd=tmp, env=env, capture_output=True, text=True, timeout=300
            )
            if proc.returncode:
                raise RuntimeError(f"trapkit {' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
            return proc.stdout

        for claim, how in CLAIMS.items():
            print(claim)
            if isinstance(how, str):
                print(f"  no CLI path: {how}")
                continue
            simulate, fit, (group, name, err_group, err_name), scale, unit, truth = how
            print(f"  trapkit {' '.join(simulate)}\n  trapkit {' '.join(fit)}")
            try:
                cli(simulate)
                report = json.loads(cli(fit))
            except RuntimeError as exc:
                print(f"  failed: {exc}")
                failed += 1
                continue
            value, err = scale * report[group][name], scale * report[err_group][err_name]
            print(f"  {value:.6g} +- {err:.3g} {unit}, truth {truth:.6g} {unit}, pull {(value - truth) / err:+.2f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
