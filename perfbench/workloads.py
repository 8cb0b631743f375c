"""The two benchmark workloads: how one unit of work runs and is checked.

The charging loop's unit is one record; its inputs are the seeds of
acceptance criterion 7 (its *pool*), visited consecutively from the
workload seed and wrapping around. A timed run is made of whole passes
over the pool, so every run times the same population of inputs and the
run-to-run spread measures the program and the machine, not which seeds
were drawn. The CLI session's unit is one cycle of 22 subprocess records
with a fixed mix, so every run holds the same share of each subcommand.
Each record is timed alone. Loop records are checked between records;
CLI records, whose check reruns the fit in-process, after the timed
phase. Every record is checked; none is dropped or retried.

Set-up ends with one warm-up unit on a fixed input that does not depend
on the workload seed, so the set-up time does not either. In untraced
runs a machine-speed probe (speed.py) is timed right after each record,
outside its latency: the in-process kernel after a charging record, a
fresh ``python -c "import numpy"`` after a CLI record.
"""

from __future__ import annotations

import json
import math
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import speed

from trapkit import beam, charging, datasets, heating, simulate, thermometry
from trapkit.charging import FrequencySeries
from trapkit.fitting import FitReport
from trapkit.simulate import SimConfig

HERE = Path(__file__).resolve().parent

# Relative tolerance for a CLI report to equal the in-process fit.
REFERENCE_RTOL = 1e-9

# Each workload's ``run_units`` is the fewest passes (loop) or cycles (CLI)
# a timed run holds. latency_tail_ms is the highest percentile with 10
# samples beyond it in a run of that many units. The percentile is fixed
# rather than taken from each run's record count: a faster program fits
# more units into a run, and its tail must be compared at the same
# percentile as before.


def tail_percentile(records_per_run: int) -> float:
    return 100.0 * (1.0 - 10.0 / records_per_run)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """Parse JSON, rejecting NaN and Infinity, which strict JSON forbids."""
    return json.loads(text, parse_constant=_reject_constant)


def _strict_report(report: FitReport) -> bool:
    try:
        strict_json(report.to_json())
    except ValueError:
        return False
    return True


class Record:
    """One timed unit of user work and everything needed to check it."""

    __slots__ = ("name", "start", "end", "out", "error", "wellformed", "spec", "probe")

    def __init__(self, name, start, end, out=None, error=None, wellformed=True, spec=None, probe=None):
        self.name = name
        self.start = start
        self.end = end
        self.out = out
        self.error = error
        self.wellformed = wellformed
        self.spec = spec
        self.probe = probe  # time of the speed probe taken right after the record

    @property
    def latency(self) -> float:
        return self.end - self.start


class ChargingLoop:
    """Acceptance criterion 7: simulate, charging fit, then discharge fit."""

    name = "charging-loop"
    pool = 100  # the first half of criterion 7's 200 seeds: a pass takes ~17 s
    pass_units = pool
    run_units = 1
    trace_records = 10  # records whose counts the traced run reports
    tail_pct = tail_percentile(run_units * pool)  # p90
    probe_reference_s = speed.KERNEL_REFERENCE_S
    warmup_seed = 0

    def __init__(self, seed: int, wrap: bool = True, probe: bool = False):
        self.seed = seed
        self.wrap = wrap
        self.probe = probe

    def warm_up(self):
        self.verdict(self.record(self.warmup_seed))

    def unit(self, i: int, tracer=None) -> list[Record]:
        s = (self.seed + i) % self.pool if self.wrap else self.seed + i
        idx = None
        if tracer:
            tracer.record = i
            idx = tracer.open("record")
        start = time.perf_counter()
        try:
            out, error = self.record(s), None
        except Exception as exc:  # counted as a failed record
            out, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if idx is not None:
            tracer.close(idx)
        # checked now, outside the record's latency, so no output is kept
        # alive and the worker's memory does not grow with the record count
        verdict = (False, False) if error else self.verdict(out)
        probe = speed.kernel_probe() if self.probe and tracer is None else None
        return [Record("record", start, end, verdict, error, spec=s, probe=probe)]

    def paired(self, i: int, tracer):
        """Unit i untraced, then traced on the same input, back to back."""
        plain = self.unit(i)
        tracer.install()
        try:
            return plain, self.unit(i, tracer)
        finally:
            tracer.uninstall()

    def check(self, rec: Record):
        return rec.out

    def record(self, s):
        series = simulate.simulate_charging_series(
            SimConfig(seed=s, noise_floor=1e3), 15.0, (400.0, 2400.0), 5000.0
        )
        params, report = charging.fit_charging(series, 400.0, t_end=2400.0, f0_mode="baseline")
        t = np.asarray(series.times)
        off = t >= 2400.0
        sub = FrequencySeries(
            tuple(t[off].tolist()),
            tuple(np.asarray(series.freqs)[off].tolist()),
            tuple(np.asarray(series.freq_errs)[off].tolist()),
            (),
        )
        _, d_report = charging.fit_discharge(sub, 2400.0)
        return params, report, d_report

    def verdict(self, out):
        """Return (passes the correctness gate, recovers the truth)."""
        params, report, d_report = out
        if not (_strict_report(report) and _strict_report(d_report)):
            return False, False
        truth = SimConfig().charging
        t1_ok = abs(params.T1 - truth.T1) / truth.T1 <= 0.10
        offset = truth.df1 - truth.df2
        off_ok = abs(charging.settled_offset(params) - offset) / offset <= 0.02
        return True, t1_ok and off_ok and "weakly-identified:T4" in d_report.flags


# ---------------------------------------------------------------------------
# CLI session

_NUMBER = re.compile(r"\d|NaN|Infinity")

SIM_ARGS = {
    # acceptance criterion 4, 7 and 9 settings
    "heating": ["--points", "6", "--span", "0.002", "--rate", "780", "--initial-nbar", "0.1", "--shots", "500"],
    "charging": ["--noise", "1000", "--interval", "15", "--on-start", "400", "--on-duration", "2000", "--total", "5000"],
    "position": [
        "--points", "41", "--scan-start", "6", "--scan-end", "16",
        "--separation", "1.8", "--beamlet-waist", "0.9", "--center", "11",
    ],
}
SIM_ROWS = {"heating": 6, "charging": 334, "position": 41}
SIM_KIND = {"heating": "heating", "charging": "charging", "position": "position-scan"}


def _malformed(kind: str, text: str, rng: random.Random) -> str:
    lines = text.splitlines()
    # the first line that is not a comment is the header; data rows follow
    header, *rows = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    if kind == "bad-unit":
        lines[header] = lines[header].replace("freq:Hz", "freq:GHz")
    elif kind == "ragged-row":
        r = rng.choice(rows)
        lines[r] += ",0.0"
    elif kind == "non-monotone":
        k = rng.randrange(1, len(rows))
        a, b = rows[k - 1], rows[k]
        lines[a], lines[b] = lines[b], lines[a]
    else:  # non-finite
        r = rng.choice(rows)
        fields = lines[r].split(",")
        fields[1] = "nan"
        lines[r] = ",".join(fields)
    return "\n".join(lines) + "\n"


# malformed kind -> (source dataset, subcommand arguments)
MALFORMED = (
    ("bad-unit", "c", ["fit-charging", "--f0-mode", "baseline"]),
    ("ragged-row", "p", ["beam-profile"]),
    ("non-monotone", "h", ["fit-heating"]),
    ("non-finite", "h", ["fit-heating"]),
)


def _session(s: int, first: bool):
    """The nine well-formed records of one analysis session on seed s."""
    rng = random.Random(s)
    p_blue = rng.uniform(0.5, 0.9)
    p_red = p_blue * rng.uniform(0.05, 0.4)
    out = f"out{s}"
    return [
        ("simulate_heating", ["simulate", "heating", "--out", f"h{s}.csv", "--seed", str(s)] + SIM_ARGS["heating"]),
        ("fit_heating", ["fit-heating", "--input", f"h{s}.csv"] + (["--out-dir", out] if first else [])),
        ("simulate_charging", ["simulate", "charging", "--out", f"c{s}.csv", "--seed", str(s)] + SIM_ARGS["charging"]),
        ("fit_charging", ["fit-charging", "--input", f"c{s}.csv", "--f0-mode", "baseline", "--out-dir", out]),
        ("fit_discharge", ["fit-discharge", "--input", f"c{s}.csv"]),
        ("report", ["report", "--input", f"{out}/c{s}_charging_report.json"]),
        ("simulate_position", ["simulate", "position", "--out", f"p{s}.csv", "--seed", str(s)] + SIM_ARGS["position"]),
        ("beam_profile", ["beam-profile", "--input", f"p{s}.csv", "--mode", "two-beamlet"] + ([] if first else ["--out-dir", out])),
        ("thermometry", ["thermometry", "--p-red", repr(p_red), "--p-blue", repr(p_blue), "--shots", "400"]),
    ]


class CliSession:
    """One analyst at a shell: `python -m trapkit.cli` subprocesses in turn."""

    name = "cli-session"
    trace_records = 22  # one cycle
    pass_units = 1
    run_units = 2
    tail_pct = tail_percentile(run_units * trace_records)  # p77.3
    probe_reference_s = speed.IMPORT_REFERENCE_S

    def __init__(self, seed: int, workdir: Path, env: dict, probe: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.env = env
        self.probe = probe

    def warm_up(self):
        # one CLI call so the timed phase starts with warm file caches
        self.run_one("thermometry", ["thermometry", "--p-red", "0.075", "--p-blue", "0.75"], self.workdir, None)

    def run_one(self, name, argv, cwd, tracer, wellformed=True):
        env = self.env
        command = [sys.executable, "-m", "trapkit.cli", *argv]
        if tracer:
            trace_file = cwd / f"trace-{len(tracer.spans)}.json"
            env = dict(env, PERFBENCH_TRACE_OUT=str(trace_file))
            command = [sys.executable, str(HERE / "cli_traced.py"), *argv]
            idx = tracer.open(f"cli.{name}")
        start = time.perf_counter()
        try:
            proc = subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
            out, error = (proc.returncode, proc.stdout, proc.stderr), None
        except subprocess.TimeoutExpired as exc:
            out, error = None, f"timeout: {exc}"
        end = time.perf_counter()
        probe = None
        if tracer:
            tracer.close(idx)
            if trace_file.exists():
                self._merge(tracer, idx, trace_file)
        elif self.probe:
            probe = speed.import_probe(self.env)
        return Record(name, start, end, out, error, wellformed, spec=(argv, cwd), probe=probe)

    @staticmethod
    def _merge(tracer, parent, trace_file):
        data = json.loads(trace_file.read_text(encoding="utf-8"))
        base = len(tracer.spans)
        for name, start, end, p, _ in data["spans"]:
            tracer.spans.append([name, start, end, parent if p < 0 else base + p, tracer.record])
        for name, n in data["counts"].items():
            tracer.count(name, n)

    def _import_probe(self, cwd, tracer):
        """Count the cumulative import time of scipy.stats under `import trapkit.cli`.

        A call of its own with ``-X importtime``, so that the traced records
        run without it and their time against the untraced records is the
        tracer's overhead alone.
        """
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import trapkit.cli"],
            cwd=cwd, env=self.env, capture_output=True, text=True, timeout=120,
        )
        for line in proc.stderr.splitlines():
            # "import time: self [us] | cumulative | imported package"
            if line.startswith("import time:") and line.rsplit("|", 1)[-1].strip() == "scipy.stats":
                tracer.count("cli.import_scipy_stats_us", int(line.split("|")[1]))

    def unit(self, i: int, tracer=None, twin=None) -> list[Record]:
        """Run cycle i and return its records.

        With a tracer, each record first runs untraced in a directory of its
        own, appended to ``twin``, and then traced: the two run back to back
        and see the same machine state.
        """
        plain = self.workdir / "plain" / f"cycle{i}"
        dirs = [plain] if tracer is None else [plain, self.workdir / "traced" / f"cycle{i}"]
        for d in dirs:
            d.mkdir(parents=True, exist_ok=True)
        a = self.seed + 2 * i
        if tracer:
            tracer.record = i * self.trace_records
            self._import_probe(plain, tracer)
        records = []

        def run(name, argv, wellformed=True):
            for d in dirs[:-1]:
                twin.append(self.run_one(name, argv, d, None, wellformed))
            if tracer:
                tracer.record = i * self.trace_records + len(records)
            records.append(self.run_one(name, argv, dirs[-1], tracer, wellformed))

        for s in (a, a + 1):
            for name, argv in _session(s, s == a):
                run(name, argv)
        rng = random.Random(a)
        for kind, src, argv in MALFORMED:
            text = _malformed(kind, (plain / f"{src}{a}.csv").read_text(encoding="utf-8"), rng)
            bad = f"{src}{a}_{kind}.csv"
            for d in dirs:
                (d / bad).write_text(text, encoding="utf-8")
            run("rejected", [argv[0], "--input", bad, *argv[1:]], False)
        return records

    def paired(self, i: int, tracer):
        """Cycle i untraced and traced, record by record; the children trace themselves."""
        twin = []
        traced = self.unit(i, tracer, twin)
        return twin, traced

    # -- checks ------------------------------------------------------------

    def check(self, rec: Record):
        """Return (passes the gate, equals the in-process result or None)."""
        failed = (False, False if rec.name in REFERENCE else None)
        if rec.error is not None:
            return failed
        code, stdout, _ = rec.out
        argv, cwd = rec.spec
        if not rec.wellformed:
            return code == 2 and not _NUMBER.search(stdout), None
        if code != 0:
            return failed
        if rec.name.startswith("simulate_"):
            kind = rec.name.split("_", 1)[1]
            path = _arg(argv, "--out")
            rows = SIM_ROWS[kind]
            ds = datasets.load_dataset(cwd / path, SIM_KIND[kind])
            return stdout == f"wrote {path} ({rows} rows)\n" and ds.n_rows == rows, None
        try:
            report = strict_json(stdout)
        except ValueError:
            return failed
        if rec.name == "report":
            return stdout == (cwd / _arg(argv, "--input")).read_text(encoding="utf-8"), None
        if "--out-dir" in argv:
            stem = Path(_arg(argv, "--input")).stem
            suffix = {"fit_heating": "heating", "fit_charging": "charging", "beam_profile": "profile"}[rec.name]
            stored = cwd / _arg(argv, "--out-dir") / f"{stem}_{suffix}_report.json"
            if stored.read_text(encoding="utf-8") != stdout:
                return failed
        match = _params_equal(report["params"], REFERENCE[rec.name](argv, cwd))
        return match, match


def _params_equal(got: dict, want: dict) -> bool:
    if set(got) != set(want):
        return False
    return all(
        math.isfinite(got[k]) and abs(got[k] - want[k]) <= REFERENCE_RTOL * max(abs(got[k]), abs(want[k]))
        for k in want
    )


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def _ref_heating(argv, cwd):
    series = datasets.to_heating_series(datasets.load_dataset(cwd / _arg(argv, "--input"), "heating"))
    res = heating.fit_heating_rate(series)
    return {"ndot": res.ndot, "intercept": res.intercept}


def _charging_series(argv, cwd):
    return datasets.to_frequency_series(datasets.load_dataset(cwd / _arg(argv, "--input"), "charging"))


def _ref_charging(argv, cwd):
    series = _charging_series(argv, cwd)
    t_on, t_end = series.light_on_intervals[0]
    return charging.fit_charging(series, t_on, t_end=t_end, f0_mode="baseline")[1].params


def _ref_discharge(argv, cwd):
    series = _charging_series(argv, cwd)
    return charging.fit_discharge(series, series.light_on_intervals[0][1])[1].params


def _ref_profile(argv, cwd):
    ds = datasets.load_dataset(cwd / _arg(argv, "--input"), "position-scan")
    return beam.fit_profile(datasets.to_position_scan(ds), mode=_arg(argv, "--mode"))[1].params


def _ref_thermometry(argv, cwd):
    obs = thermometry.SidebandObservation(
        0.0, float(_arg(argv, "--p-red")), float(_arg(argv, "--p-blue")), int(_arg(argv, "--shots"))
    )
    return {"nbar": thermometry.nbar_with_uncertainty(obs)[0]}


# fit invocations checked against the same public function run in-process
REFERENCE = {
    "fit_heating": _ref_heating,
    "fit_charging": _ref_charging,
    "fit_discharge": _ref_discharge,
    "beam_profile": _ref_profile,
    "thermometry": _ref_thermometry,
}

