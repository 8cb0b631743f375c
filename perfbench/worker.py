"""Run one workload in a fresh process and print its metrics as JSON.

Started by run.py, one process at a time; not meant to be run by hand.
The last line of standard output is a JSON object with the end-to-end
metrics (untraced) or the per-layer metrics (traced).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy
from scipy.special import betainc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3


def quantile(values, q):
    """Harrell-Davis estimate of the ``q`` quantile.

    A Beta-weighted mean of all order statistics, centred on rank q*n. The
    records of one pass are a fixed set whose costs cluster (the discharge
    fits are fast or 3-5x slower), so the sample median is one record near
    a gap and jumps with run-to-run jitter; this estimate does not.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    weights = np.diff(betainc((n + 1) * q, (n + 1) * (1 - q), np.arange(n + 1) / n))
    return float(weights @ x)


def git_commit() -> str:
    """Commit of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "commit": git_commit(),
    }


def run_passes(workload, seconds, max_records=None, step=None, min_passes=1):
    """Closed loop: each unit starts when the previous one has finished.

    Runs whole passes (``workload.pass_units`` units each), at least
    ``min_passes`` of them, and stops at the pass boundary nearest to
    ``seconds``, or after ``max_records`` records as a single pass.
    ``step(i)`` runs unit i and returns its records (default: the unit).
    Returns the records of each pass.
    """
    step = step or workload.unit
    passes = [[]]
    i = 0
    start = time.perf_counter()
    while True:
        passes[-1].extend(step(i))
        i += 1
        if max_records is not None:
            if len(passes[-1]) >= max_records:
                return passes
        elif i % workload.pass_units == 0:
            elapsed = time.perf_counter() - start
            if len(passes) >= min_passes and elapsed + 0.5 * elapsed / len(passes) >= seconds:
                return passes
            passes.append([])


def check_all(workload, records):
    recovered, refs, failed, wellformed_failed = 0, 0, 0, 0
    failed_inputs = []  # seeds of loop records, arguments of CLI records
    for rec in records:
        ok, rec_ok = workload.check(rec)
        if not ok:
            failed += 1
            wellformed_failed += rec.wellformed
            failed_inputs.append(" ".join(rec.spec[0]) if isinstance(rec.spec, tuple) else rec.spec)
        if rec_ok is not None:
            refs += 1
            recovered += bool(rec_ok)
    return {
        "attempted": len(records),
        "failed": failed,
        "wellformed_failed": wellformed_failed,
        "recovered": recovered,
        "recovery_checked": refs,
        "failed_inputs": failed_inputs[:20],
    }


def split(values, passes):
    """Cut a flat list of per-record values into the run's passes."""
    out, i = [], 0
    for p in passes:
        out.append(values[i:i + len(p)])
        i += len(p)
    return out


def group_quantile(by_pass, q, k):
    """Quantile ``q`` on each group of ``k`` consecutive passes, median over groups.

    ``k`` is the fewest passes a run holds, so every estimate is made on the
    same number of samples. An estimate on more samples weighs the gap
    between the fast and slow records differently, so a run that fits more
    passes, on a faster machine state or a faster program, would read
    differently at the same percentile. A trailing incomplete group is left
    out; a run shorter than one group (``--records``) is one group.
    """
    groups = [sum(by_pass[j:j + k], []) for j in range(0, len(by_pass) - k + 1, k)]
    return statistics.median(quantile(g, q) for g in groups or [sum(by_pass, [])])


def end_to_end(workload, passes, checks, peak_rss_kb):
    """End-to-end metrics; times are scaled to the reference machine speed."""
    from speed import factors

    records = [r for p in passes for r in p]
    raw = split([r.latency for r in records], passes)
    scale = factors([r.probe for r in records], workload.probe_reference_s)
    lat = split([r.latency * f for r, f in zip(records, scale)], passes)
    q = workload.tail_pct / 100.0
    k = workload.run_units
    n = checks["attempted"]
    metrics = {
        # a pass's records over their scaled time; median over passes
        "records_per_s": (statistics.median(len(t) / sum(t) for t in lat), "1/s"),
        "latency_p50_ms": (group_quantile(lat, 0.5, k) * 1e3, "ms"),
        "latency_tail_ms": (group_quantile(lat, q, k) * 1e3, "ms"),
        "success_rate": ((n - checks["failed"]) / n, "ratio"),
        "recovery_rate": (checks["recovered"] / checks["recovery_checked"], "ratio"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    details = {
        "records": n,
        "passes": len(passes),
        "timed_phase_s": records[-1].end - records[0].start,
        "speed_scale_median": statistics.median(scale),
        "speed_scale_range": [min(scale), max(scale)],
        "unscaled_records_per_s": statistics.median(len(t) / sum(t) for t in raw),
        "unscaled_latency_p50_ms": group_quantile(raw, 0.5, k) * 1e3,
        "unscaled_latency_tail_ms": group_quantile(raw, q, k) * 1e3,
        "failure_rate": checks["failed"] / n,
        "failed_wellformed": checks["wellformed_failed"],
        "latency_samples_per_estimate": len(sum(lat[:k], [])),
        "latency_tail_percentile": workload.tail_pct,
        "latency_tail_samples_beyond": round(len(sum(lat[:k], [])) * (1 - q)),
        "recovery_checked": checks["recovery_checked"],
        "failed_inputs": checks["failed_inputs"],
    }
    return metrics, details


def per_layer(tracer, records, workload, untraced_s, traced_s):
    """Per-layer metrics from the spans and counts of the traced pass."""
    from tracing import SPANNED, self_times

    durations = defaultdict(list)
    selfs = defaultdict(float)
    self_call = defaultdict(list)
    for span, st in zip(tracer.spans, self_times(tracer.spans)):
        durations[span[0]].append(span[2] - span[1])
        selfs[span[0]] += st
        self_call[span[0]].append(st)

    def median_ms(name):
        d = durations.get(name)
        return quantile(d, 0.5) * 1e3 if d else 0.0

    counts = defaultdict(int)
    per_record = defaultdict(list)
    for (rec, name), n in tracer.counts.items():
        if rec is not None and rec < workload.trace_records:
            counts[name] += n
        per_record[name].append(n)

    m = {}
    for name in [f"{mod.split('.')[-1]}.{attr}" for mod, attr in SPANNED] + ["datasets.write_dataset"]:
        m[f"{name}_ms"] = (median_ms(name), "ms")
    for name in ("charging.fit_charging", "charging.fit_discharge"):
        # the highest percentile with 10 of the traced calls beyond it
        d = durations.get(name)
        m[f"{name}_tail_ms"] = (quantile(d, max(0.5, 1.0 - 10.0 / len(d))) * 1e3 if d else 0.0, "ms")
    ms_self = self_call.get("fitting.multistart_least_squares")
    m["fitting.multistart_least_squares_self_ms"] = (quantile(ms_self, 0.5) * 1e3 if ms_self else 0.0, "ms")

    m["thermometry.sideband_excitation_calls"] = (counts["thermometry.sideband_excitation_calls"], "count")
    for fitter in ("fit_charging", "fit_discharge", "fit_profile"):
        m[f"fitting.residual_evals.{fitter}"] = (counts[f"fitting.residual_evals.{fitter}"], "count")
        m[f"fitting.starts_polished.{fitter}"] = (counts[f"fitting.starts_polished.{fitter}"], "count")
    m["fitting.starts_failed"] = (counts["fitting.starts_failed"], "count")
    total = counts["fitting.multistart_evals"]
    m["fitting.winning_start_eval_share"] = (counts["fitting.winning_start_evals"] / total if total else 0.0, "ratio")
    writes = counts["datasets.write_dataset_calls"]
    m["datasets.bytes_written"] = (counts["datasets.bytes_written"] / writes if writes else 0.0, "B")

    imports = durations.get("cli.import", [])
    m["cli.import_s"] = (quantile(imports, 0.5) if imports else 0.0, "s")
    stats_us = per_record.get("cli.import_scipy_stats_us", [])
    m["cli.import_scipy_stats_s"] = (quantile(stats_us, 0.5) / 1e6 if stats_us else 0.0, "s")
    cli_total = sum(sum(v) for k, v in durations.items() if k.startswith("cli.") and k != "cli.import")
    m["cli.import_share"] = (sum(imports) / cli_total if cli_total else 0.0, "ratio")
    for sub in (
        "simulate_heating", "simulate_charging", "simulate_position", "fit_heating",
        "fit_charging", "fit_discharge", "beam_profile", "thermometry", "report", "rejected",
    ):
        m[f"cli.{sub}_ms"] = (median_ms(f"cli.{sub}"), "ms")

    n = len(records)
    m["trace.untraced_records_per_s"] = (n / untraced_s, "1/s")
    m["trace.traced_records_per_s"] = (n / traced_s, "1/s")
    m["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")

    roots = [i for i, s in enumerate(tracer.spans) if s[3] < 0]
    record_s = sum(tracer.spans[i][2] - tracer.spans[i][1] for i in roots)
    breakdown = {
        name: {"self_ms_per_record": 1e3 * st / n, "self_share": st / record_s, "calls": len(durations[name])}
        for name, st in sorted(selfs.items(), key=lambda kv: -kv[1])
    }
    return m, breakdown, dict(counts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--records", type=int, default=None)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() when the process was started")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import trapkit
    import workloads

    src = (ROOT / "src").resolve()
    if src not in Path(trapkit.__file__).resolve().parents:
        print(f"trapkit imported from {trapkit.__file__}, not from {src}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        probe = args.trace == 0
        if args.workload == "cli-session":
            workload = workloads.CliSession(args.seed, work, dict(os.environ), probe)
        else:
            workload = workloads.ChargingLoop(args.seed, wrap=args.records is None, probe=probe)
        workload.warm_up()
        setup_s = time.monotonic() - args.t0
        setup = {"setup_s": setup_s, "unscaled_setup_s": setup_s}
        if probe:
            # set-up is mostly process start and imports, so it is scaled by
            # import probes taken right after it, whatever the workload
            import speed

            probes = [speed.import_probe(dict(os.environ)) for _ in range(SETUP_PROBES)]
            setup["setup_s"] *= speed.IMPORT_REFERENCE_S / statistics.median(probes)
        if args.setup_only:
            print(json.dumps(setup))
            return 0

        result = dict(setup, env=environment())
        if args.trace == 0:
            # at least the passes the tail percentile is defined on
            passes = run_passes(workload, args.seconds, args.records, min_passes=workload.run_units)
            peak_rss = resource.getrusage(
                resource.RUSAGE_CHILDREN if isinstance(workload, workloads.CliSession) else resource.RUSAGE_SELF
            ).ru_maxrss
            checks = check_all(workload, [r for p in passes for r in p])
            metrics, details = end_to_end(workload, passes, checks, peak_rss)
        else:
            from tracing import Tracer

            # each record runs untraced and then traced on the same inputs,
            # back to back, so both see the same machine state and the
            # ratio of their times is the tracing overhead
            tracer = Tracer()
            traced = []

            def paired(i):
                plain, t = workload.paired(i, tracer)
                traced.extend(t)
                return plain

            # every unit runs twice, so half the time buys the same passes
            records = [r for p in run_passes(workload, args.seconds / 2, args.records, paired) for r in p]
            checks = check_all(workload, records + traced)
            untraced_s = sum(r.latency for r in records)
            traced_s = sum(r.latency for r in traced)
            metrics, breakdown, counts = per_layer(tracer, traced, workload, untraced_s, traced_s)
            details = {"records": len(traced), "count_records": workload.trace_records, "counts": counts, "self_time": breakdown}
            out = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
            out.write_text(json.dumps({"spans": tracer.spans}), encoding="utf-8")
            details["spans_file"] = str(out.relative_to(ROOT))
        result.update(
            correct=checks["wellformed_failed"] == 0,
            attempted=checks["attempted"],
            failed=checks["failed"],
            metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            details=details,
        )
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
