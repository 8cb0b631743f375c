"""Subcommand CLI: simulate synthetic runs, fit ingested datasets, and emit
plot-ready tables plus structured fit reports.

Exit codes: 0 success, 2 validation error, 3 fit non-convergence, 4 I/O
error. All outputs are deterministic for fixed inputs and flags.

The four fit commands share one path, cmd_fit: it loads the --input record,
passes it with the command's own flags to the fit_record of the record's
domain module (heating, charging or beam), which fits it and returns the
report and the table rows, and writes those out. thermometry and
normalize, which read no record, share cmd_direct: it passes the flags to
their module's report function and prints the report. This module does
only I/O for them.

Each subcommand imports only the modules it computes with: `simulate` its
kind's simulator modules (beam for `position` alone), a fit command its
record's domain module. datasets loads only to read, write or digest a
record, and with `normalize --config`, to read the config, so `report`,
`thermometry`, `normalize` and `--help` load neither it nor numpy. A command
that reads a dataset loads numpy only after the loader has accepted the
file: every rejected input, and `fit-heating`, whose weighted line is
plain floats, run without numpy.

`python -m trapkit.cli` and `trapkit` start in run, which freezes the garbage
collector before exit: every file trapkit writes is closed before main
returns, so nothing depends on a garbage-collection finalizer at exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from dataclasses import fields
from importlib import import_module
from pathlib import Path

from . import __version__
from .reports import FitConvergenceError, FitReport
from .units import BEAM_MODES, CHARGING_WINDOWS


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args):
    if args.kind != "charging" and args.points < 2:
        raise ValueError(f"--points must be at least 2, got {args.points}")
    if args.kind in ("heating", "sideband") and not args.span > 0:
        raise ValueError(f"--span must be positive for {args.kind}, got {args.span}")
    import numpy as np

    from . import datasets, simulate

    # the simulator flags given, by SimConfig field; --shots 0 is analytic
    given = {f.name: getattr(args, f.name) for f in fields(simulate.SimConfig) if hasattr(args, f.name)}
    if given.get("shots_per_point") == 0:
        given["shots_per_point"] = None
    cfg = simulate.SimConfig(**given)
    if args.kind == "charging":
        series = simulate.simulate_charging_series(
            cfg,
            sample_interval=args.interval,
            on_window=(args.on_start, args.on_start + args.on_duration),
            total=args.total,
        )
        ds = datasets.from_frequency_series(series)
    elif args.kind == "position":
        from .beam import GratingOutputModel
        model = GratingOutputModel(
            mode="two-beamlet",
            waist=args.beamlet_waist * 1e-6,
            beamlet_separation=args.separation * 1e-6,
            center=args.center * 1e-6,
        )
        positions = np.linspace(
            args.scan_start * 1e-6, args.scan_end * 1e-6, args.points
        )
        scan = simulate.simulate_position_scan(cfg, model, positions.tolist())
        ds = datasets.from_position_scan(scan, origin="grating")
    else:
        waits = np.linspace(0.0, args.span, args.points).tolist()
        if args.kind == "heating":
            series = simulate.simulate_heating_series(cfg, waits)
            ds = datasets.from_heating_series(series)
        else:
            obs = [(w, simulate.simulate_sideband_scan(cfg, w, index=i)) for i, w in enumerate(waits)]
            ds = datasets.from_sideband_observations(obs)
    ds.metadata["seed"] = str(cfg.seed)
    datasets.write_dataset(args.out, ds)
    print(f"wrote {args.out} ({ds.n_rows} rows)")
    return 0


# ---------------------------------------------------------------------------
# fits


# fit command -> (dataset kind, the module whose fit_record fits it, table
# header, artifact name); the command's own flags are fit_record's options
_FITS = {
    "fit-heating": ("heating", "heating", ("time:s", "nbar", "model"), "heating"),
    "fit-charging": ("charging", "charging", ("time:s", "freq:Hz", "model:Hz"), "charging"),
    "fit-discharge": ("charging", "charging", ("time:s", "freq:Hz", "model:Hz"), "discharge"),
    "beam-profile": ("position-scan", "beam", ("pos:m", "rabi:rad/s", "model:rad/s"), "profile"),
}
_NOT_OPTIONS = ("command", "func", "input", "out_dir", "format")


def cmd_fit(args):
    """Fit the --input record with its module's fit_record, stamp the
    report with the input's provenance, write report + table artifacts
    named after the input and artifact name, and print the requested view."""
    from . import datasets

    kind, module, header, name = _FITS[args.command]
    ds = datasets.load_dataset(args.input, kind)
    options = {k: v for k, v in vars(args).items() if k not in _NOT_OPTIONS}
    report, rows = import_module(f".{module}", __package__).fit_record(ds, **options)
    digest, source = datasets.file_digest(args.input), Path(args.input).name
    report.provenance = {"toolkit_version": __version__, "input_digest": digest, "input_file": source}
    lines = [",".join(header), *(",".join(repr(float(v)) for v in row) for row in rows)]
    table_text = "\n".join(lines) + "\n"
    if args.out_dir is not None:
        out, stem = Path(args.out_dir), f"{Path(args.input).stem}_{name}"
        datasets._atomic_write(out / f"{stem}_report.json", report.to_json())
        datasets._atomic_write(out / f"{stem}_table.csv", table_text)
    sys.stdout.write(table_text if args.format == "table" else report.to_json())
    return 0


# direct command -> (module, function): the report it computes from the command's flags
_DIRECT = {"thermometry": ("thermometry", "asymmetry_report"), "normalize": ("heating", "normalization_report")}


def cmd_direct(args):
    """Print the report the command's module computes from its flags."""
    module, name = _DIRECT[args.command]
    options = {k: v for k, v in vars(args).items() if k not in _NOT_OPTIONS}
    report = getattr(import_module(f".{module}", __package__), name)(**options)
    report.provenance = {"toolkit_version": __version__}
    sys.stdout.write(report.to_json())
    return 0


def cmd_report(args):
    report = FitReport.from_json(Path(args.input).read_text(encoding="utf-8-sig"))
    sys.stdout.write(report.to_json())
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trapkit",
        description="Surface ion trap characterization: thermometry, heating, charging, beam profiles",
    )
    parser.add_argument("--version", action="version", version=__version__)

    # each subcommand takes only the flags it reads
    sub = parser.add_subparsers(dest="command", required=True)

    # each simulated kind takes --seed, --out and only the flags it reads;
    # a simulator flag is stored under its SimConfig field only when given,
    # so that SimConfig's default holds for the others
    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.set_defaults(func=cmd_simulate)
    kinds = p.add_subparsers(dest="kind", required=True)
    simulated = argparse.ArgumentParser(add_help=False)
    simulated.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    simulated.add_argument("--out", required=True)
    points = argparse.ArgumentParser(add_help=False)
    points.add_argument("--points", type=int, default=7)
    for kind in ("heating", "sideband"):
        k = kinds.add_parser(kind, parents=[simulated, points], help=f"{kind} record after wait times over --span")
        k.add_argument("--shots", dest="shots_per_point", metavar="SHOTS", type=int, default=argparse.SUPPRESS, help="shots per point; 0 for analytic mode")
        k.add_argument("--rate", dest="heating_rate", metavar="RATE", type=float, default=argparse.SUPPRESS, help="heating rate, quanta/s")
        k.add_argument("--initial-nbar", type=float, default=argparse.SUPPRESS)
        k.add_argument("--span", type=float, default=2e-3, help="wait-time span, s")
    k = kinds.add_parser("charging", parents=[simulated], help="trap-frequency record with one light-on window")
    k.add_argument("--interval", type=float, default=15.0, help="charging cadence, s")
    k.add_argument("--on-start", type=float, default=400.0)
    k.add_argument("--on-duration", type=float, default=2000.0)
    k.add_argument("--total", type=float, default=5000.0)
    k.add_argument("--noise", dest="noise_floor", metavar="NOISE", type=float, default=argparse.SUPPRESS, help="charging noise floor, Hz")
    k = kinds.add_parser("position", parents=[simulated, points], help="Rabi scan across a two-beamlet grating output")
    k.add_argument("--separation", type=float, default=1.8, help="beamlet separation, um")
    k.add_argument("--beamlet-waist", type=float, default=0.9, help="um")
    k.add_argument("--center", type=float, default=11.0, help="um")
    k.add_argument("--scan-start", type=float, default=6.0, help="um")
    k.add_argument("--scan-end", type=float, default=16.0, help="um")

    # the fit commands share --out-dir, --format and --input, and cmd_fit
    fitted = argparse.ArgumentParser(add_help=False)
    fitted.add_argument("--out-dir", type=str, default=None)
    fitted.add_argument("--format", choices=("table", "report"), default="report")
    fitted.add_argument("--input", required=True)
    fitted.set_defaults(func=cmd_fit)
    sub.add_parser("fit-heating", parents=[fitted], help="fit nbar(t) to a line")
    for window, (light, _) in CHARGING_WINDOWS.items():
        p = sub.add_parser(f"fit-{window}", parents=[fitted], help=f"fit the light-{light} {window} model")
        p.add_argument(f"--t-{light}", dest="edge", metavar=f"T_{light.upper()}", type=float, default=None)
        default = "fit" if window == "charging" else "baseline where the record has points before its first light-on, else fit"
        p.add_argument("--f0-mode", choices=("fit", "baseline"), default=None, help=f"f0 floated, or the mean before the first light-on; default: {default}")
        p.set_defaults(window=window)

    p = sub.add_parser("thermometry", help="nbar from one red/blue pair")
    p.add_argument("--p-red", type=float, required=True)
    p.add_argument("--p-blue", type=float, required=True)
    p.add_argument("--shots", type=int, default=None)
    p.set_defaults(func=cmd_direct)

    p = sub.add_parser("beam-profile", parents=[fitted], help="fit a Rabi position scan")
    p.add_argument("--mode", choices=BEAM_MODES, default="two-beamlet")

    p = sub.add_parser("normalize", help="rescale a heating rate to a reference")
    p.add_argument("--config", type=str, default=None, help="JSON file whose 'species' entry extends the species table")
    p.add_argument("--rate", type=float, required=True, help="quanta/s")
    p.add_argument("--rate-err", type=float, default=0.0)
    p.add_argument("--species", default="Yb-171")
    p.add_argument("--freq", type=float, required=True, help="axial secular frequency, Hz")
    p.add_argument("--ref-species", default="Ca-40")
    p.add_argument("--ref-freq", type=float, default=1e6, help="Hz")
    p.set_defaults(func=cmd_direct)

    p = sub.add_parser("report", help="reprint a stored fit report")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FitConvergenceError as exc:
        record = {"error": "fit-non-convergence", "detail": str(exc)}
        if exc.best_cost is not None and math.isfinite(exc.best_cost):
            record["best_cost"] = exc.best_cost
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 3
    except ValueError as exc:  # DatasetError among them
        print(json.dumps({"error": "validation", "detail": str(exc)}, sort_keys=True), file=sys.stderr)
        return 2
    except OSError as exc:
        print(json.dumps({"error": "io", "detail": str(exc)}, sort_keys=True), file=sys.stderr)
        return 4


def run():
    """Exit with main's code, the collector frozen: shutdown skips its heap."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
