#!/usr/bin/env python3
"""Mutated input records through the trapkit CLI, in-process.

    python3 tools/fuzz_inputs.py [--cases N] [--first I] [--emit]

Case i simulates a record of one of four kinds (heating, charging,
position-scan, sideband-scan; seeds 0-2 of ``trapkit simulate``), applies
one mutation to its file and runs one fit command on it through
``trapkit.cli.main``: the command that reads that kind, or, for a
sideband scan, which no command reads, one that must refuse it. The
mutations: a field made nan, inf, 1e308, empty or Unicode digits; a column
scaled by 1e300, 1e-300 or 0, or made constant; rows dropped or
duplicated; odd ``light_on`` metadata; another unit in the header. Every
choice follows from i alone, so a case is the same on every run.

The input contract each case must keep: exit 0 prints finite strict JSON
to stdout and nothing to stderr; exits 2 and 3 print nothing to stdout and
one JSON line, the error record, to stderr; no other exit code and no
exception. stdout and stderr are captured at file descriptors 1 and 2 as
well as at sys.stdout and sys.stderr, since LAPACK writes its complaints
with C stdio, below sys.stdout, and each case runs under its own copy of
the warning filters, so a warning shows in every case that raises it, as
in a fresh process. The script prints the count of each exit code, by
record kind, and every case that breaks the contract, and how many break
it on stderr; it exits 1 if one does.

--emit first prints one line per case: its index, exit code, the sha256 of
its stdout and the ``error`` kind of its stderr record ("-" for none). All
cases run in one process, so the diff of these lines under two source trees
(``PYTHONPATH=<tree>/src``) also shows any output that state kept from one
case to the next has changed.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import ctypes
import functools
import hashlib
import io
import json
import math
import os
import random
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

# record kind -> the `trapkit simulate` arguments that make it, and the
# fit commands run on it
KINDS = {
    "heating": (["heating"], [["fit-heating"]]),
    "charging": (
        ["charging"],
        [["fit-charging"], ["fit-charging", "--f0-mode", "baseline"], ["fit-discharge"], ["fit-discharge", "--f0-mode", "fit"]],
    ),
    "position-scan": (["position", "--points", "41"], [["beam-profile", "--mode", "single-gaussian"], ["beam-profile"]]),
    "sideband-scan": (["sideband"], [["fit-heating"], ["fit-charging"], ["beam-profile"]]),
}
BASE_SEEDS = 3
# decimal digits of other scripts, which float() reads as 0-9
DIGITS = ("٠", "०", "０")  # Arabic-Indic, Devanagari, fullwidth
LIGHT_ON = (
    "", "2400,400", "nan,inf", "400", "400,2400,5000", "400,2400;2400,400", "-1e308,1e308",
    "1e308,inf", "0,1e-300", "5000,6000", "400,2400;100,200", "a,b", "400,400", "-5000,-4000",
)
UNITS = ("", "s", "ms", "us", "h", "Hz", "kHz", "MHz", "GHz", "m", "mm", "um", "rad/s", "1", "µs")


@functools.lru_cache(maxsize=None)
def record(kind, seed):
    """The text of the simulated record of this kind and seed."""
    from trapkit.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "record.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["simulate", *KINDS[kind][0], "--seed", str(seed), "--out", str(path)])
        if code != 0:
            raise RuntimeError(f"simulate {kind} --seed {seed} exited {code}")
        return path.read_text(encoding="utf-8")


# each mutation edits the parsed record in place: its metadata lines, its
# header fields and its rows of fields; j is the column it edits, if one


def _set_field(value):
    def mutate(meta, header, rows, rng, j):
        i = rng.randrange(len(rows))
        rows[i][j] = value(rows[i][j], rng)

    return mutate


def _scale_column(k):
    def mutate(meta, header, rows, rng, j):
        for row in rows:
            row[j] = repr(float(row[j]) * k)

    return mutate


def _constant(meta, header, rows, rng, j):
    for row in rows:
        row[j] = rows[0][j]


def _drop_rows(meta, header, rows, rng, j):
    for _ in range(rng.randrange(1, len(rows))):
        del rows[rng.randrange(len(rows))]


def _duplicate_rows(meta, header, rows, rng, j):
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(rows))
        rows.insert(i, list(rows[i]))


def _light_on(meta, header, rows, rng, j):
    meta[:] = [line for line in meta if not line.startswith("# light_on")] + [f"# light_on: {rng.choice(LIGHT_ON)}"]


def _unit(meta, header, rows, rng, j):
    header[j] = f"{header[j].partition(':')[0]}:{rng.choice(UNITS)}"


MUTATIONS = {
    "nan": _set_field(lambda v, rng: rng.choice(("nan", "-nan", "NaN"))),
    "inf": _set_field(lambda v, rng: rng.choice(("inf", "-inf", "Infinity"))),
    "1e308": _set_field(lambda v, rng: rng.choice(("1e308", "-1e308", "1.7976931348623157e308"))),
    "empty": _set_field(lambda v, rng: ""),
    "unicode-digits": _set_field(lambda v, rng: "".join(chr(ord(rng.choice(DIGITS)) + int(c)) if c.isdigit() else c for c in v)),
    "scale-1e300": _scale_column(1e300),
    "scale-1e-300": _scale_column(1e-300),
    "scale-0": _scale_column(0.0),
    "constant": _constant,
    "drop-rows": _drop_rows,
    "duplicate-rows": _duplicate_rows,
    "light-on": _light_on,
    "unit": _unit,
}
ROUND = len(KINDS) * len(MUTATIONS)
STDERR = "stderr: "  # the prefix of a problem found on stderr


def case(i):
    """(kind, mutation, argv without --input, text) of case i. Each round
    of ROUND cases takes every kind with every mutation once, and round k
    mutates column k (modulo the record's columns) where a mutation edits
    one column."""
    rng = random.Random(i)
    kind = list(KINDS)[i % len(KINDS)]
    mutation = list(MUTATIONS)[i // len(KINDS) % len(MUTATIONS)]
    lines = record(kind, rng.randrange(BASE_SEEDS)).splitlines()
    meta = [line for line in lines if line.startswith("#")]
    header, *rows = (line.split(",") for line in lines if not line.startswith("#"))
    MUTATIONS[mutation](meta, header, rows, rng, i // ROUND % len(header))
    text = "\n".join([*meta, ",".join(header), *(",".join(row) for row in rows)]) + "\n"
    return kind, mutation, rng.choice(KINDS[kind][1]), text


def _flush_c_stdio():
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None).fflush(None)


def run_cli(argv):
    """(exit code, stdout, stderr) of trapkit.cli.main(argv) in-process,
    each stream being what reached it and its file descriptor."""
    from trapkit.cli import main

    for stream in (sys.stdout, sys.stderr):
        stream.flush()
    _flush_c_stdio()
    saved = [os.dup(fd) for fd in (1, 2)]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryFile() as below_out, tempfile.TemporaryFile() as below_err:
        os.dup2(below_out.fileno(), 1)
        os.dup2(below_err.fileno(), 2)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
                code = main(argv)
        finally:
            _flush_c_stdio()
            for fd, copy in zip((1, 2), saved):
                os.dup2(copy, fd)
                os.close(copy)
        below_out.seek(0)
        below_err.seek(0)
        return code, *(below.read().decode("utf-8", "replace") + text.getvalue() for below, text in ((below_out, out), (below_err, err)))


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"a non-finite number {text}")
    return value


def _no_constant(name):
    raise ValueError(f"a non-finite number {name}")


def check(i, workdir):
    """(kind, mutation, argv, exit code, what breaks the contract or None)
    of case i, its input written into workdir."""
    return run_case(i, workdir)[:5]


def run_case(i, workdir):
    """check(i, workdir), then the case's stdout and stderr."""
    kind, mutation, argv, text = case(i)
    path = Path(workdir) / f"case{i}.csv"
    path.write_text(text, encoding="utf-8")
    argv = [*argv, "--input", str(path)]
    try:
        code, out, err = run_cli(argv)
    except (Exception, SystemExit) as exc:  # a crash, or an exit outside main's codes, is the finding
        return kind, mutation, argv, None, "".join(traceback.format_exception_only(type(exc), exc)).strip(), "", ""
    problem = None
    if code == 0:
        try:
            json.loads(out, parse_float=_finite, parse_constant=_no_constant)
        except ValueError as exc:
            problem = f"exit 0 without finite strict JSON on stdout: {exc}"
        if err and not problem:
            problem = f"{STDERR}exit 0 with stderr {err[:200]!r}"
    elif code in (2, 3):
        if out:
            problem = f"exit {code} with stdout {out[:200]!r}"
        elif not _one_json_line(err):
            problem = f"{STDERR}exit {code} with stderr {err[:200]!r}, not one JSON line"
    else:
        problem = f"exit code {code}"
    return kind, mutation, argv, code, problem, out, err


def _error_kind(err):
    """The ``error`` field of a stderr error record, or "-"."""
    try:
        return json.loads(err)["error"]
    except (ValueError, TypeError, KeyError):
        return "-"


def _one_json_line(text):
    lines = text.splitlines()
    try:
        return len(lines) == 1 and isinstance(json.loads(lines[0]), dict)
    except ValueError:
        return False


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cases", type=int, default=1200, help="number of cases")
    parser.add_argument("--first", type=int, default=0, help="first case index")
    parser.add_argument("--emit", action="store_true", help="print each case's exit code, stdout sha256 and error kind")
    args = parser.parse_args(argv)
    codes = collections.Counter()
    by_kind = collections.defaultdict(collections.Counter)
    failures = []
    with tempfile.TemporaryDirectory() as workdir:
        for i in range(args.first, args.first + args.cases):
            kind, mutation, case_argv, code, problem, out, err = run_case(i, workdir)
            if args.emit:
                print(i, "crash" if code is None else code, hashlib.sha256(out.encode()).hexdigest(), _error_kind(err))
            codes["crash" if code is None else code] += 1
            by_kind[kind]["crash" if code is None else code] += 1
            if problem:
                failures.append((i, kind, mutation, case_argv[:-2], problem))
    print(f"{args.cases} cases from {args.first}: " + ", ".join(f"exit {c}: {n}" for c, n in sorted(codes.items(), key=str)))
    for kind, counts in by_kind.items():
        print(f"  {kind}: " + ", ".join(f"exit {c}: {n}" for c, n in sorted(counts.items(), key=str)))
    on_stderr = sum(failure[4].startswith(STDERR) for failure in failures)
    print(f"cases breaking the contract: {len(failures)}, {on_stderr} of them on stderr")
    for failure in failures:
        print("  case {} ({} record, {}): {}: {}".format(failure[0], failure[1], failure[2], " ".join(failure[3]), failure[4]))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))  # after PYTHONPATH, which may name another tree
    sys.exit(main())
