"""CSV dataset ingestion and emission.

Files are plain comma-separated text. Metadata lines start with '#'
(`# key: value`), followed by a mandatory header row whose column names
carry unit declarations (`time:s,freq:Hz,err:Hz`). Values are normalized
to SI on load, and a value that is not finite, a shots count that is
neither whole nor inf, or a time or position axis that is not strictly
increasing is rejected there, before any domain module or numpy loads.
Writes are atomic (temp file + rename) and floats are serialized with repr
so a write/read round trip is lossless. load_config reads the species
table a JSON config file extends.
"""

from __future__ import annotations

import json
import math
import operator
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

DATASET_KINDS = ("heating", "charging", "sideband-scan", "position-scan")


class DatasetError(ValueError):
    """Schema, unit, or monotonicity violation in a dataset file."""


# unit -> SI multiplier, per column role; each role lists its SI unit first
_UNIT_TABLES = {
    "time": {"s": 1.0, "ms": 1e-3, "us": 1e-6},
    "freq": {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6},
    "pos": {"m": 1.0, "mm": 1e-3, "um": 1e-6},
    "rabi": {"rad/s": 1.0, "Hz": math.tau, "kHz": math.tau * 1e3},
    "plain": {"": 1.0, "1": 1.0},
}

# kind -> ordered list of (column, role, required); the first column is
# the kind's axis, which must be strictly increasing
_SCHEMAS = {
    "heating": (("time", "time", True), ("nbar", "plain", True), ("nbar_err", "plain", False)),
    "charging": (("time", "time", True), ("freq", "freq", True), ("err", "freq", False)),
    "sideband-scan": (
        ("wait", "time", True),
        ("p_red", "plain", True),
        ("p_blue", "plain", True),
        ("shots", "plain", False),
    ),
    "position-scan": (("pos", "pos", True), ("rabi", "rabi", True), ("err", "rabi", False)),
}


@dataclass
class Dataset:
    kind: str
    columns: dict[str, tuple[float, ...]]  # SI values, one per row
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in DATASET_KINDS:
            raise DatasetError(f"unknown dataset kind {self.kind!r}")

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values())))


def _parse_header(header: str, kind: str) -> list[tuple[str, float]]:
    schema = {name: role for name, role, _ in _SCHEMAS[kind]}
    cols = []
    seen: dict[str, int] = {}
    for i, raw in enumerate(header.split(",")):
        name, _, unit = raw.partition(":")
        name = name.strip()
        unit = unit.strip()
        if name not in schema:
            raise DatasetError(
                f"column {i + 1}: unexpected column {name!r} for kind {kind!r}"
            )
        table = _UNIT_TABLES[schema[name]]
        if unit not in table:
            raise DatasetError(
                f"column {i + 1} ({name!r}): cannot parse unit {unit!r}; "
                f"expected one of {sorted(u for u in table if u)}"
            )
        if name in seen:
            raise DatasetError(f"column {i + 1}: column {name!r} repeats column {seen[name]}")
        seen[name] = i + 1
        cols.append((name, table[unit]))
    required = [name for name, _, req in _SCHEMAS[kind] if req]
    missing = [name for name in required if name not in seen]
    if missing:
        raise DatasetError(f"missing required column(s) {missing} for kind {kind!r}")
    return cols


def load_dataset(path, kind: str) -> Dataset:
    """Load and validate a dataset file of the given kind, which its
    `# kind:` line, if it has one, must name; converts all columns to SI."""
    if kind not in DATASET_KINDS:
        raise DatasetError(f"unknown dataset kind {kind!r}")
    path = Path(path)
    metadata: dict[str, str] = {}
    header = None
    rows: list[tuple[float, ...]] = []
    try:
        with path.open("r", encoding="utf-8-sig") as fh:  # a byte-order mark is not part of the header
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text ({exc})") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line.lstrip("#").partition(":")
            metadata[key.strip()] = value.strip()
            if metadata.get("kind", kind) != kind:
                raise DatasetError(f"line {lineno}: a {metadata['kind']!r} dataset, expected {kind!r}")
            continue
        if header is None:
            header = _parse_header(line, kind)
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise DatasetError(
                f"line {lineno}: expected {len(header)} fields, got {len(parts)}"
            )
        try:
            row = tuple(float(p) * scale for p, (_, scale) in zip(parts, header))
        except ValueError as exc:
            raise DatasetError(f"line {lineno}: {exc}") from None
        for (name, _), v in zip(header, row):
            # shots may be inf, which means analytic
            if not ((v.is_integer() or v == math.inf) if name == "shots" else math.isfinite(v)):
                want = "a whole number or inf" if name == "shots" else "finite"
                raise DatasetError(f"line {lineno}: column {name!r} must be {want}, got {v!r}")
        rows.append(row)
    if header is None:
        raise DatasetError(f"{path}: no header row found")
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    columns = {name: col for (name, _), col in zip(header, zip(*rows))}
    axis = _SCHEMAS[kind][0][0]
    values = columns[axis]
    bad = next((i for i in range(1, len(values)) if not values[i] > values[i - 1]), None)
    if bad is not None:
        raise DatasetError(f"column {axis!r} not strictly increasing at data row {bad + 1}")
    return Dataset(kind=kind, columns=columns, metadata=metadata)


def check_series(x, y, err, names: tuple[str, str, str]) -> None:
    """The contract every measured series keeps, in plain floats beside the
    loader's checks: x and y finite and as long, x strictly increasing, and
    err, if given, as long, finite and > 0; names labels (x, y, err)."""
    x_name, y_name, err_name = names
    if len(x) != len(y):
        raise ValueError(f"{x_name} and {y_name} must have equal length")
    # a sum is finite unless a term is not or it overflows: only then scan
    if not all(math.isfinite(sum(c)) or all(map(math.isfinite, c)) for c in (x, y)):
        raise ValueError(f"{x_name} and {y_name} must be finite")
    if not all(map(operator.lt, x, x[1:])):
        raise ValueError(f"{x_name} must be strictly increasing")
    if err is not None:
        if len(err) != len(x):
            raise ValueError(f"{err_name} length mismatch")
        if not (math.isfinite(sum(err)) or all(map(math.isfinite, err))):
            raise ValueError(f"{err_name} must be finite")
        if min(err, default=math.inf) <= 0:
            raise ValueError(f"{err_name} must be positive")


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_dataset(path, dataset: Dataset) -> None:
    """Write a dataset in SI units, atomically."""
    # each column present, in schema order, with its role's SI unit
    si = {name: next(iter(_UNIT_TABLES[role])) for name, role, _ in _SCHEMAS[dataset.kind] if name in dataset.columns}
    lines = [f"# kind: {dataset.kind}"]
    for key in sorted(dataset.metadata.keys() - {"kind"}):  # a loaded file's own kind line
        lines.append(f"# {key}: {dataset.metadata[key]}")
    lines.append(",".join(f"{name}:{unit}" if unit else name for name, unit in si.items()))
    for row in zip(*(dataset.columns[name] for name in si)):
        lines.append(",".join(repr(float(v)) for v in row))
    _atomic_write(Path(path), "\n".join(lines) + "\n")


def file_digest(path) -> str:
    import hashlib

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_config(path):
    """The species table, extended by the 'species' entry of the JSON
    config file at path if one is given."""
    from .units import ATOMIC_MASS_KG, ELEMENTARY_CHARGE, SPECIES_TABLE, IonSpecies

    if path is None:
        return dict(SPECIES_TABLE)
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8-sig"), parse_int=float)  # an integer beyond a float's range is inf
    except json.JSONDecodeError as exc:
        raise DatasetError(f"config parse failure: {exc}") from None
    species = cfg.get("species", {}) if isinstance(cfg, dict) else None
    if not isinstance(species, dict):
        raise DatasetError(f"config {path}: expected a JSON object whose 'species' entry is an object")
    table = dict(SPECIES_TABLE)
    for name, entry in species.items():
        if not isinstance(entry, dict) or "mass_u" not in entry:
            raise DatasetError(f"config {path}: species {name!r} needs an object with a 'mass_u' entry")
        unknown = [key for key in entry if key not in ("mass_u", "charge_e")]  # a misspelt charge would run at charge 1
        if unknown:
            raise DatasetError(f"config {path}: species {name!r}: unknown entry {unknown[0]!r}; expected 'mass_u' and 'charge_e'")
        mass, charge = entry["mass_u"], entry.get("charge_e", 1.0)
        for key, value in (("mass_u", mass), ("charge_e", charge)):
            if not isinstance(value, float):  # every JSON number parses as one; true, null, text, lists and objects do not
                raise DatasetError(f"config {path}: species {name!r}: its {key!r} entry must be a number, not {json.dumps(value)}")
        table[name] = IonSpecies(name, mass * ATOMIC_MASS_KG, charge * ELEMENTARY_CHARGE)
    return table


# ---------------------------------------------------------------------------
# dataset <-> domain object adapters; each imports its domain module when
# called, so that loading a dataset loads neither numpy nor a fitter


def to_heating_series(ds: Dataset):
    from .heating import HeatingSeries

    if ds.kind != "heating":
        raise DatasetError(f"expected heating dataset, got {ds.kind!r}")
    return HeatingSeries(ds.columns["time"], ds.columns["nbar"], ds.columns.get("nbar_err"))


def from_heating_series(series) -> Dataset:
    cols = {"time": tuple(series.wait_times), "nbar": tuple(series.nbar)}
    if series.nbar_err is not None:
        cols["nbar_err"] = tuple(series.nbar_err)
    return Dataset("heating", cols, {})


def _parse_intervals(text: str):
    intervals = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            start, end = (float(v) for v in chunk.split(","))
        except ValueError:
            raise DatasetError(f"cannot parse light_on interval {chunk!r}") from None
        intervals.append((start, end))
    return tuple(intervals)


def to_frequency_series(ds: Dataset):
    from .charging import FrequencySeries

    if ds.kind != "charging":
        raise DatasetError(f"expected charging dataset, got {ds.kind!r}")
    intervals = _parse_intervals(ds.metadata.get("light_on", ""))
    return FrequencySeries(ds.columns["time"], ds.columns["freq"], ds.columns.get("err"), intervals)


def from_frequency_series(series) -> Dataset:
    cols = {"time": tuple(series.times), "freq": tuple(series.freqs)}
    if series.freq_errs is not None:
        cols["err"] = tuple(series.freq_errs)
    meta = {}
    if series.light_on_intervals:
        meta["light_on"] = ";".join(
            f"{repr(float(a))},{repr(float(b))}" for a, b in series.light_on_intervals
        )
    return Dataset("charging", cols, meta)


def to_position_scan(ds: Dataset):
    from .beam import RabiPositionScan

    if ds.kind != "position-scan":
        raise DatasetError(f"expected position-scan dataset, got {ds.kind!r}")
    if "origin" not in ds.metadata:
        raise DatasetError(
            "position-scan datasets must declare '# origin: loading_hole|grating'"
        )
    if ds.metadata["origin"] not in ("loading_hole", "grating"):
        raise DatasetError(f"unknown origin {ds.metadata['origin']!r}")
    return RabiPositionScan(ds.columns["pos"], ds.columns["rabi"], ds.columns.get("err"))


def from_position_scan(scan, origin: str) -> Dataset:
    if origin not in ("loading_hole", "grating"):
        raise DatasetError(f"origin must be 'loading_hole' or 'grating', got {origin!r}")
    cols = {"pos": tuple(scan.positions), "rabi": tuple(scan.rabi)}
    if scan.rabi_err is not None:
        cols["err"] = tuple(scan.rabi_err)
    return Dataset("position-scan", cols, {"origin": origin})


def from_sideband_observations(observations) -> Dataset:
    observations = list(observations)
    cols = {
        "wait": tuple(o[0] for o in observations),
        "p_red": tuple(o[1].p_red for o in observations),
        "p_blue": tuple(o[1].p_blue for o in observations),
        "shots": tuple(math.inf if o[1].shots is None else float(o[1].shots) for o in observations),
    }
    return Dataset("sideband-scan", cols, {})


def to_sideband_observations(ds: Dataset):
    """(wait, SidebandObservation) per row; a shots value of inf, or no
    shots column, means analytic."""
    from .thermometry import SidebandObservation

    if ds.kind != "sideband-scan":
        raise DatasetError(f"expected sideband-scan dataset, got {ds.kind!r}")
    shots = ds.columns.get("shots", (math.inf,) * ds.n_rows)
    return [
        (wait, SidebandObservation(0.0, p_red, p_blue, None if s == math.inf else int(s)))
        for wait, p_red, p_blue, s in zip(ds.columns["wait"], ds.columns["p_red"], ds.columns["p_blue"], shots)
    ]
