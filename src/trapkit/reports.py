"""The structured fit report every pipeline emits, and the error a fit
raises when no start converges. Plain Python, so the CLI can reprint a
report or exit on a rejected input without importing numpy."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


class FitConvergenceError(RuntimeError):
    """Nonlinear fit failed to converge within the bounded restarts.

    Carries the best cost seen, and starts: one (initial_cost, final_cost
    or None, nfev or None, status or error text) per polished start, for
    diagnostics.
    """

    def __init__(self, message, best_cost=None, starts=()):
        super().__init__(message)
        self.best_cost = best_cost
        self.starts = list(starts)


@dataclass
class FitReport:
    """Serializable record of one fit: parameters, errors, quality flags."""

    model: str
    params: dict[str, float]
    param_errs: dict[str, float]
    residual_rms: float
    n_points: int
    flags: list[str] = field(default_factory=list)
    extras: dict[str, float] = field(default_factory=dict)
    provenance: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "params": dict(sorted(self.params.items())),
            "param_errs": dict(sorted(self.param_errs.items())),
            "residual_rms": self.residual_rms,
            "n_points": self.n_points,
            "flags": sorted(self.flags),
            "extras": dict(sorted(self.extras.items())),
            "provenance": dict(sorted(self.provenance.items())),
        }

    def to_json(self) -> str:
        # strict JSON: a NaN or Infinity anywhere raises ValueError
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "FitReport":
        """The report a to_dict() output describes; ValueError on any other
        shape or on a value of the wrong type."""
        if not isinstance(d, dict):
            raise ValueError("a fit report must be a JSON object")
        for key in ("model", "params", "param_errs", "residual_rms", "n_points", "flags"):
            if key not in d:
                raise ValueError(f"not a fit report: missing key {key!r}")
        if not isinstance(d["model"], str):
            raise ValueError("fit report 'model' must be a string")
        for key, valid, kind in (
            ("params", _is_finite_number, "finite numbers"),
            ("param_errs", _is_finite_number, "finite numbers"),
            ("extras", _is_finite_number, "finite numbers"),
            ("provenance", lambda v: isinstance(v, str), "strings"),
        ):
            value = d.get(key, {})
            if not (isinstance(value, dict) and all(isinstance(k, str) and valid(v) for k, v in value.items())):
                raise ValueError(f"fit report {key!r} must map names to {kind}")
        if not _is_finite_number(d["residual_rms"]):
            raise ValueError("fit report 'residual_rms' must be a finite number")
        n = d["n_points"]
        if not (isinstance(n, int) and not isinstance(n, bool) and n >= 0):
            raise ValueError("fit report 'n_points' must be an integer >= 0")
        if not (isinstance(d["flags"], list) and all(isinstance(f, str) for f in d["flags"])):
            raise ValueError("fit report 'flags' must be a list of strings")
        return cls(
            model=d["model"],
            params=dict(d["params"]),
            param_errs=dict(d["param_errs"]),
            residual_rms=d["residual_rms"],
            n_points=n,
            flags=list(d["flags"]),
            extras=dict(d.get("extras", {})),
            provenance=dict(d.get("provenance", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "FitReport":
        return cls.from_dict(json.loads(text))


def _is_finite_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
