"""Physical constants, ion species, the shared trap context, and the names
of the output-beam models and charging-record windows.

All frequencies are stored as angular frequencies (rad/s) internally; the
CLI layer converts from Hz on the way in. Masses are exact isotope masses
in kg so that cross-species normalization ratios are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# CODATA 2018
ATOMIC_MASS_KG = 1.66053906660e-27
ELEMENTARY_CHARGE = 1.602176634e-19
HBAR = 1.054571817e-34

TWO_PI = 2.0 * math.pi

# Output-beam models of trapkit.beam, and the windows of a charging record
# that trapkit.charging fits, each -> the light state it holds, which names
# its edge flag --t-on or --t-off, and the light_on edge that flag defaults
# to: the first interval's start (0) or end (1). Named here so that the CLI
# can offer them without importing numpy
BEAM_MODES = ("single-gaussian", "two-beamlet")
CHARGING_WINDOWS = {"charging": ("on", 0), "discharge": ("off", 1)}


class UnknownSpeciesError(ValueError):
    """Species name not present in the species table."""


@dataclass(frozen=True)
class IonSpecies:
    name: str
    mass: float  # kg
    charge: float  # C, +1e for everything used here

    def __post_init__(self):
        for name in ("mass", "charge"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v}")


# Exact isotope masses (u): Yb-171 170.936, Ca-40 39.963
SPECIES_TABLE: dict[str, IonSpecies] = {
    "Yb-171": IonSpecies("Yb-171", 170.936 * ATOMIC_MASS_KG, ELEMENTARY_CHARGE),
    "Ca-40": IonSpecies("Ca-40", 39.963 * ATOMIC_MASS_KG, ELEMENTARY_CHARGE),
}


def get_species(name: str, table: dict[str, IonSpecies] | None = None) -> IonSpecies:
    table = SPECIES_TABLE if table is None else table
    try:
        return table[name]
    except KeyError:
        raise UnknownSpeciesError(
            f"unknown species {name!r}; known: {sorted(table)}"
        ) from None


# Plausibility window for the axial secular frequency, rad/s
AXIAL_FREQ_WINDOW = (TWO_PI * 0.1e6, TWO_PI * 20e6)


@dataclass(frozen=True)
class TrapContext:
    """Ion species plus the trap operating point shared by all analyses."""

    species: IonSpecies
    axial_freq: float  # rad/s
    radial_freq: float  # rad/s
    ion_surface_distance: float  # m

    def __post_init__(self):
        for name in ("axial_freq", "radial_freq", "ion_surface_distance"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v}")


def make_trap_context(
    species_name: str,
    axial_freq: float,
    radial_freq: float,
    distance: float,
    species_table: dict[str, IonSpecies] | None = None,
) -> TrapContext:
    """Build a validated TrapContext from a species name and trap frequencies.

    Frequencies are angular (rad/s). The axial frequency must fall inside
    AXIAL_FREQ_WINDOW (2*pi x 0.1..20 MHz).
    """
    species = get_species(species_name, species_table)
    ctx = TrapContext(species, axial_freq, radial_freq, distance)
    lo, hi = AXIAL_FREQ_WINDOW
    if not (lo <= axial_freq <= hi):
        raise ValueError(
            f"axial_freq {axial_freq:.4g} rad/s outside plausibility window "
            f"[{lo:.4g}, {hi:.4g}]"
        )
    return ctx


def db_chain(losses) -> float:
    """Total loss of a chain of optical elements, each specified in dB."""
    losses = list(losses)
    if not losses:
        raise ValueError("db_chain requires at least one term")
    if not all(math.isfinite(x) for x in losses):
        raise ValueError("db_chain terms must be finite")
    return math.fsum(losses)
