"""Surface ion trap characterization toolkit.

Library layers: units/constants, sideband thermometry, heating-rate and
field-noise analysis, photo-induced charging dynamics, grating beam
profiles, and a seeded simulator for closed-loop fit validation. The CLI
entry point lives in trapkit.cli. The names below are loaded from their
submodule on first use (PEP 562), so importing the package loads neither
numpy nor scipy; submodules import scipy only inside the functions that
use it.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "units": ("IonSpecies", "TrapContext", "UnknownSpeciesError", "db_chain", "make_trap_context"),
    "thermometry": (
        "RabiParams", "SidebandObservation", "ThermalMotionalState", "nbar_from_asymmetry",
        "nbar_with_uncertainty", "sideband_excitation",
    ),
    "heating": (
        "HeatingRateResult", "HeatingSeries", "PowerLawFit", "fit_heating_rate", "fit_power_law",
        "normalize_rate", "position_scan_summary", "rate_from_spectral_density", "spectral_density_from_rate",
    ),
    "charging": (
        "ChargingModelParams", "DischargeModelParams", "DutyCycle", "FrequencySeries", "charging_freq",
        "compensation_field", "discharge_freq", "fit_charging", "fit_discharge", "settled_offset",
        "settled_stability",
    ),
    "beam": (
        "GratingOutputModel", "RabiPositionScan", "fit_profile", "pi_time_to_rabi",
    ),
    "simulate": (
        "SimConfig", "simulate_charging_series", "simulate_heating_series", "simulate_position_scan",
        "simulate_sideband_scan",
    ),
    "reports": ("FitConvergenceError", "FitReport"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if name in (*_EXPORTS, "fitting"):  # the submodules an eager import used to load
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
