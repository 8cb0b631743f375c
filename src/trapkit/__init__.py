"""Surface ion trap characterization toolkit.

Library layers: units/constants, sideband thermometry, heating-rate and
field-noise analysis, photo-induced charging dynamics, grating beam
profiles, and a seeded simulator for closed-loop fit validation. The CLI
entry point lives in trapkit.cli. Submodules import scipy only inside the
functions that use it, so importing the package costs numpy and no scipy.
"""

__version__ = "0.1.0"

from .units import (  # noqa: F401
    IonSpecies,
    TrapContext,
    UnknownSpeciesError,
    db_chain,
    make_trap_context,
)
from .thermometry import (  # noqa: F401
    RabiParams,
    SidebandObservation,
    ThermalMotionalState,
    fock_probability,
    nbar_from_asymmetry,
    nbar_with_uncertainty,
    sideband_excitation,
    sideband_rabi_frequency,
)
from .heating import (  # noqa: F401
    HeatingRateResult,
    HeatingSeries,
    PowerLawFit,
    fit_heating_rate,
    fit_power_law,
    normalize_rate,
    position_scan_summary,
    rate_from_spectral_density,
    spectral_density_from_rate,
)
from .charging import (  # noqa: F401
    ChargingModelParams,
    DischargeModelParams,
    DutyCycle,
    FrequencySeries,
    charging_freq,
    compensation_field,
    discharge_freq,
    effective_exposure,
    fit_charging,
    fit_discharge,
    settled_offset,
    settled_stability,
)
from .beam import (  # noqa: F401
    GratingOutputModel,
    RabiPositionScan,
    fit_profile,
    pi_time_to_rabi,
    rabi_from_intensity,
    two_beamlet_intensity,
)
from .simulate import (  # noqa: F401
    SimConfig,
    simulate_charging_series,
    simulate_heating_series,
    simulate_position_scan,
    simulate_sideband_scan,
)
from .fitting import FitConvergenceError, FitReport  # noqa: F401
