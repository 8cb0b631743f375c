"""Thermal motional states, sideband Rabi dynamics, and asymmetry thermometry.

The mean occupation of a thermal state is read off the ratio of red to blue
sideband excitation, r = nbar/(nbar+1), which is independent of probe time
and Rabi frequency. Everything here is a pure function over immutable inputs.
numpy is imported inside the functions that use it, so that the observation
type and the asymmetry estimate load in plain Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .reports import FitReport

FOCK_TAIL = 1e-12

MATRIX_ELEMENT_MODELS = ("first-order-LD", "exact-laguerre")


@dataclass(frozen=True)
class ThermalMotionalState:
    nbar: float

    def __post_init__(self):
        if not (self.nbar >= 0 and math.isfinite(self.nbar)):
            raise ValueError(f"nbar must be finite and >= 0, got {self.nbar}")


@dataclass(frozen=True)
class RabiParams:
    base_rabi: float  # carrier Rabi frequency, rad/s
    lamb_dicke: float
    matrix_element_model: str = "first-order-LD"

    def __post_init__(self):
        if self.base_rabi <= 0:
            raise ValueError("base_rabi must be positive")
        if not (0 < self.lamb_dicke < 1):
            raise ValueError("lamb_dicke must lie in (0, 1)")
        if self.matrix_element_model not in MATRIX_ELEMENT_MODELS:
            raise ValueError(
                f"matrix_element_model must be one of {MATRIX_ELEMENT_MODELS}"
            )


@dataclass(frozen=True)
class SidebandObservation:
    """Red/blue sideband excitation probabilities at one probe setting."""

    probe_time: float  # s
    p_red: float
    p_blue: float
    shots: int | None = None  # None means analytic (infinite shots)

    def __post_init__(self):
        if self.probe_time < 0:
            raise ValueError("probe_time must be >= 0")
        for name in ("p_red", "p_blue"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")
        if self.shots is not None and self.shots < 1:
            raise ValueError("shots must be >= 1")


def fock_cutoff(nbar: float) -> int:
    """Smallest N such that the thermal weight above N-1 is <= FOCK_TAIL."""
    if nbar <= 0:
        return 1
    r = nbar / (nbar + 1.0)
    return max(1, math.ceil(math.log(FOCK_TAIL) / math.log(r)))


def _fock_probabilities(nbar: float, nmax: int) -> np.ndarray:
    import numpy as np

    r = nbar / (nbar + 1.0)  # at nbar = 0, r**n is [1, 0, ...]
    return r ** np.arange(nmax + 1) / (nbar + 1.0)


def _sideband_rabi_low(params: RabiParams, n_low) -> np.ndarray:
    """Rabi frequency for the n_low <-> n_low+1 sideband, vectorized."""
    import numpy as np

    n_low = np.asarray(n_low)
    eta = params.lamb_dicke
    if params.matrix_element_model == "first-order-LD":
        return params.base_rabi * eta * np.sqrt(n_low + 1.0)
    # exact generalized-Laguerre matrix element, first sideband
    from scipy.special import eval_genlaguerre

    x = eta * eta
    return (
        params.base_rabi
        * math.exp(-0.5 * x)
        * eta
        * eval_genlaguerre(n_low, 1, x)
        / np.sqrt(n_low + 1.0)
    )


def sideband_excitation(
    state: ThermalMotionalState,
    params: RabiParams,
    probe_time: float,
    order: int,
) -> float:
    """Thermally averaged sideband excitation probability at fixed probe time.

    Returns sum_n p_n sin^2(Omega_n t / 2) with the Fock sum truncated at
    cumulative probability 1 - 1e-12. Deterministic; no decoherence model.
    """
    if probe_time < 0:
        raise ValueError("probe_time must be >= 0")
    if order not in (+1, -1):
        raise ValueError("order must be +1 (blue) or -1 (red)")
    import numpy as np

    # the red sideband takes the weights from n = 1; either way the
    # transition's lower state is the weight's index
    weights = _fock_probabilities(state.nbar, fock_cutoff(state.nbar))[(1 - order) // 2 :]
    omega = _sideband_rabi_low(params, np.arange(float(weights.size)))
    return float(np.sum(weights * np.sin(0.5 * omega * probe_time) ** 2))


def nbar_from_asymmetry(ratio: float) -> float:
    """Invert the thermal sideband ratio r = nbar/(nbar+1)."""
    if ratio < 0:
        raise ValueError(f"sideband ratio must be >= 0, got {ratio}")
    if ratio >= 1:
        raise ValueError(
            f"sideband ratio {ratio} >= 1: data are non-thermal or saturated"
        )
    return ratio / (1.0 - ratio)


def nbar_with_uncertainty(obs: SidebandObservation) -> tuple[float, float]:
    """Estimate nbar and its standard error from one sideband observation.

    Binomial shot noise on p_red and p_blue is propagated to first order
    through the asymmetry inversion. For finite shots the proportions used
    in the noise estimate are shrunk away from 0/1 so zero-count points do
    not acquire zero (infinite-weight) errors.
    """
    if obs.p_blue <= 0:
        raise ValueError("p_blue must be positive to form the sideband ratio")
    ratio = obs.p_red / obs.p_blue
    nbar = nbar_from_asymmetry(ratio)
    if obs.shots is None:
        return nbar, 0.0
    shots = obs.shots

    def prop_err(p: float) -> float:
        p_eff = (p * shots + 0.5) / (shots + 1.0)
        return math.sqrt(p_eff * (1.0 - p_eff) / shots)

    s_red = prop_err(obs.p_red)
    s_blue = prop_err(obs.p_blue)
    sigma_ratio = math.hypot(s_red / obs.p_blue, obs.p_red * s_blue / obs.p_blue**2)
    # d(nbar)/d(ratio) = 1/(1-ratio)^2
    sigma_nbar = sigma_ratio / (1.0 - ratio) ** 2
    return nbar, sigma_nbar


def asymmetry_report(p_red: float, p_blue: float, shots: int | None = None) -> FitReport:
    """The 'sideband-asymmetry-thermometry' report of one red/blue pair."""
    nbar, err = nbar_with_uncertainty(SidebandObservation(0.0, p_red, p_blue, shots))
    return FitReport("sideband-asymmetry-thermometry", {"nbar": nbar}, {"nbar": err}, 0.0, 1, extras={"ratio": p_red / p_blue})
