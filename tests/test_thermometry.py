import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trapkit.thermometry import (
    RabiParams,
    SidebandObservation,
    ThermalMotionalState,
    _fock_probabilities,
    _sideband_rabi_low,
    fock_cutoff,
    nbar_from_asymmetry,
    nbar_with_uncertainty,
    sideband_excitation,
)

OMEGA0 = 2 * math.pi * 200e3


def brute_force_excitation(nbar, omega0, eta, t, order, model="first-order-LD"):
    """Independent per-term sum used as the oracle for sideband_excitation."""
    from scipy.special import eval_genlaguerre

    nmax = fock_cutoff(nbar)
    total = 0.0
    for n in range(0 if order > 0 else 1, nmax + 1):
        if nbar > 0:
            p_n = math.exp(n * math.log(nbar) - (n + 1) * math.log(nbar + 1.0))
        else:
            p_n = 1.0 if n == 0 else 0.0
        n_low = n if order > 0 else n - 1
        if model == "first-order-LD":
            om = omega0 * eta * math.sqrt(n_low + 1)
        else:
            om = (
                omega0
                * math.exp(-0.5 * eta * eta)
                * eta
                * eval_genlaguerre(n_low, 1, eta * eta)
                / math.sqrt(n_low + 1)
            )
        total += p_n * math.sin(0.5 * om * t) ** 2
    return total


class TestFockDistribution:
    def test_ground_state(self):
        np.testing.assert_array_equal(_fock_probabilities(0.0, 5), [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])

    def test_direct_values(self):
        assert _fock_probabilities(1.0, 1)[0] == pytest.approx(0.5)
        assert _fock_probabilities(3.0, 1)[1] == pytest.approx(0.1875)

    @pytest.mark.parametrize("nbar", [0.01, 0.1, 1.0, 3.0, 10.0, 50.0])
    def test_truncated_normalization(self, nbar):
        assert np.sum(_fock_probabilities(nbar, fock_cutoff(nbar))) >= 1.0 - 1e-12

    def test_negative_nbar_rejected(self):
        with pytest.raises(ValueError):
            ThermalMotionalState(-0.1)


class TestSidebandRabi:
    # _sideband_rabi_low takes the lower Fock state of the coupled pair:
    # n for the blue sideband from n, n - 1 for the red
    def test_first_order_blue_ground(self):
        p = RabiParams(OMEGA0, 0.1)
        assert _sideband_rabi_low(p, [0])[0] == pytest.approx(OMEGA0 * 0.1)

    def test_first_order_red(self):
        p = RabiParams(OMEGA0, 0.1)
        assert _sideband_rabi_low(p, [2])[0] == pytest.approx(OMEGA0 * 0.1 * math.sqrt(3))

    def test_laguerre_reduces_to_first_order_at_small_eta(self):
        p_ld = RabiParams(OMEGA0, 0.01)
        p_ex = RabiParams(OMEGA0, 0.01, "exact-laguerre")
        n_low = [0, 1, 4]
        np.testing.assert_allclose(_sideband_rabi_low(p_ex, n_low), _sideband_rabi_low(p_ld, n_low), rtol=1e-3)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RabiParams(-1.0, 0.1)
        with pytest.raises(ValueError):
            RabiParams(OMEGA0, 1.5)
        with pytest.raises(ValueError):
            RabiParams(OMEGA0, 0.1, "other")


class TestSidebandExcitation:
    def test_zero_time(self):
        state = ThermalMotionalState(1.0)
        p = RabiParams(OMEGA0, 0.1)
        assert sideband_excitation(state, p, 0.0, +1) == 0.0

    def test_red_on_ground_state(self):
        for model in ("first-order-LD", "exact-laguerre"):
            p = RabiParams(OMEGA0, 0.1, model)
            assert sideband_excitation(ThermalMotionalState(0.0), p, 1e-5, -1) == 0.0

    def test_detailed_balance_at_nbar_3(self):
        state = ThermalMotionalState(3.0)
        p = RabiParams(OMEGA0, 0.1)
        for t in (1e-6, 5e-6, 2e-5):
            pb = sideband_excitation(state, p, t, +1)
            pr = sideband_excitation(state, p, t, -1)
            assert pr == pytest.approx(0.75 * pb, rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        nbar=st.floats(0.01, 50.0),
        eta=st.floats(0.01, 0.5),
        t_scale=st.floats(0.05, 3.0),
        model=st.sampled_from(["first-order-LD", "exact-laguerre"]),
    )
    def test_thermal_ratio_property(self, nbar, eta, t_scale, model):
        state = ThermalMotionalState(nbar)
        p = RabiParams(OMEGA0, eta, model)
        t = t_scale * math.pi / (OMEGA0 * eta)
        pb = sideband_excitation(state, p, t, +1)
        pr = sideband_excitation(state, p, t, -1)
        if pb > 1e-6:
            assert pr / pb == pytest.approx(nbar / (nbar + 1.0), rel=1e-9, abs=1e-9)

    def test_matches_brute_force_oracle(self):
        for nbar, eta, t in [(0.1, 0.1, 4e-6), (3.0, 0.2, 9e-6), (12.0, 0.05, 2e-5)]:
            for model in ("first-order-LD", "exact-laguerre"):
                state = ThermalMotionalState(nbar)
                p = RabiParams(OMEGA0, eta, model)
                for order in (+1, -1):
                    got = sideband_excitation(state, p, t, order)
                    want = brute_force_excitation(nbar, OMEGA0, eta, t, order, model)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_monotone_first_flop_for_ground_state(self):
        p = RabiParams(OMEGA0, 0.1)
        state = ThermalMotionalState(0.0)
        t_pi = math.pi / (OMEGA0 * 0.1)
        ts = np.linspace(0, t_pi, 40)
        vals = [sideband_excitation(state, p, t, +1) for t in ts]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestAsymmetryInversion:
    def test_anchors(self):
        assert nbar_from_asymmetry(0.0) == 0.0
        assert nbar_from_asymmetry(0.75) == pytest.approx(3.0, abs=1e-12)
        assert nbar_from_asymmetry(1.0 / 11.0) == pytest.approx(0.1, abs=1e-12)

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            nbar_from_asymmetry(1.0)
        with pytest.raises(ValueError):
            nbar_from_asymmetry(-0.1)

    @given(nbar=st.floats(0.01, 50.0))
    def test_round_trip(self, nbar):
        ratio = nbar / (nbar + 1.0)
        assert nbar_from_asymmetry(ratio) == pytest.approx(nbar, rel=1e-9)


class TestNbarWithUncertainty:
    def test_analytic_limit(self):
        obs = SidebandObservation(1e-5, 0.0, 0.5, shots=None)
        assert nbar_with_uncertainty(obs) == (0.0, 0.0)

    def test_point_estimate(self):
        obs = SidebandObservation(1e-5, 0.3, 0.4, shots=500)
        nbar, err = nbar_with_uncertainty(obs)
        assert nbar == pytest.approx(3.0)
        assert err > 0

    def test_sigma_against_monte_carlo(self):
        p_red, p_blue, shots = 0.075, 0.75, 400
        obs = SidebandObservation(1e-5, p_red, p_blue, shots=shots)
        _, sigma = nbar_with_uncertainty(obs)
        rng = np.random.default_rng(11)
        draws = []
        for _ in range(4000):
            pr = rng.binomial(shots, p_red) / shots
            pb = rng.binomial(shots, p_blue) / shots
            r = pr / pb
            if r < 1:
                draws.append(r / (1 - r))
        mc_sigma = np.std(draws)
        # first-order propagation vs resampled spread
        assert sigma == pytest.approx(mc_sigma, rel=0.1)

    def test_saturated_pair_rejected(self):
        obs = SidebandObservation(1e-5, 0.4, 0.4, shots=500)
        with pytest.raises(ValueError):
            nbar_with_uncertainty(obs)

    def test_zero_blue_rejected(self):
        obs = SidebandObservation(1e-5, 0.0, 0.0, shots=500)
        with pytest.raises(ValueError):
            nbar_with_uncertainty(obs)

    def test_observation_invariants(self):
        with pytest.raises(ValueError):
            SidebandObservation(1e-5, -0.1, 0.5)
        with pytest.raises(ValueError):
            SidebandObservation(1e-5, 0.1, 1.5)
        with pytest.raises(ValueError):
            SidebandObservation(1e-5, 0.1, 0.5, shots=0)
