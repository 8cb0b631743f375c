import math

import numpy as np
import pytest

from trapkit.beam import (
    GratingOutputModel,
    RabiPositionScan,
    fit_profile,
    pi_time_to_rabi,
    profile_extrema,
    rabi_from_intensity,
    two_beamlet_intensity,
)
from trapkit.simulate import SimConfig, simulate_position_scan

TWO_PI = 2 * math.pi


def double_peak_model(**overrides):
    kwargs = dict(
        mode="two-beamlet",
        waist=0.9e-6,
        beamlet_separation=1.8e-6,
        center=11e-6,
    )
    kwargs.update(overrides)
    return GratingOutputModel(**kwargs)


class TestTwoBeamlet:
    def test_single_beamlet_limit(self):
        m = double_peak_model(beamlet_amplitude_ratio=0.0)
        x = np.linspace(8e-6, 14e-6, 100)
        got = two_beamlet_intensity(x, m)
        x1 = m.center - 0.9e-6
        want = np.exp(-2 * (x - x1) ** 2 / m.waist**2)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_destructive_null_and_two_maxima(self):
        m = double_peak_model(beamlet_phase=math.pi)
        assert two_beamlet_intensity(m.center, m) == pytest.approx(0.0, abs=1e-12)
        peaks, dip = profile_extrema(m)
        assert len(peaks) == 2
        assert peaks[1] - peaks[0] == pytest.approx(1.8e-6, rel=0.05)
        assert dip == pytest.approx(1.0, abs=1e-9)

    def test_constructive_merged_peak(self):
        m = double_peak_model(beamlet_phase=0.0, beamlet_separation=1e-9)
        # constructive limit: 4x the single-beamlet intensity at center
        assert two_beamlet_intensity(m.center, m) == pytest.approx(4.0, rel=1e-4)
        peaks, _ = profile_extrema(m)
        assert len(peaks) == 1

    def test_symmetry_about_midpoint(self):
        m = double_peak_model(beamlet_phase=2.0)
        for dx in (0.3e-6, 0.9e-6, 1.5e-6):
            assert two_beamlet_intensity(m.center + dx, m) == pytest.approx(
                two_beamlet_intensity(m.center - dx, m), rel=1e-12
            )

    def test_wrong_mode_rejected(self):
        m = GratingOutputModel(mode="single-gaussian", waist=2.5e-6)
        with pytest.raises(ValueError):
            two_beamlet_intensity(0.0, m)


class TestRabiMapping:
    def test_reference_point(self):
        assert rabi_from_intensity(2.0, (TWO_PI * 121.1e3, 2.0)) == pytest.approx(
            TWO_PI * 121.1e3
        )

    def test_quadratic_intensity_scaling(self):
        ref = (TWO_PI * 121.1e3, 1.0)
        assert rabi_from_intensity(4.0, ref) == pytest.approx(2 * TWO_PI * 121.1e3)

    def test_scale_invariance(self):
        ref_rabi = TWO_PI * 100e3
        for c in (0.5, 3.0, 1e4):
            assert rabi_from_intensity(c * 2.0, (ref_rabi, c * 1.0)) == pytest.approx(
                rabi_from_intensity(2.0, (ref_rabi, 1.0)), rel=1e-12
            )

    def test_pi_time_anchor(self):
        rabi = pi_time_to_rabi(4.13e-6)
        assert rabi / TWO_PI == pytest.approx(121.06e3, rel=1e-4)
        assert abs(rabi / TWO_PI - 121.1e3) < 0.6e3

    def test_pi_time_round_trip(self):
        for rabi in (TWO_PI * 0.5, TWO_PI * 121.1e3):
            assert pi_time_to_rabi(math.pi / rabi) == pytest.approx(rabi, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            pi_time_to_rabi(0.0)
        with pytest.raises(ValueError):
            rabi_from_intensity(1.0, (TWO_PI * 1e3, 0.0))


class TestProfileFit:
    def test_noiseless_separation_round_trip(self):
        truth = double_peak_model()
        cfg = SimConfig(seed=0, rabi_noise_frac=0.0)
        x = np.linspace(6e-6, 16e-6, 41)
        scan = simulate_position_scan(cfg, truth, x.tolist())
        model, report = fit_profile(scan, mode="two-beamlet")
        assert model.beamlet_separation == pytest.approx(1.8e-6, rel=1e-6)
        assert report.extras["peak_separation"] == pytest.approx(
            profile_extrema(truth)[0][1] - profile_extrema(truth)[0][0], rel=1e-4
        )

    def test_noisy_peak_positions(self):
        truth = double_peak_model()
        true_peaks, _ = profile_extrema(truth)
        x = np.linspace(6e-6, 16e-6, 41)
        ok = 0
        for seed in range(20):
            cfg = SimConfig(seed=seed, rabi_noise_frac=0.05)
            scan = simulate_position_scan(cfg, truth, x.tolist())
            model, _ = fit_profile(scan, mode="two-beamlet")
            peaks, _ = profile_extrema(model)
            if (
                len(peaks) >= 2
                and abs(peaks[0] - true_peaks[0]) < 0.2e-6
                and abs(peaks[-1] - true_peaks[-1]) < 0.2e-6
            ):
                ok += 1
        assert ok >= 18

    def test_max_nfev_flag(self):
        # criterion 9's seed 52: the winning start stops at max_nfev; seed 0's converges
        truth = double_peak_model()
        x = np.linspace(6e-6, 16e-6, 41)
        flagged = {}
        for seed in (0, 52):
            scan = simulate_position_scan(SimConfig(seed=seed, rabi_noise_frac=0.05), truth, x.tolist())
            _, report = fit_profile(scan, mode="two-beamlet")
            flagged[seed] = "max-nfev-reached" in report.flags
        assert flagged == {0: False, 52: True}

    def test_single_gaussian_mode(self):
        truth = GratingOutputModel(mode="single-gaussian", waist=2.5e-6, center=11e-6)
        cfg = SimConfig(seed=1, rabi_noise_frac=0.0)
        x = np.linspace(5e-6, 17e-6, 25)
        scan = simulate_position_scan(cfg, truth, x.tolist())
        model, _ = fit_profile(scan, mode="single-gaussian")
        assert model.waist == pytest.approx(2.5e-6, rel=1e-6)
        assert model.center == pytest.approx(11e-6, abs=1e-12)

    def test_single_gaussian_data_in_two_beamlet_mode(self):
        truth = GratingOutputModel(mode="single-gaussian", waist=2.5e-6, center=11e-6)
        cfg = SimConfig(seed=2, rabi_noise_frac=0.0)
        x = np.linspace(5e-6, 17e-6, 25)
        scan = simulate_position_scan(cfg, truth, x.tolist())
        model, report = fit_profile(scan, mode="two-beamlet")
        peaks, dip = profile_extrema(model)
        # nested model: must collapse to a single-peaked solution or be flagged
        assert (
            "degenerate-two-beamlet-fit" in report.flags
            or len(peaks) == 1
            or dip < 0.01
        )

    def test_too_few_points(self):
        scan = RabiPositionScan((0.0, 1e-6, 2e-6), (1.0, 2.0, 1.0))
        with pytest.raises(ValueError):
            fit_profile(scan)
