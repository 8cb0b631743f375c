import math

import numpy as np
import pytest

import trapkit.fitting
from trapkit import beam
from trapkit.beam import (
    GratingOutputModel,
    RabiPositionScan,
    fit_profile,
    pi_time_to_rabi,
    profile_extrema,
    profile_intensity,
    rabi_profile,
)
from trapkit.simulate import SimConfig, simulate_position_scan

TWO_PI = 2 * math.pi
# no two polished costs agree within a negative tolerance: every kept start is polished
NEVER_AGREE = -math.inf


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
        got = profile_intensity(x, m)
        x1 = m.center - 0.9e-6
        want = np.exp(-2 * (x - x1) ** 2 / m.waist**2)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_destructive_null_and_two_maxima(self):
        m = double_peak_model(beamlet_phase=math.pi)
        assert profile_intensity(m.center, m) == pytest.approx(0.0, abs=1e-12)
        peaks, dip = profile_extrema(m)
        assert len(peaks) == 2
        assert peaks[1] - peaks[0] == pytest.approx(1.8e-6, rel=0.05)
        assert dip == pytest.approx(1.0, abs=1e-9)

    def test_constructive_merged_peak(self):
        m = double_peak_model(beamlet_phase=0.0, beamlet_separation=1e-9)
        # constructive limit: 4x the single-beamlet intensity at center
        assert profile_intensity(m.center, m) == pytest.approx(4.0, rel=1e-4)
        peaks, _ = profile_extrema(m)
        assert len(peaks) == 1

    def test_symmetry_about_midpoint(self):
        m = double_peak_model(beamlet_phase=2.0)
        for dx in (0.3e-6, 0.9e-6, 1.5e-6):
            assert profile_intensity(m.center + dx, m) == pytest.approx(
                profile_intensity(m.center - dx, m), rel=1e-12
            )


class TestRabiMapping:
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
            model, report = fit_profile(scan, mode="two-beamlet")
            # 41 points at 5% noise pin every parameter down
            assert not [f for f in report.flags if f.startswith("weakly-identified")], seed
            peaks, _ = profile_extrema(model)
            if (
                len(peaks) >= 2
                and abs(peaks[0] - true_peaks[0]) < 0.2e-6
                and abs(peaks[-1] - true_peaks[-1]) < 0.2e-6
            ):
                ok += 1
        assert ok >= 18

    def test_constant_scan_leaves_the_center_and_waist_free(self):
        # a flat profile fits any waist far wider than the scan, centred
        # anywhere: only the Rabi scale is measured
        scan = RabiPositionScan(tuple(i * 1e-6 for i in range(11)), (TWO_PI * 1e5,) * 11)
        _, report = fit_profile(scan, mode="single-gaussian")
        assert sorted(report.flags) == ["weakly-identified:center", "weakly-identified:waist"]

    def test_max_nfev_flag(self, monkeypatch):
        # the flag is set when the winning start stopped at max_nfev; the
        # solver reaches it on criterion 9's seeds only if it is capped
        truth = double_peak_model()
        x = np.linspace(6e-6, 16e-6, 41)
        scans = {
            seed: simulate_position_scan(SimConfig(seed=seed, rabi_noise_frac=0.05), truth, x.tolist())
            for seed in (0, 52)
        }
        for seed, scan in scans.items():
            assert "max-nfev-reached" not in fit_profile(scan, mode="two-beamlet")[1].flags, seed
        monkeypatch.setattr(trapkit.fitting, "MAX_NFEV", 5)
        for seed, scan in scans.items():
            assert "max-nfev-reached" in fit_profile(scan, mode="two-beamlet")[1].flags, seed

    @pytest.mark.parametrize(
        "seed, shift, previous_rms", [(212, 0.0, 0.8741), (214, 0.0, 0.7566), (13, 0.1e-6, 1.18735228)]
    )
    def test_every_start_reaches_the_minimum(self, monkeypatch, seed, shift, previous_rms):
        # criterion 9's grid puts a sample on the truth's field zero at
        # 11 um, measured as 0. Seed 212: two starts seeded at phase exactly
        # pi returned their seeds, and the fit ended at residual_rms 2.77.
        # Seed 214: starts put E = 0 on that sample. Seed 13 on the grid
        # shifted by 0.1 um, which has no zero sample to give the phase a
        # slope: starts at phase exactly pi cannot move there either.
        # previous_rms is what scipy's finite-difference TRF found.
        truth = double_peak_model()
        x = np.linspace(6e-6, 16e-6, 41) + shift
        scan = simulate_position_scan(SimConfig(seed=seed, rabi_noise_frac=0.05), truth, x.tolist())
        original, costs = trapkit.fitting.least_squares, []

        def recording(*args, **kwargs):
            res = original(*args, **kwargs)
            costs.append(res.cost)
            return res

        monkeypatch.setattr(trapkit.fitting, "least_squares", recording)
        monkeypatch.setattr(trapkit.fitting, "AGREE_RTOL", NEVER_AGREE)
        model, report = fit_profile(scan, mode="two-beamlet")
        assert len(costs) == 3 and max(costs) <= min(costs) * (1 + 1e-6)
        assert report.residual_rms < previous_rms
        assert model.beamlet_separation == pytest.approx(1.8e-6, rel=0.05)

    def test_a_zero_sample_keeps_its_cost(self):
        # the fit splits a zero sample's residual into Re E and Im E; the
        # reported rms is still that of the weighted Rabi residuals
        truth = double_peak_model()
        x = np.linspace(6e-6, 16e-6, 41)
        scan = simulate_position_scan(SimConfig(seed=0, rabi_noise_frac=0.05), truth, x.tolist())
        assert scan.rabi[20] == 0.0
        model, report = fit_profile(scan, mode="two-beamlet")
        resid = (rabi_profile(x, model, report.params["rabi_scale"]) - scan.rabi) / scan.rabi_err
        assert report.residual_rms == pytest.approx(np.sqrt(np.mean(resid**2)), rel=1e-9)

    def test_stop_rule_keeps_the_best_cost(self, monkeypatch):
        # criterion 9's seeds 0-19: the fits that stop once two starts agree
        # reach the cost of the fits that polish all three kept starts
        x = np.linspace(6e-6, 16e-6, 41).tolist()
        scans = [simulate_position_scan(SimConfig(seed=seed, rabi_noise_frac=0.05), double_peak_model(), x) for seed in range(20)]

        def costs():
            return np.array([fit_profile(scan)[1].residual_rms ** 2 for scan in scans])

        with_rule = costs()
        monkeypatch.setattr(trapkit.fitting, "AGREE_RTOL", NEVER_AGREE)
        np.testing.assert_allclose(with_rule, costs(), rtol=1e-9, atol=0)

    def test_phase_and_ratio_errors_are_those_of_the_polar_parameters(self, monkeypatch):
        # the fit searches a + ib = ratio * exp(i phase); the errors it
        # propagates to (phase, ratio) are those of a fit in those parameters
        scan = simulate_position_scan(
            SimConfig(seed=0, rabi_noise_frac=0.05), double_peak_model(), np.linspace(6e-6, 16e-6, 41).tolist()
        )
        _, report = fit_profile(scan, mode="two-beamlet")
        p = report.params
        a, b = p["amplitude_ratio"] * math.cos(p["phase"]), p["amplitude_ratio"] * math.sin(p["phase"])
        theta = np.array([p["center"], p["separation"], math.log(p["waist"]), a, b, p["rabi_scale"]])
        fun, jac = TestBeamJacobian.solver_inputs(monkeypatch, scan, "two-beamlet")
        to_cartesian = np.eye(6)  # d(a, b) / d(phase, ratio) in the phase and ratio columns
        to_cartesian[3:5, 3:5] = [[-b, a / p["amplitude_ratio"]], [a, b / p["amplitude_ratio"]]]
        cov = trapkit.fitting.covariance_from_jacobian(jac(theta) @ to_cartesian)
        want = np.sqrt(np.diag(cov))[3:5]
        np.testing.assert_allclose([report.param_errs["phase"], report.param_errs["amplitude_ratio"]], want, rtol=1e-6)

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
        # nested model: the beamlets coincide, and the fit says so
        assert model.beamlet_separation < 1e-3 * model.waist
        assert "degenerate-two-beamlet-fit" in report.flags
        assert len(peaks) == 1 and dip == 0.0

    def test_too_few_points(self):
        scan = RabiPositionScan((0.0, 1e-6, 2e-6), (1.0, 2.0, 1.0))
        with pytest.raises(ValueError):
            fit_profile(scan)


class _Captured(Exception):
    pass


class TestBeamJacobian:
    """The residuals and analytic Jacobian that fit_profile hands the solver,
    both built on beam._field, against central differences."""

    X = np.linspace(6e-6, 16e-6, 41)
    # an off-truth point in each mode, where the field has no zero
    POINTS = {
        "two-beamlet": (11.1e-6, 1.7e-6, math.log(0.95e-6), 0.8 * math.cos(0.7), 0.8 * math.sin(0.7), 7e5),
        "single-gaussian": (11.1e-6, math.log(2.4e-6), 7e5),
    }
    # a negative separation, a < 0 and b < 0 enter through their signs
    SIGNS = [(1, 1, 1, 1, 1, 1), (1, -1, 1, -1, 1, 1), (1, 1, 1, 1, -1, 1)]

    @staticmethod
    def solver_inputs(monkeypatch, scan, mode):
        """fit_profile's residual function and Jacobian on scan."""
        got = {}

        def capture(fun, seeds, jac, **kwargs):
            got.update(fun=fun, jac=jac)
            raise _Captured

        monkeypatch.setattr(beam, "multistart_least_squares", capture)
        with pytest.raises(_Captured):
            fit_profile(scan, mode=mode)
        return got["fun"], got["jac"]

    @staticmethod
    def column_errors(fun, jac, theta):
        """Per column, |jac - central difference| / |central difference|."""
        theta = np.asarray(theta, dtype=float)
        fd = []
        for k in range(theta.size):
            step = np.zeros_like(theta)
            step[k] = 1e-6 * max(abs(theta[k]), 1e-6)
            fd.append((fun(theta + step) - fun(theta - step)) / (2 * step[k]))
        fd = np.column_stack(fd)
        return np.linalg.norm(jac(theta) - fd, axis=0) / np.linalg.norm(fd, axis=0)

    def noisy_scan(self):
        # criterion 9's seed 0, whose sample at 11 um is measured as 0: the
        # fit's rows include that sample's Re E and Im E
        scan = simulate_position_scan(SimConfig(seed=0, rabi_noise_frac=0.05), double_peak_model(), self.X.tolist())
        assert scan.rabi[20] == 0.0
        return scan

    @pytest.mark.parametrize("mode", list(POINTS))
    def test_matches_central_differences(self, monkeypatch, mode):
        fun, jac = self.solver_inputs(monkeypatch, self.noisy_scan(), mode)
        assert np.all(self.column_errors(fun, jac, self.POINTS[mode]) <= 1e-5)

    @pytest.mark.parametrize("signs", SIGNS[1:])
    def test_negative_separation_and_amplitude_enter_through_their_sign(self, monkeypatch, signs):
        fun, jac = self.solver_inputs(monkeypatch, self.noisy_scan(), "two-beamlet")
        theta = np.array(self.POINTS["two-beamlet"]) * signs
        assert np.all(self.column_errors(fun, jac, theta) <= 1e-5)

    def check_field(self, theta, mode):
        """beam._field is the fitted Rabi curve over rabi_scale, and its
        derivatives in the parameters mode fits are central differences."""
        full, model, scale = beam._unpack(theta, mode)
        re, im, d_re, d_im = beam._field(self.X, full)
        np.testing.assert_allclose(scale * np.hypot(re, im), rabi_profile(self.X, model, scale), rtol=1e-12)
        for k in beam._FREE[mode][:-1]:  # all but rabi_scale
            step = np.zeros_like(full)
            step[k] = 1e-6 * max(abs(full[k]), 1e-6)
            plus, minus = beam._field(self.X, full + step), beam._field(self.X, full - step)
            for part, exact in ((0, d_re), (1, d_im)):
                fd = (plus[part] - minus[part]) / (2 * step[k])
                assert np.linalg.norm(exact[:, k] - fd) <= 1e-5 * np.linalg.norm(fd), (part, k)

    @pytest.mark.parametrize("signs", SIGNS)
    def test_field_matches_central_differences(self, signs):
        self.check_field(np.array(self.POINTS["two-beamlet"]) * signs, "two-beamlet")

    def test_single_gaussian_field_matches_central_differences(self):
        # separation 0 and a = b = 0: E is the one Gaussian
        self.check_field(np.array(self.POINTS["single-gaussian"]), "single-gaussian")

    def test_row_at_a_field_zero_is_the_one_sided_slope(self, monkeypatch):
        # equal beamlets in antiphase (a = -1, b = 0), centred on a sample
        # measured nonzero: E = 0 there, and f = scale*|E| has a kink; each
        # entry is the forward-difference slope
        scan = RabiPositionScan(tuple(self.X), tuple(np.full(self.X.size, 1e5)))
        fun, jac = self.solver_inputs(monkeypatch, scan, "two-beamlet")
        theta = np.array([self.X[20], 1.8e-6, math.log(0.9e-6), -1.0, 0.0, 7e5])
        assert fun(theta)[20] == -1e5
        forward = []
        for k in range(theta.size):
            step = np.zeros_like(theta)
            step[k] = 1e-7 * max(abs(theta[k]), 1e-6)
            forward.append((fun(theta + step)[20] - fun(theta)[20]) / step[k])
        row = jac(theta)[20]
        np.testing.assert_allclose(row, forward, rtol=1e-4, atol=1e-4 * np.linalg.norm(row))


def _scipy_extrema(model):
    """The extrema that profile_extrema brackets on its grid, each found by
    scipy's bounded scalar minimiser run to 1e-14 m, far below the grid's
    cell: the peaks and the dip depth, and the grid's half-span."""
    from scipy.optimize import minimize_scalar

    span = 4.0 * model.waist + abs(model.beamlet_separation)
    xs = np.linspace(model.center - span, model.center + span, 4001)
    ys = profile_intensity(xs, model)
    i = np.arange(1, xs.size - 1)
    options = {"xatol": 1e-14}
    peaks = sorted(
        minimize_scalar(
            lambda u: -profile_intensity(u, model), bounds=(xs[k - 1], xs[k + 1]), method="bounded", options=options
        ).x
        for k in i[(ys[i] > ys[i - 1]) & (ys[i] >= ys[i + 1])]
    )
    if len(peaks) < 2:
        return peaks, 0.0, span
    dip = minimize_scalar(
        lambda u: profile_intensity(u, model), bounds=(peaks[0], peaks[-1]), method="bounded", options=options
    ).x
    i_peak = max(profile_intensity(peaks[0], model), profile_intensity(peaks[-1], model))
    return peaks, 1.0 - profile_intensity(dip, model) / i_peak, span


def test_extrema_match_scipy_bounded_minimiser():
    # criterion 9's truth and its 100 fitted models
    truth = double_peak_model()
    x = np.linspace(6e-6, 16e-6, 41)
    models = [truth] + [
        fit_profile(simulate_position_scan(SimConfig(seed=seed, rabi_noise_frac=0.05), truth, x.tolist()))[0]
        for seed in range(100)
    ]
    for model in models:
        peaks, dip_depth = profile_extrema(model)
        ref_peaks, ref_dip_depth, span = _scipy_extrema(model)
        assert len(peaks) == len(ref_peaks) == 2
        np.testing.assert_allclose(peaks, ref_peaks, rtol=0, atol=1e-6 * span)
        assert dip_depth == pytest.approx(ref_dip_depth, abs=1e-12)
