import gc
import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trapkit.cli
import trapkit.fitting
from conftest import cli_env
from trapkit.charging import DischargeModelParams, FrequencySeries, fit_charging, fit_discharge
from trapkit.cli import main
from trapkit.datasets import DatasetError, from_frequency_series, from_heating_series, load_dataset, write_dataset
from trapkit.simulate import SimConfig, simulate_charging_series, simulate_heating_series

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSimulateAndFit:
    def test_heating_pipeline(self, tmp_path, capsys):
        data = tmp_path / "heating.csv"
        code, out, _ = run(
            capsys, "simulate", "heating", "--out", str(data), "--seed", "3",
            "--points", "10",
        )
        assert code == 0
        assert "10 rows" in out
        code, out, _ = run(
            capsys, "fit-heating", "--input", str(data), "--out-dir", str(tmp_path)
        )
        assert code == 0
        report = json.loads(out)
        assert report["params"]["ndot"] == pytest.approx(780.0, rel=0.25)
        assert (tmp_path / "heating_heating_report.json").exists()
        assert (tmp_path / "heating_heating_table.csv").exists()
        saved = json.loads((tmp_path / "heating_heating_report.json").read_text())
        assert saved == report

    def test_charging_pipeline(self, tmp_path, capsys):
        data = tmp_path / "charging.csv"
        code, _, _ = run(
            capsys, "simulate", "charging", "--out", str(data), "--seed", "0",
            "--noise", "500", "--total", "2400", "--on-duration", "2000",
        )
        assert code == 0
        code, out, _ = run(
            capsys, "fit-charging", "--input", str(data), "--f0-mode", "baseline"
        )
        assert code == 0
        report = json.loads(out)
        assert report["params"]["T1"] == pytest.approx(21.0, rel=0.3)
        assert report["params"]["T2"] == pytest.approx(900.0, rel=0.3)
        assert report["provenance"]["input_file"] == "charging.csv"
        assert len(report["provenance"]["input_digest"]) == 64

    def test_discharge_pipeline(self, tmp_path, capsys):
        data = tmp_path / "c.csv"
        run(
            capsys, "simulate", "charging", "--out", str(data), "--seed", "1",
            "--noise", "200", "--total", "92400", "--interval", "120",
            "--on-duration", "2000",
        )
        code, out, _ = run(capsys, "fit-discharge", "--input", str(data))
        assert code == 0
        report = json.loads(out)
        assert report["params"]["T3"] == pytest.approx(360.0, rel=0.3)

    def test_discharge_with_an_unidentified_f0_below_zero(self, tmp_path, capsys):
        # seed 851's record is valid, but its discharge window cannot pin
        # down T4 (at the ceiling) nor, with f0 free, the level f0 it
        # relaxes to, which comes out below 0: the fit is reported, flagged,
        # not rejected
        data = tmp_path / "c.csv"
        run(capsys, "simulate", "charging", "--out", str(data), "--noise", "1000", "--seed", "851")
        code, out, err = run(capsys, "fit-discharge", "--input", str(data), "--f0-mode", "fit")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["params"]["f0"] < 0
        assert {"weakly-identified:f0", "time-constant-at-bound:T4"} <= set(report["flags"])
        with pytest.raises(ValueError, match="f0 must be positive"):
            DischargeModelParams(df3=1e3, df4=1e3, T3=360.0, T4=18000.0, t_off=2400.0, f0=report["params"]["f0"])

    def test_discharge_fixes_f0_to_the_pre_light_baseline_by_default(self, tmp_path, capsys):
        # with f0 free, seed 3's discharge window put f0 at 1.6 MHz and T4 at
        # the ceiling; the points before the light pin f0 at the truth
        data = tmp_path / "c.csv"
        run(capsys, "simulate", "charging", "--out", str(data), "--seed", "3")
        code, out, _ = run(capsys, "fit-discharge", "--input", str(data))
        assert (code, out) == run(capsys, "fit-discharge", "--input", str(data), "--f0-mode", "baseline")[:2]
        report = json.loads(out)
        assert report["extras"]["f0_fixed"] == 1.0
        assert report["params"]["f0"] == pytest.approx(5.329e6, abs=1e3)
        assert report["flags"] == ["weakly-identified:T4"]
        # fit-charging keeps fitting f0 by default
        code, out, _ = run(capsys, "fit-charging", "--input", str(data))
        assert (code, out) == run(capsys, "fit-charging", "--input", str(data), "--f0-mode", "fit")[:2]

    def test_discharge_stops_at_next_light_on(self, tmp_path, capsys):
        # a second light pulse from 4000 s shifts the frequency by +60 kHz;
        # the discharge fit must not run into it
        series = simulate_charging_series(SimConfig(seed=0), 15.0, (400.0, 2400.0), 5000.0)
        t = np.asarray(series.times)
        freqs = np.asarray(series.freqs) + np.where(t > 4000.0, 60e3, 0.0)
        two_pulses = FrequencySeries(
            series.times, tuple(freqs.tolist()), series.freq_errs, ((400.0, 2400.0), (4000.0, 5000.0))
        )
        data = tmp_path / "two_pulses.csv"
        write_dataset(data, from_frequency_series(two_pulses))
        code, out, _ = run(capsys, "fit-discharge", "--input", str(data))
        assert code == 0
        _, want = fit_discharge(two_pulses, 2400.0, t_end=4000.0)
        assert json.loads(out)["params"] == want.params
        code, out, _ = run(capsys, "fit-discharge", "--input", str(data), "--format", "table")
        assert code == 0
        times = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
        assert times == [x for x in series.times if 2400.0 <= x <= 4000.0]

    def test_charging_window_ends_with_its_interval(self, tmp_path, capsys):
        # --t-on names the second light pulse; its window ends at 5000 s,
        # not at the end of the first pulse
        series = simulate_charging_series(SimConfig(seed=0, noise_floor=1e3), 15.0, (400.0, 2400.0), 6000.0)
        two_pulses = FrequencySeries(
            series.times, series.freqs, series.freq_errs, ((400.0, 2400.0), (4000.0, 5000.0))
        )
        data = tmp_path / "two_pulses.csv"
        write_dataset(data, from_frequency_series(two_pulses))
        code, out, _ = run(capsys, "fit-charging", "--input", str(data), "--t-on", "4000")
        assert code == 0
        _, want = fit_charging(two_pulses, 4000.0, t_end=5000.0)
        assert json.loads(out)["params"] == want.params
        code, out, _ = run(capsys, "fit-charging", "--input", str(data), "--t-on", "4000", "--format", "table")
        assert code == 0
        times = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
        assert times == [x for x in series.times if 4000.0 <= x <= 5000.0]

    def test_position_pipeline(self, tmp_path, capsys):
        data = tmp_path / "scan.csv"
        run(
            capsys, "simulate", "position", "--out", str(data), "--seed", "2",
            "--points", "41",
        )
        code, out, _ = run(capsys, "beam-profile", "--input", str(data))
        assert code == 0
        report = json.loads(out)
        assert report["params"]["separation"] == pytest.approx(1.8e-6, rel=0.1)

    def test_table_format(self, tmp_path, capsys):
        data = tmp_path / "heating.csv"
        run(capsys, "simulate", "heating", "--out", str(data), "--seed", "3")
        code, out, _ = run(
            capsys, "fit-heating", "--input", str(data), "--format", "table"
        )
        assert code == 0
        assert out.splitlines()[0] == "time:s,nbar,model"


class TestFitRecord:
    """Each fit command emits its record's fit_record: the same report but
    for the input's provenance, and a table of its rows."""

    @pytest.mark.parametrize("simulate, argv, kind, module, options", [
        (("heating", "--seed", "3"), ["fit-heating"], "heating", "heating", {}),
        (
            ("charging", "--noise", "1000"), ["fit-charging", "--f0-mode", "baseline"], "charging", "charging",
            {"window": "charging", "f0_mode": "baseline"},
        ),
        (
            ("charging", "--noise", "1000"), ["fit-discharge", "--t-off", "2400"], "charging", "charging",
            {"window": "discharge", "edge": 2400.0},
        ),
        (
            ("position", "--points", "41"), ["beam-profile", "--mode", "single-gaussian"], "position-scan", "beam",
            {"mode": "single-gaussian"},
        ),
    ], ids=["fit-heating", "fit-charging", "fit-discharge", "beam-profile"])
    def test_cli_emits_the_fit_record(self, tmp_path, capsys, simulate, argv, kind, module, options):
        data = tmp_path / "data.csv"
        assert run(capsys, "simulate", *simulate, "--out", str(data))[0] == 0
        report, rows = importlib.import_module(f"trapkit.{module}").fit_record(load_dataset(data, kind), **options)
        code, out, _ = run(capsys, *argv, "--input", str(data))
        assert code == 0
        emitted = json.loads(out)
        assert emitted["provenance"]["input_file"] == "data.csv"
        assert {**emitted, "provenance": {}} == json.loads(report.to_json())
        code, out, _ = run(capsys, *argv, "--input", str(data), "--format", "table")
        assert code == 0
        assert out.splitlines()[1:] == [",".join(repr(float(v)) for v in row) for row in rows]

    @pytest.mark.parametrize("module, options", [
        ("heating", {}), ("charging", {"window": "charging"}), ("charging", {"window": "discharge"}), ("beam", {}),
    ], ids=["heating", "charging", "discharge", "beam"])
    def test_fit_record_of_the_wrong_kind(self, tmp_path, capsys, module, options):
        data = tmp_path / "sideband.csv"
        assert run(capsys, "simulate", "sideband", "--out", str(data))[0] == 0
        fit_record = importlib.import_module(f"trapkit.{module}").fit_record
        with pytest.raises(DatasetError, match="expected .* dataset, got 'sideband-scan'"):
            fit_record(load_dataset(data, "sideband-scan"), **options)


# normalize's flags by dest name: their defaults, and --rate 780 --rate-err 50 --freq 5.329e6
NORMALIZE_FLAGS = {
    "rate": 780.0, "rate_err": 50.0, "species": "Yb-171", "freq": 5.329e6, "ref_species": "Ca-40", "ref_freq": 1e6,
}


class TestDirectCommands:
    @pytest.mark.parametrize("argv, module, function, options", [
        (
            ["thermometry", "--p-red", "0.075", "--p-blue", "0.75", "--shots", "400"],
            "thermometry", "asymmetry_report", {"p_red": 0.075, "p_blue": 0.75, "shots": 400},
        ),
        (["thermometry", "--p-red", "0.075", "--p-blue", "0.75"], "thermometry", "asymmetry_report", {"p_red": 0.075, "p_blue": 0.75}),
        (["normalize", "--rate", "780", "--rate-err", "50", "--freq", "5.329e6"], "heating", "normalization_report", NORMALIZE_FLAGS),
        (
            ["normalize", "--rate", "780", "--rate-err", "50", "--freq", "5.329e6", "--species", "Ba-138", "--config", "cfg.json"],
            "heating", "normalization_report", {**NORMALIZE_FLAGS, "species": "Ba-138", "config": "cfg.json"},
        ),
    ], ids=["thermometry-shots", "thermometry-analytic", "normalize", "normalize-config"])
    def test_cli_emits_the_module_report(self, tmp_path, monkeypatch, capsys, argv, module, function, options):
        """thermometry and normalize print their module's report, stamped
        with the toolkit's provenance alone."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"species": {"Ba-138": {"mass_u": 137.905}}}))
        report = getattr(importlib.import_module(f"trapkit.{module}"), function)(**options)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        emitted = json.loads(out)
        assert emitted["provenance"] == {"toolkit_version": trapkit.__version__}
        assert {**emitted, "provenance": {}} == json.loads(report.to_json())

    def test_thermometry_worked_example(self, capsys):
        code, out, _ = run(
            capsys, "thermometry", "--p-red", "0.075", "--p-blue", "0.75",
            "--shots", "400",
        )
        assert code == 0
        report = json.loads(out)
        assert report["params"]["nbar"] == pytest.approx(1.0 / 9.0, rel=1e-9)
        assert report["param_errs"]["nbar"] > 0

    def test_normalize(self, capsys):
        code, out, _ = run(
            capsys, "normalize", "--rate", "780", "--freq", "5.329e6",
        )
        assert code == 0
        report = json.loads(out)
        want = 780.0 * (170.936 / 39.963) * 5.329**2
        assert report["params"]["ndot_normalized"] == pytest.approx(want, rel=1e-9)

    def test_report_round_trip(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "thermometry", "--p-red", "0.1", "--p-blue", "0.5",
        )
        p = tmp_path / "r.json"
        p.write_text(out)
        code, out2, _ = run(capsys, "report", "--input", str(p))
        assert code == 0
        assert out2 == out

    def test_config_species_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"species": {"Ba-138": {"mass_u": 137.905}}}))
        code, out, _ = run(
            capsys, "normalize", "--rate", "100", "--freq", "1e6",
            "--species", "Ba-138", "--ref-species", "Ba-138",
            "--ref-freq", "1e6", "--config", str(cfg),
        )
        assert code == 0
        assert json.loads(out)["params"]["ndot_normalized"] == pytest.approx(100.0)

    def test_report_with_a_byte_order_mark(self, tmp_path, capsys):
        # an editor may save UTF-8 with a leading byte-order mark
        _, out, _ = run(capsys, "thermometry", "--p-red", "0.075", "--p-blue", "0.75")
        p = tmp_path / "r.json"
        p.write_bytes(b"\xef\xbb\xbf" + out.encode("utf-8"))
        assert run(capsys, "report", "--input", str(p)) == (0, out, "")

    def test_config_with_a_byte_order_mark(self, tmp_path, capsys):
        argv = ["normalize", "--rate", "100", "--freq", "1e6", "--species", "Ba-138", "--ref-species", "Ba-138"]
        text = json.dumps({"species": {"Ba-138": {"mass_u": 137.905}}})
        plain, bom = tmp_path / "cfg.json", tmp_path / "cfg_bom.json"
        plain.write_text(text, encoding="utf-8")
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        want = run(capsys, *argv, "--config", str(plain))
        assert want[0] == 0
        assert run(capsys, *argv, "--config", str(bom)) == want


class TestReportedErrors:
    """Every reported uncertainty comes from a computed covariance: none is
    a placeholder 0 or non-finite."""

    @pytest.mark.parametrize(
        "simulate, command",
        [
            (("heating", "--seed", "3", "--points", "10"), "fit-heating"),
            (("charging", "--seed", "0", "--noise", "500", "--total", "2400"), "fit-charging"),
            (
                ("charging", "--seed", "1", "--noise", "200", "--total", "92400", "--interval", "120"),
                "fit-discharge",
            ),
            (("position", "--seed", "2", "--points", "41"), "beam-profile"),
        ],
    )
    def test_fit_errors_positive(self, tmp_path, capsys, simulate, command):
        path = tmp_path / "data.csv"
        code, _, _ = run(capsys, "simulate", *simulate, "--out", str(path))
        assert code == 0
        code, out, _ = run(capsys, command, "--input", str(path))
        assert code == 0
        report = json.loads(out)
        fixed = {"f0"} if report["extras"].get("f0_fixed") == 1 else set()
        assert set(report["param_errs"]) == set(report["params"])
        for name, err in report["param_errs"].items():
            if name not in fixed:
                assert math.isfinite(err) and err > 0, (name, err)

    def test_normalize_errors_scale_with_rate_err(self, capsys):
        # normalize_rate and spectral_density_from_rate are linear in the
        # rate, so the errors are those formulas applied to --rate-err
        code, out, _ = run(
            capsys, "normalize", "--rate", "0", "--rate-err", "50", "--freq", "5.329e6",
        )
        assert code == 0
        errs = json.loads(out)["param_errs"]
        assert errs == {
            "ndot_normalized": 6073.470114325753,
            "spectral_density": 7.80896708138876e-12,
        }


def test_flagless_simulate_is_the_simulator_at_sim_config(tmp_path, capsys):
    # SimConfig() and the parser's cadence defaults: 7 waits over 2 ms, and
    # 15 s samples to 5000 s with the light on from 400 s for 2000 s
    cfg = SimConfig()
    records = {
        "heating": from_heating_series(simulate_heating_series(cfg, np.linspace(0.0, 2e-3, 7).tolist())),
        "charging": from_frequency_series(simulate_charging_series(cfg, 15.0, (400.0, 2400.0), 5000.0)),
    }
    for kind, ds in records.items():
        ds.metadata["seed"] = "0"
        write_dataset(tmp_path / f"{kind}_lib.csv", ds)
        assert run(capsys, "simulate", kind, "--out", str(tmp_path / f"{kind}_cli.csv"))[0] == 0
        assert (tmp_path / f"{kind}_cli.csv").read_bytes() == (tmp_path / f"{kind}_lib.csv").read_bytes()


class TestDeterminism:
    def test_byte_identical_runs(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(capsys, "simulate", "heating", "--out", str(a), "--seed", "7")
        run(capsys, "simulate", "heating", "--out", str(b), "--seed", "7")
        assert a.read_bytes() == b.read_bytes()
        _, out1, _ = run(capsys, "fit-heating", "--input", str(a))
        _, out2, _ = run(capsys, "fit-heating", "--input", str(b))
        # reports identical except for the input file name
        assert out1.replace("a.csv", "b.csv") == out2


class TestExitCodes:
    def test_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time:s,nbar\n0.0,0.1\n2.0,0.2\n1.0,0.3\n")
        code, _, err = run(capsys, "fit-heating", "--input", str(bad))
        assert code == 2
        assert json.loads(err)["error"] == "validation"

    def test_non_finite_input(self, tmp_path, capsys):
        bad = tmp_path / "nan.csv"
        bad.write_text("time:s,nbar\n0.0,0.1\n1.0,nan\n2.0,0.3\n3.0,0.4\n")
        code, out, err = run(capsys, "fit-heating", "--input", str(bad))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "validation"

    @pytest.mark.parametrize("header", ["time:s,nbar,nbar", "time:s,nbar,time:ms"])
    def test_repeated_column(self, tmp_path, capsys, header):
        bad = tmp_path / "dup.csv"
        bad.write_text(f"{header}\n0.0,0.1,0.2\n1.0,0.9,0.8\n2.0,1.7,1.6\n3.0,2.5,2.4\n")
        code, out, err = run(capsys, "fit-heating", "--input", str(bad))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "validation"
        assert "repeats column" in json.loads(err)["detail"]

    def test_kind_line_names_another_kind(self, tmp_path, capsys):
        data = tmp_path / "heating.csv"
        assert run(capsys, "simulate", "heating", "--out", str(data), "--seed", "3")[0] == 0
        data.write_text(data.read_text(encoding="utf-8").replace("# kind: heating", "# kind: charging"), encoding="utf-8")
        code, out, err = run(capsys, "fit-heating", "--input", str(data))
        assert (code, out) == (2, "")
        detail = json.loads(err)["detail"]
        assert "'charging'" in detail and "'heating'" in detail

    def test_io_error_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "fit-heating", "--input", str(tmp_path / "nope.csv"))
        assert code in (2, 4)
        assert "error" in json.loads(err)

    def test_thermometry_saturated_input(self, capsys):
        code, _, err = run(capsys, "thermometry", "--p-red", "0.6", "--p-blue", "0.5")
        assert code == 2
        assert json.loads(err)["error"] == "validation"

    @pytest.mark.parametrize(
        "config",
        [{"species": {"Ba-138": {"charge_e": 1}}}, [{"species": {}}]],
        ids=["species-without-mass", "top-level-array"],
    )
    def test_malformed_config(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(
            capsys, "normalize", "--rate", "100", "--freq", "1e6", "--config", str(cfg),
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "validation"
        assert "cfg.json" in json.loads(err)["detail"]

    @pytest.mark.parametrize("key", ["mass_u", "charge_e"])
    @pytest.mark.parametrize("value", [[137.9], None, {"u": 137.9}], ids=["list", "null", "object"])
    def test_config_entry_that_is_not_a_number(self, tmp_path, capsys, key, value):
        # a species whose mass or charge is not a JSON number is refused by
        # name, not converted with a traceback
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"species": {"Ba-138": {"mass_u": 137.905, "charge_e": 1, key: value}}}))
        code, out, err = run(
            capsys, "normalize", "--rate", "100", "--freq", "1e6", "--species", "Ba-138", "--config", str(cfg),
        )
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "validation",
            "detail": f"config {cfg}: species 'Ba-138': its {key!r} entry must be a number, not {json.dumps(value)}",
        }

    @pytest.mark.parametrize("command", ["fit-charging", "fit-discharge"])
    def test_fit_that_converges_from_no_start(self, tmp_path, capsys, monkeypatch, command):
        # exit 3: nothing on stdout, and on stderr one JSON line with the
        # best prescreened cost; every start is made to fail, as no
        # mutated record in tools/fuzz_inputs.py makes one fail
        data = tmp_path / "charging.csv"
        assert run(capsys, "simulate", "charging", "--out", str(data), "--seed", "3")[0] == 0

        def fails(*args, **kwargs):
            raise ValueError("the start fails")

        monkeypatch.setattr(trapkit.fitting, "least_squares", fails)
        code, out, err = run(capsys, command, "--input", str(data))
        assert (code, out) == (3, "")
        record = json.loads(err)
        assert record["error"] == "fit-non-convergence" and record["best_cost"] > 0
        assert err.count("\n") == 1

    def test_config_entry_with_an_unknown_key(self, tmp_path, capsys):
        # a charge spelt "charge" would otherwise leave charge_e at 1 and S_E
        # 4x off: the species and the key are named
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"species": {"Ca-40": {"mass_u": 39.96, "charge": 2}}}))
        code, out, err = run(
            capsys, "normalize", "--rate", "100", "--freq", "1e6", "--species", "Ca-40", "--config", str(cfg),
        )
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "validation",
            "detail": f"config {cfg}: species 'Ca-40': unknown entry 'charge'; expected 'mass_u' and 'charge_e'",
        }

    @pytest.mark.parametrize("command, flag", [("fit-charging", "--t-on"), ("fit-discharge", "--t-off")])
    def test_no_edge_flag_and_no_light_on_metadata(self, tmp_path, capsys, command, flag):
        # with neither, the command has no window to fit and names the flag that sets one
        data = tmp_path / "dark.csv"
        data.write_text("time:s,freq:Hz\n" + "".join(f"{15.0 * i},5329000.0\n" for i in range(12)))
        code, out, err = run(capsys, command, "--input", str(data))
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "validation", "detail": f"no {flag} flag and no light_on metadata in the input",
        }

    @pytest.mark.parametrize("edge", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command, flag", [("fit-charging", "--t-on"), ("fit-discharge", "--t-off")])
    def test_non_finite_window_edge(self, tmp_path, capsys, command, flag, edge):
        # a bisection at NaN would take the whole record, and a window from
        # -inf has infinite times since its start: neither may be fitted
        data = tmp_path / "charging.csv"
        assert run(capsys, "simulate", "charging", "--out", str(data), "--seed", "3")[0] == 0
        code, out, err = run(capsys, command, "--input", str(data), f"{flag}={edge}")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "validation"
        assert json.loads(err)["detail"].startswith(f"a window must start at a finite time and end at a number, not [{edge}, ")

    @pytest.mark.parametrize("flag", ["--species", "--ref-species"])
    @pytest.mark.parametrize("entry, quantity", [
        ({"mass_u": math.nan}, "mass"),
        ({"mass_u": math.inf}, "mass"),
        ({"mass_u": 137.905, "charge_e": math.nan}, "charge"),
        ({"mass_u": 137.905, "charge_e": math.inf}, "charge"),
    ], ids=["mass-nan", "mass-inf", "charge-nan", "charge-inf"])
    def test_normalize_non_finite_species(self, tmp_path, capsys, flag, entry, quantity):
        # the config's JSON may spell NaN and Infinity; such a species is
        # rejected where it is built, not reported as a rate of 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"species": {"Ba-138": entry}}))
        code, out, err = run(
            capsys, "normalize", "--rate", "780", "--freq", "5.329e6", "--config", str(cfg), flag, "Ba-138",
        )
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "validation"
        assert json.loads(err)["detail"].startswith(f"{quantity} must be")

    @pytest.mark.parametrize("flag, value, quantity", [
        ("--ref-freq", "inf", "ref_freq"),
        ("--ref-freq", "nan", "ref_freq"),
        ("--rate", "nan", "ndot"),
        ("--rate", "inf", "ndot"),
        ("--rate-err", "nan", "ndot_err"),
        ("--rate-err", "inf", "ndot_err"),
    ])
    def test_normalize_non_finite_input(self, capsys, flag, value, quantity):
        # rejected where the quantity is checked, not by the JSON encoder,
        # and never reported as a number; a repeated flag's last value holds
        code, out, err = run(capsys, "normalize", "--rate", "780", "--freq", "5.329e6", flag, value)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "validation"
        assert json.loads(err)["detail"].startswith(f"{quantity} must be")

    def test_report_of_non_report_json(self, tmp_path, capsys):
        bad = tmp_path / "not_a_report.json"
        bad.write_text(json.dumps({"params": {"nbar": 0.1}, "flags": []}))
        code, out, err = run(capsys, "report", "--input", str(bad))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "validation"
        assert "'model'" in json.loads(err)["detail"]
        # every key present, one value of the wrong type: (changes, key named)
        valid = {"model": "m", "params": {"a": 1.0}, "param_errs": {"a": 0.1},
                 "residual_rms": 0.5, "n_points": 3, "flags": []}
        cases = [
            ({"params": 5}, "'params'"),
            ({"params": {"a": "b"}, "residual_rms": "NaN"}, "'params'"),
            ({"params": {"a": True}}, "'params'"),
            ({"param_errs": {"a": float("nan")}}, "'param_errs'"),
            ({"extras": {"x": None}}, "'extras'"),
            ({"provenance": {"seed": 3}}, "'provenance'"),
            ({"model": 5}, "'model'"),
            ({"residual_rms": "NaN"}, "'residual_rms'"),
            ({"n_points": -1}, "'n_points'"),
            ({"n_points": 2.5}, "'n_points'"),
            ({"flags": "none"}, "'flags'"),
            ({"flags": [1]}, "'flags'"),
        ]
        for changes, key in cases:
            bad.write_text(json.dumps({**valid, **changes}))
            code, out, err = run(capsys, "report", "--input", str(bad))
            assert (code, out) == (2, ""), changes
            assert json.loads(err)["error"] == "validation"
            assert key in json.loads(err)["detail"], changes

    @pytest.mark.parametrize(
        "kind, points",
        [("heating", "0"), ("heating", "1"), ("sideband", "0"), ("position", "1")],
    )
    def test_simulate_too_few_points(self, tmp_path, capsys, kind, points):
        data = tmp_path / "sim.csv"
        code, out, err = run(capsys, "simulate", kind, "--out", str(data), "--points", points)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "validation"
        assert "--points" in json.loads(err)["detail"]
        assert not data.exists()

    def test_simulate_heating_zero_span(self, tmp_path, capfd):
        # capfd, not capsys: LAPACK would write its complaint below sys.stdout
        data = tmp_path / "sim.csv"
        code = main(["simulate", "heating", "--out", str(data), "--span", "0"])
        out, err = capfd.readouterr()
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "validation"
        assert "--span" in json.loads(err)["detail"]
        assert not data.exists()

    @pytest.mark.parametrize("shots", ["1", "2"])
    def test_simulate_heating_at_too_few_shots_names_the_point(self, tmp_path, capsys, shots):
        # one or two shots per point leave a scan with no thermal sideband
        # ratio; the message names the wait, its time and the shot count
        data = tmp_path / "sim.csv"
        code, out, err = run(capsys, "simulate", "heating", "--out", str(data), "--shots", shots, "--seed", "0")
        assert (code, out) == (2, "")
        detail = json.loads(err)["detail"]
        assert detail.startswith("wait 1 (t = 0.000333333 s), ")
        assert f" {shots} shots per point (--shots): " in detail
        assert "sideband ratio" in detail
        assert not data.exists()

    def test_simulate_sideband_zero_span(self, tmp_path, capsys):
        # a zero span would write every row at wait 0
        data = tmp_path / "sim.csv"
        code, out, err = run(capsys, "simulate", "sideband", "--out", str(data), "--span", "0", "--points", "4")
        assert (code, out) == (2, "")
        assert "--span" in json.loads(err)["detail"]
        assert not data.exists()

    @pytest.mark.parametrize("mode", ["two-beamlet", "single-gaussian"])
    def test_beam_profile_of_an_all_zero_scan(self, tmp_path, capsys, mode):
        # no sample carries a Rabi frequency: there is no profile to fit,
        # though every parameter set with rabi_scale 0 fits it exactly
        scan = tmp_path / "zero.csv"
        scan.write_text("# origin: grating\npos:um,rabi:Hz\n" + "".join(f"{i}.0,0.0\n" for i in range(11)))
        code, out, err = run(capsys, "beam-profile", "--input", str(scan), "--mode", mode)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "validation"

    def test_fit_heating_with_an_overflowing_wait_time(self, tmp_path, capsys):
        # a subprocess: the weighted line overflowed inside LAPACK, which
        # wrote its complaint to fd 1, below sys.stdout
        data = tmp_path / "heating.csv"
        assert run(capsys, "simulate", "heating", "--out", str(data), "--seed", "3")[0] == 0
        lines = data.read_text().splitlines()
        lines[-1] = "1e308," + lines[-1].split(",", 1)[1]
        data.write_text("\n".join(lines) + "\n")
        env = cli_env()
        proc = subprocess.run(
            [sys.executable, "-m", "trapkit.cli", "fit-heating", "--input", str(data)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stderr)["error"] == "validation"

    def test_fit_heating_with_an_overflowing_residual(self, tmp_path, capsys):
        # nbar times 1e300 with its errors unchanged: the line fits, but a
        # residual's square overflowed into an OverflowError, exit 1
        data = tmp_path / "heating.csv"
        assert run(capsys, "simulate", "heating", "--out", str(data), "--seed", "3")[0] == 0
        ds = load_dataset(data, "heating")
        ds.columns["nbar"] = tuple(1e300 * v for v in ds.columns["nbar"])
        write_dataset(data, ds)
        code, out, err = run(capsys, "fit-heating", "--input", str(data))
        assert (code, out) == (2, "")
        assert "overflow" in json.loads(err)["detail"]

    @pytest.mark.parametrize("mode", ["two-beamlet", "single-gaussian"])
    def test_beam_profile_of_positions_whose_squares_overflow(self, tmp_path, capsys, mode):
        # the default scan's positions times 1e300 raised OverflowError in
        # the model, at the seed waist's square
        data = tmp_path / "scan.csv"
        assert run(capsys, "simulate", "position", "--out", str(data), "--seed", "3")[0] == 0
        ds = load_dataset(data, "position-scan")
        ds.columns["pos"] = tuple(1e300 * x for x in ds.columns["pos"])
        write_dataset(data, ds)
        code, out, err = run(capsys, "beam-profile", "--input", str(data), "--mode", mode)
        assert (code, out) == (2, "")
        assert "overflows" in json.loads(err)["detail"]

    @pytest.mark.parametrize("column, scale, quantity", [
        ("rabi", None, "sum of its squared weighted Rabi frequencies overflows"),
        ("rabi", 1e300, "sum of its squared weighted Rabi frequencies overflows"),
        ("err", 1e-300, "sum of its squared weighted Rabi frequencies overflows"),
        ("pos", 1e-300, "square of its positions' span, 1e-305 m, underflows"),
    ], ids=["rabi-1e308", "rabi-times-1e300", "errors-times-1e-300", "positions-times-1e-300"])
    def test_beam_profile_out_of_range_scan(self, tmp_path, capsys, column, scale, quantity):
        # a fit that fails because a quantity leaves a float's range exits
        # 2 and names the quantity, as a charging window's does; None sets
        # one Rabi frequency to 1e308
        data = tmp_path / "scan.csv"
        assert run(capsys, "simulate", "position", "--out", str(data), "--seed", "3", "--points", "41")[0] == 0
        ds = load_dataset(data, "position-scan")
        values = ds.columns[column]
        ds.columns[column] = (*values[:20], 1e308, *values[21:]) if scale is None else tuple(scale * v for v in values)
        write_dataset(data, ds)
        code, out, err = run(capsys, "beam-profile", "--input", str(data))
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "validation", "detail": f"the position scan: the {quantity}"}

    @pytest.mark.parametrize("argv", [
        ["simulate", "heating", "--out", "h.csv", "--format", "table"],
        ["thermometry", "--p-red", "0.075", "--p-blue", "0.75", "--out-dir", "x"],
        ["fit-heating", "--input", "h.csv", "--config", "c.json"],
        ["report", "--input", "r.json", "--seed", "1"],
        ["simulate", "position", "--out", "p.csv", "--noise", "5"],
        ["simulate", "charging", "--out", "c.csv", "--points", "4"],
        ["simulate", "heating", "--out", "h.csv", "--separation", "2"],
        ["simulate", "sideband", "--out", "s.csv", "--interval", "30"],
        ["fit-charging", "--input", "c.csv", "--t-off", "1"],
        ["fit-discharge", "--input", "c.csv", "--t-on", "1"],
        ["fit-heating", "--input", "h.csv", "--seed", "3"],
        ["fit-charging", "--input", "c.csv", "--seed", "3"],
        ["fit-discharge", "--input", "c.csv", "--seed", "3"],
        ["beam-profile", "--input", "p.csv", "--seed", "3"],
        ["thermometry", "--p-red", "0.075", "--p-blue", "0.75", "--seed", "3"],
        ["normalize", "--rate", "780", "--freq", "5.329e6", "--seed", "3"],
        ["normalize", "--rate", "780", "--freq", "5.329e6", "--distance", "5"],
    ], ids=[
        "simulate", "thermometry", "fit-heating", "report",
        "simulate-position", "simulate-charging", "simulate-heating", "simulate-sideband",
        "fit-charging", "fit-discharge",
        *(f"{command}-seed" for command in ("fit-heating", "fit-charging", "fit-discharge", "beam-profile",
                                            "thermometry", "normalize")),
        "normalize-distance",  # no report reads the ion-surface distance
    ])
    def test_flag_the_subcommand_does_not_read(self, tmp_path, capsys, monkeypatch, argv):
        # each subcommand, and each simulated kind, takes only the flags it reads
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert (exc.value.code, out.out) == (2, "")
        assert "unrecognized arguments" in out.err
        assert not any(tmp_path.iterdir())


class TestImportCost:
    def test_cli_import_loads_no_scipy(self):
        # scipy is imported inside the functions that call it; a top-level
        # import would add ~1 s to every CLI call, fitting or not
        env = cli_env()
        code = "import sys, trapkit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("fit_argv", [
        ["fit-charging", "--f0-mode", "fit"],
        ["fit-charging", "--f0-mode", "baseline"],
        ["fit-discharge"],
        ["beam-profile", "--mode", "two-beamlet"],
        ["beam-profile", "--mode", "single-gaussian"],
    ], ids=lambda argv: "-".join(argv))
    def test_fit_commands_load_no_scipy(self, tmp_path, capsys, fit_argv):
        """Every fit has an analytic Jacobian and runs on a numpy solver,
        and profile_extrema refines the peaks in numpy, so no fit command
        loads a scipy module; importing scipy.optimize would be most of
        their wall time."""
        simulate = ["position"] if fit_argv[0] == "beam-profile" else ["charging", "--noise", "1000"]
        data = tmp_path / "data.csv"
        code, _, _ = run(capsys, "simulate", *simulate, "--out", str(data), "--seed", "3")
        assert code == 0
        env = cli_env()
        argv = [*fit_argv, "--input", str(data), "--out-dir", str(tmp_path)]
        script = (
            "import sys; from trapkit.cli import main; "
            f"assert main({argv!r}) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"  # after the report

    def test_least_squares_is_a_module_attribute(self):
        # tracers wrap the optimizer by replacing this module attribute
        assert callable(trapkit.fitting.least_squares)

    @staticmethod
    def modules_after(argv, cwd):
        """Run the CLI on argv in a fresh interpreter; return its exit code,
        stdout and the numpy and trapkit modules it had loaded at exit."""
        env = cli_env()
        script = (
            "import json, sys\n"
            "from trapkit.cli import main\n"
            "try:\n    code = main(sys.argv[1:])\n"
            "except SystemExit as exc:\n    code = exc.code\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'trapkit'))\n"
            "print(json.dumps([code, loaded]), file=sys.stderr)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr  # the script reports the CLI's exit code itself
        code, loaded = json.loads(proc.stderr.splitlines()[-1])
        return code, proc.stdout, set(loaded)

    # rejected inputs: (subcommand arguments, file text); each breaks one rule of the loader
    REJECTED = {
        "bad-unit": (["fit-charging"], "# light_on: 0.0,30.0\ntime:s,freq:GHz\n0.0,5.3\n10.0,5.4\n"),
        "ragged-row": (["beam-profile"], "# origin: grating\npos:um,rabi:Hz\n6.0,1.0\n6.5,2.0,0.0\n"),
        "non-monotone": (["fit-heating"], "time:s,nbar\n0.0,0.1\n2e-3,1.7\n1e-3,0.9\n"),
        "nan-value": (["fit-heating"], "time:s,nbar\n0.0,0.1\n1e-3,nan\n2e-3,1.7\n"),
    }

    @pytest.mark.parametrize("case", ["version", "thermometry", "report", *REJECTED])
    def test_commands_that_compute_nothing_load_no_numpy(self, tmp_path, case):
        """numpy start-up is most of a short CLI call; a call that reprints a
        report, estimates nbar from one pair or rejects its input needs none,
        and one that reads no record needs no dataset code either."""
        (tmp_path / "r.json").write_text(
            trapkit.fitting.FitReport("m", {"a": 1.0}, {"a": 0.5}, 0.1, 3, ["f"]).to_json()
        )
        argv, want_code = {
            "version": (["--version"], 0),
            "thermometry": (["thermometry", "--p-red", "0.075", "--p-blue", "0.75", "--shots", "400"], 0),
            "report": (["report", "--input", "r.json"], 0),
        }.get(case, (None, 2))
        if argv is None:
            sub, text = self.REJECTED[case]
            (tmp_path / "bad.csv").write_text(text)
            argv = [*sub, "--input", "bad.csv"]
        code, out, loaded = self.modules_after(argv, tmp_path)
        assert code == want_code
        assert (out == "") == (code == 2)
        assert not any(m.split(".")[0] == "numpy" for m in loaded), sorted(loaded)
        assert ("trapkit.datasets" in loaded) == (case in self.REJECTED), sorted(loaded)

    @pytest.mark.parametrize("fmt", ["report", "table"])
    def test_fit_heating_loads_no_numpy(self, tmp_path, capsys, fmt):
        """A heating record's fit is a weighted line through a few points,
        in plain floats: numpy start-up would be most of the call."""
        code, _, _ = run(capsys, "simulate", "heating", "--out", str(tmp_path / "h.csv"), "--seed", "3")
        assert code == 0
        code, out, loaded = self.modules_after(["fit-heating", "--input", "h.csv", "--format", fmt, "--out-dir", "out"], tmp_path)
        assert code == 0 and out == (tmp_path / f"out/h_heating_{fmt}.{'json' if fmt == 'report' else 'csv'}").read_text()
        assert not any(m.split(".")[0] == "numpy" for m in loaded), sorted(loaded)

    @pytest.mark.parametrize("fit_argv, unused", [
        (["fit-charging", "--f0-mode", "baseline"], {"trapkit.beam", "trapkit.simulate"}),
        (["fit-discharge"], {"trapkit.beam", "trapkit.simulate"}),
        (["beam-profile", "--mode", "two-beamlet"], {"trapkit.charging", "trapkit.simulate"}),
    ], ids=["fit-charging", "fit-discharge", "beam-profile"])
    def test_fit_commands_load_only_their_domain(self, tmp_path, capsys, fit_argv, unused):
        simulate = ["position", "--points", "41"] if fit_argv[0] == "beam-profile" else ["charging", "--noise", "1000"]
        code, _, _ = run(capsys, "simulate", *simulate, "--out", str(tmp_path / "data.csv"), "--seed", "3")
        assert code == 0
        code, out, loaded = self.modules_after([*fit_argv, "--input", "data.csv"], tmp_path)
        assert code == 0 and json.loads(out)["params"]
        assert loaded & unused == set()

    def test_normalize_loads_datasets_only_for_a_config(self, tmp_path):
        # the species table is units'; only a config file needs the reader
        argv = ["normalize", "--rate", "780", "--freq", "5.329e6"]
        code, out, loaded = self.modules_after(argv, tmp_path)
        assert code == 0 and json.loads(out)["params"]
        assert "trapkit.datasets" not in loaded, sorted(loaded)
        (tmp_path / "cfg.json").write_text(json.dumps({"species": {"Ba-138": {"mass_u": 137.905}}}))
        argv += ["--species", "Ba-138", "--ref-freq", "5.329e6", "--config", "cfg.json"]
        code, out, loaded = self.modules_after(argv, tmp_path)
        assert code == 0 and "trapkit.datasets" in loaded
        assert json.loads(out)["params"]["ndot_normalized"] == pytest.approx(780.0 * 137.905 / 39.963, rel=1e-3)

    @pytest.mark.parametrize("kind, unused", [
        ("heating", {"trapkit.charging", "trapkit.fitting", "trapkit.beam"}),
        ("sideband", {"trapkit.charging", "trapkit.fitting", "trapkit.beam"}),
        ("charging", {"trapkit.beam", "trapkit.heating", "trapkit.thermometry"}),
        ("position", {"trapkit.charging", "trapkit.heating", "trapkit.thermometry"}),
    ])
    def test_simulate_loads_only_its_kind(self, tmp_path, kind, unused):
        # each simulator imports its own domain module, and SimConfig builds
        # the simulated trap's values only when a simulator reads them
        code, out, loaded = self.modules_after(["simulate", kind, "--out", "data.csv", "--seed", "3"], tmp_path)
        assert code == 0 and out.startswith("wrote data.csv")
        assert "trapkit.simulate" in loaded and loaded & unused == set()


class TestEntryPath:
    """`python -m trapkit.cli` and the `trapkit` script run main through
    trapkit.cli.run, which freezes the collector before the process exits;
    main itself leaves it alone, for callers in-process."""

    @pytest.mark.parametrize("case", ["table", "rejected", "missing-report"])
    def test_module_run_prints_and_returns_what_main_does(self, tmp_path, capsys, monkeypatch, case):
        monkeypatch.chdir(tmp_path)
        if case == "table":
            assert run(capsys, "simulate", "charging", "--out", "c.csv", "--seed", "3")[0] == 0
        (tmp_path / "bad.csv").write_text(TestImportCost.REJECTED["bad-unit"][1])
        argv, want = {
            "table": (["fit-charging", "--format", "table", "--input", "c.csv"], (0, None)),
            "rejected": (["fit-charging", "--input", "bad.csv"], (2, "validation")),
            "missing-report": (["report", "--input", "missing.json"], (4, "io")),
        }[case]
        code, out, err = run(capsys, *argv)
        assert (code, json.loads(err)["error"] if code else None) == want
        assert (out == "") == (code != 0)
        env = cli_env()
        proc = subprocess.run(
            [sys.executable, "-m", "trapkit.cli", *argv], cwd=tmp_path, env=env, capture_output=True, timeout=60
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())

    def test_only_run_freezes_the_collector(self, capsys, monkeypatch):
        argv = ["thermometry", "--p-red", "0.075", "--p-blue", "0.75"]
        assert gc.get_freeze_count() == 0
        assert run(capsys, *argv)[0] == 0
        assert gc.get_freeze_count() == 0
        monkeypatch.setattr(sys, "argv", ["trapkit", *argv])
        try:
            with pytest.raises(SystemExit) as exc:
                trapkit.cli.run()
            assert exc.value.code == 0 and gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
        assert json.loads(capsys.readouterr().out)["params"]["nbar"] == pytest.approx(1.0 / 9.0)

    def test_console_script_is_run(self):
        # the installed script and `python -m trapkit.cli` take one path
        pyproject = (ROOT / "pyproject.toml").read_text()
        assert 'trapkit = "trapkit.cli:run"' in pyproject.splitlines()


# every name `from trapkit import *` offered when the package imported its
# submodules eagerly, less the functions since deleted for want of a caller
PACKAGE_EXPORTS = (
    "ChargingModelParams", "DischargeModelParams", "DutyCycle", "FitConvergenceError", "FitReport",
    "FrequencySeries", "GratingOutputModel", "HeatingRateResult", "HeatingSeries", "IonSpecies", "PowerLawFit",
    "RabiParams", "RabiPositionScan", "SidebandObservation", "SimConfig", "ThermalMotionalState", "TrapContext",
    "UnknownSpeciesError", "charging_freq", "compensation_field", "db_chain", "discharge_freq",
    "fit_charging", "fit_discharge", "fit_heating_rate", "fit_power_law", "fit_profile",
    "make_trap_context", "nbar_from_asymmetry", "nbar_with_uncertainty", "normalize_rate",
    "pi_time_to_rabi", "position_scan_summary", "rate_from_spectral_density",
    "settled_offset", "settled_stability", "sideband_excitation",
    "simulate_charging_series", "simulate_heating_series", "simulate_position_scan", "simulate_sideband_scan",
    "spectral_density_from_rate",
)


def test_package_exports_every_name_it_did():
    for name in PACKAGE_EXPORTS:
        value = getattr(importlib.import_module("trapkit"), name)
        assert value.__name__ == name
        assert name in dir(trapkit)
    for module in ("units", "thermometry", "heating", "charging", "beam", "simulate", "fitting"):
        assert getattr(trapkit, module) is importlib.import_module(f"trapkit.{module}")
    namespace = {}
    exec("from trapkit import *", namespace)
    assert set(PACKAGE_EXPORTS) <= set(namespace)


def _tracer_targets():
    """Every module attribute the benchmark tracer replaces, besides
    trapkit.fitting.least_squares."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        from tracing import SPANNED
    finally:
        sys.path.remove(str(PERFBENCH))
    return [
        *SPANNED,
        ("trapkit.charging", "multistart_least_squares"),
        ("trapkit.beam", "multistart_least_squares"),
        ("trapkit.datasets", "write_dataset"),
    ]


@pytest.mark.parametrize("module, attr", _tracer_targets(), ids=lambda v: v)
def test_tracer_target_is_a_module_attribute(module, attr):
    # a traced run replaces these names; one that moved or was renamed
    # would break the benchmark's traced pass
    assert callable(getattr(importlib.import_module(module), attr))
