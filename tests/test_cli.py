import json

import pytest

from trapkit.cli import main


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


class TestDirectCommands:
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

    def test_io_error_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "fit-heating", "--input", str(tmp_path / "nope.csv"))
        assert code in (2, 4)
        assert "error" in json.loads(err)

    def test_thermometry_saturated_input(self, capsys):
        code, _, err = run(capsys, "thermometry", "--p-red", "0.6", "--p-blue", "0.5")
        assert code == 2
        assert json.loads(err)["error"] == "validation"
