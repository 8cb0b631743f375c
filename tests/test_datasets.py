import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from trapkit.charging import FrequencySeries
from trapkit.datasets import (
    DATASET_KINDS,
    Dataset,
    DatasetError,
    file_digest,
    from_frequency_series,
    from_heating_series,
    from_position_scan,
    from_sideband_observations,
    load_dataset,
    to_frequency_series,
    to_heating_series,
    to_position_scan,
    to_sideband_observations,
    write_dataset,
)
from trapkit.heating import HeatingSeries
from trapkit.thermometry import SidebandObservation


TWO_PI_KHZ = 2 * math.pi * 1e3


def write_text(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoad:
    def test_basic_heating_load(self, tmp_path):
        p = write_text(
            tmp_path,
            "h.csv",
            "# kind: heating\ntime:ms,nbar,nbar_err\n0.0,0.1,0.05\n1.0,0.9,0.05\n2.0,1.7,0.05\n",
        )
        ds = load_dataset(p, "heating")
        np.testing.assert_allclose(ds.columns["time"], [0.0, 1e-3, 2e-3])
        assert ds.metadata["kind"] == "heating"

    def test_unit_conversion_mhz(self, tmp_path):
        p = write_text(
            tmp_path, "c.csv", "time:s,freq:MHz\n0.0,5.329\n10.0,5.4\n"
        )
        ds = load_dataset(p, "charging")
        np.testing.assert_allclose(ds.columns["freq"], [5.329e6, 5.4e6])

    def test_unknown_unit(self, tmp_path):
        p = write_text(tmp_path, "c.csv", "time:fortnights,freq:Hz\n0.0,1.0\n")
        with pytest.raises(DatasetError, match="fortnights"):
            load_dataset(p, "charging")

    def test_missing_required_column(self, tmp_path):
        p = write_text(tmp_path, "h.csv", "time:s,nbar_err\n0.0,0.1\n")
        with pytest.raises(DatasetError, match="nbar"):
            load_dataset(p, "heating")

    def test_unexpected_column(self, tmp_path):
        p = write_text(tmp_path, "h.csv", "time:s,nbar,bogus\n0.0,0.1,1.0\n")
        with pytest.raises(DatasetError, match="bogus"):
            load_dataset(p, "heating")

    @pytest.mark.parametrize("header", ["time:s,nbar,nbar", "time:s,nbar,time:ms"])
    def test_repeated_column_names_both_positions(self, tmp_path, header):
        # the last copy would otherwise win, silently
        p = write_text(tmp_path, "h.csv", f"{header}\n0.0,0.1,0.2\n1.0,0.9,0.8\n2.0,1.7,1.6\n")
        name = header.split(",")[-1].partition(":")[0]
        first = 2 if name == "nbar" else 1
        with pytest.raises(DatasetError, match=f"column 3: column '{name}' repeats column {first}"):
            load_dataset(p, "heating")

    def test_non_monotonic_time_names_row(self, tmp_path):
        p = write_text(
            tmp_path,
            "h.csv",
            "time:s,nbar\n0.0,0.1\n2.0,0.5\n1.0,0.9\n",
        )
        with pytest.raises(DatasetError, match="row 3"):
            load_dataset(p, "heating")

    @pytest.mark.parametrize("waits", ["0.0,1e-3,1e-3", "0.0,2e-3,1e-3"], ids=["repeated", "falling"])
    def test_non_monotonic_sideband_wait_names_row(self, tmp_path, waits):
        rows = [f"{w},0.1,0.5,100" for w in waits.split(",")]
        p = write_text(tmp_path, "s.csv", "\n".join(["wait:s,p_red,p_blue,shots", *rows]) + "\n")
        with pytest.raises(DatasetError, match="'wait' not strictly increasing at data row 3"):
            load_dataset(p, "sideband-scan")

    def test_bad_float(self, tmp_path):
        p = write_text(tmp_path, "h.csv", "time:s,nbar\n0.0,abc\n")
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(p, "heating")

    def test_ragged_row(self, tmp_path):
        p = write_text(tmp_path, "h.csv", "time:s,nbar\n0.0,0.1,9.9\n")
        with pytest.raises(DatasetError, match="expected 2 fields"):
            load_dataset(p, "heating")

    def test_empty_file(self, tmp_path):
        p = write_text(tmp_path, "h.csv", "# kind: heating\n")
        with pytest.raises(DatasetError, match="no header"):
            load_dataset(p, "heating")

    def test_kind_line_must_name_the_kind(self, tmp_path):
        text = "time:s,nbar\n0.0,0.1\n1.0,0.9\n2.0,1.7\n"
        p = write_text(tmp_path, "h.csv", "# kind: charging\n" + text)
        with pytest.raises(DatasetError, match="line 1: a 'charging' dataset, expected 'heating'"):
            load_dataset(p, "heating")
        # a file with no kind line, or with its own, loads
        want = load_dataset(write_text(tmp_path, "plain.csv", text), "heating")
        got = load_dataset(write_text(tmp_path, "own.csv", "# kind: heating\n" + text), "heating")
        assert got.columns == want.columns and got.metadata == {"kind": "heating"}

    def test_unknown_kind(self, tmp_path):
        p = write_text(tmp_path, "h.csv", "time:s,nbar\n0.0,0.1\n")
        with pytest.raises(DatasetError):
            load_dataset(p, "beam-scan")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_non_finite_value_names_line(self, tmp_path, value, column):
        rows = [["0.0", "5.3", "0.9"], ["10.0", "5.4", "0.9"], ["20.0", "5.5", "0.9"]]
        rows[1][column] = value
        text = "# light_on: 0.0,30.0\ntime:s,freq:MHz,err:kHz\n" + "\n".join(map(",".join, rows)) + "\n"
        with pytest.raises(DatasetError, match="line 4: column .* must be finite"):
            load_dataset(write_text(tmp_path, "c.csv", text), "charging")

    def test_finite_value_that_overflows_in_si(self, tmp_path):
        p = write_text(tmp_path, "c.csv", "time:s,freq:MHz\n0.0,5.3\n10.0,1e303\n")
        with pytest.raises(DatasetError, match="line 3: column 'freq' must be finite"):
            load_dataset(p, "charging")

    @pytest.mark.parametrize("shots", ["nan", "2.5", "-inf"])
    def test_shots_must_be_whole_or_inf(self, tmp_path, shots):
        # a NaN count used to read as analytic and 2.5 as 2 shots
        p = write_text(tmp_path, "s.csv", f"wait:s,p_red,p_blue,shots\n0.0,0.05,0.55,400\n1e-3,0.3,0.6,{shots}\n")
        with pytest.raises(DatasetError, match="line 3: column 'shots' must be a whole number or inf"):
            load_dataset(p, "sideband-scan")

    def test_shots_inf_is_analytic(self, tmp_path):
        p = write_text(tmp_path, "s.csv", "wait:s,p_red,p_blue,shots\n0.0,0.05,0.55,400\n1e-3,0.3,0.6,inf\n")
        obs = to_sideband_observations(load_dataset(p, "sideband-scan"))
        assert [o.shots for _, o in obs] == [400, None]


# every kind's column names plus one of none; AXIS is each kind's strictly increasing column
FUZZ_COLUMNS = ("time", "nbar", "nbar_err", "freq", "err", "wait", "p_red", "p_blue", "shots", "pos", "rabi", "bogus")
FUZZ_UNITS = ("", "s", "ms", "us", "Hz", "kHz", "MHz", "m", "um", "rad/s", "1", "furlongs")
AXIS = {"heating": "time", "charging": "time", "sideband-scan": "wait", "position-scan": "pos"}

fuzz_cells = st.one_of(
    st.floats().map(repr),
    st.sampled_from(("nan", "inf", "-inf", "1e400", "", "abc")),
    st.text(max_size=4),
)
fuzz_header = st.lists(
    st.tuples(st.sampled_from(FUZZ_COLUMNS), st.sampled_from(FUZZ_UNITS)), min_size=1, max_size=4
).map(lambda cols: ",".join(f"{name}:{unit}" if unit else name for name, unit in cols))
fuzz_rows = st.lists(st.lists(fuzz_cells, min_size=1, max_size=4).map(",".join), max_size=6)


def load_or_reject(path, kind):
    """load_dataset either raises DatasetError or returns a valid Dataset."""
    try:
        ds = load_dataset(path, kind)
    except DatasetError:
        return
    assert isinstance(ds, Dataset) and ds.kind == kind
    assert ds.n_rows >= 1
    assert {len(col) for col in ds.columns.values()} == {ds.n_rows}
    for name, col in ds.columns.items():  # SI floats, finite but for an analytic shots count
        assert all(type(v) is float and (math.isfinite(v) or name == "shots" and v == math.inf) for v in col)
    if AXIS.get(kind) in ds.columns:
        assert np.all(np.diff(ds.columns[AXIS[kind]]) > 0)


class TestFuzz:
    @settings(deadline=None)
    @given(data=st.binary(max_size=200), kind=st.sampled_from(DATASET_KINDS))
    @example(data=b"time:s,nbar\n0.0,0.1\n\xff\xfe,0.2\n", kind="heating")
    def test_random_bytes(self, tmp_path_factory, data, kind):
        path = tmp_path_factory.mktemp("fuzz") / "d.csv"
        path.write_bytes(data)
        load_or_reject(path, kind)

    @settings(deadline=None)
    @given(header=fuzz_header, rows=fuzz_rows, kind=st.sampled_from(DATASET_KINDS))
    @example(header="time:s,nbar", rows=["0.0,0.1", "nan,0.2", "2.0,0.3"], kind="heating")
    @example(header="pos:um,rabi:Hz", rows=["1.0,5.0", "nan,6.0"], kind="position-scan")
    @example(header="rabi:Hz,pos:um", rows=["5.0,1.0", "6.0,2.0"], kind="position-scan")
    def test_random_tables(self, tmp_path_factory, header, rows, kind):
        path = tmp_path_factory.mktemp("fuzz") / "d.csv"
        path.write_text(f"# kind: {kind}\n" + "\n".join([header, *rows]) + "\n", encoding="utf-8")
        load_or_reject(path, kind)


class TestRoundTrip:
    def test_a_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # an editor may save UTF-8 with a leading byte-order mark
        plain = tmp_path / "h.csv"
        write_dataset(plain, from_heating_series(HeatingSeries((0.0, 1e-3, 2e-3), (0.1, 0.9, 1.7), (0.05,) * 3)))
        bom = tmp_path / "h_bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        want, got = load_dataset(plain, "heating"), load_dataset(bom, "heating")
        assert got.metadata == want.metadata and got.metadata["kind"] == "heating"
        assert got.columns == want.columns

    def test_heating_lossless(self, tmp_path):
        series = HeatingSeries(
            (0.0, 1.1e-3, 2.7e-3),
            (0.1234567890123, 0.987654321, 2.0 / 3.0),
            (0.05, 0.0501, 0.052),
        )
        path = tmp_path / "out.csv"
        ds = from_heating_series(series)
        ds.metadata["note"] = "synthetic"
        write_dataset(path, ds)
        loaded = load_dataset(path, "heating")
        assert loaded.metadata["note"] == "synthetic"
        back = to_heating_series(loaded)
        assert back.wait_times == series.wait_times
        assert back.nbar == series.nbar
        assert back.nbar_err == series.nbar_err

    def test_charging_with_intervals(self, tmp_path):
        series = FrequencySeries(
            (0.0, 100.0, 500.0),
            (5.329e6, 5.36e6, 5.42e6),
            (900.0, 900.0, 900.0),
            ((400.0, 2400.0), (5000.0, 5100.0)),
        )
        path = tmp_path / "c.csv"
        write_dataset(path, from_frequency_series(series))
        back = to_frequency_series(load_dataset(path, "charging"))
        assert back == series

    def test_position_scan_origin_required(self, tmp_path):
        from trapkit.beam import RabiPositionScan

        scan = RabiPositionScan((0.0, 1e-6, 2e-6, 3e-6), (1.0, 2.0, 2.0, 1.0))
        path = tmp_path / "p.csv"
        write_dataset(path, from_position_scan(scan, "grating"))
        back = to_position_scan(load_dataset(path, "position-scan"))
        assert back.positions == scan.positions
        # strip the origin and reload: adapter must refuse
        text = path.read_text().replace("# origin: grating\n", "")
        path.write_text(text)
        with pytest.raises(DatasetError, match="origin"):
            to_position_scan(load_dataset(path, "position-scan"))

    def test_bad_origin_rejected(self):
        from trapkit.beam import RabiPositionScan

        scan = RabiPositionScan((0.0, 1e-6, 2e-6), (1.0, 2.0, 1.0))
        with pytest.raises(DatasetError):
            from_position_scan(scan, "elsewhere")

    def test_sideband_observations(self, tmp_path):
        obs = [
            (0.0, SidebandObservation(0.0, 0.05, 0.55, shots=400)),
            (1e-3, SidebandObservation(0.0, 0.30, 0.60, shots=None)),
        ]
        path = tmp_path / "s.csv"
        write_dataset(path, from_sideband_observations(obs))
        back = to_sideband_observations(load_dataset(path, "sideband-scan"))
        assert back[0][1].shots == 400
        assert back[1][1].shots is None
        assert back[0][1].p_red == 0.05


    def test_tuple_columns_lossless(self, tmp_path):
        # columns are tuples of SI floats both ways; repr keeps every bit
        cols = {"pos": (0.0, 1e-6 / 3, 2.2e-6), "rabi": (TWO_PI_KHZ, 2.0 / 3.0, 1e300), "err": (0.1, 0.2, 0.3)}
        path = tmp_path / "p.csv"
        write_dataset(path, Dataset("position-scan", cols, {"origin": "grating"}))
        back = load_dataset(path, "position-scan")
        assert back.columns == cols
        assert back.metadata == {"kind": "position-scan", "origin": "grating"}
        write_dataset(tmp_path / "again.csv", back)
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


class TestWrite:
    def test_atomic_no_temp_left(self, tmp_path):
        ds = Dataset("heating", {"time": np.array([0.0, 1.0, 2.0]), "nbar": np.array([1.0, 2.0, 3.0])})
        write_dataset(tmp_path / "a.csv", ds)
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_digest_stable(self, tmp_path):
        ds = Dataset("heating", {"time": np.array([0.0, 1.0, 2.0]), "nbar": np.array([1.0, 2.0, 3.0])})
        write_dataset(tmp_path / "a.csv", ds)
        write_dataset(tmp_path / "b.csv", ds)
        assert file_digest(tmp_path / "a.csv") == file_digest(tmp_path / "b.csv")

    def test_light_on_metadata_parse_error(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("# light_on: not-a-pair\ntime:s,freq:Hz\n0.0,1.0\n")
        with pytest.raises(DatasetError, match="light_on"):
            to_frequency_series(load_dataset(p, "charging"))
