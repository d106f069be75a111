from __future__ import annotations

import json

import numpy as np
import pytest

from ftcdf.io import (ParseError, curve_csv, dump_json, parse_grid,
                      parse_int_list, read_sample_csv, write_text)


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestReadSampleCsv:
    def test_headerless_single_column(self, tmp_path):
        path = write(tmp_path, "1.5\n2.5\n0.5\n")
        s = read_sample_csv(path)
        assert s.times.tolist() == [1.5, 2.5, 0.5]
        assert s.event.all()

    def test_headerless_two_columns(self, tmp_path):
        path = write(tmp_path, "1.5,1\n2.5,0\n")
        s = read_sample_csv(path)
        assert s.event.tolist() == [True, False]

    def test_header_detected(self, tmp_path):
        path = write(tmp_path, "time,event\n1.0,1\n2.0,0\n")
        s = read_sample_csv(path)
        assert s.times.tolist() == [1.0, 2.0]
        assert s.event.tolist() == [True, False]

    def test_header_reversed_columns(self, tmp_path):
        path = write(tmp_path, "event,time\n0,1.0\n1,2.0\n")
        s = read_sample_csv(path)
        assert s.times.tolist() == [1.0, 2.0]
        assert s.event.tolist() == [False, True]

    def test_header_time_only(self, tmp_path):
        path = write(tmp_path, "time\n3.25\n")
        s = read_sample_csv(path)
        assert s.times.tolist() == [3.25]
        assert s.event.all()

    def test_missing_event_field_defaults_to_one(self, tmp_path):
        path = write(tmp_path, "time,event\n1.0,\n2.0,0\n")
        s = read_sample_csv(path)
        assert s.event.tolist() == [True, False]

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path, "\n1.0\n\n2.0\n\n")
        assert read_sample_csv(path).n == 2

    def test_malformed_row_names_line(self, tmp_path):
        path = write(tmp_path, "time\n1.0\noops\n")
        with pytest.raises(ParseError, match="line 3"):
            read_sample_csv(path)

    def test_bad_event_flag_names_line(self, tmp_path):
        path = write(tmp_path, "1.0,1\n2.0,2\n")
        with pytest.raises(ParseError, match="line 2.*event"):
            read_sample_csv(path)

    def test_too_many_fields(self, tmp_path):
        path = write(tmp_path, "1.0,1,7\n")
        with pytest.raises(ParseError, match="line 1"):
            read_sample_csv(path)

    @pytest.mark.parametrize("text, line", [
        ("time\n1.0\n1.0,0\n3.0,0\n", "line 3"),
        ("time,event\n1.0,1\n2.0,0,5\n", "line 3"),
        ("event,time\n0,1.0,\n", "line 2"),
    ])
    def test_more_fields_than_header_names(self, tmp_path, text, line):
        path = write(tmp_path, text)
        with pytest.raises(ParseError, match=f"{line}: expected at most"):
            read_sample_csv(path)

    def test_unknown_header_column(self, tmp_path):
        path = write(tmp_path, "time,weight\n1.0,2.0\n")
        with pytest.raises(ParseError, match="unknown columns"):
            read_sample_csv(path)

    @pytest.mark.parametrize("text, line", [
        ("time,event,event\n1.0,1,0\n", "line 1"),
        ("\n\ntime,TIME\n1.0,2.0\n", "line 3"),
    ])
    def test_column_named_twice(self, tmp_path, text, line):
        path = write(tmp_path, text)
        with pytest.raises(ParseError, match=f"{line}: a column is named"):
            read_sample_csv(path)

    def test_header_without_time(self, tmp_path):
        path = write(tmp_path, "event\n1\n")
        with pytest.raises(ParseError, match="time"):
            read_sample_csv(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(ParseError, match="no data rows"):
            read_sample_csv(path)

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "time,event\n")
        with pytest.raises(ParseError, match="no data rows"):
            read_sample_csv(path)

    def test_nonfinite_time_rejected(self, tmp_path):
        path = write(tmp_path, "1.0\nnan\n")
        with pytest.raises(ParseError, match="line 2: time must be finite"):
            read_sample_csv(path)
        for bad in ("inf", "-inf", "NaN"):
            path = write(tmp_path, f"time,event\n1.0,1\n\n{bad},0\n2.0,1\n")
            with pytest.raises(ParseError, match="line 4: time must be "
                                                 "finite"):
                read_sample_csv(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbftime,event\n1.0,1\n2.0,0\n")
        s = read_sample_csv(str(p))
        assert s.times.tolist() == [1.0, 2.0]
        assert s.event.tolist() == [True, False]

    def test_non_utf8_file_names_path(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"time\n1.0\n\xff2.0\n")
        with pytest.raises(ParseError, match="latin1.csv: not UTF-8 text"):
            read_sample_csv(str(p))

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_sample_csv(str(tmp_path / "nope.csv"))


class TestParseGrid:
    def test_range_form(self):
        g = parse_grid("-3:3:121")
        assert g.size == 121
        assert g[0] == -3.0 and g[-1] == 3.0

    def test_single_point_range(self):
        assert parse_grid("2:2:1").tolist() == [2.0]

    def test_comma_list(self):
        assert parse_grid("0.75,1.25,1.75").tolist() == [0.75, 1.25, 1.75]

    @pytest.mark.parametrize("bad", [
        "1:2", "1:2:3:4", "a:2:3", "1:2:many", "0:1:0", "3:1:5",
        "1,1,2", "2,1", "a,b", "", " ",
        "nan", "inf", "0,nan", "nan,0", "-inf,0", "0,1,inf",
        "nan:1:5", "0:nan:5", "0:inf:3", "-inf:0:3", "-1e308:1e308:5",
    ])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_grid(bad)

    def test_size_limit(self):
        assert parse_grid("0:1:1000000").size == 1_000_000
        with pytest.raises(ParseError, match="at most 1000000"):
            parse_grid("0:1:1000001")
        with pytest.raises(ParseError, match="at most 1000000"):
            parse_grid("0:1:10000000000000")
        points = ",".join(str(i) for i in range(1_000_000))
        assert parse_grid(points).size == 1_000_000
        with pytest.raises(ParseError, match="at most 1000000"):
            parse_grid(points + ",1000000")


class TestSmallHelpers:
    def test_parse_int_list(self):
        assert parse_int_list("15,30", "--n") == (15, 30)

    @pytest.mark.parametrize("bad", ["", "15,x", "1.5"])
    def test_parse_int_list_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_int_list(bad, "--n")

    def test_curve_csv_roundtrips_floats(self):
        ts = np.array([0.1, 0.2 + 1e-17])
        vs = np.array([1 / 3, 2 / 3])
        lines = curve_csv(ts, vs).splitlines()
        assert lines[0] == "t,value"
        for line, t, v in zip(lines[1:], ts, vs):
            a, b = line.split(",")
            assert float(a) == t and float(b) == v

    def test_curve_csv_value_name(self):
        out = curve_csv([1.0], [2.0], value_name="magnitude")
        assert out.startswith("t,magnitude\n")

    def test_dump_json_schema_and_order(self):
        doc = json.loads(dump_json({"b": 1, "a": 2}))
        assert doc == {"schema": 1, "a": 2, "b": 1}

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf")])
    def test_dump_json_refuses_non_finite(self, value):
        # json would print NaN or Infinity, which no strict parser reads
        with pytest.raises(ValueError):
            dump_json({"value": [0.5, value]})

    def test_write_text(self, tmp_path):
        p = tmp_path / "out.csv"
        write_text(str(p), "t,value\n")
        assert p.read_text() == "t,value\n"
