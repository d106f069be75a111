from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import ftcdf.io as iolib
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


def _sample_bits(sample):
    return sample.times.tobytes(), sample.event.tobytes()


class TestReadPaths:
    """Plain files take one np.loadtxt pass; every other file the row
    parser, which names the line of an error."""

    @pytest.fixture()
    def row_parser(self, monkeypatch):
        """The row parser, which read_sample_csv may no longer reach."""
        real = iolib._read_rows

        def refuse(path, raw):
            raise AssertionError(f"row parser reached for {path}")
        monkeypatch.setattr(iolib, "_read_rows", refuse)
        return lambda path: real(path, Path(path).read_bytes())

    @staticmethod
    def benchmark_input(name, n=500):
        # the shapes perfbench writes: repr floats, LF, a header
        rng = np.random.default_rng(11)
        if name == "iid":
            x = rng.standard_normal(n).tolist()
            return "time\n" + "".join(f"{t!r}\n" for t in x)
        life = 1.5 * rng.weibull(3.0, n)
        cens = 3.0 * rng.weibull(4.0, n)
        rows = zip(np.minimum(life, cens).tolist(), (life <= cens).tolist())
        return "time,event\n" + "".join(f"{t!r},{int(e)}\n" for t, e in rows)

    @pytest.mark.parametrize("text", [
        benchmark_input("iid"), benchmark_input("censored"),
        "1.5\n-2.5e-3\n+.5\n", "1.5,1\n2.5,0\n", "time\n1.0\n2.0",
        "time,event\n1.0,1\n2.0,0", "time,event\n1.0\n2.0\n",
        "time\n-0\n5e-324\n9007199254740993\n1.7976931348623157e308\n",
    ], ids=["benchmark-iid", "benchmark-censored", "headerless",
            "headerless-events", "no-final-newline",
            "events-no-final-newline", "event-header-times-only", "edges"])
    def test_plain_files_take_one_pass(self, tmp_path, row_parser, text):
        path = write(tmp_path, text)
        assert _sample_bits(read_sample_csv(path)) == \
            _sample_bits(row_parser(path))

    @pytest.mark.parametrize("raw", [
        b"\xef\xbb\xbftime,event\n1.0,1\n2.0,0\n",      # byte-order mark
        b"time,event\r\n1.0,1\r\n2.0,0\r\n",            # CRLF
        b"time\r1.0\r2.0\r",                             # CR
        b"time\n1.0\n\n2.0\n",                           # blank line
        b"\ntime\n1.0\n",
        b"time,event\n1.0,1\n\n2.0,0\n",
        b"time, event\n1.0, 1\n 2.0,0\n",                # padding
        b"time\n1.0 \n",
        b"event,time\n0,1.0\n1,2.0\n",                   # column order
        b"TIME\n1.0\n",
        b"time,event\n1.0,\n2.0,0\n",                    # empty event
        b"time\n1_0\n2.0\n",                             # underscore
        b"time\n1.0\nnan\n",
        b"time\ninf\n",
        b"time\n1e400\n",                                # overflows
        b"time,event\n1.0,1\n2.0,0\n3.0,2\n",            # bad event
        b"time,event\n1.0,1\n2.0,01\n",
        b"time,event\n1.0,1,0\n",                         # extra field
        b"time\n1.0,1\n",
        b"time\n1.0\n1.5e\n",                            # bad number
        b"time\n", b"", b"\n\n",                           # no rows
    ])
    def test_other_files_reach_the_row_parser(self, tmp_path, spy, raw):
        p = tmp_path / "data.csv"
        p.write_bytes(raw)
        calls = spy(iolib, "_read_rows")
        try:
            got = _sample_bits(read_sample_csv(str(p)))
        except ParseError as exc:
            got = str(exc)
        assert calls == [(str(p), raw)]
        try:
            want = _sample_bits(iolib._read_rows(str(p), raw))
        except ParseError as exc:
            want = str(exc)
        assert got == want

    @pytest.mark.parametrize("raw", [
        b"time,event\n1.0,1\n2.0,0\n",                   # one pass
        b"time,event\r\n1.0,1\r\n2.0,0\r\n",             # row parser
        b"\xef\xbb\xbftime,event\n1.0,1\n2.0,0\n",
    ], ids=["plain", "crlf", "bom"])
    def test_file_is_opened_once(self, tmp_path, monkeypatch, raw):
        p = tmp_path / "data.csv"
        p.write_bytes(raw)
        opened = []

        def counted(*args, **kwargs):
            opened.append(args)
            return open(*args, **kwargs)
        monkeypatch.setattr(iolib, "open", counted, raising=False)
        s = read_sample_csv(str(p))
        assert opened == [(str(p), "rb")]
        assert s.times.tolist() == [1.0, 2.0]
        assert s.event.tolist() == [True, False]

    @pytest.mark.parametrize("raw, where", [
        (b"\xef\xbb\xbftime\n1.0\n\xff2.0\n",
         "byte 0xff in position 9: invalid start byte"),
        (b"time\n" + b"1.0\n" * 2300 + b"\xff2.0\n",
         "byte 0xff in position 9205: invalid start byte"),
        (b"\xef\xbb\xbftime\n" + b"1.0\n" * 2300 + b"2.0\xc3\n",
         "byte 0xc3 in position 9208: invalid continuation byte"),
    ], ids=["bom", "after-8kb", "bom-after-8kb"])
    def test_decode_error_names_the_byte(self, tmp_path, raw, where):
        # positions count from after the byte-order mark
        p = tmp_path / "data.csv"
        p.write_bytes(raw)
        with pytest.raises(ParseError) as exc:
            read_sample_csv(str(p))
        assert str(exc.value) == (f"{p}: not UTF-8 text ('utf-8' codec "
                                  f"can't decode {where})")

    def test_line_ends_number_the_lines(self, tmp_path):
        # CRLF, CR and U+2028 each end one line, as in a text-mode read
        p = tmp_path / "data.csv"
        p.write_bytes(b"time\r\n1.0\r2.0\xe2\x80\xa83.0\nx\n")
        with pytest.raises(ParseError) as exc:
            read_sample_csv(str(p))
        assert str(exc.value) == f"{p} line 5: bad time value in 'x'"


class TestParseGrid:
    def test_range_form(self):
        g = parse_grid("-3:3:121")
        assert g.size == 121
        assert g[0] == -3.0 and g[-1] == 3.0

    def test_single_point_range(self):
        assert parse_grid("2:2:1").tolist() == [2.0]
        assert parse_grid("0:0:1").tolist() == [0.0]

    @pytest.mark.parametrize("text", ["0:0:3", "2:2:2", "0,0,0",
                                      "0:1e-320:5000"])
    def test_repeated_points_rejected(self, text):
        # a range repeats a point when lo == hi, or when its step is
        # below the spacing of floats near lo
        with pytest.raises(ParseError, match=f"grid {text!r}: points must"):
            parse_grid(text)

    def test_widest_finite_comma_list(self):
        # the gap between the points overflows; they are compared only
        with np.errstate(over="raise"):
            assert parse_grid("-1e308,1e308").tolist() == [-1e308, 1e308]

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
