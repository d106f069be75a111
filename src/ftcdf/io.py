"""CSV and JSON plumbing shared by the command line tools.

Data comes in as `time,event` CSV (the event column optional, default
1); estimates go out as `t,value` CSV.  All JSON documents carry a
`schema: 1` field and hold finite numbers only.  Parse failures raise ParseError with the offending
line named; the caller maps exception types to exit codes.
"""
from __future__ import annotations

import json
import math
from io import BytesIO

import numpy as np

from .estimators import CensoredSample

SCHEMA = 1
# largest grid parse_grid accepts; checked before anything is allocated
MAX_GRID_POINTS = 1_000_000


class ParseError(ValueError):
    """Malformed user input (CSV rows, grid specs, scenario files)."""


def read_sample_csv(path: str) -> CensoredSample:
    """Load observations from CSV with columns `time[,event]`.

    A header row is detected by its first field failing to parse as a
    number.  Event flags must be 0 or 1; a missing event column means
    fully uncensored.  A header names each column at most once, and a
    row may have no more fields than the header names (two without a
    header).  Blank lines are skipped.  The file is UTF-8, with or without
    a byte-order mark.

    A plain file (see _plain_sample) is parsed in one np.loadtxt pass;
    every other file, and every malformed one, row by row.  Both give
    the same values, and the row parser names the line of any error.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    sample = _plain_sample(raw)
    return sample if sample is not None else _read_rows(path, raw)


# the bytes a plain file's rows are made of
_PLAIN_BYTES = b"0123456789.eE+-,\n"
_PLAIN_HEADERS = (b"time\n", b"time,event\n")


def _plain_sample(raw: bytes) -> CensoredSample | None:
    """The sample held in raw, or None unless raw is a plain file.

    A plain file has LF line endings, the header `time` or `time,event`
    or none, no blank line, and rows of a time made of `0-9 . e E + -`
    only, either alone or followed by one comma and an event of exactly
    0 or 1.  np.loadtxt converts such a time with the correctly rounded
    conversion float() uses, so it reads the values _read_rows reads; a
    time either refuses is returned as None, as is a non-finite one.
    The checks are linear passes over the bytes, not a row regex.
    """
    header = next((h for h in _PLAIN_HEADERS if raw.startswith(h)), b"")
    start = len(header)
    # translate keeps the header's non-row bytes: the rest must have none
    if (start == len(raw) or raw.translate(None, _PLAIN_BYTES)
            != header.translate(None, _PLAIN_BYTES)):
        return None
    rows = raw.count(b"\n", start) + (not raw.endswith(b"\n"))
    commas = raw.count(b",", start)
    if commas:
        # each row ends in ,0 or ,1 and holds one comma; this also rules
        # out blank lines
        events = (raw.count(b",0\n", start) + raw.count(b",1\n", start)
                  + raw.endswith((b",0", b",1")))
        if header == b"time\n" or not commas == events == rows:
            return None
    elif raw.startswith(b"\n", start) or raw.find(b"\n\n", start) >= 0:
        # loadtxt would skip a blank line
        return None
    try:
        values = np.loadtxt(BytesIO(raw), delimiter=",", comments=None,
                            skiprows=int(start > 0), ndmin=2)
    except ValueError:
        return None
    times = values[:, 0]
    if not np.all(np.isfinite(times)):
        return None
    event = values[:, 1] == 1.0 if commas else np.ones(rows, dtype=bool)
    return CensoredSample(times, event)


def _read_rows(path: str, raw: bytes) -> CensoredSample:
    """read_sample_csv on raw, the bytes of path, row by row, naming the
    line of any error."""
    try:
        lines = raw.decode("utf-8-sig").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})")
    rows = [(i + 1, ln.strip()) for i, ln in enumerate(lines) if ln.strip()]
    if not rows:
        raise ParseError(f"{path}: no data rows")
    time_col, event_col, max_fields = 0, 1, 2
    first_fields = [f.strip() for f in rows[0][1].split(",")]
    try:
        float(first_fields[0])
    except ValueError:
        header = [f.lower() for f in first_fields]
        where = f"{path} line {rows[0][0]}"
        if "time" not in header:
            raise ParseError(f"{where}: header must name a 'time' column, "
                             f"got {rows[0][1]!r}")
        unknown = set(header) - {"time", "event"}
        if unknown:
            raise ParseError(f"{where}: unknown columns {sorted(unknown)}")
        if len(set(header)) < len(header):
            raise ParseError(f"{where}: a column is named twice in "
                             f"{rows[0][1]!r}")
        time_col = header.index("time")
        event_col = header.index("event") if "event" in header else -1
        max_fields = len(header)
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path}: no data rows after header")
    times, events = [], []
    for lineno, text in rows:
        fields = [f.strip() for f in text.split(",")]
        if len(fields) > max_fields:
            raise ParseError(f"{path} line {lineno}: expected at most "
                             f"{max_fields} fields, got {len(fields)}")
        try:
            t = float(fields[time_col])
        except (ValueError, IndexError):
            raise ParseError(f"{path} line {lineno}: bad time value in "
                             f"{text!r}")
        if not math.isfinite(t):
            raise ParseError(f"{path} line {lineno}: time must be finite, "
                             f"got {fields[time_col]!r}")
        if event_col == -1 or event_col >= len(fields):
            e = 1
        else:
            flag = fields[event_col]
            if flag == "":
                e = 1
            elif flag in ("0", "1"):
                e = int(flag)
            else:
                raise ParseError(f"{path} line {lineno}: event must be 0 "
                                 f"or 1, got {flag!r}")
        times.append(t)
        events.append(bool(e))
    try:
        return CensoredSample(np.array(times), np.array(events, dtype=bool))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}")


def parse_grid(text: str) -> np.ndarray:
    """Evaluation grid from `lo:hi:count` or a comma list: finite,
    strictly ascending points in either form."""
    s = text.strip()
    if ":" in s:
        parts = s.split(":")
        if len(parts) != 3:
            raise ParseError(f"grid {text!r}: expected lo:hi:count")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"grid {text!r}: expected lo:hi:count with "
                             "numeric bounds and integer count")
        if count < 1:
            raise ParseError(f"grid {text!r}: count must be >= 1")
        if count > MAX_GRID_POINTS:
            raise ParseError(f"grid {text!r}: count must be at most "
                             f"{MAX_GRID_POINTS}")
        if hi < lo:
            raise ParseError(f"grid {text!r}: hi must be >= lo")
        with np.errstate(over="ignore", invalid="ignore"):
            pts = np.linspace(lo, hi, count)
    else:
        try:
            pts = np.array([float(p) for p in s.split(",")
                            if p.strip() != ""])
        except ValueError:
            raise ParseError(f"grid {text!r}: non-numeric point")
        if pts.size == 0:
            raise ParseError(f"grid {text!r}: empty")
        if pts.size > MAX_GRID_POINTS:
            raise ParseError(f"grid of {pts.size} points: at most "
                             f"{MAX_GRID_POINTS} are allowed")
    if not np.all(np.isfinite(pts)):
        raise ParseError(f"grid {text!r}: points must be finite")
    # compared, not subtracted: the gap between finite points can overflow
    if np.any(pts[1:] <= pts[:-1]):
        raise ParseError(f"grid {text!r}: points must be strictly "
                         "ascending")
    return pts


def parse_int_list(text: str, name: str) -> tuple:
    try:
        vals = tuple(int(p) for p in text.split(",") if p.strip() != "")
    except ValueError:
        raise ParseError(f"{name} {text!r}: expected comma-separated "
                         "integers")
    if not vals:
        raise ParseError(f"{name} {text!r}: empty")
    return vals


def curve_csv(ts, values, value_name: str = "value") -> str:
    lines = [f"t,{value_name}"]
    for t, v in zip(np.asarray(ts), np.asarray(values)):
        lines.append(f"{float(t)!r},{float(v)!r}")
    return "\n".join(lines) + "\n"


def write_text(path: str, content: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)


def dump_json(payload: dict) -> str:
    doc = {"schema": SCHEMA}
    doc.update(payload)
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
