"""CSV and JSON plumbing shared by the command line tools.

Data comes in as `time,event` CSV (the event column optional, default
1); estimates go out as `t,value` CSV.  All JSON documents carry a
`schema: 1` field and hold finite numbers only.  Parse failures raise ParseError with the offending
line named; the caller maps exception types to exit codes.
"""
from __future__ import annotations

import json
import math

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
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.read().splitlines()
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
            raw = fields[event_col]
            if raw == "":
                e = 1
            elif raw in ("0", "1"):
                e = int(raw)
            else:
                raise ParseError(f"{path} line {lineno}: event must be 0 "
                                 f"or 1, got {raw!r}")
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
