"""Canonical event stream: parsing, validation, thresholding.

A stream is a chronologically ordered sequence of timestamped binary
predictions. Two text formats are supported:

* JSONL: one object per line with keys ``t`` (number), ``y`` (0 or 1),
  ``p`` (number in [0,1]) and optional ``id`` (string). Booleans and
  strings are not numbers. Unknown keys are ignored.
* CSV: required header exactly ``t,y,p`` (optionally ``t,y,p,id``),
  comma separated, ``.`` decimal point. Ids are read verbatim and
  quoted by csv rules, so any text round-trips.

Records with equal timestamps keep input order everywhere. Unsorted
input is rejected unless the caller explicitly opts into a stable sort.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import numpy as np

from .errors import (
    EmptyInput,
    InvalidValue,
    MalformedRecord,
    UnsortedInput,
)

_NEEDS_QUOTES = re.compile(r'[,"\r\n]')
_CSV_HEADERS = (["t", "y", "p"], ["t", "y", "p", "id"])
# JSONL is read about this many characters, and CSV this many rows, at a time,
# so that no list holds every line or number; much larger chunks raise peak memory
_CHUNK_CHARS = 1 << 16
_CHUNK_ROWS = 2048


class EvalStream:
    """Ordered predictions over the test period [t_start, t_end], as columns.

    t, y and p are equal-length arrays. ids is a sequence of strings, or
    None when each row's id is its index. Every t must be finite and
    >= 0, every y 0 or 1 and every p in [0, 1]; the first row that breaks
    this, or whose id is not a string, raises InvalidValue.
    """

    def __init__(self, t, y, p, ids=None):
        t = np.asarray(t, dtype=np.float64)
        # y is checked as float, so that 0.5 or 2 is rejected, not cast to 0 or 2
        y = np.asarray(y, dtype=np.float64)
        p = np.asarray(p, dtype=np.float64)
        if t.ndim != 1 or not t.shape == y.shape == p.shape:
            raise ValueError("t, y and p must be 1-d and of equal length")
        if ids is not None and len(ids) != t.size:
            raise ValueError("ids must have one entry per row")
        if t.size == 0:
            raise EmptyInput("stream must contain at least one record")
        _check_values(t, y, p, ids)
        if np.any(np.diff(t) < 0):
            raise UnsortedInput("timestamps must be nondecreasing")
        self.t, self.y, self.p = t, y.astype(np.int64), p
        self.ids = None if ids is None else tuple(ids)
        self.t_start = float(t[0])
        self.t_end = float(t[-1])

    def __len__(self):
        return self.t.size


def _check_values(t, y, p, ids=None):
    """Raise InvalidValue at the first row with a value _value_problem names
    or, when ids are given, an id that is not a string."""
    bad = ~(np.isfinite(t) & (t >= 0)) | ((y != 0) & (y != 1)) | ~((p >= 0) & (p <= 1))
    if ids is not None and not all(issubclass(kind, str) for kind in set(map(type, ids))):
        bad |= [not isinstance(i, str) for i in ids]
    if bad.any():
        row = int(bad.argmax())
        if ids is not None and not isinstance(ids[row], str):
            raise InvalidValue(row, "id must be a string")
        raise InvalidValue(row, _value_problem(t[row], y[row], p[row]))


def _value_problem(t, y, p):
    """What keeps t, y and p from being valid values, or None; float() reads all three first."""
    try:
        t, y, p = float(t), float(y), float(p)
    except (ValueError, OverflowError):
        return "t, y, p must be numeric"
    if not math.isfinite(t) or t < 0:
        return f"t must be finite and >= 0, got {t!r}"
    if y not in (0.0, 1.0):
        return f"y must be 0 or 1, got {y!r}"
    if not 0.0 <= p <= 1.0:  # also NaN
        return f"p must be in [0,1], got {p!r}"
    return None


def _jsonl_chunks(text):
    """Yield (line numbers, JSON values) of the JSONL lines in about
    _CHUNK_CHARS of text at a time, each value as json.loads reads its line.

    Each chunk ends just after a line feed, so its lines are lines of
    text.splitlines(). A chunk whose every line is one JSON value alone is
    scanned. In any other, json.loads reads each line that is not blank. At
    a line it rejects, the values before it are yielded, then
    MalformedRecord is raised."""
    scan = json.JSONDecoder().scan_once
    start, first = 0, 1
    while start < len(text):
        stop = text.find("\n", start + _CHUNK_CHARS) + 1 or len(text)
        lines = text[start:stop].splitlines()
        linenos, values = range(first, first + len(lines)), []
        try:
            for line in lines:
                value, end = scan(line, 0)
                if end != len(line):
                    break
                values.append(value)
        except (StopIteration, ValueError, RecursionError):
            pass  # a blank line, a space before the value, invalid JSON
        if len(values) < len(lines):
            linenos, values = [], []
            for lineno, line in enumerate(lines, start=first):
                if not line.strip():
                    continue
                try:
                    values.append(json.loads(line))
                except (ValueError, RecursionError) as exc:  # also an int past 4300 digits
                    yield linenos, values
                    msg = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
                    raise MalformedRecord(lineno, f"invalid JSON: {msg}") from None
                linenos.append(lineno)
        yield linenos, values
        start, first = stop, first + len(lines)


def _jsonl_columns(objs):
    """t, y, p and ids of the JSON values as lists; KeyError, TypeError or ValueError
    unless each is an object with numeric t, y and p and a string id, if any."""
    t = [o["t"] for o in objs]
    y = [o["y"] for o in objs]
    p = [o["p"] for o in objs]
    ids = [o.get("id") for o in objs]
    # json loads numbers as exact int or float; bool is its own type
    if not (set(map(type, t + y + p)) <= {int, float} and set(map(type, ids)) <= {str, type(None)}):
        raise ValueError("not every JSON value is a record")
    return t, y, p, ids


def _jsonl_problem(obj):
    """What keeps one JSON value from being a valid record, or None."""
    if not isinstance(obj, dict):
        return "each line must be a JSON object"
    missing = [k for k in ("t", "y", "p") if k not in obj]
    if missing:
        return f"missing keys: {', '.join(missing)}"
    if obj.get("id") is not None and not isinstance(obj["id"], str):
        return "id must be a string"
    # JSON true/false load as bool, a subclass of int
    if any(isinstance(obj[k], bool) or not isinstance(obj[k], (int, float)) for k in "typ"):
        return "t, y, p must be numeric"
    return _value_problem(obj["t"], obj["y"], obj["p"])


def _csv_chunks(text):
    """Yield (line numbers, rows) of csv.reader, _CHUNK_ROWS rows at a time.
    At a row with the wrong number of fields, or text csv.reader rejects,
    the rows before it are yielded, then MalformedRecord is raised."""
    reader = csv.reader(io.StringIO(text))
    linenos, rows, problem = [], [], None
    try:
        header = next(reader, None)
        if header is None:
            raise EmptyInput("no CSV header")
        header = [h.strip() for h in header]
        if header not in _CSV_HEADERS:
            raise MalformedRecord(
                1, f"header must be 't,y,p' or 't,y,p,id', got {','.join(header)!r}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                problem = f"expected {len(header)} fields, got {len(row)}"
                break
            linenos.append(reader.line_num)
            rows.append(tuple(row))  # the list is reused: less memory, fewer collections
            if len(rows) == _CHUNK_ROWS:
                yield linenos, rows
                linenos, rows = [], []
    except csv.Error as exc:
        problem = f"invalid CSV: {exc}"
    if rows:
        yield linenos, rows
    if problem:
        raise MalformedRecord(reader.line_num, problem)


def _csv_columns(rows):
    """t, y, p and ids of the rows as tuples; ids None without an id column."""
    t, y, p, *ids = zip(*rows)
    return t, y, p, ids[0] if ids else [None] * len(rows)


def _csv_problem(row):
    """What keeps one CSV row from being a valid record, or None."""
    return _value_problem(*row[:3])


def _floats(fields):
    return np.fromiter(map(float, fields), np.float64, len(fields))


def parse_records(data, format, sort=False):
    """Parse bytes or text in the given format into an EvalStream.

    The text is read once, a chunk at a time: about _CHUNK_CHARS characters
    of whole JSONL lines, or _CHUNK_ROWS rows of csv.reader. A JSONL chunk
    whose every line holds one JSON value and nothing else is scanned; the
    lines of any other, such as one with a blank line or a space around a
    value, are decoded one by one. Each chunk's columns are checked before
    the next chunk is read; a chunk that fails is searched once, record by
    record, so an error names the line of the first bad record. A line that
    only a reader rejects, such as invalid JSON, is named after the records
    before it are checked. A record without an id gets its index.

    Parameters
    ----------
    data : bytes or str
        Raw JSONL or CSV content.
    format : {"jsonl", "csv"}
    sort : bool
        When true, records are stably sorted by timestamp instead of
        rejecting unsorted input.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    if format == "jsonl":
        chunks, columns, problem = _jsonl_chunks(data), _jsonl_columns, _jsonl_problem
    elif format == "csv":
        chunks, columns, problem = _csv_chunks(data), _csv_columns, _csv_problem
    else:
        raise ValueError(f"unknown format {format!r}")
    parts, ids = [], []
    for lines, records in chunks:
        try:
            *fields, chunk_ids = columns(records)
            values = [_floats(column) for column in fields]
            _check_values(*values)
        except (KeyError, TypeError, ValueError, OverflowError, InvalidValue):
            line, message = next((line, m) for line, m in zip(lines, map(problem, records)) if m)
            raise MalformedRecord(line, message) from None
        parts.append(values)
        ids.extend(chunk_ids)
        del records  # so that the next chunk is read with one chunk of records alive
    if not ids:
        raise EmptyInput("no records in input")
    t, y, p = (np.concatenate(column) for column in zip(*parts))
    missing = ids.count(None)
    if missing == len(ids):
        ids = None
    elif missing:
        ids = [str(index) if i is None else i for index, i in enumerate(ids)]
    if sort:
        order = np.argsort(t, kind="stable")
        t, y, p = t[order], y[order], p[order]
        ids = [str(i) if ids is None else ids[i] for i in order]
    return EvalStream(t, y, p, ids)


def _csv_field(text):
    """text, quoted by csv rules if it holds a comma, quote or line break."""
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def serialize_records(stream, format):
    """Render a stream back to JSONL or CSV text (inverse of parse_records)."""
    ids = map(str, range(len(stream))) if stream.ids is None else stream.ids
    rows = zip(stream.t.tolist(), stream.y.tolist(), stream.p.tolist(), ids)
    if format == "jsonl":
        # t and p are finite, so repr writes them as json.dumps would
        lines = [f'{{"t": {t!r}, "y": {y}, "p": {p!r}, "id": {json.dumps(i)}}}'
                 for t, y, p, i in rows]
    elif format == "csv":
        lines = ["t,y,p,id"] + [f"{t!r},{y},{p!r},{_csv_field(i)}" for t, y, p, i in rows]
    else:
        raise ValueError(f"unknown format {format!r}")
    return "\n".join(lines) + "\n"


def threshold_labels(stream, threshold=0.5):
    """Predicted labels: 1 where p >= threshold, else 0."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    return (stream.p >= threshold).astype(np.int64)


def disagreement_set(stream, threshold=0.5):
    """Row positions where the thresholded prediction disagrees with y."""
    return np.flatnonzero(threshold_labels(stream, threshold) != stream.y)
