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
import itertools
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
    """Raise InvalidValue at the first row whose t is not finite and >= 0,
    whose y is not 0 or 1, whose p is not in [0, 1] or, when ids are given,
    whose id is not a string."""
    bad = ~(np.isfinite(t) & (t >= 0)) | ((y != 0) & (y != 1)) | ~((p >= 0) & (p <= 1))
    if ids is not None and not all(issubclass(kind, str) for kind in set(map(type, ids))):
        bad |= [not isinstance(i, str) for i in ids]
    if bad.any():
        row = int(bad.argmax())
        t, y, p = float(t[row]), float(y[row]), float(p[row])
        if ids is not None and not isinstance(ids[row], str):
            raise InvalidValue(row, "id must be a string")
        if not math.isfinite(t) or t < 0:
            raise InvalidValue(row, f"t must be finite and >= 0, got {t!r}")
        if y not in (0.0, 1.0):
            raise InvalidValue(row, f"y must be 0 or 1, got {y!r}")
        raise InvalidValue(row, f"p must be in [0,1], got {p!r}")


def _jsonl_chunks(text):
    """Yield (line numbers, t, y, p, ids) lists of the JSONL records in about
    _CHUNK_CHARS of text at a time, each record as json.loads reads its line.

    Each chunk ends just after a line feed, so its lines are lines of
    text.splitlines(). A chunk whose every line is one JSON value alone is
    scanned. In any other, json.loads reads each line that is not blank. At
    a line it rejects, or a value that is not a record, the records before
    it are yielded, then MalformedRecord is raised."""
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
                    yield from _record_columns(linenos, values)
                    msg = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
                    raise MalformedRecord(lineno, f"invalid JSON: {msg}") from None
                linenos.append(lineno)
        yield from _record_columns(linenos, values)
        start, first = stop, first + len(lines)


def _record_columns(lines, objs):
    """Yield (lines, t, y, p, ids) of the JSON values as lists. At the first
    that is not an object with numeric t, y and p and a string id, if any,
    those before it are yielded, then MalformedRecord is raised."""
    try:
        t = [o["t"] for o in objs]
        y = [o["y"] for o in objs]
        p = [o["p"] for o in objs]
        ids = [o.get("id") for o in objs]
        # json loads numbers as exact int or float; bool is its own type
        shaped = (set(map(type, t + y + p)) <= {int, float}
                  and set(map(type, ids)) <= {str, type(None)})
    except (KeyError, TypeError):  # a missing key, or a value that is not an object
        shaped = False
    if shaped:
        yield lines, t, y, p, ids
    else:
        row, problem = next((row, m) for row, m in enumerate(map(_shape_problem, objs)) if m)
        yield from _record_columns(lines[:row], objs[:row])
        raise MalformedRecord(lines[row], problem)


def _shape_problem(obj):
    """What keeps one JSON value from being a record, or None."""
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
    return None


def _csv_rows(text):
    """Yield (line, t, y, p, id or None) per CSV row; ids are kept verbatim.
    A row with the wrong number of fields, or text csv.reader rejects, ends
    the rows with its MalformedRecord, yielded so that no row is lost."""
    reader = csv.reader(io.StringIO(text))
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
                yield MalformedRecord(
                    reader.line_num, f"expected {len(header)} fields, got {len(row)}")
                return
            yield reader.line_num, row[0], row[1], row[2], row[3] if len(row) == 4 else None
    except csv.Error as exc:
        yield MalformedRecord(reader.line_num, f"invalid CSV: {exc}")


def _row_chunks(rows):
    """Yield (line numbers, t, y, p, ids) of the rows, _CHUNK_ROWS at a time.
    At a MalformedRecord, the rows before it are yielded, then it is raised."""
    while chunk := list(itertools.islice(rows, _CHUNK_ROWS)):
        if isinstance(chunk[-1], MalformedRecord):
            yield from _row_chunks(iter(chunk[:-1]))
            raise chunk[-1]
        yield tuple(zip(*chunk))


def _floats(fields):
    return np.fromiter(map(float, fields), np.float64, len(fields))


def _not_numeric(record):
    """Whether float() rejects one of a record's t, y and p."""
    try:
        _floats(record)
    except (ValueError, OverflowError):
        return True
    return False


def parse_records(data, format, sort=False):
    """Parse bytes or text in the given format into an EvalStream.

    The text is read once, a chunk at a time: about _CHUNK_CHARS characters
    of whole JSONL lines, or _CHUNK_ROWS rows of csv.reader. A JSONL chunk
    whose every line holds one JSON value and nothing else is scanned; the
    lines of any other, such as one with a blank line or a space around a
    value, are decoded one by one. Each chunk's values are checked before
    the next chunk is read, so an error names the line of the first bad
    record. A record without an id gets its index among the records.

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
    if format not in ("jsonl", "csv"):
        raise ValueError(f"unknown format {format!r}")
    chunks = _jsonl_chunks(data) if format == "jsonl" else _row_chunks(_csv_rows(data))
    parts, ids = [], []
    try:
        for lines, *fields, chunk_ids in chunks:
            try:
                values = [_floats(column) for column in fields]
            except (ValueError, OverflowError):
                # a bad value before the first field float() rejects is named first
                row = next(row for row, record in enumerate(zip(*fields)) if _not_numeric(record))
                _check_values(*(_floats(column[:row]) for column in fields))
                raise MalformedRecord(lines[row], "t, y, p must be numeric") from None
            _check_values(*values)
            parts.append(values)
            ids.extend(chunk_ids)
    except InvalidValue as exc:
        raise MalformedRecord(lines[exc.row], exc.message) from None
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
