"""Canonical event stream: parsing, validation, splitting, thresholding.

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
import re

import numpy as np

from .errors import (
    DegenerateSplit,
    EmptyInput,
    MalformedRecord,
    UnsortedInput,
)

_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


class EvalStream:
    """Ordered predictions over the test period [t_start, t_end], as columns.

    t, y and p are equal-length arrays. ids is a sequence of strings, or
    None when each row's id is its index.
    """

    def __init__(self, t, y, p, ids=None):
        t = np.asarray(t, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        p = np.asarray(p, dtype=np.float64)
        if t.ndim != 1 or not t.shape == y.shape == p.shape:
            raise ValueError("t, y and p must be 1-d and of equal length")
        if ids is not None and len(ids) != t.size:
            raise ValueError("ids must have one entry per row")
        if t.size == 0:
            raise EmptyInput("stream must contain at least one record")
        if np.any(np.diff(t) < 0):
            raise UnsortedInput("timestamps must be nondecreasing")
        self.t, self.y, self.p = t, y, p
        self.ids = None if ids is None else tuple(ids)
        self.t_start = float(t[0])
        self.t_end = float(t[-1])

    def __len__(self):
        return self.t.size


def _validate_fields(t, y, p, line):
    try:
        t = float(t)
        y = float(y)
        p = float(p)
    except (TypeError, ValueError, OverflowError):
        raise MalformedRecord(line, "t, y, p must be numeric") from None
    if not np.isfinite(t) or t < 0:
        raise MalformedRecord(line, f"t must be finite and >= 0, got {t!r}")
    if y not in (0.0, 1.0):
        raise MalformedRecord(line, f"y must be 0 or 1, got {y!r}")
    if not np.isfinite(p) or not 0.0 <= p <= 1.0:
        raise MalformedRecord(line, f"p must be in [0,1], got {p!r}")
    return t, int(y), p


def _jsonl_rows(text):
    """Yield (line, t, y, p, id or None) per record line, checking its shape."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(lineno, f"invalid JSON: {exc.msg}") from None
        if not isinstance(obj, dict):
            raise MalformedRecord(lineno, "each line must be a JSON object")
        missing = [k for k in ("t", "y", "p") if k not in obj]
        if missing:
            raise MalformedRecord(lineno, f"missing keys: {', '.join(missing)}")
        rec_id = obj.get("id")
        if rec_id is not None and not isinstance(rec_id, str):
            raise MalformedRecord(lineno, "id must be a string")
        fields = (obj["t"], obj["y"], obj["p"])
        # JSON true/false load as bool, a subclass of int
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in fields):
            raise MalformedRecord(lineno, "t, y, p must be numeric")
        yield (lineno, *fields, rec_id)


def _csv_rows(text):
    """Yield (line, t, y, p, id or None) per CSV row; ids are kept verbatim."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
        if header is None:
            raise EmptyInput("no CSV header")
        header = [h.strip() for h in header]
        if header not in (["t", "y", "p"], ["t", "y", "p", "id"]):
            raise MalformedRecord(
                1, f"header must be 't,y,p' or 't,y,p,id', got {','.join(header)!r}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise MalformedRecord(
                    reader.line_num, f"expected {len(header)} fields, got {len(row)}")
            yield reader.line_num, row[0], row[1], row[2], row[3] if len(row) == 4 else None
    except csv.Error as exc:
        raise MalformedRecord(reader.line_num, f"invalid CSV: {exc}") from None


def parse_records(data, format, sort=False):
    """Parse bytes or text in the given format into an EvalStream.

    Records are validated one by one, so the first bad record is the one
    reported. A record without an id gets its index among the records.

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
        rows = _jsonl_rows(data)
    elif format == "csv":
        rows = _csv_rows(data)
    else:
        raise ValueError(f"unknown format {format!r}")
    t, y, p, ids = [], [], [], []
    for lineno, t_raw, y_raw, p_raw, rec_id in rows:
        t_val, y_val, p_val = _validate_fields(t_raw, y_raw, p_raw, lineno)
        t.append(t_val)
        y.append(y_val)
        p.append(p_val)
        ids.append(rec_id)
    if not t:
        raise EmptyInput("no records in input")
    if ids.count(None) == len(ids):
        ids = None
    else:
        ids = [str(index) if i is None else i for index, i in enumerate(ids)]
    t, y, p = np.array(t), np.array(y, dtype=np.int64), np.array(p)
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
        lines = [json.dumps({"t": t, "y": y, "p": p, "id": i}) for t, y, p, i in rows]
    elif format == "csv":
        lines = ["t,y,p,id"] + [f"{t!r},{y},{p!r},{_csv_field(i)}" for t, y, p, i in rows]
    else:
        raise ValueError(f"unknown format {format!r}")
    return "\n".join(lines) + "\n"


def chronological_split(stream, ratios):
    """Split a stream into (train, val, test) by time order.

    Boundaries sit at floor(r_train*M) and floor((r_train+r_val)*M) so
    split sizes are reproducible exactly across implementations.
    """
    r_train, r_val, r_test = ratios
    if min(r_train, r_val, r_test) <= 0:
        raise ValueError("split ratios must be positive")
    if abs(r_train + r_val + r_test - 1.0) > 1e-9:
        raise ValueError("split ratios must sum to 1")
    m = len(stream)
    i1 = int(np.floor(r_train * m))
    i2 = int(np.floor((r_train + r_val) * m))
    if i1 < 1 or i2 - i1 < 1 or m - i2 < 1:
        raise DegenerateSplit(f"split of {m} records by {ratios} leaves an empty part")
    ids = [str(i) for i in range(m)] if stream.ids is None else stream.ids
    return tuple(
        EvalStream(stream.t[a:b], stream.y[a:b], stream.p[a:b], ids[a:b])
        for a, b in ((0, i1), (i1, i2), (i2, m))
    )


def threshold_labels(stream, threshold=0.5):
    """Predicted labels: 1 where p >= threshold, else 0."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    return (stream.p >= threshold).astype(np.int64)


def disagreement_set(stream, threshold=0.5):
    """Row positions where the thresholded prediction disagrees with y."""
    return np.flatnonzero(threshold_labels(stream, threshold) != stream.y)
