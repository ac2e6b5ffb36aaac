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

FORMATS = ("jsonl", "csv")
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')
# JSONL is read about this many characters, and CSV this many rows, at a time,
# so that no list holds every line or number; much larger chunks raise peak memory
_CHUNK_CHARS = 1 << 16
_CHUNK_ROWS = 2048
# The layout serialize_records writes, line by line: JSON numbers without a
# minus sign (json reads "-0" as the int 0, loadtxt as -0.0) and ids that
# spell out a row index. A piece that is nothing else is read by np.loadtxt.
# Digits with no leading zero match as 0|[1-9][0-9]* does, but faster. Each
# repeat is possessive, so fullmatch keeps no state to backtrack into: no
# character that may follow a digit run, sign, fraction or exponent in a
# layout can extend it, so the possessive spelling accepts the same lines.
_INDEX = r"(?!0[0-9])[0-9]++"
_NUMBER = _INDEX + r"(?:\.[0-9]++)?+(?:[eE][-+]?+[0-9]++)?+"


def _layout(line):
    """A regex of one or more lines like line, where N stands for a number and
    I for an index, each ended by a line feed or by the end of the piece.

    Each line is matched atomically, by a possessive repeat, so that the
    regex keeps no state to backtrack into a line it has matched: a plain
    repeat kept about 2 KB a line, which raised peak memory, and fullmatch
    went back through every line before an odd one."""
    line = line.replace("N", _NUMBER).replace("I", _INDEX) + r"(?:\n|\Z)"
    return re.compile(f"(?:{line})++")


_JSONL_LAYOUT = _layout(r'\{"t": N, "y": N, "p": N(?:, "id": "I")?\}')
_CSV_LAYOUTS = {"t,y,p": _layout("N,N,N"), "t,y,p,id": _layout("N,N,N,I")}
# deletes the keys, quotes and braces of a JSONL piece in _JSONL_LAYOUT, so that N,N,N[,I] is left
_JSONL_KEYS = str.maketrans("", "", '{}"typid: ')


class EvalStream:
    """Ordered predictions over the test period [t_start, t_end], as columns.

    t, y and p are equal-length arrays. ids is a sequence of strings, or
    None when each row's id is its index. Every t must be finite and
    >= 0, every y 0 or 1 and every p in [0, 1]; the first row that breaks
    this, or whose id is not a string, raises InvalidValue.
    """

    def __init__(self, t, y, p, ids=None):
        t, y, p = map(_column, (t, y, p))
        if t.ndim != 1 or not t.shape == y.shape == p.shape:
            raise ValueError("t, y and p must be 1-d and of equal length")
        if ids is not None and len(ids) != t.size:
            raise ValueError("ids must have one entry per row")
        if t.size == 0:
            raise EmptyInput("stream must contain at least one record")
        # y is checked before it is cast, so that 0.5 or 2 is rejected, not cast to 0 or 2
        _check_values(t, y, p, ids)
        t, y, p = (column.astype(np.float64, copy=False) for column in (t, y, p))
        if np.any(np.diff(t) < 0):
            raise UnsortedInput("timestamps must be nondecreasing")
        self.t, self.y, self.p = t, y.astype(np.int64), p
        self.ids = None if ids is None else tuple(ids)
        self.t_start = float(t[0])
        self.t_end = float(t[-1])

    def __len__(self):
        return self.t.size


def _column(values):
    """values as an array. A sequence that numpy reads as strings is read
    again as objects, so that each value is judged as itself: numpy would
    spell a True among strings "True", and a float32 by its shortest repr."""
    column = np.asarray(values)
    if column.dtype.kind in "SU" and not isinstance(values, np.ndarray):
        return np.asarray(values, dtype=object)
    return column


def _check_values(t, y, p, ids=None):
    """Raise InvalidValue at the first row with a value _value_problem names
    or, when ids are given, an id that is not a string. Arrays numpy casts
    to float64 safely are checked as arrays; any other, such as one holding
    an int past the float range, None, a string or a complex number, is
    checked row by row on its Python values."""
    if all(np.can_cast(column.dtype, np.float64) for column in (t, y, p)):
        bad = _bad_values(t, y, p)
    else:
        rows = zip(t.tolist(), y.tolist(), p.tolist())
        bad = np.array([_value_problem(*row) is not None for row in rows])
    if ids is not None and not all(issubclass(kind, str) for kind in set(map(type, ids))):
        bad |= [not isinstance(i, str) for i in ids]
    if bad.any():
        row = int(bad.argmax())
        if ids is not None and not isinstance(ids[row], str):
            raise InvalidValue(row, "id must be a string")
        raise InvalidValue(row, _value_problem(t.item(row), y.item(row), p.item(row)))


def _bad_values(t, y, p):
    """Where t, y or p holds a value _value_problem names, as a bool array."""
    return ~(np.isfinite(t) & (t >= 0)) | ((y != 0) & (y != 1)) | ~((p >= 0) & (p <= 1))


def _value_problem(t, y, p):
    """What keeps t, y and p from being valid values, or None; float() reads all
    three first, but not a numpy complex number, whose imaginary part it drops."""
    if any(isinstance(v, np.complexfloating) for v in (t, y, p)):
        return "t, y, p must be numeric"
    try:
        t, y, p = float(t), float(y), float(p)
    except (TypeError, ValueError, OverflowError):
        return "t, y, p must be numeric"
    if not math.isfinite(t) or t < 0:
        return f"t must be finite and >= 0, got {t!r}"
    if y not in (0.0, 1.0):
        return f"y must be 0 or 1, got {y!r}"
    if not 0.0 <= p <= 1.0:  # also NaN
        return f"p must be in [0,1], got {p!r}"
    return None


class _FileDecodeError(UnicodeDecodeError):
    """A bad byte of one piece, at its offset in the whole file. object holds
    only the bad bytes, so that the error does not grow with the offset; start,
    end and the message are those of decoding the whole file."""

    def __str__(self):
        if self.end - self.start == 1:
            return (f"'{self.encoding}' codec can't decode byte 0x{self.object[0]:02x} "
                    f"in position {self.start}: {self.reason}")
        return (f"'{self.encoding}' codec can't decode bytes in position "
                f"{self.start}-{self.end - 1}: {self.reason}")


def _pieces(data):
    """Yield a str, or a file opened for reading, in pieces of about _CHUNK_CHARS
    characters that end just after a line feed or at the end: read(_CHUNK_CHARS)
    plus readline() of a file. A binary file's pieces end between characters, so
    each is decoded alone as UTF-8, and a bad byte is named at its file offset."""
    if isinstance(data, str):
        start = 0
        while start < len(data):
            stop = data.find("\n", start + _CHUNK_CHARS) + 1 or len(data)
            yield data[start:stop]
            start = stop
        return
    offset = 0
    while piece := data.read(_CHUNK_CHARS):
        piece += data.readline()
        if isinstance(piece, bytes):
            try:
                text = piece.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise _FileDecodeError(exc.encoding, piece[exc.start:exc.end], offset + exc.start,
                                       offset + exc.end, exc.reason) from None
            offset += len(piece)
            piece = text
        yield piece


def _index_columns(lines, rows):
    """Float64 t, y and p of lines of N,N,N or N,N,N,I read by np.loadtxt, or
    None unless every line has as many fields, every value passes the value
    checks and every I is its row index, counted from rows."""
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:  # lines with and without an id
        return None
    # an I past 2**53 reads as another float, but then not as an index
    if table.shape[1] == 4 and not np.array_equal(table[:, 3], np.arange(rows, rows + len(table))):
        return None
    columns = [table[:, i].copy() for i in range(3)]
    return None if _bad_values(*columns).any() else columns


def _checked_chunk(lines, fields):
    """([t, y, p] as checked float64, ids or None) of a chunk's field columns
    t, y, p[, ids]; a value that fails raises MalformedRecord at the first
    of lines, the chunk's line numbers, whose values _value_problem names."""
    try:
        values = [np.fromiter(map(float, column), np.float64, len(column)) for column in fields[:3]]
        _check_values(*values)
    except (ValueError, OverflowError, InvalidValue):
        problems = zip(lines, map(_value_problem, *fields[:3]))
        line, message = next((line, m) for line, m in problems if m)
        raise MalformedRecord(line, message) from None
    return values, (fields[3] if len(fields) > 3 else None)


def _jsonl_chunks(pieces):
    """Yield the checked chunk of the JSONL lines of each text piece, built of
    their JSON values by _jsonl_columns, or ([t, y, p], None) of a piece in
    _JSONL_LAYOUT that _index_columns reads.

    Each piece ends just after a line feed, so its lines are lines of the
    whole text's splitlines(). In a piece _index_columns declines, each line
    is scanned once; a line the scan does not take whole is skipped if it
    is blank, and read by json.loads if not. At a line json.loads rejects,
    the values before it are yielded, then MalformedRecord is raised; values
    that are not all records raise it in _jsonl_columns, none yielded."""
    scan = json.JSONDecoder().scan_once
    first, rows = 1, 0
    for piece in pieces:
        if _JSONL_LAYOUT.fullmatch(piece):
            columns = _index_columns(piece.translate(_JSONL_KEYS).splitlines(), rows)
            if columns is not None:
                n = len(columns[0])
                yield columns, None
                first, rows = first + n, rows + n
                continue
        lines = piece.splitlines()
        linenos, values = [], []
        for lineno, line in enumerate(lines, start=first):
            try:
                value, end = scan(line, 0)
            except (StopIteration, ValueError, RecursionError):
                end = None  # a blank line, a space before the value, invalid JSON
            if end != len(line):
                if not line.strip():
                    continue
                try:
                    value = json.loads(line)
                except (ValueError, RecursionError) as exc:  # also an int past 4300 digits
                    yield _jsonl_columns(linenos, values)
                    msg = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
                    raise MalformedRecord(lineno, f"invalid JSON: {msg}") from None
            linenos.append(lineno)
            values.append(value)
        yield _jsonl_columns(linenos, values)
        first, rows = first + len(lines), rows + len(values)


def _jsonl_columns(linenos, objs):
    """The checked chunk of the JSON values' t, y, p and ids, an id None where
    missing, or MalformedRecord at the first of their lines that
    _jsonl_problem or _checked_chunk names."""
    try:
        t = [o["t"] for o in objs]
        y = [o["y"] for o in objs]
        p = [o["p"] for o in objs]
        ids = [o.get("id") for o in objs]
        # json loads numbers as exact int or float; bool is its own type
        if set(map(type, t + y + p)) <= {int, float} and set(map(type, ids)) <= {str, type(None)}:
            return _checked_chunk(linenos, [t, y, p, ids])
    except (KeyError, TypeError):
        pass
    line, message = next((line, m) for line, m in zip(linenos, map(_jsonl_problem, objs)) if m)
    raise MalformedRecord(line, message)


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


def _csv_chunks(pieces):
    """Yield ([t, y, p], None) of each piece that _index_columns reads, while
    the header is a _CSV_LAYOUTS key and each piece is in its layout; from the
    first piece that is not, or from the start when the first line is no key,
    the checked chunk of one csv.reader's fields, _CHUNK_ROWS rows at a time,
    with one line count across both.

    csv.reader reads the lines of each text piece, split at line feeds only
    as io.StringIO splits them, so a quoted id may hold a carriage return
    and line numbers count line feeds. Read from the start, its header's
    names, stripped, must be those of a key. At a row with the wrong number
    of fields, or text csv.reader rejects, the rows before it are yielded,
    then MalformedRecord is raised."""
    pieces = iter(pieces)
    first = next(pieces, "")
    header, newline, body = first.partition("\n")
    layout = _CSV_LAYOUTS.get(header) if newline else None
    line = rows = 0
    if layout is not None:
        line, header = 1, header.split(",")
        for piece in itertools.chain([body] if body else [], pieces):
            columns = _index_columns(piece.splitlines(), rows) if layout.fullmatch(piece) else None
            if columns is None:
                first = piece  # csv.reader reads it and the rest
                break
            yield columns, None
            line, rows = line + len(columns[0]), rows + len(columns[0])
        else:
            return
    texts = map(io.StringIO, itertools.chain([first], pieces))
    reader = csv.reader(itertools.chain.from_iterable(texts))
    linenos, fields, problem = [], [], None
    try:
        if layout is None:
            header = next(reader, None)
            if header is None:
                raise EmptyInput("no CSV header")
            header = [h.strip() for h in header]
            if header not in [key.split(",") for key in _CSV_LAYOUTS]:
                raise MalformedRecord(
                    1, f"header must be 't,y,p' or 't,y,p,id', got {','.join(header)!r}")
        width = len(header)
        for row in reader:
            if not row:
                continue
            if len(row) != width:
                problem = f"expected {width} fields, got {len(row)}"
                break
            linenos.append(line + reader.line_num)
            # only strings outlive the row, and the garbage collector tracks none
            fields += row
            if len(linenos) == _CHUNK_ROWS:
                yield _checked_chunk(linenos, [fields[i::width] for i in range(width)])
                linenos, fields = [], []
    except csv.Error as exc:
        problem = f"invalid CSV: {exc}"
    if linenos:
        yield _checked_chunk(linenos, [fields[i::width] for i in range(width)])
    if problem:
        raise MalformedRecord(line + reader.line_num, problem)


def _index_ids(ids, first):
    """Whether every id is missing or spells out its row index, counted from first."""
    return ids.count(None) == len(ids) or all(
        i is None or i == str(row) for row, i in enumerate(ids, first))


def parse_records(data, format, sort=False):
    """Parse bytes, text or an open file in the given format into an EvalStream.

    The input is read once, in pieces of about _CHUNK_CHARS characters that
    end at a line feed, and parsed a chunk at a time. A piece in the layout
    serialize_records writes is one chunk, read by np.loadtxt: each line
    '{"t": N, "y": N, "p": N, "id": "I"}' or, after a "t,y,p,id" header,
    'N,N,N,I', the id optional (with a "t,y,p" header, absent), where N is a
    JSON number without a minus sign and I a row index without leading
    zeros. It is taken only when every value is valid and every id spells
    out its row index; a piece that is not is declined and read as if there
    were no such path, with the same values, errors and line numbers. A
    declined JSONL piece is a chunk of whole lines, each scanned once; a
    line the scan does not take whole is skipped if blank and otherwise
    decoded alone, such as one with a space around its value. From a
    declined CSV piece on, the rest of the log is read by csv.reader,
    _CHUNK_ROWS rows a chunk, since a quoted id may span pieces.
    Every reader hands over one kind of chunk: float64 t, y and p, checked
    before the next chunk is read, and the ids, or None for row indices. A
    chunk that fails the check is searched once, record by record, so an
    error names the line of the first bad record. A line that only a reader
    rejects, such as invalid JSON, is named after the records before it are
    checked, and a byte that is not UTF-8 when its piece is read. A record
    without an id gets its index. ids is None when each id is missing or
    spells out its row index, one id at a time however the chunks fall; such
    ids are not kept.

    Parameters
    ----------
    data : bytes, str or file
        Raw JSONL or CSV content, or a file opened for reading. Bytes and
        binary files are decoded as UTF-8. Open a text file with
        ``newline="\n"``, so that line ends are read as written.
    format : {"jsonl", "csv"}
    sort : bool
        When true, records are stably sorted by timestamp instead of
        rejecting unsorted input.
    """
    if isinstance(data, bytes):
        data = io.BytesIO(data)
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}")
    chunks = (_jsonl_chunks if format == "jsonl" else _csv_chunks)(_pieces(data))
    parts, ids, rows = [], None, 0
    for values, chunk_ids in chunks:
        n = len(values[0])
        if ids is None and chunk_ids is not None and not _index_ids(chunk_ids, rows):
            ids = list(map(str, range(rows)))  # the first chunk with ids of its own
        parts.append(values)
        if ids is not None:  # a chunk without ids gets its row indices
            ids.extend(map(str, range(rows, rows + n)) if chunk_ids is None else chunk_ids)
        rows += n
    if not rows:
        raise EmptyInput("no records in input")
    t, y, p = (np.concatenate(column) for column in zip(*parts))
    del parts
    if ids is not None and None in ids:
        ids = [str(row) if i is None else i for row, i in enumerate(ids)]
    if sort and np.any(np.diff(t) < 0):
        order = np.argsort(t, kind="stable")
        t, y, p = t[order], y[order], p[order]
        ids = [str(i) if ids is None else ids[i] for i in order]
    return EvalStream(t, y, p, ids)


def _csv_field(text):
    """text, quoted by csv rules if it holds a comma, quote or line break."""
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def serialize_records(stream, format, out=None):
    """Render a stream as JSONL or CSV text, the inverse of parse_records.

    The text is built _CHUNK_ROWS rows at a time. Given out, a file opened
    for writing, each piece is written as it is made and None is returned;
    otherwise the text is returned. A stream whose ids are None is written
    with each row's index as its id."""
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}")
    pieces = _text_pieces(stream, format)
    if out is None:
        return "".join(pieces)
    out.writelines(pieces)


def _text_pieces(stream, format):
    """The lines of serialize_records, joined _CHUNK_ROWS at a time.

    A row index needs no JSON escaping or CSV quotes, so it goes into its
    line as an int; an id of the stream's own goes through json's string
    encoder, the C function json.dumps(str) ends in, or _csv_field."""
    index_ids = stream.ids is None
    # one iterator across the pieces, so that each piece takes the next ids
    ids = iter(range(len(stream)) if index_ids else stream.ids)
    quote = json.encoder.encode_basestring_ascii
    if format == "csv":
        yield "t,y,p,id\n"
    for start in range(0, len(stream), _CHUNK_ROWS):
        block = slice(start, start + _CHUNK_ROWS)
        rows = zip(*(column[block].tolist() for column in (stream.t, stream.y, stream.p)), ids)
        # t and p are finite, so repr writes them as json.dumps would
        if format == "jsonl" and index_ids:
            yield "".join([f'{{"t": {t!r}, "y": {y}, "p": {p!r}, "id": "{i}"}}\n'
                           for t, y, p, i in rows])
        elif format == "jsonl":
            yield "".join([f'{{"t": {t!r}, "y": {y}, "p": {p!r}, "id": {quote(i)}}}\n'
                           for t, y, p, i in rows])
        elif index_ids:
            yield "".join([f"{t!r},{y},{p!r},{i}\n" for t, y, p, i in rows])
        else:
            yield "".join([f"{t!r},{y},{p!r},{_csv_field(i)}\n" for t, y, p, i in rows])


def threshold_labels(stream, threshold=0.5):
    """Predicted labels: 1 where p >= threshold, else 0."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    return (stream.p >= threshold).astype(np.int64)


def disagreement_set(stream, threshold=0.5):
    """Row positions where the thresholded prediction disagrees with y."""
    return np.flatnonzero(threshold_labels(stream, threshold) != stream.y)
