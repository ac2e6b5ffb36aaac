import csv
import io
import itertools
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from vcseval import event_stream
from vcseval import (
    EmptyInput,
    EvalStream,
    InvalidValue,
    MalformedRecord,
    UnsortedInput,
    VcsEvalError,
    disagreement_set,
    parse_records,
    serialize_records,
    threshold_labels,
)

from . import oracles

JSONL = """\
{"t": 1.0, "y": 1, "p": 0.9}
{"t": 2.5, "y": 0, "p": 0.2, "id": "abc"}
{"t": 2.5, "y": 1, "p": 0.3, "extra": "ignored"}
"""

CSV = """\
t,y,p,id
1.0,1,0.9,a
2.5,0,0.2,b
4.0,1,0.3,c
"""


def make_stream(times, ys=None, ps=None):
    n = len(times)
    return EvalStream(times, ys or [0] * n, ps or [0.1] * n)


def assert_same_stream(a, b):
    """Equal columns, and equal ids once a missing id reads as the row index."""
    assert a.t.tolist() == b.t.tolist()
    assert a.y.tolist() == b.y.tolist()
    assert a.p.tolist() == b.p.tolist()
    assert row_ids(a) == row_ids(b)


def row_ids(stream):
    return [str(i) for i in range(len(stream))] if stream.ids is None else list(stream.ids)


class TestParse:
    def test_jsonl_happy_path(self):
        stream = parse_records(JSONL, "jsonl")
        assert len(stream) == 3
        assert (stream.t[0], stream.y[0], stream.p[0]) == (1.0, 1, 0.9)
        assert stream.ids == ("0", "abc", "2")
        assert stream.t_start == 1.0 and stream.t_end == 2.5

    def test_jsonl_accepts_bytes(self):
        stream = parse_records(JSONL.encode(), "jsonl")
        assert len(stream) == 3

    def test_csv_happy_path(self):
        stream = parse_records(CSV, "csv")
        assert stream.ids == ("a", "b", "c")
        assert stream.p.tolist() == [0.9, 0.2, 0.3]

    def test_csv_without_id_column(self):
        stream = parse_records("t,y,p\n1.0,0,0.5\n2.0,1,0.5\n", "csv")
        assert stream.ids is None
        assert row_ids(stream) == ["0", "1"]

    def test_blank_lines_skipped(self):
        stream = parse_records('{"t": 1, "y": 0, "p": 0.5}\n\n\n', "jsonl")
        assert len(stream) == 1

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ('{"t": 1, "y": 0}', "missing keys"),
            ('{"t": 1, "y": 2, "p": 0.5}', "y must be 0 or 1"),
            ('{"t": 1, "y": 0, "p": 1.5}', "p must be in"),
            ('{"t": -1, "y": 0, "p": 0.5}', "t must be finite"),
            ('{"t": "x", "y": 0, "p": 0.5}', "numeric"),
            ('{"t": "1", "y": 0, "p": 0.5}', "numeric"),
            ('{"t": 1, "y": true, "p": 0.5}', "numeric"),
            ('{"t": 1, "y": 1, "p": true}', "numeric"),
            ('{"t": false, "y": 0, "p": 0.5}', "numeric"),
            ('{"t": 1, "y": 0, "p": 1e999999}', "p must be in"),
            pytest.param('{"t": 1, "y": 0, "p": 1' + "0" * 400 + '}', "numeric",
                         id="int-beyond-float-range"),
            ('{"t": 1, "y": 0, "p": 0.5, "id": 7}', "id must be a string"),
            ("not json", "invalid JSON"),
            ("[1, 2]", "JSON object"),
        ],
    )
    def test_jsonl_malformed(self, line, fragment):
        with pytest.raises(MalformedRecord) as err:
            parse_records(line, "jsonl")
        assert fragment in str(err.value)
        assert err.value.line == 1

    def test_malformed_reports_line_number(self):
        data = '{"t": 1, "y": 0, "p": 0.5}\n{"t": 2, "y": 3, "p": 0.5}\n'
        with pytest.raises(MalformedRecord) as err:
            parse_records(data, "jsonl")
        assert err.value.line == 2

    def test_csv_bad_header(self):
        with pytest.raises(MalformedRecord):
            parse_records("time,y,p\n1,0,0.5\n", "csv")

    def test_invalid_csv_reports_line(self):
        with pytest.raises(MalformedRecord) as err:
            parse_records("t,y,p\n1,0,0.5\rx\n", "csv")
        assert "invalid CSV" in str(err.value)
        assert err.value.line == 2

    def test_csv_wrong_field_count(self):
        with pytest.raises(MalformedRecord) as err:
            parse_records("t,y,p\n1,0,0.5,extra\n", "csv")
        assert err.value.line == 2

    def test_empty_inputs(self):
        with pytest.raises(EmptyInput):
            parse_records("", "jsonl")
        with pytest.raises(EmptyInput):
            parse_records("", "csv")
        with pytest.raises(EmptyInput):
            parse_records("t,y,p\n", "csv")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_records(JSONL, "xml")
        with pytest.raises(ValueError, match="^unknown format 'xml'$"):
            serialize_records(parse_records(JSONL, "jsonl"), "xml")

    def test_unsorted_rejected_by_default(self):
        data = '{"t": 2, "y": 0, "p": 0.5}\n{"t": 1, "y": 0, "p": 0.5}\n'
        with pytest.raises(UnsortedInput):
            parse_records(data, "jsonl")

    def test_opt_in_sort_is_stable(self):
        data = (
            '{"t": 2, "y": 0, "p": 0.5, "id": "late"}\n'
            '{"t": 1, "y": 0, "p": 0.5, "id": "early"}\n'
            '{"t": 2, "y": 1, "p": 0.5, "id": "late2"}\n'
        )
        stream = parse_records(data, "jsonl", sort=True)
        assert stream.ids == ("early", "late", "late2")

    def test_equal_timestamps_keep_input_order(self):
        stream = parse_records(JSONL, "jsonl")
        assert stream.ids[1:] == ("abc", "2")


class TestSerialize:
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_round_trip_exact(self, fmt):
        rng = np.random.default_rng(5)
        times = np.sort(rng.random(50) * 1e4)
        stream = EvalStream(times, rng.integers(0, 2, 50), rng.random(50),
                            [f"e{i}" for i in range(50)])
        back = parse_records(serialize_records(stream, fmt), fmt)
        assert_same_stream(back, stream)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_awkward_ids_round_trip(self, fmt):
        ids = ["a,b", "", " pad ", 'say "hi"', "two\nlines", "cr\r", "\u2028"]
        stream = EvalStream(np.arange(7.0), [0] * 7, [0.5] * 7, ids)
        back = parse_records(serialize_records(stream, fmt), fmt)
        assert back.ids == tuple(ids)

    def test_csv_plain_ids_written_bare(self):
        stream = EvalStream([1.5, 2.0], [1, 0], [0.25, 0.5], ["a", "b-2"])
        assert serialize_records(stream, "csv") == "t,y,p,id\n1.5,1,0.25,a\n2.0,0,0.5,b-2\n"

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from(["jsonl", "csv"]))
    def test_round_trip_any_ids(self, data, fmt):
        n = data.draw(st.integers(1, 12))
        size = dict(min_size=n, max_size=n)
        t = sorted(data.draw(st.lists(st.floats(0.0, 1e300), **size)))
        y = data.draw(st.lists(st.integers(0, 1), **size))
        p = data.draw(st.lists(st.floats(0.0, 1.0), **size))
        ids = data.draw(st.lists(st.text(), **size))
        stream = EvalStream(t, y, p, ids)
        back = parse_records(serialize_records(stream, fmt), fmt)
        assert_same_stream(back, stream)
        assert row_ids(back) == ids

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from(["jsonl", "csv"]), st.booleans(), st.booleans())
    def test_same_text_as_the_row_writer(self, data, fmt, own_ids, to_file):
        """Byte for byte, for index and own ids, across piece boundaries."""
        rows = event_stream._CHUNK_ROWS
        n = data.draw(st.one_of(st.integers(1, 5), st.integers(rows - 1, 2 * rows + 1)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        t = np.sort(rng.random(n) * 10.0 ** rng.integers(-320, 300, n))
        t[:data.draw(st.integers(0, 3))] = -0.0
        p = rng.random(n)
        p[rng.random(n) < 0.05] = -0.0
        ids = None
        if own_ids:
            awkward = ['"', "\\", ",", "\r", "\n", "", "é", "\u2028", "\x00", "\x1f", "\ud800",
                       'a "b", c\r\n', "12"]
            pool = data.draw(st.lists(st.sampled_from(awkward) | st.text(), min_size=1, max_size=8))
            ids = [pool[row % len(pool)] for row in range(n)]
        stream = EvalStream(t, rng.integers(0, 2, n), p, ids)
        if to_file:
            out = io.StringIO()
            assert serialize_records(stream, fmt, out) is None
            text = out.getvalue()
        else:
            text = serialize_records(stream, fmt)
        assert text == oracles.records_text(stream, fmt)

    def test_jsonl_lines_are_objects(self):
        stream = parse_records(CSV, "csv")
        for line in serialize_records(stream, "jsonl").splitlines():
            obj = json.loads(line)
            assert set(obj) == {"t", "y", "p", "id"}

    def test_csv_header(self):
        stream = parse_records(JSONL, "jsonl")
        assert serialize_records(stream, "csv").splitlines()[0] == "t,y,p,id"


class TestStream:
    def test_nondecreasing_enforced(self):
        with pytest.raises(UnsortedInput):
            make_stream([2.0, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            EvalStream([], [], [])

    def test_period_is_full_stream(self):
        stream = make_stream([3.0, 7.0, 9.0])
        assert (stream.t_start, stream.t_end) == (3.0, 9.0)

    @pytest.mark.parametrize(
        "column,values,message",
        [
            ("t", [0.0, np.nan, 1.0, 2.0], "row 1: t must be finite and >= 0, got nan"),
            ("t", [0.0, 1.0, 2.0, np.inf], "row 3: t must be finite and >= 0, got inf"),
            ("y", [1, 0, 2, 0], "row 2: y must be 0 or 1, got 2.0"),
            ("y", [1, 0.5, 1, 0], "row 1: y must be 0 or 1, got 0.5"),
            ("p", [0.1, 0.1, 0.1, -3.0], "row 3: p must be in [0,1], got -3.0"),
            ("p", [1.5, 0.1, 0.1, 0.9], "row 0: p must be in [0,1], got 1.5"),
        ],
        ids=["nan-t", "inf-t", "y-2", "y-half", "p-negative", "p-above-one"],
    )
    def test_bad_value_rejected(self, column, values, message):
        columns = {"t": [0.0, 1.0, 2.0, 3.0], "y": [1, 1, 1, 0], "p": [0.1, 0.1, 0.1, 0.9]}
        columns[column] = values
        with pytest.raises(InvalidValue) as err:
            EvalStream(columns["t"], columns["y"], columns["p"])
        assert isinstance(err.value, VcsEvalError)
        assert str(err.value) == message
        assert err.value.row == int(message.split(":")[0].split()[1])

    @pytest.mark.parametrize("column", ["t", "y", "p"])
    def test_int_past_the_float_range_named_at_its_row(self, column):
        """With parse_records' wording for such a number, after a valid row;
        so is any other value that is not a real number, with no warning. A
        complex array, even with no imaginary part, is named at row 0, as
        errors._as_floats names it by its kind."""
        for value in [10**400, 1j, 1 + 0j, "a", None, {}, np.complex128(1j)]:
            columns = {"t": [0.0, 1.0, 2.0], "y": [1, 1, 0], "p": [0.1, 0.1, 0.9]}
            columns[column][1] = value
            if isinstance(value, np.complex128):  # kept as it is in an object array
                columns[column] = np.array(columns[column], dtype=object)
            row = 0 if np.asarray(columns[column]).dtype.kind == "c" else 1
            with pytest.raises(InvalidValue, match=rf"^row {row}: t, y, p must be numeric$"):
                EvalStream(columns["t"], columns["y"], columns["p"])
            with pytest.raises(InvalidValue, match=r"^row 0: id must be a string$"):
                EvalStream(columns["t"], columns["y"], columns["p"], [None, "b", "c"])

    def test_numeric_strings_and_bools_accepted(self):
        stream = EvalStream(["0", " 1.5", "2e0"], ["1", "1", "0.0"], np.array(["0", "1", "1"]))
        assert stream.t.tolist() == [0.0, 1.5, 2.0]
        assert stream.y.tolist() == [1, 1, 0] and stream.y.dtype == np.int64
        assert stream.p.tolist() == [0.0, 1.0, 1.0] and stream.p.dtype == np.float64
        stream = EvalStream([0, 1, 2], [True, True, False], [False, True, np.True_])
        assert stream.y.tolist() == [1, 1, 0] and stream.p.tolist() == [0.0, 1.0, 1.0]

    def test_first_bad_row_is_named(self):
        with pytest.raises(InvalidValue) as err:
            EvalStream([0.0, 1.0, np.nan], [0, 3, 0], [0.5, 0.5, 0.5])
        assert err.value.row == 1

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_non_string_id_rejected(self, fmt):
        """With the row path's wording, so no stream writes what no reader takes."""
        with pytest.raises(InvalidValue, match=r"^row 1: id must be a string$"):
            serialize_records(EvalStream([0.0, 1.0, 2.0], [0, 1, 1], [0.5, 0.5, 2.0],
                                         ["a", 8, None]), fmt)
        with pytest.raises(InvalidValue, match=r"^row 0: p must be in \[0,1\], got 2.0$"):
            serialize_records(EvalStream([0.0, 1.0], [0, 1], [2.0, 0.5], ["a", 8]), fmt)

    @pytest.mark.parametrize(
        "columns,ids,message",
        [
            (([0.0, 1.0], [0, 1], [0.5]), None, "^t, y and p must be 1-d and of equal length$"),
            (([[0.0, 1.0]], [[0, 1]], [[0.5, 0.5]]), None,
             "^t, y and p must be 1-d and of equal length$"),
            (([0.0, 1.0], [0, 1], [0.5, 0.5]), ["a"], "^ids must have one entry per row$"),
        ],
        ids=["unequal-lengths", "2-d", "short-ids"],
    )
    def test_bad_shape_rejected(self, columns, ids, message):
        with pytest.raises(ValueError, match=message):
            EvalStream(*columns, ids)

    def test_y_kept_as_int(self):
        stream = EvalStream([0.0, 1.0], [0.0, True], [0.5, 0.5])
        assert stream.y.dtype == np.int64
        assert stream.y.tolist() == [0, 1]


def row_path(text, fmt, sort=False):
    """parse_records as the record-by-record reader alone computes it.

    Records are read and checked one at a time by the oracles, which share
    no code with the package's chunked readers and column checks. Returns
    (t, y, p, ids) as lists, ids None when no record has one.
    """
    rows = oracles.jsonl_rows if fmt == "jsonl" else oracles.csv_rows
    records = []
    for line, t, y, p, rec_id in rows(text):
        records.append((*oracles.record_values(t, y, p, line), rec_id))
    if not records:
        raise EmptyInput("no records in input")
    if all(r[3] is None for r in records):
        records = [(*r[:3], None) for r in records]
        has_ids = False
    else:
        records = [(*r[:3], str(i) if r[3] is None else r[3]) for i, r in enumerate(records)]
        has_ids = True
    if sort:
        order = sorted(range(len(records)), key=lambda i: records[i][0])
        records = [(*records[i][:3], records[i][3] if has_ids else str(i)) for i in order]
        has_ids = True
    elif any(b[0] < a[0] for a, b in zip(records, records[1:])):
        raise UnsortedInput("timestamps must be nondecreasing")
    t, y, p, ids = (list(c) for c in zip(*records))
    return t, y, p, ids if has_ids else None


def outcome(parse):
    """What a parse returns, with exact float bits and the id of every row
    (its index where ids are None), or the error it raises."""
    try:
        t, y, p, ids = parse()
    except (VcsEvalError, ValueError) as exc:
        return type(exc), str(exc)
    return (np.asarray(t, np.float64).tobytes(), np.asarray(y, np.int64).tolist(),
            np.asarray(p, np.float64).tobytes(),
            [str(i) for i in range(len(t))] if ids is None else list(ids))


def parsed(source, fmt, sort=False):
    """outcome of parse_records on a text, or on the file that source() opens."""
    def parse():
        if isinstance(source, str):
            stream = parse_records(source, fmt, sort)
        else:
            with source() as log:
                stream = parse_records(log, fmt, sort)
        return stream.t, stream.y, stream.p, stream.ids
    return outcome(parse)


def assert_same_as_row_path(text, fmt, sort=False, path=None):
    """parse_records of the text equals the row path; so does its read of
    the text written to path, when one is given, opened as evaluate opens it
    (binary) and as a text file without line-end translation."""
    got = parsed(text, fmt, sort)
    assert got == outcome(lambda: row_path(text, fmt, sort))
    if path is not None:
        path.write_bytes(text.encode("utf-8"))
        assert parsed(lambda: open(path, "rb"), fmt, sort) == got
        assert parsed(lambda: open(path, encoding="utf-8", newline="\n"), fmt, sort) == got
    return got


ODD_NUMBER = st.one_of(
    st.floats(), st.integers(), st.booleans(), st.none(), st.text(max_size=3),
    st.sampled_from([1.0, 2**53 + 1, 2**64, 10**309, -0.0]),
)
ODD_FIELD = st.one_of(
    st.sampled_from(["1_0", " 1", "1 ", "nan", "inf", "-0", "1e999", "0x1", "", "1.0"]),
    st.text(max_size=4),
)
TEXT_ID = st.text(st.characters(codec="utf-8"), max_size=5)


def drawer(draw):
    """draw for one text: the valid strategy, but the odd one at two calls at most,
    so that a text may hold, say, a bad value and a later malformed line."""
    odd_at = draw(st.sets(st.integers(0, 50), max_size=2))
    calls = itertools.count()
    return lambda valid, odd: draw(odd if next(calls) in odd_at else valid)


@st.composite
def jsonl_texts(draw):
    pick = drawer(draw)
    newline = pick(st.just("\n"), st.sampled_from(["\r\n", "\u2028", "\x0b", "\n\n"]))
    lines = []
    for t in sorted(draw(st.lists(st.floats(0, 100, width=32), max_size=10))):
        obj = {"t": pick(st.just(t), ODD_NUMBER), "y": pick(st.integers(0, 1), ODD_NUMBER),
               "p": pick(st.floats(0, 1), ODD_NUMBER)}
        if draw(st.booleans()):
            obj["id"] = pick(TEXT_ID, ODD_NUMBER)
        if pick(st.just(False), st.just(True)):
            del obj[draw(st.sampled_from(sorted(obj)))]
        line = json.dumps(obj, ensure_ascii=draw(st.booleans()),
                          separators=draw(st.sampled_from([None, (",", ":")])))
        lines.append(pick(st.just(line), st.sampled_from(
            [" " + line, line + " ", "", line + line, line + " " + line,
             line.replace(",", ",\n", 1), line[:-1], "[]", "{}"])))
    return newline.join(lines) + draw(st.sampled_from(["", "\n", newline]))


@st.composite
def csv_texts(draw):
    pick = drawer(draw)
    newline = pick(st.just("\n"), st.sampled_from(["\r\n", "\n\n", "\r"]))
    has_id = draw(st.booleans())
    lines = [pick(st.just("t,y,p,id" if has_id else "t,y,p"),
                  st.sampled_from([" t , y , p", "t,y", "", "t,y,p,id,x"]))]
    for t in sorted(draw(st.lists(st.floats(0, 100, width=32), max_size=10))):
        fields = [pick(st.just(repr(t)), ODD_FIELD),
                  pick(st.sampled_from(["0", "1"]), ODD_FIELD),
                  pick(st.floats(0, 1).map(repr), ODD_FIELD)]
        if has_id:
            fields.append(pick(st.text("abc-_ ", max_size=4), TEXT_ID))
        fields = pick(st.just(fields), st.sampled_from(
            [fields[:-1], fields + ["x"], ['"' + f + '"' for f in fields]]))
        lines.append(",".join(fields))
    return newline.join(lines) + draw(st.sampled_from(["", "\n"]))


class TestBulkMatchesRowPath:
    """parse_records equals the record-by-record reader, value for value.

    Equal means the same columns, bit for bit, and the same ids, or the
    same error type with the same message.
    """

    @settings(max_examples=400, deadline=None)
    @given(st.data(), st.sampled_from(["jsonl", "csv"]), st.booleans(),
           st.sampled_from([1, 40, event_stream._CHUNK_CHARS]),
           st.sampled_from([1, 3, event_stream._CHUNK_ROWS]))
    def test_fuzzed_text(self, tmp_path_factory, data, fmt, sort, chunk_chars, chunk_rows):
        text = data.draw(jsonl_texts() if fmt == "jsonl" else csv_texts())
        # small JSONL chunks split a text into many, some scanned, some decoded;
        # small CSV chunks put a bad row after, at or before a chunk boundary;
        # a file is read in pieces of bytes, so its pieces end at other line feeds
        with mock.patch.object(event_stream, "_CHUNK_CHARS", chunk_chars), \
                mock.patch.object(event_stream, "_CHUNK_ROWS", chunk_rows):
            got = assert_same_as_row_path(text, fmt, sort,
                                          tmp_path_factory.getbasetemp() / "fuzzed.log")
        event(f"{fmt} ok={isinstance(got[0], bytes)}")

    @staticmethod
    def forbid_record_checks(monkeypatch):
        """Make the record-by-record search that names a bad record fail if it runs."""
        def fail(*args):
            raise AssertionError("a valid text was searched record by record")

        monkeypatch.setattr(event_stream, "_jsonl_problem", fail)
        monkeypatch.setattr(event_stream, "_value_problem", fail)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_plain_text_never_reaches_the_row_path(self, fmt, monkeypatch):
        rng = np.random.default_rng(3)
        stream = EvalStream(np.sort(rng.random(3000) * 1e3), rng.integers(0, 2, 3000),
                            rng.random(3000), [f"e{i}" for i in range(3000)])
        text = serialize_records(stream, fmt)
        self.forbid_record_checks(monkeypatch)
        assert_same_stream(parse_records(text, fmt), stream)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_valid_awkward_text_never_reaches_the_record_loop(self, fmt, monkeypatch):
        stream = EvalStream([1.0, 2.0, 2.0, 3.5], [0, 1, 0, 1], [0.25, 0.5, 1.0, 0.0],
                            ["a,b", 'say "hi"', "c", ""])
        # CRLF line ends and blank lines; the ids need csv quotes
        text = serialize_records(stream, fmt).replace("\n", "\r\n\r\n")
        self.forbid_record_checks(monkeypatch)
        assert_same_stream(parse_records(text, fmt), stream)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_bad_last_line_is_read_once(self, fmt, monkeypatch):
        n = 7000
        stream = EvalStream(np.arange(n, dtype=np.float64), [0] * n, [0.5] * n,
                            [f"e{i}" for i in range(n)])
        lines = serialize_records(stream, fmt).splitlines()
        lines[-1] = lines[-1].replace("0.5", "2")
        text = "\n".join(lines) + "\n"
        if fmt == "jsonl":
            assert len(text) > 3 * event_stream._CHUNK_CHARS
            module, name = event_stream, "_jsonl_chunks"
        else:
            assert n > 3 * event_stream._CHUNK_ROWS
            module, name = csv, "reader"
        reads, read = [], getattr(module, name)

        def counting_read(*args, **kwargs):
            reads.append(name)
            return read(*args, **kwargs)

        monkeypatch.setattr(module, name, counting_read)
        with pytest.raises(MalformedRecord, match=f"^line {len(lines)}: p must be in"):
            parse_records(text, fmt)
        assert reads == [name]

    def test_odd_line_is_decoded_with_its_chunk_only(self, monkeypatch):
        rng = np.random.default_rng(5)
        n = 4000
        stream = EvalStream(np.sort(rng.random(n) * 1e3), rng.integers(0, 2, n),
                            rng.random(n), [f"e{i}" for i in range(n)])
        lines = serialize_records(stream, "jsonl").splitlines()
        lines[n // 2] = " " + lines[n // 2] + " "
        text = "\n".join(lines) + "\n"
        longest = max(map(len, lines))
        assert len(text) > 3 * (event_stream._CHUNK_CHARS + longest + 1)
        decoded, loads = [], json.loads

        def recording_loads(line, *args, **kwargs):
            decoded.append(line)
            return loads(line, *args, **kwargs)

        monkeypatch.setattr(json, "loads", recording_loads)
        assert_same_stream(parse_records(text, "jsonl"), stream)
        # one run of whole lines around the padded one, no longer than a chunk
        first = lines.index(decoded[0])
        assert decoded == lines[first:first + len(decoded)]
        assert lines[n // 2] in decoded
        assert sum(len(line) + 1 for line in decoded) <= event_stream._CHUNK_CHARS + longest + 1

    def test_only_odd_lines_are_decoded(self, monkeypatch):
        n, group = 400, 8
        t, y, p = 1000.5 + np.arange(n), np.arange(n) % 2, 0.25 + 0.5 * (np.arange(n) % 2)
        lines = [JSONL_LINES["no-id"].format(t=repr(a), y=b, p=repr(c))
                 for a, b, c in zip(t.tolist(), y.tolist(), p.tolist())]
        # a padded line, a blank one and canonical ones; the groups are of one
        # length, so a piece one character shorter than a group holds one group
        groups = [[" " + lines[i] + " ", "", *lines[i + 1:i + group]] for i in range(0, n, group)]
        padded = [g[0] for g in groups]
        text = "".join(line + "\n" for g in groups for line in g)
        monkeypatch.setattr(event_stream, "_CHUNK_CHARS", len(text) // (n // group) - 1)
        pieces = list(event_stream._pieces(text))
        assert len(pieces) == n // group
        assert all(piece.startswith(" ") and piece.count("\n\n") == 1 for piece in pieces)
        decoded, loads = [], json.loads

        def recording_loads(line, *args, **kwargs):
            decoded.append(line)
            return loads(line, *args, **kwargs)

        monkeypatch.setattr(json, "loads", recording_loads)
        assert_same_stream(parse_records(text, "jsonl"), EvalStream(t, y, p))
        assert decoded == padded

    @pytest.mark.parametrize(
        "text,want",
        [
            pytest.param('{"t":0,"y":0,"p":0.5,"x":[{"a":1}\n{"b":2}]}\n',
                         "line 1: invalid JSON", id="object-spanning-lines"),
            pytest.param('{"t": 0, "y": 0,\n "p": 0.5}\n', "line 1: invalid JSON",
                         id="object-spanning-lines-at-a-space"),
            pytest.param('{"t":0,"y":0,"p":0.5}{"t":1,"y":0,"p":0.5}\n{"t":2,"y":0,"p":0.5}\n',
                         "line 1: invalid JSON: Extra data", id="two-objects-on-a-line"),
            # two values on line 1, one spanning lines 2 and 3: as many values as lines
            pytest.param('{"t": 0, "y": 0, "p": 0.5} {"t": 1, "y": 0,\n"p": 0.5}\n',
                         "line 1: invalid JSON: Extra data", id="two-objects-then-spanning"),
            pytest.param('{"t": 1, "y": 0, "p": 0.5}\r\n{"t": 2, "y": 1, "p": 0.5}\r\n',
                         None, id="crlf-line-endings"),
            pytest.param('{"t": 1, "y": 0, "p": 0.5, "id": "a\u2028b"}\n',
                         "line 1: invalid JSON", id="raw-u2028-in-id"),
            pytest.param(' {"t": 1, "y": 0, "p": 0.5}\n{"t": 2, "y": 1, "p": 0.5} \n',
                         None, id="leading-and-trailing-spaces"),
            pytest.param('{"t": 1, "y": 0, "p": 0.5}\n\n  \n{"t": 2, "y": 1, "p": 0.5}\n\n',
                         None, id="blank-lines"),
            pytest.param('{"t": 1, "y": 0, "p": 0.5}\n{"t": NaN, "y": 0, "p": 0.5}\n',
                         "line 2: t must be finite and >= 0, got nan", id="nan-literal"),
            pytest.param('{"t": 1, "y": 0, "p": Infinity}\n',
                         "line 1: p must be in [0,1], got inf", id="infinity-literal"),
            pytest.param('{"t": 1, "y": 1.0, "p": 0.5}\n', None, id="y-one-point-zero"),
            pytest.param('{"t": 9007199254740993, "y": 0, "p": 0.5}\n', None, id="int-near-2**53"),
            pytest.param('{"t": 18446744073709551617, "y": 1, "p": 0.5}\n', None,
                         id="int-near-2**64"),
            pytest.param('{"t": 1%s, "y": 0, "p": 0.5}\n' % ("0" * 309),
                         "line 1: t, y, p must be numeric", id="int-near-10**309"),
            pytest.param('{"t": 1, "y": 1, "p": 0.5}\n{"t": 0, "y": 0, "p": 0.5}\n',
                         "timestamps must be nondecreasing", id="unsorted"),
            pytest.param('{"t": 1, "y": 0, "p": 2}\r\n{"t": 2, "y": 0}\r\n',
                         "line 1: p must be in [0,1], got 2.0", id="bad-value-then-missing-key"),
            # the values before the invalid line reach the record loop first
            pytest.param('{"t": 1, "y": 0, "p": 2}\n\n{"t": 2\n',
                         "line 1: p must be in [0,1], got 2.0", id="bad-value-then-invalid-json"),
            # line numbers run on past a decoded chunk into the next one
            pytest.param("\n" + '{"t": 1, "y": 0, "p": 0.5}\n' * 3000 + '{"t": 1, "y": 0, "p": 2}',
                         "line 3002: p must be in [0,1], got 2.0",
                         id="blank-line-then-bad-value-a-chunk-later"),
            pytest.param('{"t": 1, "y": 0, "p": 0.5, "id": 7}\n{"t": 2, "y": 0, "p": 2}\n',
                         "line 1: id must be a string", id="int-id-then-bad-value"),
            # a decoded chunk's line numbers skip its blank lines
            pytest.param('{"t": 1, "y": 0, "p": 0.5}\n\n{"t": 2, "y": 0, "p": 2}\n',
                         "line 3: p must be in [0,1], got 2.0", id="blank-line-then-bad-value"),
            pytest.param('{"t": 1, "y": 0, "p": 2}\n{"t": 1%s, "y": 0, "p": 0.5}\n' % ("0" * 400),
                         "line 1: p must be in [0,1], got 2.0",
                         id="bad-value-then-int-beyond-float-range"),
            # str.splitlines splits at these, in a file as in a text
            pytest.param('{"t": 1, "y": 0, "p": 0.5}\u2028{"t": 2, "y": 0, "p": 0.5}\x0b'
                         '{"t": 3, "y": 0, "p": 0.5}\r{"t": 4, "y": 0, "p": 2}\n',
                         "line 4: p must be in [0,1], got 2.0", id="unicode-line-breaks"),
            pytest.param('{"t": 1, "y": 0, "p": 0.5}\r\n\r\n  \r\n {"t": 2, "y": 1, "p": 0.5} \r\n'
                         '{"t": 3, "y": 3, "p": 0.5}\r\n',
                         "line 5: y must be 0 or 1, got 3.0", id="crlf-blank-and-padded-lines"),
            pytest.param('{"t": 1%s, "y": 0, "p": 0.5}\n' % ("0" * 5000),
                         "line 1: invalid JSON: Exceeds the limit (4300 digits)",
                         id="int-past-4300-digits"),
            pytest.param('{"t": 1, "y": 0, "p": 0.5, "x": %s}\n' % ("[" * 100_000 + "]" * 100_000),
                         "line 1: invalid JSON: maximum recursion depth exceeded",
                         id="array-nested-100k-deep"),
        ],
    )
    def test_jsonl_case(self, text, want, tmp_path):
        self.check_case(text, "jsonl", want, tmp_path)

    @staticmethod
    def check_case(text, fmt, want, tmp_path):
        """Equal to the row path, from the text and from a file, with the expected error."""
        got = assert_same_as_row_path(text, fmt, path=tmp_path / "case.log")
        if want is None:
            assert isinstance(got[0], bytes)
        else:
            assert want in got[1]

    def test_exact_ints(self):
        text = ('{"t": 9007199254740993, "y": 0, "p": 0.5}\n'
                '{"t": 18446744073709551617, "y": 1, "p": 1}\n')
        stream = parse_records(text, "jsonl")
        assert stream.t.tolist() == [float(2**53 + 1), float(2**64 + 1)]

    @pytest.mark.parametrize(
        "text,want",
        [
            pytest.param("t,y,p\n1_0,0,0.5\n", None, id="underscore-number"),
            pytest.param('t,y,p,id\n1,0,0.5,"a,b"\n2,1,0.5,"say ""hi"""\n', None, id="quoted-ids"),
            pytest.param("t,y,p,id\n1,0,0.5,a\x00b\n", None, id="nul-in-id"),
            pytest.param("t,y,p\r\n1,0,0.5\r\n2,1,0.5\r\n", None, id="crlf-line-endings"),
            pytest.param("t,y,p,id\n 1 ,1.0,0.5, x \n\n2,0,1e0,\n", None,
                         id="spaces-blank-line-float-y"),
            pytest.param("t,y,p\n1,0,0.5\n2,1\n", "line 3: expected 3 fields, got 2",
                         id="short-row"),
            pytest.param("t,y,p\n1,0,nan\n", "line 2: p must be in [0,1], got nan",
                         id="nan-field"),
            # the rows before the short row are checked before it is named
            pytest.param("t,y,p\n1,0,nan\n2,1\n", "line 2: p must be in [0,1], got nan",
                         id="bad-value-then-short-row"),
            pytest.param("t,y,p\n1,0,2\nx,0,0.5\n", "line 2: p must be in [0,1], got 2.0",
                         id="bad-value-then-non-numeric"),
            pytest.param('t,y,p,id\n1,0,0.5,"a\nb"\n\n2,0,2,c\n',
                         "line 5: p must be in [0,1], got 2.0",
                         id="line-break-in-id-and-blank-line-then-bad-value"),
            # csv.reader reads lines split at line feeds only, so these stay in the ids
            pytest.param('t,y,p,id\n1,0,0.5,"a\rb"\n2,0,0.5,"c\x0bd"\n3,0,0.5,"e\u2028f"\n'
                         '4,0,0.5,"g\r\nh"\n', None, id="line-breaks-in-quoted-ids"),
            pytest.param('t,y,p,id\r\n1,0,0.5,"a\rb"\r\n2,0,0.5,"c\x0bd"\r\n\r\n'
                         '3,0,0.5,"e\u2028f"\r\n4,0,2,g\r\n',
                         "line 6: p must be in [0,1], got 2.0",
                         id="line-breaks-in-quoted-ids-then-bad-value"),
            pytest.param("t,y,p,id\n1,0,0.5,%s\n" % ("x" * (csv.field_size_limit() + 1)),
                         "line 2: invalid CSV: field larger than field limit",
                         id="id-beyond-field-limit"),
            # header names are compared one by one, not as joined text
            pytest.param('"t,y",p\n1,0,0.5\n',
                         "line 1: header must be 't,y,p' or 't,y,p,id', got 't,y,p'",
                         id="header-name-holding-a-comma"),
            pytest.param('"t","y","p"\n1,0,0.5\n2,1,0.5\n', None, id="quoted-header-names"),
            pytest.param(" t , y , p , id \n1,0,0.5,a\n2,1,0.5,1\n", None,
                         id="spaced-header-names"),
            pytest.param("t,y,p,id,x\n1,0,0.5,a,b\n",
                         "line 1: header must be 't,y,p' or 't,y,p,id', got 't,y,p,id,x'",
                         id="header-with-an-extra-name"),
            pytest.param("t,y,p,id\n", "no records in input", id="header-without-records"),
        ],
    )
    def test_csv_case(self, text, want, tmp_path):
        self.check_case(text, "csv", want, tmp_path)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_sort(self, fmt):
        stream = EvalStream([1.0, 2.0, 2.0, 3.0], [0, 1, 0, 1], [0.25, 0.5, 0.75, 1.0],
                            ["a", "b", "c", "d"])
        lines = serialize_records(stream, fmt).splitlines()
        header, body = (lines[:1], lines[1:]) if fmt == "csv" else ([], lines)
        text = "\n".join(header + body[::-1]) + "\n"
        got = assert_same_as_row_path(text, fmt, sort=True)
        # stable: c stays before b, as in the reversed text
        want = EvalStream([1.0, 2.0, 2.0, 3.0], [0, 0, 1, 1], [0.25, 0.75, 0.5, 1.0],
                          ["a", "c", "b", "d"])
        assert got == outcome(lambda: (want.t, want.y, want.p, want.ids))


def random_stream(n, ids=None, seed=0):
    rng = np.random.default_rng(seed)
    return EvalStream(np.sort(rng.random(n) * 1e3), rng.integers(0, 2, n), rng.random(n), ids)


def records_text(t, y, p, ids, fmt):
    """The records as a log, with an id field only where ids is not None."""
    t, y, p = (np.asarray(column).tolist() for column in (t, y, p))
    if fmt == "jsonl":
        lines = [f'{{"t": {a!r}, "y": {b}, "p": {c!r}' + ("}" if i is None else f', "id": "{i}"}}')
                 for a, b, c, i in zip(t, y, p, ids or itertools.repeat(None))]
    else:
        lines = ["t,y,p" if ids is None else "t,y,p,id"]
        lines += [f"{a!r},{b},{c!r}" + ("" if i is None else f",{i}")
                  for a, b, c, i in zip(t, y, p, ids or itertools.repeat(None))]
    return "\n".join(lines) + "\n"


class TestStreaming:
    """Logs are read from files and written to them in pieces: ids that spell
    out row indices are not kept, a bad byte is named at its file offset, and
    memory stays a small multiple of the columns."""

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_index_ids_are_not_kept(self, fmt):
        stream = random_stream(5)
        text = serialize_records(stream, fmt)
        assert '"id": "4"' in text or text.endswith(",4\n")
        assert parse_records(text, fmt).ids is None
        assert parse_records(text, fmt, sort=True).ids is None  # already in order
        assert parse_records(records_text(stream.t, stream.y, stream.p, None, fmt), fmt).ids is None

    @pytest.mark.parametrize("chunk_chars", [event_stream._CHUNK_CHARS, 1],
                             ids=["whole", "one-line-pieces"])
    @pytest.mark.parametrize("ids", [[None, "1"], ["0", None, None, "3", None, "5"]],
                             ids=["two", "six"])
    def test_missing_and_index_ids_mixed_are_not_kept(self, ids, chunk_chars, monkeypatch):
        """Each id is missing or its row index, however they fall into chunks."""
        monkeypatch.setattr(event_stream, "_CHUNK_CHARS", chunk_chars)
        stream = random_stream(len(ids))
        text = records_text(stream.t, stream.y, stream.p, ids, "jsonl")
        # canonical lines, and compact ones that the loadtxt path declines
        for log in [text, text.replace(": ", ":")]:
            got = parse_records(log, "jsonl")
            assert_same_stream(got, stream)
            assert got.ids is None

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_ids_of_their_own_after_index_chunks(self, fmt, monkeypatch):
        # one line per JSONL piece, two rows per CSV chunk
        monkeypatch.setattr(event_stream, "_CHUNK_CHARS", 1)
        monkeypatch.setattr(event_stream, "_CHUNK_ROWS", 2)
        stream = random_stream(7)
        ids = ["0", "1", "2", "3", "x", "5", "6"]
        text = records_text(stream.t, stream.y, stream.p, ids, fmt)
        assert parse_records(text, fmt).ids == tuple(ids)
        if fmt == "jsonl":  # missing ids in the chunks before
            text = text.replace(', "id": "0"', "").replace(', "id": "3"', "")
            assert parse_records(text, fmt).ids == tuple(ids)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("where", ["past-three-pieces", "truncated-at-the-end"])
    def test_non_utf8_byte_is_named_at_its_file_offset(self, fmt, where, tmp_path):
        n = 10_000
        data = serialize_records(random_stream(n, [f"id{i}" for i in range(n)]), fmt).encode()
        assert len(data) > 3 * event_stream._CHUNK_CHARS
        if where == "past-three-pieces":
            at = data.index(b"id", 3 * event_stream._CHUNK_CHARS + 1000)
            data = data[:at] + b"\xe9" + data[at + 1:]
        else:
            data += b"\xe2\x82"
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        path = tmp_path / "log"
        path.write_bytes(data)
        for source in (data, path):
            with pytest.raises(UnicodeDecodeError) as err:
                parsed_or_raise(source, fmt)
            assert str(err.value) == str(whole.value)
            assert (err.value.start, err.value.end) == (whole.value.start, whole.value.end)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_bad_record_before_a_non_utf8_byte_is_named_first(self, fmt, tmp_path):
        """The log is decoded as it is read, so a bad record on line 11 is named
        before a bad byte a few pieces later."""
        n = 40_000
        y = [0] * n
        y[10 if fmt == "jsonl" else 9] = 3
        data = records_text(range(n), y, [0.5] * n, None, fmt).encode()
        at = data.index(b"\n", 4 * event_stream._CHUNK_CHARS) + 1
        assert data.count(b"\n", 0, at) > 3 * event_stream._CHUNK_ROWS
        data = data[:at] + b"\xff" + data[at:]
        path = tmp_path / "log"
        path.write_bytes(data)
        for source in (data, path):
            with pytest.raises(MalformedRecord, match=r"^line 11: y must be 0 or 1, got 3\.0$"):
                parsed_or_raise(source, fmt)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_file_parse_peak_per_record(self, fmt, tmp_path):
        """The text is never held whole, and index ids are not kept: the
        traced peak, the returned columns included, stays near the columns."""
        n = 100_000
        path = tmp_path / "log"
        with open(path, "w", encoding="utf-8") as out:
            serialize_records(random_stream(n), fmt, out)
        tracemalloc.start()
        try:
            with open(path, "rb") as log:
                stream = parse_records(log, fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stream.ids is None and len(stream) == n
        assert peak / n <= 96

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_bad_byte_error_does_not_grow_with_its_offset(self, fmt, tmp_path, monkeypatch):
        """The error of a bad byte past 40 pieces holds no copy of the bytes
        before it: the traced peak is no higher than the clean parse's."""
        monkeypatch.setattr(event_stream, "_CHUNK_CHARS", 4096)
        data = serialize_records(random_stream(6000), fmt).encode()
        assert len(data) > 40 * event_stream._CHUNK_CHARS
        peaks = []
        for tail in (b"", b"\xe9\n"):
            path = tmp_path / "log"
            path.write_bytes(data + tail)
            tracemalloc.start()
            try:
                with open(path, "rb") as log:
                    parse_records(log, fmt)
            except UnicodeDecodeError as err:
                assert (err.start, err.end) == (len(data), len(data) + 1)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        clean, bad = peaks
        assert bad <= clean

    @pytest.mark.parametrize("sort", [False, True], ids=["as-written", "sorted"])
    @pytest.mark.parametrize("with_ids", [False, True], ids=["index-ids", "own-ids"])
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_written_text_is_the_returned_text(self, fmt, with_ids, sort, tmp_path):
        n = 2 * event_stream._CHUNK_ROWS + 7
        ids = [f"r{i}" for i in range(n)] if with_ids else None
        stream = random_stream(n, ids)
        if sort:  # the ids become a permutation
            backwards = (list(reversed(column)) for column in (stream.t, stream.y, stream.p))
            stream = parse_records(records_text(*backwards, ids and ids[::-1], fmt), fmt,
                                   sort=True)
            assert stream.ids[:2] == (("r0", "r1") if with_ids else (str(n - 1), str(n - 2)))
        path = tmp_path / "out"
        with open(path, "w", encoding="utf-8") as out:
            assert serialize_records(stream, fmt, out) is None
        text = serialize_records(stream, fmt)
        assert path.read_bytes() == text.encode()
        assert len(text.splitlines()) == n + (fmt == "csv")
        assert_same_stream(parse_records(text, fmt), stream)


# Lines of a record at row i, in serialize_records' layout or near it. Each
# takes t, y, p and i as the writer spells them, and next = i + 1.
JSONL_LINES = {
    "canonical": '{{"t": {t}, "y": {y}, "p": {p}, "id": "{i}"}}',
    "no-id": '{{"t": {t}, "y": {y}, "p": {p}}}',
    "zero-padded-id": '{{"t": {t}, "y": {y}, "p": {p}, "id": "0{i}"}}',
    "next-rows-id": '{{"t": {t}, "y": {y}, "p": {p}, "id": "{next}"}}',
    "own-id": '{{"t": {t}, "y": {y}, "p": {p}, "id": "e{i}"}}',
    "numeric-id": '{{"t": {t}, "y": {y}, "p": {p}, "id": {i}}}',
    "underscore": '{{"t": 1_0, "y": {y}, "p": {p}, "id": "{i}"}}',
    "hash-in-a-field": '{{"t": {t}#, "y": {y}, "p": {p}, "id": "#{i}"}}',
    "hash-id": '{{"t": {t}, "y": {y}, "p": {p}, "id": "#{i}"}}',
    "non-ascii-digit": '{{"t": ١, "y": {y}, "p": {p}, "id": "{i}"}}',
    "non-ascii-id": '{{"t": {t}, "y": {y}, "p": {p}, "id": "١{i}"}}',
    "reordered-keys": '{{"y": {y}, "t": {t}, "p": {p}, "id": "{i}"}}',
    "extra-key": '{{"t": {t}, "y": {y}, "p": {p}, "id": "{i}", "x": 1}}',
    "5000-digit-int": '{{"t": 1%s, "y": {y}, "p": {p}, "id": "{i}"}}' % ("0" * 5000),
    "minus-zero": '{{"t": -0.0, "y": {y}, "p": -0.0, "id": "{i}"}}',
    "minus-zero-int": '{{"t": -0, "y": -0, "p": -0, "id": "{i}"}}',
    "upper-exponent": '{{"t": 1E5, "y": 1E0, "p": 1E-1, "id": "{i}"}}',
    "float-y": '{{"t": {t}, "y": {y}.0, "p": {p}, "id": "{i}"}}',
    "overflowing-float": '{{"t": 1e400, "y": {y}, "p": {p}, "id": "{i}"}}',
    "padded": ' {{"t": {t}, "y": {y}, "p": {p}, "id": "{i}"}} ',
    "blank": "",
    "trailing-comma": '{{"t": {t}, "y": {y}, "p": {p}, "id": "{i}",}}',
}
CSV_LINES = {
    "canonical": "{t},{y},{p},{i}",
    "zero-padded-id": "{t},{y},{p},0{i}",
    "next-rows-id": "{t},{y},{p},{next}",
    "own-id": "{t},{y},{p},e{i}",
    "quoted-id": '{t},{y},{p},"{i}"',
    "underscore": "1_0,{y},{p},{i}",
    "hash-in-a-field": "{t}#,{y},{p},{i}",
    "hash-id": "{t},{y},{p},#{i}",
    "fifth-field": "{t},{y},{p},{i},x",
    "non-ascii-digit": "١,{y},{p},{i}",
    "5000-digit-int": "1%s,{y},{p},{i}" % ("0" * 5000),
    "minus-zero": "-0.0,{y},-0,{i}",
    "upper-exponent": "1E5,1E0,1E-1,{i}",
    "float-y": "{t},{y}.0,{p},{i}",
    "spaces": " {t},{y},{p} ,{i}",
}


@st.composite
def near_canonical_texts(draw, fmt):
    """A log of mostly canonical lines with near-canonical ones among them;
    a CSV log without an id column drops each line's last field."""
    layouts = JSONL_LINES if fmt == "jsonl" else CSV_LINES
    kinds = draw(st.lists(st.sampled_from(["canonical"] * 16 + sorted(layouts)), max_size=30))
    times = sorted(draw(st.lists(st.floats(0, 1e3), min_size=len(kinds), max_size=len(kinds))))
    lines = []
    for i, (kind, t) in enumerate(zip(kinds, times)):
        fields = {"t": repr(t), "y": draw(st.sampled_from("01")),
                  "p": repr(draw(st.floats(0, 1))), "i": i, "next": i + 1}
        lines.append(layouts[kind].format(**fields))
    if fmt == "csv":
        with_ids = draw(st.booleans())
        if not with_ids:
            lines = [line.rsplit(",", 1)[0] for line in lines]
        lines.insert(0, "t,y,p,id" if with_ids else "t,y,p")
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


class TestLayoutFastPath:
    """Pieces in serialize_records' layout are read by np.loadtxt; any other
    piece, and for CSV the rest of the log after it, by today's readers."""

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.sampled_from(["jsonl", "csv"]),
           st.sampled_from([1, 200, event_stream._CHUNK_CHARS]))
    def test_near_canonical_lines_match_the_row_path(self, data, fmt, chunk_chars):
        text = data.draw(near_canonical_texts(fmt))
        read, fast = event_stream._index_columns, []

        def counting_read(lines, rows):
            columns = read(lines, rows)
            fast.append(columns is not None)
            return columns

        with mock.patch.object(event_stream, "_CHUNK_CHARS", chunk_chars), \
                mock.patch.object(event_stream, "_index_columns", counting_read):
            got = parsed(text, fmt)
        assert got == outcome(lambda: row_path(text, fmt))
        event(f"{fmt} ok={isinstance(got[0], bytes)} pieces read fast: {min(sum(fast), 2)}")

    @pytest.mark.parametrize("at", [0, 3], ids=["first", "fourth"])
    @pytest.mark.parametrize("fmt,kind", [("jsonl", kind) for kind in JSONL_LINES]
                             + [("csv", kind) for kind in CSV_LINES])
    def test_one_near_canonical_line_among_canonical_ones(self, fmt, kind, at, tmp_path):
        """First, a line whose t is out of the others' order is read as a
        record; fourth, it shares a piece with canonical lines before it."""
        layouts = JSONL_LINES if fmt == "jsonl" else CSV_LINES
        lines = [layouts[kind if row == at else "canonical"].format(
            t=repr(2e5 + row), y=row % 2, p=repr(row / 8), i=row, next=row + 1)
            for row in range(6)]
        if fmt == "csv":
            lines.insert(0, "t,y,p,id")
        assert_same_as_row_path("\n".join(lines) + "\n", fmt, path=tmp_path / "log")

    @pytest.mark.parametrize("with_ids", [True, False], ids=["index-ids", "no-ids"])
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_canonical_log_never_reaches_todays_readers(self, fmt, with_ids, monkeypatch):
        n = 5000
        stream = random_stream(n)
        ids = list(map(str, range(n))) if with_ids else None
        text = records_text(stream.t, stream.y, stream.p, ids, fmt)
        assert len(text) > 3 * event_stream._CHUNK_CHARS

        def fail(*args, **kwargs):
            raise AssertionError("a canonical log reached today's reader")

        class Scanner:
            scan_once = staticmethod(fail)

        for module, name, stub in [(event_stream, "_jsonl_problem", fail),
                                   (event_stream, "_value_problem", fail), (csv, "reader", fail),
                                   (json, "loads", fail), (json, "JSONDecoder", Scanner)]:
            monkeypatch.setattr(module, name, stub)
        got = parse_records(text, fmt)
        assert_same_stream(got, stream)
        assert got.ids is None

    def test_quoted_id_across_a_piece_boundary_after_fast_pieces(self, monkeypatch, tmp_path):
        monkeypatch.setattr(event_stream, "_CHUNK_CHARS", 256)
        n = 200
        lines = ["t,y,p,id"] + [f"{i}.5,{i % 2},0.25,{i}" for i in range(n)]
        quoted = "\n".join(["x" * 10] * 60)
        lines[120] = f'119.5,1,0.25,"{quoted}"'
        lines[150] = "149.5,0,2,149"
        text = "\n".join(lines) + "\n"
        # a piece of the text ends inside the quoted id
        quote_start = text.index('"')
        ends = list(itertools.accumulate(map(len, event_stream._pieces(text))))
        assert any(quote_start < end < quote_start + len(quoted) for end in ends)
        bad_line = 150 + quoted.count("\n") + 1
        read, fast, reads = event_stream._index_columns, [], []

        def counting_read(lines, rows):
            columns = read(lines, rows)
            fast.append(columns is not None)
            return columns

        def counting_reader(*args, **kwargs):
            reads.append("reader")
            return reader(*args, **kwargs)

        reader = csv.reader
        monkeypatch.setattr(event_stream, "_index_columns", counting_read)
        monkeypatch.setattr(csv, "reader", counting_reader)
        with pytest.raises(MalformedRecord, match=rf"^line {bad_line}: p must be in \[0,1\], got 2\.0$"):
            parse_records(text, "csv")
        # the pieces before the quoted id are read fast; it and the rest by csv.reader
        assert len(fast) >= 3 and all(fast)
        assert reads == ["reader"]
        assert_same_as_row_path(text, "csv", path=tmp_path / "quoted.csv")

    def test_each_chunk_is_checked_then_the_stream(self, monkeypatch):
        """Each chunk is checked before the next is read, and the stream's
        constructor, the one way to build a stream, checks the whole."""
        n = 3 * event_stream._CHUNK_ROWS
        stream = random_stream(n, [f"e{i}" for i in range(n)])
        sizes, check = [], event_stream._check_values

        def recording_check(t, y, p, ids=None):
            sizes.append(len(t))
            return check(t, y, p, ids)

        monkeypatch.setattr(event_stream, "_check_values", recording_check)
        for fmt in ("jsonl", "csv"):
            sizes.clear()
            assert_same_stream(parse_records(serialize_records(stream, fmt), fmt), stream)
            assert sizes[-1] == n and sum(sizes[:-1]) == n and max(sizes[:-1]) < n


def parsed_or_raise(source, fmt):
    """parse_records of bytes, or of a file path opened as evaluate opens it."""
    if isinstance(source, bytes):
        return parse_records(source, fmt)
    with open(source, "rb") as log:
        return parse_records(log, fmt)


class TestThreshold:
    def test_labels_at_threshold(self):
        stream = make_stream([1, 2, 3], ys=[0, 0, 0], ps=[0.4, 0.5, 0.6])
        assert threshold_labels(stream, 0.5).tolist() == [0, 1, 1]

    def test_threshold_bounds(self):
        stream = make_stream([1.0])
        for bad in (0.0, 1.0, -2.0):
            with pytest.raises(ValueError):
                threshold_labels(stream, bad)

    def test_disagreements(self):
        stream = make_stream([1, 2, 3, 4], ys=[1, 0, 1, 0], ps=[0.9, 0.8, 0.1, 0.2])
        disg = disagreement_set(stream, 0.5)
        assert disg.dtype == np.int64
        assert disg.tolist() == [1, 2]
        assert stream.t[disg].tolist() == [2.0, 3.0]

    def test_disagreement_count_matches_hamming(self):
        from vcseval import hamming_disagreement

        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 40))
            stream = make_stream(
                sorted(rng.random(n)),
                ys=list(rng.integers(0, 2, n)),
                ps=list(rng.random(n)),
            )
            disg = disagreement_set(stream, 0.5)
            assert disg.size == hamming_disagreement(
                stream.y, threshold_labels(stream, 0.5)
            )
