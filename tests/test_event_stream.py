import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcseval import (
    DegenerateSplit,
    EmptyInput,
    EvalStream,
    MalformedRecord,
    UnsortedInput,
    chronological_split,
    disagreement_set,
    parse_records,
    serialize_records,
    threshold_labels,
)

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
        assert back.ids == tuple(ids)

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


class TestSplit:
    def test_sizes_by_floor(self):
        stream = make_stream(list(range(10)))
        parts = chronological_split(stream, (0.7, 0.15, 0.15))
        assert [len(p) for p in parts] == [7, 1, 2]

    def test_sizes_100(self):
        stream = make_stream(list(range(100)))
        parts = chronological_split(stream, (0.7, 0.15, 0.15))
        assert [len(p) for p in parts] == [70, 15, 15]

    def test_chronological_order_preserved(self):
        stream = make_stream(list(range(10)))
        train, val, test = chronological_split(stream, (0.7, 0.15, 0.15))
        assert train.t_end <= val.t_start <= test.t_start

    def test_degenerate(self):
        with pytest.raises(DegenerateSplit):
            chronological_split(make_stream([1.0, 2.0, 3.0]), (0.1, 0.1, 0.8))

    def test_bad_ratios(self):
        stream = make_stream(list(range(10)))
        with pytest.raises(ValueError):
            chronological_split(stream, (0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            chronological_split(stream, (1.0, -0.5, 0.5))


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
        assert disg.size == 2
        assert disg.positions.tolist() == [1, 2]
        assert disg.times.tolist() == [2.0, 3.0]

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
