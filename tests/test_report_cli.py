import collections
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import vcseval
from vcseval import NonFiniteGradient, VcsConfig, parse_records, report_cli, soft_vca, toy_trainer
from vcseval.report_cli import (
    build_eval_report,
    density_csv,
    emit_density_svg,
    main,
)

from . import oracles

PERFECT = (
    '{"t": 1.0, "y": 1, "p": 0.9}\n'
    '{"t": 2.0, "y": 0, "p": 0.1}\n'
    '{"t": 3.0, "y": 1, "p": 0.8}\n'
)


def synth_file(tmp_path, name, *extra):
    path = tmp_path / name
    rc = main([
        "synth", "--pattern", "clustered", "--events", "400", "--errors", "60",
        "--seed", "3", "--out", str(path), *extra,
    ])
    assert rc == 0
    return path


class TestBuildReport:
    def make_report(self, bins=20):
        stream = parse_records(synthetic_jsonl(), "jsonl")
        return build_eval_report(stream, 0.5, VcsConfig(), bins), stream

    def test_invariants(self):
        report, stream = self.make_report()
        assert report["n_events"] == len(stream)
        assert sum(report["density"]["error_counts"]) == report["n_errors"]
        edges = report["density"]["bin_edges"]
        assert len(edges) == report["density"]["bins"] + 1
        assert edges[0] == stream.t_start and edges[-1] == stream.t_end
        widths = np.diff(edges)
        assert np.allclose(widths, widths[0])
        block = report["vcs"]
        assert block["value"] == pytest.approx(abs(0.5 - block["t_mean"]), abs=1e-15)
        assert len(block["per_trial_t_stat"]) == block["tau"]

    def test_json_round_trip(self):
        report, _ = self.make_report()
        assert json.loads(json.dumps(report)) == report


def synthetic_jsonl(n=80, n_err=12, seed=1):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.random(n) * 500)
    lines = []
    for i, t in enumerate(times):
        is_err = i < n_err
        y = 1 if is_err else int(rng.integers(0, 2))
        p = 0.1 if is_err else (0.9 if y else 0.1)
        lines.append(json.dumps({"t": float(t), "y": y, "p": p}))
    return "\n".join(lines) + "\n"


class TestEvaluateCommand:
    def test_happy_path_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "log.jsonl"
        path.write_text(synthetic_jsonl())
        assert main(["evaluate", "--input", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_events"] == 80

    def test_missing_file_exit_two(self, tmp_path, capsys):
        rc = main(["evaluate", "--input", str(tmp_path / "nope.jsonl")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_input_exit_two(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("t,y,p,id\n1.0,0,0.5,caf\xe9\n".encode("latin-1"))
        assert main(["evaluate", "--input", str(path), "--format", "csv"]) == 2
        assert "utf-8" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_non_utf8_byte_is_named_at_its_file_offset(self, fmt, tmp_path, capsys):
        """The log is decoded in pieces as it is read, and the message is the
        one decoding the whole file gives, past the first 64 KiB too."""
        path = tmp_path / "log"
        assert main(["synth", "--pattern", "random", "--events", "5000", "--errors", "50",
                     "--format", fmt, "--out", str(path)]) == 0
        data = path.read_bytes()
        at = data.index(b"\n", 100_000) + 1
        data = data[:at] + b"\xe9" + data[at:]
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        capsys.readouterr()
        assert main(["evaluate", "--input", str(path), "--format", fmt]) == 2
        assert capsys.readouterr().err == f"error: {whole.value}\n"

    def test_parse_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t": 1, "y": 5, "p": 0.5}\n')
        assert main(["evaluate", "--input", str(path)]) == 2

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize(
        "row,message",
        [
            (("NaN", 0, 0.5), "t must be finite and >= 0, got nan"),
            (("Infinity", 0, 0.5), "t must be finite and >= 0, got inf"),
            ((3, 2, 0.5), "y must be 0 or 1, got 2.0"),
            ((3, 0.5, 0.5), "y must be 0 or 1, got 0.5"),
            ((3, 0, -3), "p must be in [0,1], got -3.0"),
            ((3, 1, 1.5), "p must be in [0,1], got 1.5"),
        ],
        ids=["nan-t", "inf-t", "y-2", "y-half", "p-negative", "p-above-one"],
    )
    def test_bad_value_exit_two(self, row, message, fmt, tmp_path, capsys):
        # plain text, so the value reaches the stream's checks in bulk first
        rows = [(1, 0, 0.5), (2, 1, 0.5), row]
        if fmt == "jsonl":
            text = "".join(f'{{"t": {t}, "y": {y}, "p": {p}}}\n' for t, y, p in rows)
        else:
            text = "t,y,p\n" + "".join(f"{t},{y},{p}\n" for t, y, p in rows)
        path = tmp_path / f"bad.{fmt}"
        path.write_text(text)
        assert main(["evaluate", "--input", str(path), "--format", fmt]) == 2
        line = 3 if fmt == "jsonl" else 4
        assert capsys.readouterr().err == f"error: line {line}: {message}\n"

    @pytest.mark.parametrize("line", [
        '{"t": 1%s, "y": 0, "p": 0.5}\n' % ("0" * 5000),
        '{"t": 1, "y": 0, "p": 0.5, "x": %s}\n' % ("[" * 100_000 + "]" * 100_000),
    ], ids=["int-past-4300-digits", "array-nested-100k-deep"])
    def test_undecodable_json_exit_two(self, line, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(line)
        assert main(["evaluate", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 1: invalid JSON: ")
        assert "Traceback" not in err

    def test_perfect_log_exit_three_with_marker(self, tmp_path):
        path = tmp_path / "perfect.jsonl"
        path.write_text(PERFECT)
        report_path = tmp_path / "report.json"
        rc = main(["evaluate", "--input", str(path), "--report", str(report_path)])
        assert rc == 3
        report = json.loads(report_path.read_text())
        assert report["ap"] == 1.0
        assert report["vcs"]["undefined"] == "too_few_disagreements"

    def test_equal_timestamps_exit_three_with_marker(self, tmp_path):
        path = tmp_path / "equal.jsonl"
        path.write_text('{"t": 5, "y": 1, "p": 0.1}\n' * 2 + '{"t": 5, "y": 0, "p": 0.1}\n')
        report_path = tmp_path / "report.json"
        rc = main(["evaluate", "--input", str(path), "--report", str(report_path)])
        assert rc == 3
        report = json.loads(report_path.read_text())
        assert report["n_errors"] == 2
        assert report["vcs"] == {"undefined": "degenerate_distances",
                                 "reason": "both distance sums are zero"}

    def test_overflowing_distances_exit_three_with_marker(self, tmp_path):
        # distance sums between 0 and 1.79e308 pass the float range
        path = tmp_path / "huge.jsonl"
        path.write_text('{"t": 0, "y": 1, "p": 0.1}\n{"t": 0, "y": 0, "p": 0.1}\n'
                        + '{"t": 1.79e308, "y": 1, "p": 0.1}\n' * 3)
        report_path = tmp_path / "report.json"
        rc = main(["evaluate", "--input", str(path), "--report", str(report_path),
                   "--subsample", "0.9"])
        assert rc == 3
        report = json.loads(report_path.read_text())
        assert report["n_errors"] == 4
        assert report["vcs"] == {"undefined": "degenerate_distances",
                                 "reason": "distance sums overflow float64"}

    def test_bins_finer_than_float_spacing(self, tmp_path):
        # at t = 1e16 neighbouring floats are 2 apart, so bins of width
        # 0.5 collapse to zero width instead of failing
        path = tmp_path / "coarse.jsonl"
        path.write_text('{"t": 1e16, "y": 1, "p": 0.1}\n{"t": 1e16, "y": 0, "p": 0.1}\n'
                        '{"t": 1.0000000000000002e16, "y": 1, "p": 0.1}\n')
        report_path = tmp_path / "report.json"
        rc = main(["evaluate", "--input", str(path), "--report", str(report_path),
                   "--density-bins", "4"])
        assert rc == 0
        density = json.loads(report_path.read_text())["density"]
        assert sum(density["error_counts"]) == 2
        assert density["bin_edges"] == sorted(density["bin_edges"])

    @pytest.mark.parametrize("flags", [
        ["--threshold", "1.5"], ["--threshold", "0"], ["--threshold", "nan"],
        ["--tau", "0"], ["--subsample", "1"], ["--subsample", "-0.5"],
        ["--density-bins", "0"], ["--seed", "-1"], ["--seed", str(2**64)],
    ])
    def test_bad_flag_exits_2(self, flags, tmp_path, capsys):
        path = tmp_path / "log.jsonl"
        path.write_text(synthetic_jsonl())
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--input", str(path), *flags])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_failed_allocation_exits_1(self, tmp_path, capsys):
        # 1e15 bins need petabytes, so the allocation fails at once
        path = tmp_path / "log.jsonl"
        path.write_text(synthetic_jsonl())
        assert main(["evaluate", "--input", str(path), "--density-bins", str(10**15)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: out of memory: ")

    def test_byte_identical_across_runs(self, tmp_path):
        log = tmp_path / "log.jsonl"
        log.write_text(synthetic_jsonl())
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            rc = main(["evaluate", "--input", str(log), "--report", str(p),
                       "--seed", "42"])
            assert rc == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_unsorted_needs_flag(self, tmp_path):
        path = tmp_path / "unsorted.jsonl"
        path.write_text(
            '{"t": 5, "y": 1, "p": 0.1}\n{"t": 1, "y": 0, "p": 0.9}\n'
            '{"t": 3, "y": 1, "p": 0.9}\n{"t": 2, "y": 0, "p": 0.2}\n'
        )
        assert main(["evaluate", "--input", str(path)]) == 2
        assert main(["evaluate", "--input", str(path), "--sort"]) == 0

    def test_density_csv_output(self, tmp_path):
        log = tmp_path / "log.jsonl"
        log.write_text(synthetic_jsonl())
        out = tmp_path / "density.csv"
        rc = main(["evaluate", "--input", str(log), "--report",
                   str(tmp_path / "r.json"), "--density-csv", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "bin_start,bin_end,error_count"
        assert len(lines) == 101
        total = sum(int(line.split(",")[2]) for line in lines[1:])
        assert total == 12


class TestSynthCommand:
    def test_regular_times_in_file(self, tmp_path, capsys):
        rc = main(["synth", "--pattern", "regular", "--events", "8", "--errors", "4",
                   "--period", "0", "8"])
        assert rc == 0
        stream = parse_records(capsys.readouterr().out, "jsonl")
        from vcseval import disagreement_set

        times = sorted(stream.t[disagreement_set(stream)].tolist())
        assert times == [1.0, 3.0, 5.0, 7.0]

    def test_invalid_spec_exit_two(self, capsys):
        rc = main(["synth", "--pattern", "random", "--events", "5", "--errors", "9"])
        assert rc == 2

    @pytest.mark.parametrize("period", [["0", "inf"], ["nan", "1"], ["inf", "inf"]])
    def test_non_finite_period_exit_two(self, period, capsys):
        rc = main(["synth", "--pattern", "random", "--events", "5", "--errors", "3",
                   "--period", *period])
        assert rc == 2
        assert "period must be finite" in capsys.readouterr().err

    def test_bad_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--pattern", "random", "--events", "5", "--errors", "3",
                  "--seed", "-1"])
        assert exc.value.code == 2

    def test_negative_period_start_exit_two(self, tmp_path, capsys):
        # evaluate rejects t < 0, so synth must not write such a file
        out = tmp_path / "neg.jsonl"
        rc = main(["synth", "--pattern", "random", "--events", "500", "--errors", "100",
                   "--period", "-50", "50", "--out", str(out)])
        assert rc == 2
        assert "t >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("period, center", [
        (["0", "1000"], "0"), (["0", "1.7e308"], "1"),
    ])
    def test_window_clipped_to_period(self, period, center, capsys):
        rc = main(["synth", "--pattern", "clustered", "--events", "5", "--errors", "3",
                   "--period", *period, "--center", center, "--width", "1"])
        assert rc == 0
        # parsing rejects negative and non-finite timestamps
        stream = parse_records(capsys.readouterr().out, "jsonl")
        lo, hi = map(float, period)
        assert lo <= stream.t_start and stream.t_end <= hi

    def test_regular_span_overflow_exit_two(self, capsys):
        rc = main(["synth", "--pattern", "regular", "--events", "3", "--errors", "3",
                   "--period", "0", "1.7e308"])
        assert rc == 2
        assert "overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_pipeline_preserves_counts(self, tmp_path, fmt, capsys):
        path = synth_file(tmp_path, f"p.{fmt}", "--format", fmt)
        rc = main(["evaluate", "--input", str(path), "--format", fmt,
                   "--report", str(tmp_path / "rep.json")])
        assert rc == 0
        report = json.loads((tmp_path / "rep.json").read_text())
        assert report["n_events"] == 400
        assert report["n_errors"] == 60

    def test_pipeline_vcs_matches_across_formats(self, tmp_path):
        reports = {}
        for fmt in ("jsonl", "csv"):
            path = synth_file(tmp_path, f"q.{fmt}", "--format", fmt)
            rep = tmp_path / f"rep_{fmt}.json"
            main(["evaluate", "--input", str(path), "--format", fmt,
                  "--report", str(rep)])
            reports[fmt] = json.loads(rep.read_text())
        assert reports["jsonl"]["vcs"] == reports["csv"]["vcs"]


# the most float64 elements numpy can size; np.linspace counts the
# density_bins + 1 edges in float64, so --density-bins stops 128 below
MAX_COUNT = np.iinfo(np.intp).max // 8
MAX_BINS = MAX_COUNT - 128


def exit_code(argv):
    """main's exit code, argparse's SystemExit(2) included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def sized_argv(tmp_path, flag, count, pattern="random", errors=2):
    """synth --events count, or evaluate --density-bins count, and the
    output path it would write."""
    out = tmp_path / "out"
    if flag == "--events":
        return ["synth", "--pattern", pattern, "--events", str(count), "--errors", str(errors),
                "--out", str(out)], out
    log = tmp_path / "log.jsonl"
    log.write_text(synthetic_jsonl())
    return ["evaluate", "--input", str(log), "--density-bins", str(count),
            "--report", str(out)], out


class TestOversizedCounts:
    """A count numpy cannot size as float64 elements is a bad input value,
    exit 2, rejected before anything is allocated or written. The largest
    count accepted fails its allocation at once, exit 1."""

    @pytest.mark.parametrize("flag, count", [
        ("--events", 2**63), ("--events", 2**63 - 1),
        ("--density-bins", 2**62 - 1), ("--density-bins", 2**63 - 1),
    ])
    def test_exits_2(self, flag, count, tmp_path, capsys):
        argv, out = sized_argv(tmp_path, flag, count)
        assert exit_code(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err and "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("flag, last, pattern", [
        *[("--events", MAX_COUNT, pattern) for pattern in ("random", "clustered", "regular")],
        ("--density-bins", MAX_BINS, None),
    ])
    def test_both_sides_of_the_bound(self, flag, last, pattern, tmp_path, capsys):
        """synth runs out of memory with 2 errors and with errors at or one below the bound."""
        for errors in (2, last - 1, last) if pattern else (2,):
            argv, _ = sized_argv(tmp_path, flag, last, pattern, errors)
            assert exit_code(argv) == 1
            assert capsys.readouterr().err.startswith("error: out of memory: ")
        argv, out = sized_argv(tmp_path, flag, last + 1, pattern)
        assert exit_code(argv) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()


class TestDensitySvg:
    def read_opacities(self, path):
        ns = {"svg": "http://www.w3.org/2000/svg"}
        root = ET.parse(path).getroot()
        return [
            float(r.get("fill-opacity"))
            for r in root.findall("svg:rect", ns)
            if r.get("fill-opacity") is not None
        ]

    def test_zero_errors_transparent(self, tmp_path):
        report = {"density": {"error_counts": [0, 0, 0, 0], "bin_edges": []}}
        out = tmp_path / "zero.svg"
        emit_density_svg(report, out)
        assert self.read_opacities(out) == [0.0, 0.0, 0.0, 0.0]

    def test_single_hot_bin(self, tmp_path):
        report = {"density": {"error_counts": [0, 9, 0], "bin_edges": []}}
        out = tmp_path / "hot.svg"
        emit_density_svg(report, out)
        assert self.read_opacities(out) == [0.0, 1.0, 0.0]

    def test_clustered_pattern_confined(self, tmp_path):
        path = synth_file(tmp_path, "clu.jsonl")
        svg = tmp_path / "clu.svg"
        rc = main(["evaluate", "--input", str(path), "--report",
                   str(tmp_path / "r.json"), "--svg", str(svg),
                   "--density-bins", "50"])
        assert rc == 0
        opacities = self.read_opacities(svg)
        hot = [i for i, o in enumerate(opacities) if o > 0]
        assert hot and all(40 <= i <= 47 for i in hot)

    def test_valid_xml(self, tmp_path):
        path = synth_file(tmp_path, "x.jsonl")
        svg = tmp_path / "x.svg"
        main(["evaluate", "--input", str(path), "--report",
              str(tmp_path / "r.json"), "--svg", str(svg)])
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")
        assert root.get("version") == "1.1"


class TestGradcheckCommand:
    def test_passes_with_default_step(self, capsys):
        assert main(["gradcheck", "--trials", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "gradcheck: PASS" in out

    def test_coarse_step_fails(self, capsys):
        assert main(["gradcheck", "--trials", "3", "--step", "1.0"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_overflowing_beta_fails_without_warnings(self, capsys):
        # beta times a gap overflows float64, so the soft families score
        # error inf instead of warning or exiting 2
        assert main(["gradcheck", "--beta", "1e308", "--trials", "2"]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert [line.split()[0] for line in lines] == [
            "soft_nn_distance", "weighted_soft_t", "vca_penalty_composed",
            "combined_loss", "gradcheck:",
        ]
        assert lines[-1] == "gradcheck: FAIL"
        assert captured.err == ""

    def test_overflowing_step_fails_without_warnings(self, capsys):
        # theta +- 1e308 overflows the logits of the combined_loss family;
        # the output was recorded before the loss stopped warning
        assert main(["gradcheck", "--step", "1e308", "--trials", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-2:] == [
            "combined_loss            max_rel_err=6.893e-01  tol=1e-04  FAIL",
            "gradcheck: FAIL",
        ]
        assert captured.err == ""

    def test_each_soft_family_takes_one_stacked_call_per_shape(self, monkeypatch, capsys):
        # 100 trials are one block. Its trials are grouped by shape, and
        # each group of up to GRADCHECK_STACK trials is scored in one
        # stacked call, with every trial's unperturbed point as the first
        # of its 2d + 1 rows; no trial takes a soft-T call of its own or a
        # second soft minimum for its gradient.
        trials, stack = 100, report_cli.GRADCHECK_STACK
        calls = {name: [] for name in
                 ("weighted_soft_t", "_soft_t", "soft_nn_distance", "soft_nn_gradient")}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(soft_vca, name), **kwargs):
                ref = np.shape(args[2]) if len(args) > 2 else None
                calls[_name].append((np.shape(args[0]), ref, kwargs.get("per_row", False)))
                return _fn(*args, **kwargs)

            monkeypatch.setattr(soft_vca, name, counted)
        assert 2 < stack < trials < report_cli.GRADCHECK_BLOCK
        assert main(["gradcheck", "--trials", str(trials)]) == 0

        def check_family(shapes_and_trials):
            # ceil(k / stack) calls for the k trials of each shape
            shapes = collections.Counter(shape for shape, _ in shapes_and_trials)
            members = collections.Counter()
            for shape, count in shapes_and_trials:
                assert 1 <= count <= stack
                members[shape] += count
            assert sum(members.values()) == trials
            assert shapes == {shape: -(-k // stack) for shape, k in members.items()}
            return shapes

        points = [(n, rows // (2 * n + 1)) for (rows, n), _, _ in calls["soft_nn_distance"]]
        assert max(check_family(points).values()) > 1  # some n had more than stack trials
        per_row = [((times[1], ref[1]), times[0] // (2 * times[1] + 1))
                   for times, ref, flag in calls["_soft_t"] if flag]
        # the weighted family's calls, then the composed family's
        ends = np.cumsum([count for _, count in per_row])
        first = int(np.searchsorted(ends, trials)) + 1
        check_family(per_row[:first])
        check_family(per_row[first:])
        # the combined family's weighted_soft_t calls, one per trial on the
        # shared 1-d timestamps of its dataset, through toy_trainer's binding
        one_row = [times for times, _, flag in calls["_soft_t"] if not flag]
        assert one_row == [(40,)] * trials
        assert calls["weighted_soft_t"] == calls["soft_nn_gradient"] == []

    def test_each_combined_trial_takes_one_gradient(self, monkeypatch, capsys):
        # row 0's one-row call computes the only gradient of a trial; the
        # perturbed rows go through the value stage, not weighted_soft_t
        calls, loss_calls = [], []

        def counted(*args, _fn=toy_trainer.weighted_soft_t):
            calls.append(np.shape(args[1]))
            return _fn(*args)

        # the benchmark's tracer counts calls through this binding, and
        # each must take one (d,) parameter row
        def counted_loss(thetas, *args, _fn=toy_trainer.combined_loss, **kwargs):
            loss_calls.append(np.ndim(thetas))
            return _fn(thetas, *args, **kwargs)

        monkeypatch.setattr(toy_trainer, "weighted_soft_t", counted)
        monkeypatch.setattr(toy_trainer, "combined_loss", counted_loss)
        assert main(["gradcheck", "--trials", "3"]) == 0
        # one call of one weight row per trial
        assert [shape[0] for shape in calls] == [1, 1, 1]
        assert loss_calls == [1, 1, 1]

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), block=st.integers(1, 4), stack=st.integers(1, 3),
           data=st.data(),
           beta=st.sampled_from(["0.01", "5", "200", "1e308", "1e-320"]),
           # at 0.11 a weight row leaves [0, 1] in some trials, often past
           # the first block; at 1.0 and above in every weighted trial
           step=st.sampled_from(["1e-6", "0.11", "1.0", "30", "1e308"]))
    def test_matches_the_trial_by_trial_loop(self, seed, block, stack, data, beta, step):
        # the soft distances overflow at --beta 1e308 and 1e-320, so a
        # block falls back to one trial at a time, and the next family's
        # draws pin where that leaves the rng
        trials = data.draw(st.integers(1, 3 * block))
        argv = ["gradcheck", "--seed", str(seed), "--trials", str(trials), "--beta", beta,
                "--step", step]
        out = io.StringIO()
        with mock.patch.object(report_cli, "GRADCHECK_BLOCK", block), \
                mock.patch.object(report_cli, "GRADCHECK_STACK", stack), \
                contextlib.redirect_stdout(out):
            code = main(argv)
        want = oracles.sequential_gradcheck(seed, trials, float(beta), float(step))
        assert (code, out.getvalue()) == want
        event(want[1].splitlines()[-1])

    def test_matches_the_trial_by_trial_loop_past_one_full_block(self, capsys):
        trials = report_cli.GRADCHECK_BLOCK + 1
        code = main(["gradcheck", "--seed", "5", "--trials", str(trials)])
        assert (code, capsys.readouterr().out) == oracles.sequential_gradcheck(5, trials, 5.0, 1e-6)

    @pytest.mark.parametrize("flags", [
        ["--beta", "0"], ["--beta", "-1"], ["--beta", "nan"],
        ["--step", "0"], ["--step", "-1e-6"], ["--trials", "0"],
    ])
    def test_bad_flag_exits_2(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", *flags])
        assert exc.value.code == 2
        assert "gradcheck: PASS" not in capsys.readouterr().out


class TestTrainDemoCommand:
    def test_smoke_one_epoch(self, tmp_path, capsys):
        rc = main(["train-demo", "--epochs", "1", "--seeds", "0",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "vca" in out
        assert (tmp_path / "history_vca_seed0.csv").exists()

    def test_gamma_zero_rows_identical(self, capsys):
        rc = main(["train-demo", "--gamma", "0", "--epochs", "5", "--seeds", "0,1"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        baseline = lines[-2].split()[1:]
        vca = lines[-1].split()[1:]
        assert baseline == vca

    @pytest.mark.parametrize("flags", [
        ["--epochs", "0"], ["--seeds", "a"], ["--seeds", "0,,1"],
        ["--seeds", "-1"], ["--gamma", "-0.1"],
    ])
    def test_bad_flag_exits_2(self, flags):
        with pytest.raises(SystemExit) as exc:
            main(["train-demo", *flags])
        assert exc.value.code == 2

    def test_overflowing_gamma_exits_1_without_warnings(self, capsys):
        # -2 * gamma overflows at gamma 1e308, so the penalty gradient is not finite
        assert main(["train-demo", "--seeds", "0", "--epochs", "1", "--gamma", "1e308"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: epoch 0: loss or gradient is not finite\n"

    def test_gradient_overflow_exits_1(self, monkeypatch, capsys):
        def overflow(*args):
            raise NonFiniteGradient("weighted soft T weight gradient is not finite")

        monkeypatch.setattr(toy_trainer, "weighted_soft_t", overflow)
        rc = main(["train-demo", "--epochs", "2", "--seeds", "0"])
        assert rc == 1
        assert "not finite" in capsys.readouterr().err


# Fuzzed command lines: each flag value and input line is mostly valid,
# sometimes not. Counts that size allocations stay small, as a count like
# 1e8 only exhausts memory, or reach the count bound: --events, --errors
# and --density-bins at the bound fail their allocation at once, exit 1,
# and above it are bad values, exit 2. --tau gets no huge counts, since a
# huge tau is a long run, not an error.
BAD_NUMBER = st.one_of(
    st.floats().map(repr),
    st.integers(-2, 2**65).map(str),
    st.sampled_from(["", "x", "nan", "-inf", "1e999", "1.5"]),
)
BAD_COUNT = st.integers(-2, 60).map(str) | st.sampled_from(["", "x", "1.5"])


def mostly(valid, bad):
    """valid three draws in four, bad in the fourth."""
    return st.sampled_from([valid, valid, valid, bad]).flatmap(lambda strategy: strategy)


COUNT = mostly(st.integers(1, 40).map(str), BAD_COUNT)
SIZE = mostly(st.integers(1, 40).map(str), BAD_COUNT | st.one_of(
    st.sampled_from([MAX_BINS, MAX_BINS + 1, MAX_COUNT, MAX_COUNT + 1]),
    st.integers(MAX_BINS, 2**64)).map(str))
FRACTION = mostly(st.floats(0.01, 0.99).map(repr), BAD_NUMBER)
SEED = mostly(st.integers(0, 2**64 + 2).map(str), BAD_NUMBER)
TIME = st.one_of(st.floats(0, 1e3), st.floats(0, 1e308), st.sampled_from([0.0, 5.0, 1e16]))
JSON_VALUE = st.one_of(
    st.floats(), st.integers(), st.booleans(), st.none(), st.text(max_size=3),
)


@st.composite
def records(draw):
    """(t, y, p, id or None) rows, sorted by t unless the draw says not."""
    rows = [(draw(TIME), draw(st.integers(0, 1)), draw(st.floats(0, 1)),
             draw(st.none() | st.text(max_size=4)))
            for _ in range(draw(st.integers(0, 12)))]
    return rows if draw(st.booleans()) else sorted(rows, key=lambda r: r[0])


def corrupt(draw, lines, junk):
    """lines, one of them replaced by junk in one draw of four."""
    if lines and draw(mostly(st.just(False), st.just(True))):
        lines[draw(st.integers(0, len(lines) - 1))] = draw(junk)
    return "\n".join(lines)


@st.composite
def jsonl_text(draw):
    lines = [json.dumps({"t": t, "y": y, "p": p, **({} if i is None else {"id": i})})
             for t, y, p, i in draw(records())]
    junk = st.dictionaries(st.sampled_from("typi"), JSON_VALUE).map(json.dumps)
    return corrupt(draw, lines, junk | st.text(max_size=6))


@st.composite
def csv_text(draw):
    has_id = draw(st.booleans())
    header = draw(mostly(st.just("t,y,p,id" if has_id else "t,y,p"),
                         st.sampled_from(["t,p", "", "t,y,p,id,x"])))
    lines = [",".join([repr(t), str(y), repr(p)] + ([i or ""] if has_id else []))
             for t, y, p, i in draw(records())]
    junk = st.lists(BAD_NUMBER | st.text(max_size=3), min_size=2, max_size=5).map(",".join)
    return header + "\n" + corrupt(draw, lines, junk)


def flag_args(draw, flags):
    argv = []
    for flag, values in flags.items():
        if draw(st.booleans()):
            argv += [flag, *(draw(values) for _ in range(2 if flag == "--period" else 1))]
    return argv


@st.composite
def evaluate_argv(draw, workdir):
    fmt = draw(st.sampled_from(["jsonl", "csv"]))
    text = draw(jsonl_text() if fmt == "jsonl" else csv_text())
    (workdir / "input").write_text(text, encoding="utf-8")
    argv = ["evaluate", "--input", str(workdir / "input"), "--format", fmt,
            "--report", str(workdir / "report.json"), "--svg", str(workdir / "d.svg")]
    argv += flag_args(draw, {"--threshold": FRACTION, "--tau": COUNT,
                             "--subsample": FRACTION, "--seed": SEED,
                             "--density-bins": SIZE})
    return argv + (["--sort"] if draw(st.booleans()) else [])


@st.composite
def synth_argv(draw, workdir):
    argv = ["synth", "--pattern", draw(st.sampled_from(["random", "clustered", "regular"])),
            "--events", draw(SIZE), "--errors", draw(SIZE), "--out", str(workdir / "out"),
            "--format", draw(st.sampled_from(["jsonl", "csv"]))]
    return argv + flag_args(draw, {"--period": mostly(TIME.map(repr), BAD_NUMBER),
                                   "--center": FRACTION, "--width": FRACTION,
                                   "--seed": SEED})


class TestFuzzedMain:
    """main() returns 0, 2 or 3 on any evaluate or synth input and flags,
    or 1 for out of memory where --events, --errors or --density-bins is
    at the count bound.

    The only exception it may raise is argparse's SystemExit(2).
    """

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_exit_codes(self, data, tmp_path_factory):
        workdir = tmp_path_factory.mktemp("fuzz", numbered=True)
        argv = data.draw(evaluate_argv(workdir) | synth_argv(workdir))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:
                assert exc.code == 2
                rc = "usage"
        event(f"{argv[0]} exit {rc}")
        if rc == 1:
            sizes = [int(value) for flag, value in zip(argv, argv[1:])
                     if flag in ("--events", "--errors", "--density-bins") and value.isdigit()]
            assert max(sizes) >= MAX_BINS
            assert err.getvalue().startswith("error: out of memory: ")
        else:
            assert rc in (0, 2, 3, "usage")


def test_module_entry_runs_as_documented():
    """python -m vcseval, as the README runs it, exits with main's code."""
    src = str(pathlib.Path(vcseval.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "vcseval", *argv], env=env,
                              capture_output=True, text=True)

    done = run("gradcheck", "--trials", "2")
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("gradcheck: PASS\n")
    done = run("evaluate")
    assert done.returncode == 2
    assert done.stderr.startswith("usage:")
