import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from vcseval import NonFiniteGradient, VcsConfig, parse_records, toy_trainer
from vcseval.report_cli import (
    build_eval_report,
    density_csv,
    emit_density_svg,
    main,
)

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

    def test_parse_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t": 1, "y": 5, "p": 0.5}\n')
        assert main(["evaluate", "--input", str(path)]) == 2

    def test_perfect_log_exit_three_with_marker(self, tmp_path):
        path = tmp_path / "perfect.jsonl"
        path.write_text(PERFECT)
        report_path = tmp_path / "report.json"
        rc = main(["evaluate", "--input", str(path), "--report", str(report_path)])
        assert rc == 3
        report = json.loads(report_path.read_text())
        assert report["ap"] == 1.0
        assert report["vcs"]["undefined"] == "too_few_disagreements"

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

        times = sorted(disagreement_set(stream).times.tolist())
        assert times == [1.0, 3.0, 5.0, 7.0]

    def test_invalid_spec_exit_two(self, capsys):
        rc = main(["synth", "--pattern", "random", "--events", "5", "--errors", "9"])
        assert rc == 2

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

    def test_gradient_overflow_exits_1(self, monkeypatch, capsys):
        def overflow(*args):
            raise NonFiniteGradient("weighted soft T weight gradient is not finite")

        monkeypatch.setattr(toy_trainer, "weighted_soft_t", overflow)
        rc = main(["train-demo", "--epochs", "2", "--seeds", "0"])
        assert rc == 1
        assert "not finite" in capsys.readouterr().err
