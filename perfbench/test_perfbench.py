"""Tests of the benchmark harness on small versions of its workloads.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import spans

SMALL = {
    "evaluate_jsonl": run.evaluate_workload(
        "evaluate_jsonl", "random", 3000, 150, 5, "jsonl", (),
        ("--report", "{report}", "--svg", "{svg}", "--density-csv", "{csv}"), ("python", "python"),
    ),
    "evaluate_csv_tau": run.evaluate_workload(
        "evaluate_csv_tau", "clustered", 2000, 1000, 20, "csv",
        ("--width", "0.2", "--format", "csv"), ("--format", "csv", "--tau", "20"),
        ("python", "numpy", "numpy"),
    ),
    "train_demo": run.train_demo_workload(epochs=10),
    "gradcheck": run.gradcheck_workload(trials=3),
}

EVALUATE_LAYERS = {
    "event_stream.parse_records.s", "event_stream.parse_records.calls",
    "event_stream.records_parsed", "event_stream.disagreement_set.s",
    "event_stream.serialize_records.s", "pattern_gen.generate_pattern.s",
    "vcs.vcs.s", "vcs.trials", "vcs.subsample_k",
    "instance_metrics.average_precision.s", "instance_metrics.auroc.s",
    "report_cli.build_eval_report.self_s", "report_cli.write.s",
}
SOFT_LAYERS = {
    "soft_vca.weighted_soft_t.s", "soft_vca.weighted_soft_t.calls",
    "soft_vca.weighted_soft_t.events_mean", "soft_vca.dense_cells",
    "toy_trainer.combined_loss.self_s", "toy_trainer.combined_loss.calls",
    "pattern_gen.generate_drift_dataset.s",
}
# Per-layer metrics that must be positive on each workload; the rest
# may read 0 there because the workload does not reach that layer.
APPLIES = {
    "evaluate_jsonl": EVALUATE_LAYERS,
    "evaluate_csv_tau": EVALUATE_LAYERS,
    "train_demo": SOFT_LAYERS | {
        "toy_trainer.train.s", "toy_trainer.evaluate_model.s", "vcs.vcs.s", "vcs.trials",
        "event_stream.disagreement_set.s", "instance_metrics.average_precision.s",
    },
    "gradcheck": SOFT_LAYERS | {"soft_vca.soft_nn.s", "soft_vca.finite_difference_check.self_s"},
}
ALWAYS = {"report_cli.main.self_s", "process.import_s"}

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def paths_for(workload, tmp_path, seed=3):
    return {"seed": seed, "input": tmp_path / f"input.{workload.input_format}",
            "report": tmp_path / "report.json", "svg": tmp_path / "density.svg",
            "csv": tmp_path / "density.csv"}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for name, small in SMALL.items():
        assert small.calibration == run.WORKLOADS[name].calibration


@pytest.mark.parametrize("name", sorted(SMALL))
def test_measure_emits_every_end_to_end_metric(name, tmp_path):
    tally = run.Tally()
    metrics, samples = run.measure(SMALL[name], paths_for(SMALL[name], tmp_path), 0, tally, tmp_path)
    assert tally.problems == []
    assert tally.attempted == run.SETUP_REPEATS + len(samples["wall_s"])
    for metric in SPEC["end_to_end"]:
        assert metrics[metric["name"]] > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_trace_emits_every_layer_metric_and_matches_untraced(name, tmp_path):
    tally = run.Tally()
    layers, samples = run.trace(SMALL[name], paths_for(SMALL[name], tmp_path), 0, tally, tmp_path)
    # trace() compares each traced call's outputs byte for byte with the
    # untraced call's and checks that self times account for the wall.
    assert tally.problems == []
    assert samples["missing_targets"] == []
    for key in APPLIES[name] | ALWAYS:
        assert layers[key] > 0, key
    assert abs(layers["tracing.unaccounted_frac"]) <= run.ACCOUNTING_TOLERANCE


def test_every_listed_layer_is_checked():
    # penalty_skipped counts steps where the penalty had too few weighted
    # events; on these workloads it reads 0 and is kept so a change shows.
    unchecked = {"tracing.overhead_frac", "tracing.unaccounted_frac", "toy_trainer.penalty_skipped"}
    listed = {m["name"] for m in SPEC["per_layer"]}
    assert listed == set().union(*APPLIES.values()) | ALWAYS | unchecked


def test_wrappers_are_restored():
    sys.path.insert(0, str(run.ROOT / "src"))
    from vcseval import report_cli

    def bindings():
        return {(n, a): v for n, m in sys.modules.items() if n.startswith("vcseval")
                for a, v in vars(m).items() if callable(v)}

    before = bindings()
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.installed(tracer):
            assert report_cli.vcs is not before[("vcseval.report_cli", "vcs")]
            assert sys.modules["vcseval.vcs"].vcs is report_cli.vcs
            raise RuntimeError("traced code failed")
    assert bindings() == before


def test_self_times_subtract_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(10000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    m = tracer.metrics()
    assert m["inner.calls"] == 3 and m["outer.calls"] == 1
    assert m["outer.self_s"] == pytest.approx(m["outer.s"] - m["inner.s"])
    assert tracer.self_total() == pytest.approx(m["outer.s"])


def test_checks_reject_wrong_outputs(tmp_path):
    workload = SMALL["evaluate_jsonl"]
    tally = run.Tally()
    run.measure(workload, paths_for(workload, tmp_path), 0, tally, tmp_path)
    files = {k: (tmp_path / f).read_bytes() for k, f in
             (("report", "report.json"), ("csv", "density.csv"), ("svg", "density.svg"))}
    files["stdout"] = b""
    assert workload.check(files) == []
    report = json.loads(files["report"])
    report["n_errors"] += 1
    report["vcs"]["per_trial_t_stat"].pop()
    report["density"]["error_counts"][0] += 1
    bad = dict(files, report=json.dumps(report).encode())
    assert len(workload.check(bad)) == 3
    assert run.check_outputs(workload, files, bad) == ["report differs from the first invocation"]
    table = b"arm ap_mean\nbaseline 0.9 0.1 nan 0.1 55.0\nvca 0.9 0.1 0.2 0.1 55.0\n"
    assert len(run.check_train_demo({"stdout": table})) == 1
    assert run.check_gradcheck({"stdout": b"gradcheck: FAIL\n"}) != []


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gradcheck", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
