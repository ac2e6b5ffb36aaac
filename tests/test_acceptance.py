"""Acceptance suite: run with `pytest -s tests/test_acceptance.py`.

Each test prints exactly one line naming the criterion and its verdict,
then asserts it. Tolerances and runtime budgets are stated inline.
"""

import json
import math

import numpy as np
import pytest

import vcseval as v
from vcseval.report_cli import DEMO_EPOCHS, _demo_run, main

from . import oracles


def check(num, name, ok, detail=""):
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_01_counting_collapse():
    rng = np.random.default_rng(100)
    worst = None
    for _ in range(1000):
        m = int(rng.integers(2, 65))
        y = rng.integers(0, 2, m)
        h = int(rng.integers(0, m + 1))
        hat1, hat2 = y.copy(), y.copy()
        f1 = rng.choice(m, size=h, replace=False)
        f2 = rng.choice(m, size=h, replace=False)
        hat1[f1] = 1 - hat1[f1]
        hat2[f2] = 1 - hat2[f2]
        c = float(rng.uniform(0.01, 100.0))
        for agg in ("sum", "mean", "one_minus_mean"):
            spec = v.InstanceMetricSpec(c, agg)
            a = v.instance_metric(spec, y, hat1)
            b = v.instance_metric(spec, y, hat2)
            if a != b:
                worst = (m, h, c, agg, a, b)
    check(1, "counting collapse", worst is None,
          "1000 trials, bit-identical" if worst is None else str(worst))


def test_02_expressiveness_witness(uniform_band):
    band = uniform_band["p999"]
    metrics_equal = True
    min_gap = math.inf
    for seed in range(10):
        streams = {
            kind: v.generate_pattern(v.PatternSpec(kind, 2000, 200, seed=seed))
            for kind in ("clustered", "random")
        }
        values = {}
        metrics = {}
        for kind, stream in streams.items():
            times = stream.t[v.disagreement_set(stream)]
            values[kind] = v.vcs(times, (stream.t_start, stream.t_end)).vcs
            metrics[kind] = tuple(
                v.instance_metric(v.InstanceMetricSpec(2.5, agg),
                                  stream.y, v.threshold_labels(stream))
                for agg in v.AGGREGATORS
            )
        metrics_equal &= metrics["clustered"] == metrics["random"]
        min_gap = min(min_gap, abs(values["clustered"] - values["random"]))
    ok = metrics_equal and min_gap > band
    check(2, "expressiveness witness", ok,
          f"min VCS gap {min_gap:.4f} > band {band:.4f}, instance metrics tied")


def test_03_vcs_limits():
    result = v.vcs(np.full(8, 42.0), (0.0, 100.0), v.VcsConfig(seed=1))
    exact = result.vcs == 0.5 and all(t.t_stat == 1.0 for t in result.trials)
    raised = False
    try:
        v.vcs([1.0], (0.0, 10.0))
    except v.TooFewDisagreements:
        raised = True
    check(3, "vcs limits", exact and raised,
          "one-timestamp set gives exactly 0.5; K<2 raises")


def test_04_affine_invariance():
    rng = np.random.default_rng(200)
    worst = 0.0
    for case in range(100):
        n = int(rng.integers(2, 60))
        times = np.sort(rng.random(n) * 100)
        # offset scale chosen so float64 rounding of a*t + b stays well
        # below the 1e-12 budget even at the a = 1e-3 compression
        b = float(rng.uniform(-5.0, 5.0))
        base = v.vcs(times, (0.0, 100.0), v.VcsConfig(seed=case))
        for a in (1e-3, 1.0, 1e3):
            mapped = v.vcs(a * times + b, (b, a * 100.0 + b), v.VcsConfig(seed=case))
            for t1, t2 in zip(base.trials, mapped.trials):
                worst = max(worst, abs(t1.t_stat - t2.t_stat))
    check(4, "affine-time invariance", worst <= 1e-12,
          f"max per-trial deviation {worst:.2e} over 100 cases x 3 scales")


def test_05_pattern_separation(uniform_band):
    band = uniform_band["p999"]
    means = {}
    for kind in ("clustered", "regular", "random"):
        vals = []
        for seed in range(10):
            stream = v.generate_pattern(v.PatternSpec(kind, 2000, 200, seed=seed))
            times = stream.t[v.disagreement_set(stream)]
            vals.append(v.vcs(times, (stream.t_start, stream.t_end)).vcs)
        means[kind] = float(np.mean(vals))
    ok = (means["clustered"] > band and means["regular"] > band
          and means["random"] <= band)
    check(5, "pattern separation", ok,
          f"clustered {means['clustered']:.4f}, regular {means['regular']:.4f}, "
          f"random {means['random']:.4f} vs band {band:.4f}")


def test_06_tau_variance_trend():
    stream = v.generate_pattern(v.PatternSpec("random", 2000, 200, seed=0))
    times = stream.t[v.disagreement_set(stream)]
    period = (stream.t_start, stream.t_end)
    spreads = {}
    for tau in (1, 25):
        t_means = [
            v.vcs(times, period, v.VcsConfig(tau=tau, seed=s)).t_mean
            for s in range(200)
        ]
        spreads[tau] = float(np.var(t_means))
    ok = spreads[25] < spreads[1]
    check(6, "tau variance trend", ok,
          f"var(t_mean) tau=25 {spreads[25]:.2e} < tau=1 {spreads[1]:.2e}")


def test_07_soft_min_bounds():
    rng = np.random.default_rng(300)
    ok = True
    detail = "1000 sets, every entry within 1e-12; beta sweep monotone"
    for case in range(1000):
        n = int(rng.integers(3, 15))
        times = rng.random(n) * 50
        beta = float(rng.uniform(0.5, 100))
        soft = [v.soft_nn_distance(times, i, beta) for i in range(n)]
        hard = [oracles.brute_nn_distance(i, times) for i in range(n)]
        bad = [i for i in range(n)
               if not hard[i] - math.log(n - 1) / beta - 1e-12 <= soft[i] <= hard[i] + 1e-12]
        if bad:
            ok, detail = False, f"bounds violated at case {case}, entry {bad[0]}"
            break
    if ok:
        for case in range(50):
            n = int(rng.integers(3, 10))
            times = np.cumsum(0.5 + rng.random(n))
            errs = [
                [abs(v.soft_nn_distance(times, i, beta) - oracles.brute_nn_distance(i, times))
                 for beta in (1.0, 10.0, 100.0, 1000.0)]
                for i in range(n)
            ]
            bad = [i for i in range(n)
                   if not all(b <= a + 1e-15 for a, b in zip(errs[i], errs[i][1:]))]
            if bad:
                ok, detail = False, f"beta sweep not monotone at case {case}, entry {bad[0]}"
                break
    check(7, "soft-min bounds", ok, detail)


def test_08_gradient_verification(capsys):
    rc = main(["gradcheck", "--trials", "100", "--seed", "0"])
    out = capsys.readouterr().out
    check(8, "gradient verification", rc == 0,
          "cmd_gradcheck 100 trials: " + out.strip().splitlines()[-1])


def test_09_hard_limit_reduction():
    rng = np.random.default_rng(400)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(4, 20))
        times = rng.random(n) * 40
        w = (rng.random(n) < 0.5).astype(float)
        if w.sum() < 2:
            w[rng.choice(n, 2, replace=False)] = 1.0
        ref = rng.random(int(rng.integers(2, 8))) * 40
        beta = float(rng.uniform(0.5, 20))
        full = v.weighted_soft_t(times, w, ref, beta)
        sub = v.soft_t(times[w > 0], ref, beta)
        worst = max(worst, abs(full.t_soft - sub.t_soft))
    check(9, "hard-limit reduction", worst <= 1e-12,
          f"max |t_soft difference| {worst:.2e} over 500 cases")


def test_10_vca_trend():
    results = {}
    for gamma in (0.0, 0.1):
        aps, vcss = [], []
        for seed in range(5):
            ap, vcs_value, _, _ = _demo_run(seed, gamma, DEMO_EPOCHS)
            aps.append(ap)
            vcss.append(vcs_value)
        results[gamma] = (float(np.mean(aps)), float(np.mean(vcss)))
    ap0, vcs0 = results[0.0]
    ap1, vcs1 = results[0.1]
    ok = vcs1 < vcs0 and (ap0 - ap1) <= 0.02
    check(10, "vca trend reproduction", ok,
          f"mean VCS {vcs0:.4f} -> {vcs1:.4f}, mean AP {ap0:.4f} -> {ap1:.4f}")


def test_11_determinism(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    main(["synth", "--pattern", "random", "--events", "300", "--errors", "40",
          "--seed", "5", "--out", str(log)])
    reports = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        assert main(["evaluate", "--input", str(log), "--report", str(path)]) == 0
        reports.append(path.read_bytes())
    demo_outputs = []
    histories = []
    for name in ("d1", "d2"):
        out_dir = tmp_path / name
        capsys.readouterr()
        rc = main(["train-demo", "--epochs", "40", "--seeds", "0,1",
                   "--out-dir", str(out_dir)])
        assert rc == 0
        demo_outputs.append(capsys.readouterr().out)
        histories.append(
            [p.read_bytes() for p in sorted(out_dir.iterdir())]
        )
    ok = (reports[0] == reports[1] and demo_outputs[0] == demo_outputs[1]
          and histories[0] == histories[1])
    check(11, "byte-identical determinism", ok,
          "evaluate reports and train-demo outputs match across reruns")


def test_12_round_trip(tmp_path):
    worst = 0.0
    counts_ok = True
    for fmt in ("jsonl", "csv"):
        for kind in ("random", "clustered", "regular"):
            out = tmp_path / f"{kind}.{fmt}"
            rc = main(["synth", "--pattern", kind, "--events", "500",
                       "--errors", "80", "--seed", "7", "--format", fmt,
                       "--out", str(out)])
            assert rc == 0
            spec = v.PatternSpec(kind, 500, 80, seed=7)
            direct = v.generate_pattern(spec)
            parsed = v.parse_records(out.read_text(), fmt)
            counts_ok &= (len(parsed) == 500
                          and v.disagreement_set(parsed).size == 80)
            worst = max(worst, float(np.max(np.abs(parsed.t - direct.t))))
    check(12, "synth round trip", counts_ok and worst <= 1e-9,
          f"max timestamp deviation {worst:.2e} across both formats")
