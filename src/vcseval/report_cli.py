"""Command-line interface: evaluate, synth, gradcheck, train-demo.

Exit codes: 0 success, 1 check or compute failure, 2 input error,
3 statistic undefined on the given input (the report is still written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import soft_vca, toy_trainer
from .errors import (EXIT_FAILURE, EXIT_INPUT, EXIT_OK, EXIT_UNDEFINED, NonFiniteGradient,
                     NonFiniteLoss, VcsEvalError)
from .event_stream import FORMATS, parse_records, serialize_records
from .pattern_gen import (_MAX_COUNT, PATTERN_KINDS, DriftDataset, DriftSpec, PatternSpec,
                          generate_drift_dataset, generate_pattern)
from .toy_trainer import TrainConfig, train
# vcs itself is not called here; perfbench's tests trace it through this binding
from .vcs import VcsConfig, evaluate_stream, vcs  # noqa: F401

# Benchmark used by train-demo: a late, dense error burst whose labels
# conflict with the pre-drift geometry, so the clustering penalty has
# decisions it can actually flip.
DEMO_BENCHMARK = dict(
    n_events=1000,
    period=(0.0, 1000.0),
    drift_onset=0.97,
    feature_dim=4,
    drift_shift=2.8,
    class_separation=4.0,
    burst_fraction=0.15,
    post_class1_rate=0.9,
)
DEMO_EPOCHS = 400


def build_eval_report(stream, threshold, vcs_config, density_bins):
    """Assemble the evaluation report dict; never raises on undefined stats."""
    summary = evaluate_stream(stream, threshold, vcs_config)
    disg, result = summary.disagreements, summary.vcs_result
    if result is None:
        vcs_block = {"undefined": summary.vcs_undefined, "reason": summary.vcs_undefined_reason}
    else:
        vcs_block = {
            "value": result.vcs,
            "t_mean": result.t_mean,
            "signed_deviation": result.signed_deviation,
            "tau": vcs_config.tau,
            "k": vcs_config.subsample_size(disg.size),
            "seed": vcs_config.seed,
            "per_trial_t_stat": [t.t_stat for t in result.trials],
        }
    # np.histogram's own edges, passed explicitly: given a range, it rejects
    # bins narrower than the float spacing of large timestamps
    lo, hi = stream.t_start, stream.t_end
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, density_bins + 1)
    counts, _ = np.histogram(stream.t[disg], bins=edges)
    return {
        "n_events": len(stream),
        "n_errors": disg.size,
        "threshold": threshold,
        "ap": summary.ap,
        "auroc": summary.auroc,
        "vcs": vcs_block,
        "density": {
            "bins": density_bins,
            "bin_edges": [float(e) for e in edges],
            "error_counts": [int(c) for c in counts],
        },
    }


def emit_density_svg(report, path):
    """Write the error-density strip: one rect per bin, opacity = count/max."""
    counts = report["density"]["error_counts"]
    n_bins = len(counts)
    peak = max(counts) if counts else 0
    width, height, pad = 800, 60, 5
    strip_w = (width - 2 * pad) / n_bins
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" '
        f'height="{height - 2 * pad}" fill="none" stroke="#444" stroke-width="1"/>',
    ]
    for i, count in enumerate(counts):
        opacity = count / peak if peak > 0 else 0.0
        x = pad + i * strip_w
        parts.append(
            f'<rect x="{x:.3f}" y="{pad}" width="{strip_w:.3f}" '
            f'height="{height - 2 * pad}" fill="#a00000" fill-opacity="{opacity:.6f}"/>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def density_csv(report):
    lines = ["bin_start,bin_end,error_count"]
    edges = report["density"]["bin_edges"]
    for i, count in enumerate(report["density"]["error_counts"]):
        lines.append(f"{edges[i]!r},{edges[i + 1]!r},{count}")
    return "\n".join(lines) + "\n"


def cmd_evaluate(args):
    # read in pieces as it is parsed; only the columns outlive the parse
    with open(args.input, "rb") as log:
        stream = parse_records(log, args.format, sort=args.sort)
    config = VcsConfig(tau=args.tau, subsample_fraction=args.subsample, seed=args.seed)
    report = build_eval_report(stream, args.threshold, config, args.density_bins)
    text = json.dumps(report, indent=2) + "\n"
    if args.report:
        Path(args.report).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if args.svg:
        emit_density_svg(report, args.svg)
    if args.density_csv:
        Path(args.density_csv).write_text(density_csv(report), encoding="utf-8")
    undefined = (
        "undefined" in report["vcs"] or report["ap"] is None or report["auroc"] is None
    )
    return EXIT_UNDEFINED if undefined else EXIT_OK


def cmd_synth(args):
    spec = PatternSpec(
        kind=args.pattern,
        n_events=args.events,
        n_errors=args.errors,
        period=tuple(args.period),
        cluster_center=args.center,
        cluster_width=args.width,
        seed=args.seed,
    )
    stream = generate_pattern(spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            serialize_records(stream, args.format, out)
    else:
        serialize_records(stream, args.format, sys.stdout)
    return EXIT_OK


# Trials drawn and scored together, so that memory does not grow with
# --trials.
GRADCHECK_BLOCK = 256
# Trials of one shape scored in one stacked call. With 8, gradcheck
# --trials 250 peaked 0.2 MB of RSS above scoring one trial at a time,
# against 0.9 MB with no cap, and its soft families took 69 ms against
# 65 ms (2 vCPUs, Python 3.11.7, numpy 2.4.6).
GRADCHECK_STACK = 8


def _tie_free_times(rng, n):
    while True:
        times = rng.random(n) * 10.0
        ordered = np.sort(times)
        if (ordered[1:] - ordered[:-1]).min() > 1e-2:
            return times


def _draw_soft_nn(rng):
    return _tie_free_times(rng, int(rng.integers(4, 13)))


def _draw_weighted(rng):
    n = int(rng.integers(4, 11))
    times = _tie_free_times(rng, n)
    ref = _tie_free_times(rng, int(rng.integers(3, 7)))
    return times, ref, 0.1 + 0.8 * rng.random(n)


def _draw_combined(rng):
    spec = DriftSpec(n_events=40, seed=int(rng.integers(0, 2**31)))
    theta0 = 0.5 * rng.standard_normal(spec.feature_dim + 1)
    return spec, theta0, TrainConfig(gamma=0.1, seed=int(rng.integers(0, 2**31)))


def _stacked_errors(problems, step, shape, point, score):
    """finite_difference_check's error at point(p) for each problem p.

    The problems are grouped by shape(p), GRADCHECK_STACK at most to a
    group, and each group is checked in one finite_difference_check call
    on the stack of its points. Its value function is score(group,
    rows), which scores the rows in one stacked call and returns their
    values and the gradient at each point.
    """
    shapes = {}
    for problem in problems:
        shapes.setdefault(shape(problem), []).append(problem)
    errors = []
    for group in (same[i:i + GRADCHECK_STACK] for same in shapes.values()
                  for i in range(0, len(same), GRADCHECK_STACK)):
        errors.extend(soft_vca.finite_difference_check(
            lambda rows: score(group, rows), [point(p) for p in group], step))
    return errors


def _soft_nn_errors(problems, step, beta):
    # the groups share a point count n
    def score(group, rows):
        return (soft_vca.soft_nn_distance(rows, 0, beta),
                soft_vca.soft_nn_gradient(group, 0, beta))

    return _stacked_errors(problems, step, np.size, lambda times: times, score)


def _weighted_errors(problems, step, beta, compose_penalty):
    # the groups share an event count and a reference count. Each
    # trial's rows come together, its point first, so its timestamps
    # and reference times are repeated on them.
    def score(group, rows):
        size = len(rows) // len(group)
        times = np.repeat([p[0] for p in group], size, axis=0)
        ref = np.repeat([p[1] for p in group], size, axis=0)
        trial = soft_vca.weighted_soft_t(times, rows, ref, beta)
        gradients = trial.weight_gradient[::size]
        if not compose_penalty:
            return trial.t_soft, gradients
        penalty, slope = soft_vca.vca_penalty(trial.t_soft, 0.1)
        return penalty, slope[::size, None] * gradients

    return _stacked_errors(problems, step, lambda p: (p[0].size, p[1].size), lambda p: p[2],
                           score)


def _combined_errors(problems, step):
    # one trial at a time: a one-row combined_loss call for row 0's value
    # and gradient, and the perturbed rows' values alone
    def error(spec, theta0, config):
        ds = generate_drift_dataset(spec)

        def value(thetas):
            point = toy_trainer.combined_loss(thetas[0], ds, config, step=0)
            rest = toy_trainer._losses(thetas[1:], ds, config, 0, gradient=False).total
            return np.concatenate(([point.total], rest)), point.gradient

        return soft_vca.finite_difference_check(value, theta0, step)

    return [error(*problem) for problem in problems]


def _family_worst(rng, trials, draw, errors):
    """The largest error of trials problems drawn from rng in turn.

    A block of GRADCHECK_BLOCK problems is drawn, then scored by
    errors(problems). When that raises a ValueError or a package error,
    rng goes back to the block's start and the block is drawn and scored
    one problem at a time, so the first problem that raises alone raises
    here, with rng just past its draws, as a trial-by-trial loop leaves
    it.
    """
    worst = -math.inf
    for start in range(0, trials, GRADCHECK_BLOCK):
        size = min(GRADCHECK_BLOCK, trials - start)
        state = rng.bit_generator.state
        try:
            block = errors([draw(rng) for _ in range(size)])
        except (ValueError, VcsEvalError):
            rng.bit_generator.state = state
            block = [errors([draw(rng)])[0] for _ in range(size)]
        worst = max(worst, *block)
    return worst


def cmd_gradcheck(args):
    rng = np.random.default_rng(args.seed)
    step, beta = args.step, args.beta
    families = [
        ("soft_nn_distance", _draw_soft_nn,
         lambda problems: _soft_nn_errors(problems, step, beta), 1e-5),
        ("weighted_soft_t", _draw_weighted,
         lambda problems: _weighted_errors(problems, step, beta, False), 1e-5),
        ("vca_penalty_composed", _draw_weighted,
         lambda problems: _weighted_errors(problems, step, beta, True), 1e-5),
        ("combined_loss", _draw_combined, lambda problems: _combined_errors(problems, step), 1e-4),
    ]
    failed = False
    for name, draw, errors, tol in families:
        try:
            worst = _family_worst(rng, args.trials, draw, errors)
        except (ValueError, NonFiniteGradient):
            worst = math.inf
        ok = worst <= tol
        failed = failed or not ok
        print(f"{name:24s} max_rel_err={worst:.3e}  tol={tol:.0e}  "
              f"{'PASS' if ok else 'FAIL'}")
    print(f"gradcheck: {'FAIL' if failed else 'PASS'}")
    return EXIT_FAILURE if failed else EXIT_OK


def _interleaved_split(ds):
    """Even/odd record split so both halves cover the whole period."""
    train_part = DriftDataset(t=ds.t[0::2], features=ds.features[0::2], y=ds.y[0::2])
    test_part = DriftDataset(t=ds.t[1::2], features=ds.features[1::2], y=ds.y[1::2])
    return train_part, test_part


def _demo_run(seed, gamma, epochs):
    spec = DriftSpec(seed=seed, **DEMO_BENCHMARK)
    train_part, test_part = _interleaved_split(generate_drift_dataset(spec))
    config = TrainConfig(gamma=gamma, epochs=epochs, seed=seed)
    weights, history = train(train_part, config)
    summary = toy_trainer.evaluate_model(weights, test_part)
    nan = float("nan")
    ap = nan if summary.ap is None else summary.ap
    vcs_value = nan if summary.vcs_result is None else summary.vcs_result.vcs
    return ap, vcs_value, summary.disagreements.size, history


def cmd_train_demo(args):
    rows = []
    for label, gamma in (("baseline", 0.0), ("vca", args.gamma)):
        aps, vcss, ks = [], [], []
        for seed in args.seeds:
            ap, vcs_value, k, history = _demo_run(seed, gamma, args.epochs)
            aps.append(ap)
            vcss.append(vcs_value)
            ks.append(k)
            if args.out_dir:
                out = Path(args.out_dir)
                out.mkdir(parents=True, exist_ok=True)
                path = out / f"history_{label}_seed{seed}.csv"
                path.write_text(toy_trainer.history_csv(history), encoding="utf-8")
        rows.append((label, aps, vcss, ks))
    print(f"seeds: {','.join(str(s) for s in args.seeds)}  epochs: {args.epochs}  "
          f"gamma: {args.gamma}")
    print(f"{'arm':10s} {'ap_mean':>9s} {'ap_std':>8s} {'vcs_mean':>9s} "
          f"{'vcs_std':>8s} {'k_mean':>7s}")
    for label, aps, vcss, ks in rows:
        print(f"{label:10s} {np.mean(aps):9.4f} {np.std(aps):8.4f} "
              f"{np.mean(vcss):9.4f} {np.std(vcss):8.4f} {np.mean(ks):7.1f}")
    return EXIT_OK


def _checked(convert, ok, requirement):
    """argparse type that converts the text, then rejects values failing ok."""

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {text!r}")
        return value

    return parse


POSITIVE_FLOAT = _checked(
    float, lambda v: math.isfinite(v) and v > 0, "must be a finite number > 0")
NON_NEGATIVE_FLOAT = _checked(
    float, lambda v: math.isfinite(v) and v >= 0, "must be a finite number >= 0")
POSITIVE_INT = _checked(int, lambda v: v >= 1, "must be an integer >= 1")
NON_NEGATIVE_INT = _checked(int, lambda v: v >= 0, "must be an integer >= 0")
OPEN_UNIT = _checked(float, lambda v: 0 < v < 1, "must be a number in (0, 1)")
SEED_64 = _checked(int, lambda v: 0 <= v < 2**64, "must be an integer in [0, 2**64)")
SEED_LIST = _checked(
    lambda text: [int(s) for s in text.split(",")],
    lambda seeds: min(seeds) >= 0,
    "must be comma-separated integers >= 0",
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vcseval",
        description="Temporal clustering evaluation of prediction error streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="score a prediction log and report VCS/AP/AU-ROC")
    p.add_argument("--input", required=True, help="path to the prediction log")
    p.add_argument("--format", choices=FORMATS, default="jsonl")
    p.add_argument("--threshold", type=OPEN_UNIT, default=0.5)
    p.add_argument("--tau", type=POSITIVE_INT, default=5)
    p.add_argument("--subsample", type=OPEN_UNIT, default=0.5)
    p.add_argument("--seed", type=SEED_64, default=42)
    # np.linspace sizes its density_bins + 1 edges from a float64 count,
    # and float64 counts are 128 apart just below 2**60 = _MAX_COUNT + 1
    p.add_argument("--density-bins", default=100, type=_checked(
        int, lambda v: 1 <= v <= _MAX_COUNT - 128,
        f"must be an integer in [1, {_MAX_COUNT - 128}]"))
    p.add_argument("--sort", action="store_true", help="stably sort unsorted input")
    p.add_argument("--report", help="write the JSON report to this path")
    p.add_argument("--svg", help="write a density strip SVG to this path")
    p.add_argument("--density-csv", help="write bin_start,bin_end,error_count rows")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate a synthetic pattern stream")
    p.add_argument("--pattern", choices=PATTERN_KINDS, required=True)
    p.add_argument("--events", type=int, required=True)
    p.add_argument("--errors", type=int, required=True)
    p.add_argument("--period", type=float, nargs=2, default=(0.0, 1000.0))
    p.add_argument("--center", type=float, default=0.9, help="cluster center fraction")
    p.add_argument("--width", type=float, default=0.02, help="cluster width fraction")
    p.add_argument("--seed", type=NON_NEGATIVE_INT, default=0)
    p.add_argument("--format", choices=FORMATS, default="jsonl")
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("gradcheck", help="verify analytic gradients by finite differences")
    p.add_argument("--beta", type=POSITIVE_FLOAT, default=5.0)
    p.add_argument("--trials", type=POSITIVE_INT, default=100)
    p.add_argument("--step", type=POSITIVE_FLOAT, default=1e-6)
    p.add_argument("--seed", type=NON_NEGATIVE_INT, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train-demo", help="paired baseline vs penalty training runs")
    p.add_argument("--gamma", type=NON_NEGATIVE_FLOAT, default=0.1)
    p.add_argument("--seeds", type=SEED_LIST, default="0,1,2,3,4",
                   help="comma-separated seed list")
    p.add_argument("--epochs", type=POSITIVE_INT, default=DEMO_EPOCHS)
    p.add_argument("--out-dir", help="directory for per-run history CSVs")
    p.set_defaults(func=cmd_train_demo)

    return parser


def main(argv=None):
    """Run one command; the only place where errors become exit codes."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NonFiniteLoss as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (OSError, UnicodeDecodeError, VcsEvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
