"""Benchmark of the vcseval CLI: four workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload evaluate_jsonl --seed 1 --seconds 20 --trace 0

``--trace 0`` times the CLI as a user runs it: each invocation is a
child process ``python -m vcseval <argv>`` with the checkout's ``src``
first on ``PYTHONPATH``. The workload's inputs are generated first
(``vcseval synth``, timed as set-up), then the command runs back to
back for ``--seconds`` seconds and at least ``MIN_INVOCATIONS`` times.
Every invocation's exit code and outputs are checked, and each must be
byte-identical to the first, since the inputs and seed are the same.

Times are scaled to a reference machine speed. Before every timed
child the benchmark runs the workload's calibration tasks
(``CALIBRATIONS``: fixed Python and numpy work that uses no vcseval
code) and divides their wall time by their time on the reference
machine; that slowness divides the child's wall time. On a shared
two-core VM the same invocation took from 1.0 s to 1.96 s within three
minutes as other tenants came and went. Over windows of five
``gradcheck`` invocations, the quartile spread of the window medians
was 0.28 of their median, and that of the scaled times 0.08. Raw
wall-clock throughput is printed beside the scaled one and kept in the
result file.

``--trace 1`` calls ``report_cli.main(argv)`` in this process instead,
alternating untraced and traced calls, with spans recorded by
``spans.py`` around the package's public functions. It reports
per-layer times and counts, the tracing overhead, and checks that the
traced outputs equal the untraced ones.

Metric names, units and the workload list live in ``BENCHMARK.json``.
Human-readable lines come first on stdout; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
full result, with the environment and every sample, is also written to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
MIN_INVOCATIONS = 3
SETUP_REPEATS = 3
# Calibration tasks: fixed work that uses no vcseval code, each with its
# wall time on the reference machine (2-vCPU Intel Xeon VM, Python
# 3.11.7, numpy 2.4.6, a quiet minute). "python" is interpreter-bound
# like parsing; "numpy" is dense kernels and small-array calls like the
# soft statistic and the VCS trials.
CALIBRATIONS = {
    "python": ("""
import csv, io, json
rows = [json.dumps({"t": i * 0.37, "y": i % 2, "p": 0.25, "id": str(i)}) for i in range(60000)]
objs = [json.loads(r) for r in rows]
text = "\\n".join(f"{o['t']!r},{o['y']},{o['p']!r},{o['id']}" for o in objs)
total = sum(float(r[0]) for r in csv.reader(io.StringIO(text)))
""", 0.42),
    "numpy": ("""
import numpy as np
rng = np.random.default_rng(0)
t = np.sort(rng.random(500))
for _ in range(60):
    ell = -5.0 * np.abs(t[:, None] - t[None, :])
    m = ell.max(axis=1, keepdims=True)
    s = m[:, 0] + np.log(np.exp(ell - m).sum(axis=1))
    g = np.exp(ell - s[:, None]).T @ s
for _ in range(12000):
    a = rng.random(10)
    np.abs(a[:, None] - a[None, :]).max(axis=1)
x = rng.random(200_000)
np.searchsorted(np.sort(x), x[:50_000])
""", 0.35),
}
# The traced spans' self times must add up to the traced wall time
# within this share; only the outermost wrapper's own cost is outside.
ACCOUNTING_TOLERANCE = 0.01
# numpy's OpenBLAS is threaded. One thread, the same on every machine
# and commit: the workloads' largest product is a 500 x 500 matrix times
# a vector, and a second thread ran no faster, only spinning.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    """One CLI command and how to make its inputs and check its outputs.

    ``setup`` and ``command`` are argv lists for ``vcseval``; the
    placeholders ``{seed}``, ``{input}``, ``{report}``, ``{svg}`` and
    ``{csv}`` are filled per run. A command without ``{report}`` writes
    its report to stdout. ``items`` is the work of one invocation, in
    ``item_name`` units, and ``check`` maps the outputs to problems.
    ``calibration`` names the ``CALIBRATIONS`` run before each
    invocation: the kinds of work that dominate the command, repeated
    so that they take about a third as long as it. A shorter
    calibration adds its own noise to the scaled time.
    """

    name: str
    setup: tuple
    command: tuple
    items: int
    item_name: str
    check: object
    calibration: tuple
    input_format: str = "jsonl"


def check_report(files, events, errors, tau):
    """Problems with an evaluate report, its density CSV and its SVG."""
    report = json.loads(files.get("report") or files["stdout"])
    vcs_block = report["vcs"]
    problems = []
    if report["n_events"] != events:
        problems.append(f"n_events {report['n_events']} != {events}")
    if report["n_errors"] != errors:
        problems.append(f"n_errors {report['n_errors']} != planted {errors}")
    if not 0.0 <= vcs_block.get("value", -1.0) <= 0.5:
        problems.append(f"vcs outside [0, 0.5]: {vcs_block}")
    if len(vcs_block.get("per_trial_t_stat", ())) != tau:
        problems.append(f"per_trial_t_stat does not have tau={tau} entries")
    if sum(report["density"]["error_counts"]) != errors:
        problems.append("density error_counts do not sum to n_errors")
    if "csv" in files:
        rows = files["csv"].decode().splitlines()[1:]
        if sum(int(row.rsplit(",", 1)[1]) for row in rows) != errors:
            problems.append("density CSV counts do not sum to n_errors")
    if "svg" in files and not files["svg"].startswith(b"<?xml"):
        problems.append("SVG output is not an XML document")
    return problems


def check_train_demo(files):
    """Problems with the train-demo table: both arms, finite numbers."""
    rows = [line.split() for line in files["stdout"].decode().splitlines()]
    arms = {row[0]: row[1:] for row in rows if row and row[0] in ("baseline", "vca")}
    problems = [] if set(arms) == {"baseline", "vca"} else ["table lacks an arm row"]
    for arm, values in arms.items():
        if len(values) != 5 or not all(math.isfinite(float(v)) for v in values):
            problems.append(f"{arm} row is not five finite numbers: {values}")
    return problems


def check_gradcheck(files):
    lines = files["stdout"].decode().strip().splitlines()
    return [] if lines and lines[-1] == "gradcheck: PASS" else [f"gradcheck output: {lines[-1:]}"]


def evaluate_workload(name, pattern, events, errors, tau, fmt, synth_args, eval_args,
                      calibration):
    return Workload(
        name=name,
        setup=("synth", "--pattern", pattern, "--events", str(events), "--errors",
               str(errors), *synth_args, "--seed", "{seed}", "--out", "{input}"),
        command=("evaluate", "--input", "{input}", *eval_args, "--seed", "{seed}"),
        items=events,
        item_name="events",
        check=functools.partial(check_report, events=events, errors=errors, tau=tau),
        calibration=calibration,
        input_format=fmt,
    )


def train_demo_workload(epochs):
    return Workload(
        name="train_demo",
        setup=(),
        command=("train-demo", "--seeds", "{seed}", "--epochs", str(epochs)),
        items=2 * epochs,
        item_name="epochs",
        check=check_train_demo,
        calibration=("numpy", "numpy", "numpy"),
    )


def gradcheck_workload(trials):
    return Workload(
        name="gradcheck",
        setup=(),
        command=("gradcheck", "--trials", str(trials), "--seed", "{seed}"),
        items=4 * trials,
        item_name="trials",
        check=check_gradcheck,
        calibration=("python", "numpy"),
    )


# Why each workload is here is recorded in BENCHMARK.json. The sizes let
# a run of 20 s hold five or more invocations of each command with its
# calibration; at twice these sizes each layer's share was the same.
WORKLOADS = {
    w.name: w
    for w in (
        evaluate_workload(
            "evaluate_jsonl", "random", 150_000, 7_500, 5, "jsonl", (),
            ("--report", "{report}", "--svg", "{svg}", "--density-csv", "{csv}"),
            ("python", "python"),
        ),
        evaluate_workload(
            "evaluate_csv_tau", "clustered", 100_000, 50_000, 200, "csv",
            ("--width", "0.2", "--format", "csv"), ("--format", "csv", "--tau", "200"),
            ("python", "numpy", "numpy"),
        ),
        train_demo_workload(epochs=200),
        gradcheck_workload(trials=250),
    )
}


def child_env():
    """The environment of every timed child, the same in every checkout.

    Its size moves the child's initial stack, which can shift run times
    by several percent (Mytkowicz et al., ASPLOS 2009); here a checkout
    with a longer path read 17% slower. So nothing in it names the
    checkout: ``PYTHONPATH`` is relative to the checkout root, which is
    the children's working directory, and ``PWD`` is dropped.
    """
    env = {k: v for k, v in os.environ.items() if k not in ("PWD", "OLDPWD")}
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    return env


def run_child(argv, stdout_path):
    """Run ``argv``; return (exit code, wall seconds, peak RSS in MB, stderr).

    The peak RSS comes from ``wait4`` on this child's pid alone;
    ``RUSAGE_CHILDREN`` would be a running maximum over all children.
    """
    err_path = stdout_path.with_suffix(".stderr")
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6, err_path.read_text()[-500:]


def run_calibrated(argv, stdout_path, calibration):
    """run_child after the named calibrations, plus the machine's slowness.

    The slowness is the calibrations' wall time over their reference
    time: 1.0 on the reference machine, 1.5 when it runs 50% slower.
    """
    wall, ref = 0.0, 0.0
    for name in calibration:
        code, cal_wall, _, err = run_child([sys.executable, "-I", "-c", CALIBRATIONS[name][0]],
                                           stdout_path.with_suffix(".cal"))
        if code != 0:
            raise RuntimeError(f"calibration {name} failed with exit {code}: {err}")
        wall += cal_wall
        ref += CALIBRATIONS[name][1]
    return (*run_child(argv, stdout_path), wall / ref)


def fill(argv, paths):
    return [arg.format(**paths) for arg in argv]


def collect(command, paths, stdout):
    """The outputs one invocation wrote, keyed by placeholder name."""
    files = {"stdout": stdout}
    for key in ("report", "svg", "csv"):
        if "{" + key + "}" in command:
            files[key] = Path(paths[key]).read_bytes()
    return files


class Tally:
    """Attempted and failed invocations, with the problems found."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems = []

    def record(self, label, problems):
        self.attempted += 1
        self.failed += bool(problems)
        self.problems.extend(f"{label}: {p}" for p in problems)


def check_outputs(workload, files, reference):
    """Output problems, plus any byte difference from the reference outputs."""
    try:
        problems = workload.check(files)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    if reference is not None:
        problems += [f"{k} differs from the first invocation" for k in files if files[k] != reference[k]]
    return problems


def run_setup(workload, paths, tally, work):
    """Set-up times: ``synth`` of the inputs, or a bare import when there are none."""
    if workload.setup:
        argv = [sys.executable, "-m", "vcseval"] + fill(workload.setup, paths)
    else:
        argv = [sys.executable, "-c", "import vcseval"]
    times, cals, first = [], [], None
    for i in range(SETUP_REPEATS):
        code, wall, _, err, cal = run_calibrated(argv, work / "setup.out", workload.calibration)
        times.append(wall)
        cals.append(cal)
        problems = [] if code == 0 else [f"exit {code}: {err}"]
        if workload.setup and code == 0:
            data = Path(paths["input"]).read_bytes()
            lines = data.count(b"\n") - (workload.input_format == "csv")
            if lines != workload.items:
                problems.append(f"synth wrote {lines} records, not {workload.items}")
            digest = hashlib.sha256(data).digest()
            first = first or digest
            if digest != first:
                problems.append("synth output differs from the first set-up")
        tally.record(f"setup {i}", problems)
    return times, cals


def reference_seconds(timed):
    """Mean wall time at reference speed of (wall, slowness) samples.

    A ratio of sums: both sums average over the whole run, which on a
    shared machine varied less from run to run than the median of the
    per-invocation ratios.
    """
    return sum(w for w, _ in timed) / sum(s for _, s in timed)


def measure(workload, paths, seconds, tally, work):
    """End-to-end metrics of the command, run as child processes."""
    setup_times, setup_cals = run_setup(workload, paths, tally, work)
    argv = [sys.executable, "-m", "vcseval"] + fill(workload.command, paths)
    walls, cals, rss, passed, reference = [], [], [], [], None
    start = time.perf_counter()
    while len(walls) < MIN_INVOCATIONS or time.perf_counter() - start < seconds:
        code, wall, peak, err, cal = run_calibrated(argv, work / "command.out",
                                                    workload.calibration)
        walls.append(wall)
        cals.append(cal)
        rss.append(peak)
        if code != 0:
            problems = [f"exit {code}: {err}"]
        else:
            files = collect(workload.command, paths, (work / "command.out").read_bytes())
            problems = check_outputs(workload, files, reference)
            reference = reference or files
        tally.record(f"invocation {len(walls)}", problems)
        if not problems:
            passed.append((wall, cal))
    # A failed invocation's time is no measure of throughput.
    timed = passed or list(zip(walls, cals))
    metrics = {
        "items_per_ref_s": workload.items / reference_seconds(timed),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": reference_seconds(list(zip(setup_times, setup_cals))),
    }
    samples = {"wall_s": walls, "slowness": cals, "peak_rss_mb": rss,
               "setup_wall_s": setup_times, "setup_slowness": setup_cals}
    return metrics, samples


def call_main(main, argv):
    """Run the CLI's main in this process; return (exit code, wall s, stdout bytes)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - start
    return code, wall, out.getvalue().encode()


def import_seconds(work):
    """Median wall time of a fresh process that only imports vcseval."""
    argv = [sys.executable, "-c", "import vcseval"]
    return statistics.median(run_child(argv, work / "import.out")[1] for _ in range(SETUP_REPEATS))


def trace(workload, paths, seconds, tally, work):
    """Per-layer metrics from in-process calls, traced and untraced in turn."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from vcseval import report_cli

    def traced_call(tracer, argv):
        with spans.installed(tracer) as not_found:
            result = call_main(tracer.wrap(spans.ROOT_SPAN, report_cli.main), argv)
        missing.update(not_found)
        return result

    missing = set()
    setup_tracer = spans.Tracer()
    if workload.setup:
        code, _, _ = traced_call(setup_tracer, fill(workload.setup, paths))
        tally.record("traced setup", [] if code == 0 else [f"synth exit {code}"])
    argv = fill(workload.command, paths)
    runs, walls, unaccounted = [], {False: [], True: []}, []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        calls = {}
        # Alternate which call goes first, so warm-up favours neither.
        for traced in (False, True) if len(runs) % 2 == 0 else (True, False):
            tracer = spans.Tracer()
            if traced:
                code, wall, stdout = traced_call(tracer, argv)
            else:
                code, wall, stdout = call_main(report_cli.main, argv)
            calls[traced] = (code, wall, collect(workload.command, paths, stdout), tracer)
        (code_u, wall_u, files_u, _), (code_t, wall_t, files_t, tracer) = calls[False], calls[True]
        tally.record("untraced call", [f"exit {code_u}"] if code_u else check_outputs(workload, files_u, None))
        # The reference makes any byte the tracing changed a problem.
        tally.record("traced call", [f"exit {code_t}"] if code_t else check_outputs(workload, files_t, files_u))
        runs.append(tracer.metrics())
        walls[False].append(wall_u)
        walls[True].append(wall_t)
        unaccounted.append((wall_t - tracer.self_total()) / wall_t)
    worst = max(unaccounted, key=abs)
    if abs(worst) > ACCOUNTING_TOLERANCE:
        tally.problems.append(f"span self times miss {worst:.2%} of the traced wall")
    layers = spans.median_metrics(runs)
    for key, value in setup_tracer.metrics().items():
        layers[key] = layers.get(key, 0.0) + value
    # Each pair ran back to back, so its ratio cancels most machine drift.
    layers["tracing.overhead_frac"] = statistics.median(
        t / u - 1 for t, u in zip(walls[True], walls[False]))
    layers["tracing.unaccounted_frac"] = statistics.median(unaccounted)
    layers["process.import_s"] = import_seconds(work)
    samples = {"untraced_wall_s": walls[False], "traced_wall_s": walls[True],
               "unaccounted_frac": unaccounted,
               "missing_targets": sorted(missing)}
    return layers, samples


def environment():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # the checkout need not be a git repository
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    import numpy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": BLAS_THREADS,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "vcseval" / "__init__.py").is_file():
        print(f"error: no vcseval sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update({var: BLAS_THREADS for var in BLAS_VARS})
    # Relative paths of a fixed length keep the children's argv the same
    # in every checkout, as child_env() does for their environment.
    os.chdir(ROOT)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload]
    out_dir = Path(".perfbench")
    work = out_dir / f"work-{os.getpid():07d}"
    work.mkdir(parents=True, exist_ok=True)
    paths = {"seed": args.seed, "input": work / f"input.{workload.input_format}",
             "report": work / "report.json", "svg": work / "density.svg",
             "csv": work / "density.csv"}
    tally = Tally()
    try:
        run = trace if args.trace else measure
        values, samples = run(workload, paths, args.seconds, tally, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in listed}
    print("env " + json.dumps(env))
    for name, metric in metrics.items():
        print(f"{workload.name} {name} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        alias = f"{workload.item_name}_per_s"
        walls = samples["wall_s"]
        print(f"{workload.name} {alias} {workload.items / statistics.median(walls):.6g} "
              f"{workload.item_name}/s (wall clock, median of {len(walls)} invocations; "
              f"machine slowness median {statistics.median(samples['slowness']):.4g})")
    print(f"{workload.name} failed_frac {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} invocations)")
    for problem in tally.problems:
        print(f"problem: {problem}")
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, env=env, samples=samples, problems=tally.problems)
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
