"""Volatility-Cluster Statistic over disagreement timestamps.

VCS contrasts nearest-neighbor distances inside the disagreement set
with distances from uniformly drawn reference times to that set. Values
near 0 mean disagreements look uniform in time; values near 0.5 mean
strongly clustered (t_stat near 1) or strongly regular (t_stat near 0)
patterns.

evaluate_stream is the one evaluation path: the disagreement set, AP,
AU-ROC and VCS of a stream, each undefined value reported, not raised.

Determinism contract: trial i draws from a fresh substream seeded by
(seed, i), first k subsample positions into times, as passed, without
replacement, then k reference times as normalized u in [0,1) mapped
affinely onto the period. Results are therefore reproducible
bit-for-bit and independent of trial execution order, and rescaling
time rescales every distance by the same factor, leaving each t_stat
unchanged. Trials keep only their distance sums; trial i's draws are
regenerated from (seed, i).
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDistances, NoPositives, OneClassOnly, TooFewDisagreements
from .event_stream import disagreement_set
from .instance_metrics import auroc, average_precision

# Below this subsample size k the trials run on the calling thread alone:
# on small inputs the threads lose to GIL contention. Serial against two
# threads, tau 50, best of 7 on 2 vCPUs: K = 200, 4.4 against 6.9 ms;
# K = 2,000, 11.3 against 18.0 ms; K = 3,000-5,000 about even;
# K = 16,384 (k = 8,192), 92 against 64 ms; K = 50,000, 356 against
# 225 ms. The floor sits above break-even because a shared host's other
# CPU is not always free.
PARALLEL_MIN_K = 8192
# Each trial in flight peaks at about 64·k bytes (its draws, distances
# and lookups), so the thread count is capped rather than one per CPU:
# on a 64-CPU host, uncapped, that is gigabytes at K = 1e6.
MAX_WORKERS = 4


@dataclass(frozen=True)
class VcsConfig:
    """Repeat count, subsample fraction, and base seed for VCS runs."""

    tau: int = 5
    subsample_fraction: float = 0.5
    seed: int = 42

    def __post_init__(self):
        if not (isinstance(self.tau, (int, np.integer)) and self.tau >= 1):
            raise ValueError("tau must be a positive integer")
        if not 0.0 < self.subsample_fraction < 1.0:
            raise ValueError("subsample_fraction must lie in (0, 1)")
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")

    def subsample_size(self, k_total):
        """k = max(1, floor(fraction * K)), capped at K - 1."""
        return min(max(1, int(np.floor(self.subsample_fraction * k_total))), k_total - 1)


@dataclass(frozen=True)
class VcsTrial:
    """One repeat: its two distance sums and their ratio."""

    d_disg: float
    d_r: float
    t_stat: float


@dataclass(frozen=True)
class VcsResult:
    trials: tuple
    t_mean: float
    vcs: float
    config: VcsConfig
    k_total: int

    @property
    def signed_deviation(self):
        """t_mean - 0.5; positive means clustered, negative means regular."""
        return self.t_mean - 0.5


def t_statistic(d_r, d_disg):
    """d_r / (d_r + d_disg), the per-trial clustering ratio."""
    if d_r < 0 or d_disg < 0:
        raise ValueError("distance sums must be non-negative")
    total = d_r + d_disg
    if total == 0:
        raise DegenerateDistances("both distance sums are zero")
    if not math.isfinite(total):
        raise DegenerateDistances("distance sums overflow float64")
    return d_r / total


def _nn_gaps(sorted_times, order):
    """Self-excluded nearest-neighbor distance for every entry, by position.

    sorted_times is times[order], with order the stable argsort of times.
    """
    gaps = np.diff(sorted_times)
    out = np.empty_like(sorted_times)
    out[order] = np.minimum(np.concatenate(([np.inf], gaps)), np.concatenate((gaps, [np.inf])))
    return out


def _dist_to_sorted(points, sorted_times):
    """Distance from each point to its nearest value in sorted_times."""
    idx = np.searchsorted(sorted_times, points)
    lo = np.clip(idx - 1, 0, sorted_times.size - 1)
    hi = np.clip(idx, 0, sorted_times.size - 1)
    return np.minimum(np.abs(points - sorted_times[lo]), np.abs(points - sorted_times[hi]))


def _usable_cpus():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _map_in_threads(fn, n, workers):
    """[fn(0), ..., fn(n - 1)], run on this thread and workers - 1 others.

    Each thread takes the next index until none is left or a call has
    failed. The indices taken are always the first few, so raising the
    first failure among them in index order raises what the calls made
    one by one would raise. This thread works too: its malloc arena
    holds the memory the caller freed, where each new thread grows an
    arena of its own.
    """
    indices = iter(range(n))
    take = threading.Lock()
    stop = threading.Event()
    results = []

    def work():
        while not stop.is_set():
            with take:
                i = next(indices, None)
                if i is None:
                    return
                results.append(None)
            try:
                results[i] = fn(i)
            except BaseException as exc:
                results[i] = exc
                stop.set()

    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        stop.set()
        for helper in helpers:
            helper.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results


def vcs(times, period, config=VcsConfig()):
    """VCS = |0.5 - mean(t_stat)| over tau trials on the disagreement timestamps.

    period is a (start, end) pair with start <= end; the reference times
    are drawn from it. It may have zero length, and times outside it are
    scored as given.

    Once k >= PARALLEL_MIN_K, the trials run on up to
    min(tau, usable CPUs, MAX_WORKERS) threads, the calling thread among
    them. Each keeps its own substream and sum order, and the t_stats
    are summed in trial order, so every result is bit-identical whatever
    the thread count; a failure raises the first failing trial's error.
    Each trial in flight peaks at about 64·k bytes.
    """
    times = np.asarray(times, dtype=np.float64)
    k_total = times.size
    if k_total < 2:
        raise TooFewDisagreements(
            f"VCS needs at least 2 disagreements, got {k_total}"
        )
    k = config.subsample_size(k_total)
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    if np.shape(period) != (2,):
        raise ValueError("period must be a (start, end) pair with start <= end")
    t_start, t_end = period
    if not (math.isfinite(t_start) and math.isfinite(t_end)):
        raise ValueError("period must be finite")
    if t_start > t_end:
        raise ValueError("period must be a (start, end) pair with start <= end")
    span = t_end - t_start
    # one stable argsort serves the nearest-neighbour gaps and the
    # reference distances; sorted input, as evaluate_stream passes it,
    # takes the same path
    order = np.argsort(times, kind="stable")
    sorted_times = times[order]

    # a gap or sum past the float range becomes inf, which t_statistic rejects
    with np.errstate(over="ignore"):
        gaps = _nn_gaps(sorted_times, order)

    def trial(i):
        # np.errstate is per thread, so each trial enters its own
        with np.errstate(over="ignore"):
            rng = np.random.default_rng((config.seed, i))
            d_disg = float(gaps[rng.choice(k_total, size=k, replace=False)].sum())
            random_times = t_start + rng.random(k) * span
            d_r = float(_dist_to_sorted(random_times, sorted_times).sum())
        return VcsTrial(d_disg=d_disg, d_r=d_r, t_stat=t_statistic(d_r, d_disg))

    workers = min(config.tau, _usable_cpus(), MAX_WORKERS) if k >= PARALLEL_MIN_K else 1
    trials = _map_in_threads(trial, config.tau, workers)
    # a loop, not sum(): from Python 3.12, sum() compensates float rounding
    t_sum = 0.0
    for done in trials:
        t_sum += done.t_stat

    t_mean = t_sum / config.tau
    return VcsResult(
        trials=tuple(trials),
        t_mean=t_mean,
        vcs=abs(0.5 - t_mean),
        config=config,
        k_total=k_total,
    )


@dataclass(frozen=True)
class EvalSummary:
    """AP, AU-ROC and VCS of one stream, with its disagreement positions.

    ap and auroc are None where their preconditions fail. vcs_result is
    None where VCS is undefined; vcs_undefined then names the case and
    vcs_undefined_reason gives the error message.
    """

    disagreements: np.ndarray
    ap: float
    auroc: float
    vcs_result: VcsResult
    vcs_undefined: str
    vcs_undefined_reason: str


def evaluate_stream(stream, threshold=0.5, vcs_config=VcsConfig()):
    """Score a stream at the threshold; never raises on an undefined statistic."""
    disg = disagreement_set(stream, threshold)
    try:
        ap = average_precision(stream)
    except NoPositives:
        ap = None
    try:
        auc = auroc(stream)
    except OneClassOnly:
        auc = None
    result = undefined = reason = None
    try:
        result = vcs(stream.t[disg], (stream.t_start, stream.t_end), vcs_config)
    except TooFewDisagreements as exc:
        undefined, reason = "too_few_disagreements", str(exc)
    except DegenerateDistances as exc:
        undefined, reason = "degenerate_distances", str(exc)
    return EvalSummary(disg, ap, auc, result, undefined, reason)
