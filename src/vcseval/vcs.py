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

import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateDistances, NoPositives, OneClassOnly, TooFewDisagreements,
                     _as_floats, _finite, _integers, _real)
from .event_stream import disagreement_set
from .instance_metrics import auroc, average_precision

# Below this subsample size k the trials run on the calling thread alone:
# on small inputs the threads lose to GIL contention. Serial against two
# threads, tau 50, medians of 11 interleaved pairs on 2 vCPUs, clustered
# then uniform times: K = 2,000, 8.8 against 20.7 and 11.3 against
# 26.0 ms; K = 16,384, 23.9 against 29.4 and 27.9 against 30.4 ms;
# K = 25,000 about even; K = 32,768 (k = 16,384), 52.0 against 44.4 and
# 58.6 against 46.3 ms; K = 50,000, 77.7 against 54.7 and 74.5 against
# 55.1 ms. The floor sits above break-even because a shared host's other
# CPU is not always free.
PARALLEL_MIN_K = 16384
# Each trial in flight peaks at about 44·k bytes (its draws, lookups and
# distances), so the thread count is capped rather than one per CPU:
# on a 64-CPU host, uncapped, that is over a gigabyte at K = 1e6.
MAX_WORKERS = 4


@dataclass(frozen=True)
class VcsConfig:
    """Repeat count, subsample fraction, and base seed for VCS runs."""

    tau: int = 5
    subsample_fraction: float = 0.5
    seed: int = 42

    def __post_init__(self):
        if not (_integers(self.tau) and self.tau >= 1):
            raise ValueError("tau must be a positive integer")
        _real("subsample_fraction", self.subsample_fraction)
        if not 0.0 < self.subsample_fraction < 1.0:
            raise ValueError("subsample_fraction must lie in (0, 1)")
        if not (_integers(self.seed) and 0 <= self.seed < 2**64):
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
    # NaN fails every comparison
    if not (d_r >= 0 and d_disg >= 0):
        raise ValueError("distance sums must be non-negative")
    # an int past the float range would make a float sum raise OverflowError
    total = d_r + d_disg if _finite(d_r, d_disg) else np.inf
    if total == 0:
        raise DegenerateDistances("both distance sums are zero")
    if not _finite(total):
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


@dataclass(frozen=True)
class _CellTable:
    """Where each reference draw t_start + u * span falls among the sorted times.

    The period is cut into `cells` equal parts, the least power of two
    >= K, so that c = floor(u * cells) is exact. starts[c] is the
    searchsorted index of cell c's lower edge, int32 while K < 2**31;
    padded is the sorted times between one -inf and 2**halvings +infs,
    halvings being the bit length of the widest cell.
    """

    t_start: float
    span: float
    starts: np.ndarray
    padded: np.ndarray
    halvings: int


def _cell_table(sorted_times, t_start, span):
    """The _CellTable of sorted_times over a period of finite length span."""
    k_total = sorted_times.size
    cells = 1 << (k_total - 1).bit_length()
    starts = np.empty(cells + 1, np.int32 if k_total < 2**31 else np.intp)
    # edge c is computed as the draw at u = c / cells is, and rounding is
    # monotone, so a draw in cell c has its index in [starts[c], starts[c + 1]].
    # The edges go a block at a time, so that no full-size float or intp
    # copy of the table raises the call's peak memory.
    block = 8192
    for lo in range(0, cells + 1, block):
        c = np.arange(lo, min(lo + block, cells + 1))
        starts[lo:lo + c.size] = np.searchsorted(sorted_times, t_start + (c / cells) * span)
    halvings = int(np.diff(starts).max()).bit_length()
    padded = np.concatenate(([-np.inf], sorted_times, np.full(1 << halvings, np.inf)))
    return _CellTable(t_start, span, starts, padded, halvings)


def _ref_distances(u, table):
    """Distance from each draw t_start + u * span to its nearest sorted time.

    pos counts the sorted times below the draw, as searchsorted would:
    a draw in an empty cell has it from starts, the others take halvings
    branchless steps from their cell's start, in intp so that no probe
    wraps. The nearest time is padded[pos] or padded[pos + 1], where a
    pad stands for a missing neighbour and is never the nearer one. The
    search's arrays are freed before the two distance arrays are made.
    """
    points = table.t_start + u * table.span
    starts, padded = table.starts, table.padded
    cell = (u * (starts.size - 1)).astype(np.intp)
    pos = starts.take(cell)
    searched = np.flatnonzero(starts[1:].take(cell) != pos)
    del cell
    found, wanted = pos.take(searched).astype(np.intp), points.take(searched)
    for h in reversed(range(table.halvings)):
        found += (padded.take(found + (1 << h)) < wanted) << h
    pos[searched] = found
    del searched, found, wanted
    below, above = padded.take(pos), padded[1:].take(pos)
    np.abs(np.subtract(points, below, out=below), out=below)
    np.abs(np.subtract(points, above, out=above), out=above)
    return np.minimum(below, above, out=below)


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
    Each trial in flight peaks at about 44·k bytes. The reference lookup
    table they share costs 4·cells bytes, cells being the least power of
    two >= K (at most 8·K bytes), plus a copy of the sorted times padded
    with one -inf and 2**h +infs, h being the bit length of the most
    times one cell holds.
    """
    times = _as_floats(times, "times")
    if times.ndim != 1:
        raise ValueError("times must be 1-d")
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
    _real("period end", t_start, t_end)
    if not _finite(t_start, t_end):
        raise ValueError("period must be finite")
    if t_start > t_end:
        raise ValueError("period must be a (start, end) pair with start <= end")
    span = t_end - t_start
    if not _finite(span):
        # every reference draw t_start + u * span then lies at inf, so
        # every d_r overflows and trial 0 fails as t_statistic fails it
        raise DegenerateDistances("distance sums overflow float64")
    # one stable argsort serves the nearest-neighbour gaps and the
    # reference lookup; sorted input, as evaluate_stream passes it,
    # takes the same path
    order = np.argsort(times, kind="stable")
    sorted_times = times[order]

    # a gap or sum past the float range becomes inf, which t_statistic rejects
    with np.errstate(over="ignore"):
        gaps = _nn_gaps(sorted_times, order)
        table = _cell_table(sorted_times, t_start, span)
    del order, sorted_times  # the trials read only gaps and table

    def trial(i):
        # np.errstate is per thread, so each trial enters its own
        with np.errstate(over="ignore"):
            rng = np.random.default_rng((config.seed, i))
            d_disg = float(gaps[rng.choice(k_total, size=k, replace=False)].sum())
            d_r = float(_ref_distances(rng.random(k), table).sum())
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
