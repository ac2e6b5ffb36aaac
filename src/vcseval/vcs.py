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
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDistances, NoPositives, OneClassOnly, TooFewDisagreements
from .event_stream import disagreement_set
from .instance_metrics import auroc, average_precision


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


def _nn_gaps(times):
    """Self-excluded nearest-neighbor distance for every entry, by position."""
    order = np.argsort(times, kind="stable")
    ts = times[order]
    gaps = np.diff(ts)
    left = np.concatenate(([np.inf], gaps))
    right = np.concatenate((gaps, [np.inf]))
    out = np.empty_like(ts)
    out[order] = np.minimum(left, right)
    return out


def _dist_to_sorted(points, sorted_times):
    """Distance from each point to its nearest value in sorted_times."""
    idx = np.searchsorted(sorted_times, points)
    lo = np.clip(idx - 1, 0, sorted_times.size - 1)
    hi = np.clip(idx, 0, sorted_times.size - 1)
    return np.minimum(np.abs(points - sorted_times[lo]), np.abs(points - sorted_times[hi]))


def vcs(times, period, config=VcsConfig()):
    """VCS = |0.5 - mean(t_stat)| over tau trials on the disagreement timestamps."""
    times = np.asarray(times, dtype=np.float64)
    k_total = times.size
    if k_total < 2:
        raise TooFewDisagreements(
            f"VCS needs at least 2 disagreements, got {k_total}"
        )
    k = config.subsample_size(k_total)
    t_start, t_end = period
    span = t_end - t_start
    sorted_times = np.sort(times)

    trials = []
    t_sum = 0.0
    # a sum past the float range becomes inf, which t_statistic rejects
    with np.errstate(over="ignore"):
        gaps = _nn_gaps(times)
        for i in range(config.tau):
            rng = np.random.default_rng((config.seed, i))
            d_disg = float(gaps[rng.choice(k_total, size=k, replace=False)].sum())
            random_times = t_start + rng.random(k) * span
            d_r = float(_dist_to_sorted(random_times, sorted_times).sum())
            t_stat = t_statistic(d_r, d_disg)
            trials.append(VcsTrial(d_disg=d_disg, d_r=d_r, t_stat=t_stat))
            t_sum += t_stat

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
