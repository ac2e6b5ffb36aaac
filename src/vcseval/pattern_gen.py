"""Synthetic streams with planted error patterns, and a drift dataset.

Pattern streams carry exactly K errors (y=1 scored p=0.1, so the
thresholded prediction disagrees) among M events; error timestamps
follow one of three shapes:

* random: errors are a uniform subset of the event times
* clustered: errors fall in a narrow window of the period, clipped to it
* regular: errors sit at exact midpoints of K equal buckets

The drift dataset feeds the toy trainer: linearly separable Gaussian
classes whose class-1 mean shifts after a drift onset, so a model fit
on pre-drift data concentrates errors late in the stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpecViolation, _finite, _integers, _real
from .event_stream import EvalStream

PATTERN_KINDS = ("random", "clustered", "regular")
_MAX_COUNT = np.iinfo(np.intp).max // 8  # the most float64 elements numpy can size


def _period(period):
    """The spec's (start, end): finite ends, a finite positive length apart, from t >= 0."""
    try:
        t_start, t_end = period
        ok = t_start < t_end and _finite(t_start, t_end) and _finite(t_end - t_start)
    except (TypeError, ValueError):
        raise SpecViolation("period must be a (start, end) pair") from None
    if not ok:
        raise SpecViolation("period must be finite and have positive length")
    if t_start < 0:
        raise SpecViolation("period must start at t >= 0, as parsed timestamps do")
    return t_start, t_end


@dataclass(frozen=True)
class PatternSpec:
    kind: str
    n_events: int
    n_errors: int
    period: tuple = (0.0, 1000.0)
    cluster_center: float = 0.9
    cluster_width: float = 0.02
    seed: int = 0

    def __post_init__(self):
        if self.kind not in PATTERN_KINDS:
            raise SpecViolation(f"kind must be one of {PATTERN_KINDS}")
        if not _integers(self.n_events, self.n_errors):
            raise SpecViolation("n_events and n_errors must be integers")
        if not 2 <= self.n_errors <= self.n_events <= _MAX_COUNT:
            raise SpecViolation(f"need 2 <= n_errors <= n_events <= {_MAX_COUNT}")
        t_start, t_end = _period(self.period)
        overflow = not _finite((self.n_errors - 0.5) * (t_end - t_start))
        if self.kind == "regular" and overflow:
            raise SpecViolation("regular pattern: (n_errors - 0.5) * period length overflows")
        _real("cluster_center", self.cluster_center)
        if not 0.0 <= self.cluster_center <= 1.0:
            raise SpecViolation("cluster_center must lie in [0, 1]")
        _real("cluster_width", self.cluster_width)
        if not 0.0 < self.cluster_width <= 1.0:
            raise SpecViolation("cluster_width must lie in (0, 1]")
        if not (_integers(self.seed) and self.seed >= 0):
            raise SpecViolation("seed must be a non-negative integer")


@dataclass(frozen=True)
class DriftSpec:
    """Controls for the drifting-feature benchmark stream.

    Defaults give a stationary, uniformly timestamped stream apart from
    the post-onset class-1 mean shift. burst_fraction > 0 additionally
    compresses that fraction of events into the post-onset window, and
    post_class1_rate skews post-onset labels toward class 1.
    """

    n_events: int
    period: tuple = (0.0, 1000.0)
    seed: int = 0
    drift_onset: float = 0.8
    feature_dim: int = 4
    drift_shift: float = 2.8
    class_separation: float = 4.0
    burst_fraction: float = 0.0
    post_class1_rate: float = 0.5

    def __post_init__(self):
        if not _integers(self.n_events, self.feature_dim):
            raise SpecViolation("n_events and feature_dim must be integers")
        if not 2 <= self.n_events <= _MAX_COUNT:
            raise SpecViolation(f"n_events must lie in [2, {_MAX_COUNT}]")
        _real("drift_onset", self.drift_onset)
        if not 0.0 < self.drift_onset < 1.0:
            raise SpecViolation("drift_onset must lie in (0, 1)")
        if self.feature_dim < 1:
            raise SpecViolation("feature_dim must be at least 1")
        if int(self.n_events) * int(self.feature_dim) > _MAX_COUNT:
            raise SpecViolation(f"n_events * feature_dim must be at most {_MAX_COUNT}")
        _period(self.period)
        _real("burst_fraction", self.burst_fraction)
        if not 0.0 <= self.burst_fraction < 1.0:
            raise SpecViolation("burst_fraction must lie in [0, 1)")
        _real("post_class1_rate", self.post_class1_rate)
        if not 0.0 <= self.post_class1_rate <= 1.0:
            raise SpecViolation("post_class1_rate must lie in [0, 1]")
        _real("class_separation", self.class_separation)
        # NaN fails every comparison
        if not (self.class_separation >= 0 and _finite(self.class_separation)):
            raise SpecViolation("class_separation must be finite and non-negative")
        _real("drift_shift", self.drift_shift)
        if not _finite(self.drift_shift):
            raise SpecViolation("drift_shift must be finite")
        if not (_integers(self.seed) and self.seed >= 0):
            raise SpecViolation("seed must be a non-negative integer")


@dataclass(frozen=True)
class DriftDataset:
    t: np.ndarray
    features: np.ndarray
    y: np.ndarray

    def __len__(self):
        return self.t.size


def generate_pattern(spec):
    """Build an EvalStream whose K disagreements follow spec.kind."""
    rng = np.random.default_rng(spec.seed)
    t_start, t_end = spec.period
    span = t_end - t_start
    m, k = spec.n_events, spec.n_errors

    if spec.kind == "random":
        times = t_start + rng.random(m) * span
        is_error = np.zeros(m, dtype=bool)
        is_error[rng.choice(m, size=k, replace=False)] = True
    else:
        base = t_start + rng.random(m - k) * span
        if spec.kind == "clustered":
            # the window is clipped to the period, so every time lies inside it
            lo = max(t_start, t_start + (spec.cluster_center - spec.cluster_width / 2) * span)
            hi = min(t_end, t_start + (spec.cluster_center + spec.cluster_width / 2) * span)
            err_times = lo + rng.random(k) * (hi - lo)
        else:
            err_times = np.empty(k)  # before np.arange, which raises ValueError near _MAX_COUNT
            np.add(np.arange(k), 0.5, out=err_times)
            err_times *= span
            err_times /= k
            err_times += t_start
        times = np.concatenate([base, err_times])
        is_error = np.concatenate([np.zeros(m - k, dtype=bool), np.ones(k, dtype=bool)])

    y = np.where(is_error, 1, rng.integers(0, 2, size=times.size))
    order = np.argsort(times, kind="stable")
    y, is_error = y[order], is_error[order]
    # an error is a positive scored 0.1; other rows are scored on their side of 0.5
    p = np.where(is_error | (y == 0), 0.1, 0.9)
    return EvalStream(times[order], y, p)


def generate_drift_dataset(spec):
    """Timestamped features and labels with a post-onset class-1 mean shift."""
    rng = np.random.default_rng(spec.seed)
    t_start, t_end = spec.period
    t_onset = t_start + spec.drift_onset * (t_end - t_start)
    n = spec.n_events

    if spec.burst_fraction > 0:
        n_post = int(round(spec.burst_fraction * n))
        n_pre = n - n_post
        t_pre = t_start + rng.random(n_pre) * (t_onset - t_start)
        t_post = t_onset + rng.random(n_post) * (t_end - t_onset)
        t = np.concatenate([t_pre, t_post])
    else:
        t = t_start + rng.random(n) * (t_end - t_start)
    t = np.sort(t, kind="stable")
    post = t >= t_onset

    p1 = np.where(post, spec.post_class1_rate, 0.5)
    y = (rng.random(n) < p1).astype(np.int64)

    direction = np.ones(spec.feature_dim) / np.sqrt(spec.feature_dim)
    mean = np.where(y[:, None] > 0, 1.0, -1.0) * (spec.class_separation / 2.0) * direction
    mean = mean - (y * post)[:, None] * spec.drift_shift * direction
    features = mean + rng.standard_normal((n, spec.feature_dim))
    return DriftDataset(t=t, features=features, y=y)
