"""Instance-based metrics over thresholded labels, plus AP and AU-ROC.

The instance family scores a prediction set through per-event mismatch
costs only. Every aggregator here is a function of the disagreement
count H and the set size M alone, so two label vectors with equal H are
indistinguishable to the whole family. That collapse is the motivating
contrast with the temporal statistics in :mod:`vcseval.vcs`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, NoPositives, OneClassOnly

AGGREGATORS = ("sum", "mean", "one_minus_mean")


@dataclass(frozen=True)
class InstanceMetricSpec:
    """Mismatch cost c and aggregator over the per-event cost multiset."""

    mismatch_weight: float = 1.0
    aggregator: str = "one_minus_mean"

    def __post_init__(self):
        if not self.mismatch_weight > 0:
            raise ValueError("mismatch_weight must be positive")
        if self.aggregator not in AGGREGATORS:
            raise ValueError(f"aggregator must be one of {AGGREGATORS}")


def _as_labels(y, name):
    arr = np.asarray(y, dtype=np.int64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a nonempty 1-d label list")
    if not np.isin(arr, (0, 1)).all():
        raise ValueError(f"{name} entries must be 0 or 1")
    return arr


def hamming_disagreement(y, y_hat):
    """Number of positions where the two label lists differ."""
    y = _as_labels(y, "y")
    y_hat = _as_labels(y_hat, "y_hat")
    if y.shape != y_hat.shape:
        raise LengthMismatch(f"label lists differ in length: {y.size} vs {y_hat.size}")
    return int(np.count_nonzero(y != y_hat))


def instance_metric(spec, y, y_hat):
    """Aggregate the per-event mismatch costs c*1[y != y_hat].

    Computed from the pair (H, M) directly, which makes the value
    bit-identical for any two predictions with the same disagreement
    count.
    """
    h = hamming_disagreement(y, y_hat)
    m = len(np.asarray(y))
    c = spec.mismatch_weight
    if spec.aggregator == "sum":
        return c * h
    if spec.aggregator == "mean":
        return c * h / m
    return 1.0 - c * h / m


def average_precision(stream):
    """AP over records ranked by score descending; ties keep input order."""
    y = stream.y
    n_pos = int(y.sum())
    if n_pos == 0:
        raise NoPositives("average precision needs at least one positive label")
    order = np.argsort(-stream.p, kind="stable")
    hits = y[order] == 1
    ranks = np.arange(1, y.size + 1)
    precision_at = np.cumsum(hits) / ranks
    return float(precision_at[hits].sum() / n_pos)


def auroc(stream):
    """Mann-Whitney AU-ROC with 0.5 credit for tied scores."""
    y = stream.y
    p = stream.p
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise OneClassOnly("AU-ROC needs both a positive and a negative label")
    order = np.argsort(p, kind="stable")
    # Each tie group [start, stop) of sorted scores shares its mean rank.
    boundaries = np.flatnonzero(np.diff(p[order]) != 0) + 1
    starts = np.concatenate(([0], boundaries))
    stops = np.concatenate((boundaries, [y.size]))
    ranks = np.empty(y.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + 1 + stops), stops - starts)
    u = ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))
