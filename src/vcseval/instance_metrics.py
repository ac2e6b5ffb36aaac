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

from .errors import LengthMismatch, NoPositives, OneClassOnly, _as_floats, _finite, _real

AGGREGATORS = ("sum", "mean", "one_minus_mean")


@dataclass(frozen=True)
class InstanceMetricSpec:
    """Mismatch cost c and aggregator over the per-event cost multiset."""

    mismatch_weight: float = 1.0
    aggregator: str = "one_minus_mean"

    def __post_init__(self):
        _real("mismatch_weight", self.mismatch_weight)
        # NaN fails every comparison
        if not (self.mismatch_weight > 0 and _finite(self.mismatch_weight)):
            raise ValueError("mismatch_weight must be positive and finite")
        if self.aggregator not in AGGREGATORS:
            raise ValueError(f"aggregator must be one of {AGGREGATORS}")


def _as_labels(y, name):
    # checked as float, so that 0.5, NaN or inf is rejected, not cast to an integer
    arr = _as_floats(y, name, "entries must be 0 or 1")
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a nonempty 1-d label list")
    if not np.isin(arr, (0, 1)).all():
        raise ValueError(f"{name} entries must be 0 or 1")
    return arr.astype(np.int64)


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
    # the 1-based ranks of the positives; the j-th of them has precision j / rank
    ranks = np.flatnonzero(y[np.argsort(-stream.p, kind="stable")]) + 1.0
    return float(np.divide(np.arange(1, n_pos + 1), ranks, out=ranks).sum() / n_pos)


def auroc(stream):
    """Mann-Whitney AU-ROC with 0.5 credit for tied scores."""
    y = stream.y
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise OneClassOnly("AU-ROC needs both a positive and a negative label")
    # the masks make copies, so each class is sorted in place
    pos, neg = stream.p[y == 1], stream.p[y == 0]
    pos.sort()
    neg.sort()
    # 2U: each positive counts the negatives below it twice and those tied
    # with it once. Only the smaller class is searched, so the index arrays
    # have its length; from the negatives' side, 2U is 2 * n_pos * n_neg
    # less the positives below each negative twice and those tied once.
    if n_pos <= n_neg:
        twice_u = np.searchsorted(neg, pos, "left").sum() + np.searchsorted(neg, pos, "right").sum()
    else:
        twice_u = (2 * n_pos * n_neg - np.searchsorted(pos, neg, "left").sum()
                   - np.searchsorted(pos, neg, "right").sum())
    return float(twice_u / 2.0 / (n_pos * n_neg))
