"""Differentiable clustering penalty: soft-min distances, soft T, gradients.

The hard nearest-neighbor distance is replaced by a log-sum-exp soft
minimum so the clustering statistic becomes differentiable. A weighted
extension assigns each event a membership weight in [0,1]; binary
weights recover the plain soft statistic on the weight-1 subset, while
fractional weights (e.g. per-event error mass |p - y|) give the penalty
a gradient path back to model outputs.

weighted_soft_t is exact, with no approximation, in O(n log n) time
and O(n) memory for n events plus reference times. In sorted order the
kernel exp(-beta*|t_i - t_j|) factorises into prefix and suffix sums,
the recursion used for exponential-kernel Hawkes likelihoods (Ozaki
1979). The sums are taken in the log domain with np.logaddexp, and
every decay is a sum of beta times gaps between neighbouring sorted
times, so large beta and large time offsets are safe. The per-entry
helpers shift each log-sum-exp by its max exponent. sign(0) is taken
as 0, a valid subgradient at duplicate timestamps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AllZeroWeights, InsufficientSet, NonFiniteGradient


TARGET_SHARPNESS = 5.0
FALLBACK_BETA = 1.0


def effective_beta(timestamps):
    """TARGET_SHARPNESS / (median positive inter-event gap), else FALLBACK_BETA.

    Ties sharpness to the time scale of the reference timestamps so
    the soft-min bound log(n-1)/beta stays small regardless of units.
    """
    ts = np.sort(np.asarray(timestamps, dtype=np.float64))
    gaps = np.diff(ts)
    gaps = np.sort(gaps[gaps > 0])
    if gaps.size == 0:
        return FALLBACK_BETA
    # np.median's value, without its per-call overhead
    mid = gaps.size // 2
    median = gaps[mid] if gaps.size % 2 else (gaps[mid - 1] + gaps[mid]) / 2
    return float(TARGET_SHARPNESS / median)


@dataclass(frozen=True)
class SoftTrial:
    d_r_soft: float
    d_disg_soft: float
    t_soft: float
    weight_gradient: np.ndarray = field(repr=False)


def _others(times, index):
    """times as an array, and a mask of every position but index."""
    t = np.asarray(times, dtype=np.float64)
    mask = np.ones(t.size, dtype=bool)
    mask[index] = False
    if not mask.any():
        raise InsufficientSet("soft distance needs at least one other entry")
    return t, mask


def soft_nn_distance(times, index, beta):
    """Soft minimum distance -log(sum exp(-beta*|dt|))/beta from times[index].

    The sum runs over every other position, so an entry at the same
    timestamp still counts. May go negative when many near-duplicate
    neighbors exist: the inner sum then exceeds 1. Lower-bounded by
    hard_min - log(n-1)/beta.
    """
    t, mask = _others(times, index)
    exponents = -beta * np.abs(t[mask] - t[index])
    m = exponents.max()
    return float(-(m + np.log(np.exp(exponents - m).sum())) / beta)


def soft_nn_gradient(times, index, beta):
    """Analytic partials of soft_nn_distance.

    Returns (d/dt at index, array of d/dt over all positions, zero at
    index). The weights are the softmax of -beta*|dt|, so each partial
    has magnitude at most 1.
    """
    t, mask = _others(times, index)
    delta = t[index] - t[mask]
    exponents = -beta * np.abs(delta)
    m = exponents.max()
    w = np.exp(exponents - m)
    w /= w.sum()
    signs = np.sign(delta)
    d_dt = float((w * signs).sum())
    grads = np.zeros(t.size)
    grads[mask] = -w * signs
    return d_dt, grads


def _exclusive_logsum(gaps, ell):
    """Laplace-kernel prefix log-sums down each column, excluding the row itself.

    ell: (m, c) log-weights (-inf for weight zero) of m points in time
    order; gaps: (m - 1, c), beta times the gaps between neighbours. Row
    k of the result holds log sum_{j<k} exp(ell[j] - beta * (t_k - t_j))
    per column.

    Log-depth doubling: after the pass with stride h, row k covers the
    2h rows before it. Each decay beta * (t_k - t_j) is a sum of
    non-negative gaps, so it is as accurate as in the pairwise form. A
    running log-sum over beta * (t - t[0]) would instead round every term
    at the scale of beta * |t - t[0]|.
    """
    m = ell.shape[0]
    acc = np.empty_like(ell)
    acc[0] = -np.inf
    np.subtract(ell[:-1], gaps, out=acc[1:])
    decay = gaps
    step = 1
    while step < m - 1:
        if step > 1:
            half = step // 2
            decay = decay[half:] + decay[:-half]
        np.logaddexp(acc[step:], acc[:-step] - decay, out=acc[step:])
        step *= 2
    return acc


def _self_excluded_logsum(gaps, ell):
    """log sum_{j != k} exp(ell[j] - beta * |t_k - t_j|) down each column.

    ell: (m, c) log-weights of m points in time order; gaps: (m - 1,),
    beta times the gaps between neighbours. The sum over j < k is a
    forward scan, the sum over j > k the same scan over the reversed
    sequence.
    """
    m, c = ell.shape
    both_gaps = np.empty((m - 1, 2 * c))
    both_gaps[:, :c] = gaps[:, None]
    both_gaps[:, c:] = gaps[::-1, None]
    both = np.empty((m, 2 * c))
    both[:, :c] = ell
    both[:, c:] = ell[::-1]
    acc = _exclusive_logsum(both_gaps, both)
    return np.logaddexp(acc[:, :c], acc[::-1, c:])


def weighted_soft_t(timestamps, weights, random_times, beta):
    """Weight-averaged soft T statistic with analytic weight gradients.

    Each event's soft distance sums only over the other events, scaled
    by their weights; the disagreement side averages those distances
    with the weights themselves, so zero-weight events drop out of the
    value entirely. The reference side averages soft distances from the
    random times to the full weighted set (no exclusion). Returns a
    SoftTrial whose weight_gradient is d t_soft / d weights.

    Raises NonFiniteGradient when a gradient entry is not finite. For
    example, when a positive-weight event is far from every other
    positive-weight event but has a zero-weight event close by, the
    derivative for the zero-weight event grows like exp(beta * gap)
    and overflows float64.
    """
    t = np.asarray(timestamps, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    r = np.asarray(random_times, dtype=np.float64)
    if t.shape != w.shape or t.ndim != 1:
        raise ValueError("timestamps and weights must be 1-d and equal length")
    if w.size and (w.min() < 0 or w.max() > 1):
        raise ValueError("weights must lie in [0, 1]")
    w_total = w.sum()
    if w_total <= 0:
        raise AllZeroWeights("weighted soft T needs positive total weight")
    if np.count_nonzero(w > 0) < 2:
        raise InsufficientSet("weighted soft T needs >= 2 positive-weight events")
    if r.size < 1:
        raise ValueError("at least one random reference time is required")
    if not 0 < beta < math.inf:
        raise ValueError("beta must be positive and finite")

    # Events and reference times share one sorted sequence. A point
    # that is not a source of a sum carries log-weight -inf in it, so
    # one self-excluded sum covers event-to-event and event-to-reference
    # terms alike.
    n = t.size
    merged = np.concatenate((t, r))
    order = np.argsort(merged, kind="stable")
    times = merged[order]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gaps = (times[1:] - times[:-1]) * beta
        log_w = np.log(np.concatenate((w, np.zeros(r.size)))[order])
        log_s = _self_excluded_logsum(gaps, log_w[:, None])[:, 0]

        # d d_k / d w_j = -exp(-beta*|t_k - t_j| - log S_k) / beta, so the
        # weighted sum over events k and the mean over reference times k
        # are kernel sums with log-weights log(w_k / beta) - log S_k and
        # -log(beta * r) - log S_k. The 1/beta inside the exponent keeps
        # exp from overflowing where the divided value fits.
        ell = np.empty((merged.size, 2))
        ell[:, 0] = log_w - (log_s + math.log(beta))
        ell[:, 1] = np.where(order >= n, -(log_s + math.log(beta * r.size)), -np.inf)
        sums = np.exp(_self_excluded_logsum(gaps, ell))

        by_input = np.empty((merged.size, 3))
        by_input[order, 0] = log_s
        by_input[order, 1:] = sums
        d_ev = by_input[:n, 0] / -beta
        d_r = by_input[n:, 0] / -beta
        sums = by_input[:n, 1:]

        numer = float((w * d_ev).sum())
        b = numer / w_total
        a = float(d_r.sum()) / r.size

        d_numer = d_ev - sums[:, 0]
        db = (d_numer - b) / w_total
        da = -sums[:, 1]
        denom = a + b
        dt = (da * b - a * db) / (denom * denom)
    if not np.isfinite(dt).all():
        raise NonFiniteGradient("weighted soft T weight gradient is not finite")

    return SoftTrial(
        d_r_soft=a,
        d_disg_soft=b,
        t_soft=a / denom,
        weight_gradient=dt,
    )


def soft_t(timestamps, random_times, beta):
    """Unweighted soft T: weighted_soft_t with unit weight on every event."""
    t = np.asarray(timestamps, dtype=np.float64)
    return weighted_soft_t(t, np.ones_like(t), random_times, beta)


def vca_penalty(t_soft, gamma):
    """Quadratic pull toward t_soft = 0.5: (value, d value / d t_soft)."""
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    gap = 0.5 - t_soft
    return gamma * gap * gap, -2.0 * gamma * gap


def finite_difference_check(fn, point, step=1e-6):
    """Max relative error between fn's analytic gradient and central differences.

    fn maps a 1-d point to (value, gradient). The relative error per
    coordinate is |fd - analytic| / max(1, |fd|, |analytic|), so near-zero
    gradients are compared absolutely. A coordinate whose difference
    quotient or analytic entry is not finite has error inf.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    x = np.asarray(point, dtype=np.float64)
    _, grad = fn(x)
    grad = np.asarray(grad, dtype=np.float64)
    worst = 0.0
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        hi, _ = fn(x + e)
        lo, _ = fn(x - e)
        fd = (hi - lo) / (2.0 * step)
        if np.isfinite(fd) and np.isfinite(grad[i]):
            err = abs(fd - grad[i]) / max(1.0, abs(fd), abs(grad[i]))
        else:
            err = np.inf
        worst = max(worst, err)
    return worst
