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
times, so large beta and large time offsets are safe. soft_nn_distance
reads one entry of the same scan. sign(0) is taken as 0, a valid
subgradient at duplicate timestamps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (AllZeroWeights, InsufficientSet, NonFiniteGradient, _as_floats, _finite,
                     _integers, _real)


TARGET_SHARPNESS = 5.0
FALLBACK_BETA = 1.0
# The first stride at which _exclusive_logsum checks whether its remaining
# doubling passes can change a bit. In train-demo (seed 1, 200 epochs, m =
# 750) no scan passes the check before stride 64; 354 of its 400 scans pass
# it at 64 and 46 at 128. The 400 scans took 130.7 ms with every pass run,
# and checking from stride 1, 32 or 64 took 115.9, 103.6 or 101.4 ms, as
# every failed check costs a subtraction and a reduction (best of 21 rounds,
# 2 vCPUs, Python 3.11.7, numpy 2.4.6). gradcheck's scans, m <= 60, never
# reach it.
_FIRST_CHECKED_STRIDE = 64
# Magnitudes of targets and of the gap total up to which the certificate's
# proof bounds the rounding of the later passes
_CHECKED_MAGNITUDE = 2.0**53


def effective_beta(timestamps):
    """TARGET_SHARPNESS / (median positive inter-event gap), else FALLBACK_BETA.

    Ties sharpness to the time scale of the reference timestamps so
    the soft-min bound log(n-1)/beta stays small regardless of units.
    """
    ts = _as_floats(timestamps, "timestamps")
    if ts.ndim != 1:
        raise ValueError("timestamps must be 1-d")
    ts = np.sort(ts)
    if not np.isfinite(ts).all():
        raise ValueError("timestamps must be finite")
    with np.errstate(over="ignore"):
        gaps = np.diff(ts)
        gaps = np.sort(gaps[gaps > 0])
        if gaps.size == 0:
            return FALLBACK_BETA
        # np.median's value, without its per-call overhead
        mid = gaps.size // 2
        median = gaps[mid] if gaps.size % 2 else (gaps[mid - 1] + gaps[mid]) / 2
        beta = float(TARGET_SHARPNESS / median)
    if not (beta > 0 and _finite(beta)):
        raise ValueError("timestamps give a beta outside the float64 range")
    return beta


@dataclass(frozen=True)
class SoftTrial:
    """weighted_soft_t's result: floats for one weight row, or arrays
    with one entry per row (weight_gradient (c, n)) for a stack."""

    d_r_soft: float
    d_disg_soft: float
    t_soft: float
    weight_gradient: np.ndarray = field(repr=False)


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

    From stride _FIRST_CHECKED_STRIDE on, the scan returns before the
    first pass that a certificate proves leaves every bit as it is, with
    every later pass. Before the pass with stride h, let x = acc[h:] be
    the targets, y = acc[:-h] - decay the sources as the pass computes
    them, and g = fl(x - y) their float differences. The certificate is
      (C1) min |x| > 0 and min g >= 40 - min(ln(min |x|), 0);
      (C2) max |x| <= 2**53, and the float sum of gaps is <= 2**53.
    Below, fl rounds to nearest and u = 2**-53. The proof takes exp and
    log1p to be accurate to one ulp, and exp(-s) to be 0 for s >= 745.2,
    where it is below half the least subnormal, as glibc's are.

    (1) One pass. For g > 0, np.logaddexp(x, y) is x + log1p(exp(-g)).
    Let x be finite and nonzero, with g >= 40 - min(ln |x|, 0) up to
    the rounding of that threshold. If |x| < 2**-1018, then g > 745.6,
    so exp(-g) is 0 and x + 0.0 is x. Otherwise the exact exp(-g) is
    at most e**-40 * |x| < 2**-57.6 * |x|, and exp and log1p add at
    most one ulp each, which is 2**-1074 <= 2**-56 * |x| where a
    result is subnormal. So the added term is below 2**-54 * |x|. Every
    float next to a normal x is at least 2**-53 * |x| from it, so the
    sum rounds to x. By C1 every target meets this bound.
    (2) Later passes. Let A be acc before the pass with stride h. By C1
    and C2 every target A[k], k >= h, is finite, nonzero and at most
    2**53 in size, and every source A[j] is finite or -inf: a source of
    +inf or NaN makes its g -inf or NaN. Each decay is a float sum of
    at most 2**62 gaps, none negative, in a tree of depth at most 62,
    so it exceeds its exact sum by a factor of at most (1 + u)**62. The
    float sum of all gaps, of fewer than 2**52 terms, is at least half
    their exact sum. So every decay is below 2**55, and a float sum of
    two decays is within 2 of its exact sum.
    Assume pass H is a no-op because every target k >= H has g_H[k] =
    fl(A[k] - s_H[k]) >= its bound in (1), s_H[k] = fl(A[k-H] - D_H[k]).
    Pass 2H adds to A[k], k >= 2H, the source s = fl(A[k-2H] - D),
    D = fl(D_H[k] + D_H[k-H]) >= D_H[k-H]. If s <= s_H[k], then
    fl(A[k] - s) >= g_H[k], as fl is monotone, and pass 2H is a no-op
    too. s <= s_H[k] holds when A[k-2H] - D < A[k-H] - D_H[k], since
    fl is monotone. If A[k-2H] is -inf, s is -inf. Otherwise let
    v = fl(A[k-2H] - D_H[k-H]). g_H[k-H] = fl(A[k-H] - v) >= 40, so
    A[k-H] - v > 39.9 and v < 2**53, hence A[k-2H] - D_H[k-H] < 2**53.
    If A[k-2H] - D_H[k-H] <= -2**56, then A[k-2H] - D <= -2**56 <
    -2**53 - 2**55 <= A[k-H] - D_H[k]. Otherwise the difference is
    below 2**56 in size, so v is within 4 of it, and
    A[k-2H] - D <= v + 4 - D_H[k] + 2 < A[k-H] - D_H[k].
    (3) Without C2 this fails. A decay of 2**66 absorbs a next one of
    5000, and the pass at stride 128 then adds to a target a source
    2000 above it; the tests keep this case.
    (4) Non-finite targets: -inf or NaN makes min g -inf or NaN, ±0.0
    makes min |x| 0, and +inf makes max |x| inf, so none is certified,
    and x + 0.0 never turns a -0.0 into 0.0.
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
        source = acc[:-step] - decay
        if step >= _FIRST_CHECKED_STRIDE and _adds_nothing(acc[step:], source, gaps):
            return acc
        np.logaddexp(acc[step:], source, out=acc[step:])
        step *= 2
    return acc


def _adds_nothing(target, source, gaps):
    """Whether target, source and gaps meet _exclusive_logsum's certificate."""
    with np.errstate(invalid="ignore", over="ignore"):  # -inf - -inf, huge - -huge
        margin = (target - source).min()
    if not margin >= 40.0:  # also NaN
        return False
    size = np.abs(target)
    smallest, largest = size.min(), size.max()
    return (smallest > 0.0 and margin >= 40.0 - min(math.log(smallest), 0.0)
            and largest <= _CHECKED_MAGNITUDE and gaps.sum() <= _CHECKED_MAGNITUDE)


def _self_excluded_logsum(gaps, ell):
    """log sum_{j != k} exp(ell[j] - beta * |t_k - t_j|) down each column.

    ell: (m, c) log-weights of m points in time order; gaps: beta times
    the gaps between neighbours, (m - 1, 1) when every column shares one
    sequence of points, or (m - 1, c) with one sequence per column. The
    sum over j < k is a forward scan, the sum over j > k the same scan
    over the reversed sequence.
    """
    m, c = ell.shape
    both_gaps = np.empty((m - 1, 2 * c))
    both_gaps[:, :c] = gaps
    both_gaps[:, c:] = gaps[::-1]
    both = np.empty((m, 2 * c))
    both[:, :c] = ell
    both[:, c:] = ell[::-1]
    acc = _exclusive_logsum(both_gaps, both)
    return np.logaddexp(acc[:, :c], acc[::-1, c:])


def soft_nn_distance(times, index, beta):
    """Soft minimum distance -log(sum exp(-beta*|dt|))/beta from times[index].

    The sum runs over every other position, so an entry at the same
    timestamp still counts. May go negative when many near-duplicate
    neighbors exist: the inner sum then exceeds 1. Lower-bounded by
    hard_min - log(n-1)/beta. The log-sum is entry index of
    _self_excluded_logsum with unit weights. Raises ValueError when a
    time is not finite, when index is not an integer (a bool is not) in
    [-n, n), or when beta is so large or so small against the gaps that
    the soft minimum is not finite.

    times is one (n,) set of points, giving a float, or a (c, n) stack
    of sets, giving one distance per row. Each row has its own sort and
    its own scan column, so the rows need not share an order; every
    entry is bit-identical to the one-row call, and a stack with an
    invalid row raises what that row raises alone.
    """
    t = _as_floats(times, "times")
    if t.ndim > 2:
        raise ValueError("times must be (n,) or (c, n)")
    if t.ndim == 0 or t.shape[-1] < 2:
        raise InsufficientSet("soft distance needs at least one other entry")
    if not np.isfinite(t).all():
        raise ValueError("times must be finite")
    _real("beta", beta)
    if not (beta > 0 and _finite(beta)):
        raise ValueError("beta must be positive and finite")
    n = t.shape[-1]
    if not (_integers(index) and -n <= index < n):
        raise ValueError("index must be an integer position in times")
    rows = np.atleast_2d(t)
    order = np.argsort(rows, axis=1, kind="stable")
    ts = np.take_along_axis(rows, order, axis=1)
    log_s = np.empty_like(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        # column r of the scan is row r in time order
        scan = _self_excluded_logsum(((ts[:, 1:] - ts[:, :-1]) * beta).T, np.zeros(ts.shape[::-1]))
        np.put_along_axis(log_s, order, scan.T, axis=1)
        d = -log_s[:, index] / beta
    if not np.isfinite(d).all():
        raise ValueError("soft minimum is not finite at this beta")
    return float(d[0]) if t.ndim == 1 else d


def soft_nn_gradient(times, index, beta):
    """Analytic gradient of soft_nn_distance over every position.

    Entry j != index is -w_j * sign(t_j - t_index), with w the softmax
    of -beta*|dt|, exp(-beta*|dt| - log S) and log S = -beta *
    soft_nn_distance, so its magnitude is at most 1. Entry index is
    minus the sum of the others. times is one (n,) set of points, giving
    an (n,) gradient, or a (c, n) stack of sets, giving one row per set,
    each bit-identical to the one-set call. Raises ValueError as
    soft_nn_distance does, and NonFiniteGradient when an entry
    overflows float64.
    """
    t = _as_floats(times, "times")
    d = soft_nn_distance(t, index, beta)
    rows = np.atleast_2d(t)
    offsets = rows - rows[:, index, None]
    dist = np.abs(offsets)
    dist[:, index] = np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        grads = np.exp(-beta * (dist - np.reshape(d, (-1, 1)))) * np.sign(offsets)
        grads[:, index] = -grads.sum(axis=1)
    if not np.isfinite(grads).all():
        raise NonFiniteGradient("soft nearest-neighbour gradient is not finite")
    return grads[0] if t.ndim == 1 else grads


def weighted_soft_t(timestamps, weights, random_times, beta):
    """Weight-averaged soft T statistic with analytic weight gradients.

    Each event's soft distance sums only over the other events, scaled
    by their weights; the disagreement side averages those distances
    with the weights themselves, so zero-weight events drop out of the
    value entirely. The reference side averages soft distances from the
    random times to the full weighted set (no exclusion). Returns a
    SoftTrial whose weight_gradient is d t_soft / d weights.

    weights is one (n,) vector or a (c, n) stack of rows, which gives a
    SoftTrial with one entry per row in each field (weight_gradient is
    (c, n)). With (n,) timestamps and (r,) random_times, every row shares
    one sort of the points; with (c, n) timestamps and (c, r)
    random_times, row i of each is the problem of weight row i, with its
    own sort. Either way a stack takes two scans, with c and 2c columns;
    every entry is bit-identical to that row's own one-row call, and a
    stack with an invalid row raises what that row raises alone.

    Raises ValueError when the shapes do not fit these, and when beta is
    so small or so large against the gaps that a soft distance is not
    finite. Raises NonFiniteGradient when a gradient entry is not
    finite. For example, when a positive-weight event is far from every
    other positive-weight event but has a zero-weight event close by,
    the derivative for the zero-weight event grows like exp(beta * gap)
    and overflows float64.
    """
    return _soft_t(timestamps, weights, random_times, beta, True)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _soft_t(timestamps, weights, random_times, beta, gradient):
    """weighted_soft_t, whose weight_gradient is None unless gradient is set.

    Without the gradient every other field is bit-identical, and it
    raises what weighted_soft_t raises, except that a gradient entry
    that is not finite raises nothing unless d_disg_soft or t_soft is
    not finite too.
    """
    t = _as_floats(timestamps, "timestamps")
    w = _as_floats(weights, "weights", "must lie in [0, 1]")
    r = _as_floats(random_times, "random_times")
    per_row = t.ndim != 1
    if per_row:
        if not (t.ndim == 2 and w.shape == t.shape and r.ndim == 2 and r.shape[0] == t.shape[0]):
            raise ValueError("timestamps must be (n,), or (c, n) with (c, n) weights "
                             "and (c, r) random_times")
    elif w.ndim not in (1, 2) or w.shape[-1] != t.size:
        raise ValueError("timestamps must be 1-d and weights (n,) or (c, n) for n timestamps")
    if not ((w >= 0) & (w <= 1)).all():
        raise ValueError("weights must lie in [0, 1]")
    if not np.isfinite(t).all():
        raise ValueError("timestamps must be finite")
    if not np.isfinite(r).all():
        raise ValueError("random_times must be finite")
    # C-contiguous rows, so every row sum below is numpy's pairwise sum
    # over one row, as in the one-row call
    rows = np.ascontiguousarray(np.atleast_2d(w))
    fewest_positive = (rows > 0).sum(axis=1).min(initial=2)
    if fewest_positive == 0:
        raise AllZeroWeights("weighted soft T needs positive total weight")
    if fewest_positive < 2:
        raise InsufficientSet("weighted soft T needs >= 2 positive-weight events")
    if r.size < 1:
        raise ValueError("at least one random reference time is required")
    _real("beta", beta)
    if not (beta > 0 and _finite(beta)):
        raise ValueError("beta must be positive and finite")
    if not per_row and r.ndim != 1:
        raise ValueError("random_times must be 1-d")

    # Events and reference times share one sorted sequence per row of
    # points, which every weight row shares unless timestamps is a stack. A
    # point that is not a source of a sum carries log-weight -inf in it,
    # so one self-excluded sum covers event-to-event and
    # event-to-reference terms alike. Each weight row is one column of
    # the scans.
    n, c, n_ref = t.shape[-1], rows.shape[0], r.shape[-1]
    merged = np.concatenate((t, r), axis=-1)
    order = np.atleast_2d(np.argsort(merged, axis=-1, kind="stable"))
    # (row, position) of each sorted point in every (c, n + r) array
    sort = (np.arange(c)[:, None], order) if per_row else (slice(None), order[0])
    times = np.atleast_2d(merged)[sort]
    gaps = ((times[:, 1:] - times[:, :-1]) * beta).T
    log_w = np.log(np.concatenate((rows, np.zeros((c, n_ref))), axis=1)[sort].T)
    log_s = _self_excluded_logsum(gaps, log_w)

    # soft distances -log S / beta, one row per weight row, in input order
    d = np.empty((c, n + n_ref))
    d[sort] = log_s.T
    d /= -beta
    w_total = rows.sum(axis=1, keepdims=True)
    b = (rows * d[:, :n]).sum(axis=1, keepdims=True) / w_total
    a = d[:, n:].sum(axis=1, keepdims=True) / n_ref
    denom = a + b
    t_soft = a / denom
    # t_soft is NaN where a is not finite, but 0 where only b is. A soft
    # distance that is not finite makes a or b so, and a or b not finite,
    # or a + b = 0, makes every gradient entry of its row inf or NaN.
    if not (np.isfinite(b) & np.isfinite(t_soft)).all():
        if not np.isfinite(d).all():
            raise ValueError("soft distances are not finite at this beta")
        raise NonFiniteGradient("weighted soft T weight gradient is not finite")

    dt = None
    if gradient:
        # d d_k / d w_j = -exp(-beta*|t_k - t_j| - log S_k) / beta, so the
        # weighted sum over events k and the mean over reference times k
        # are kernel sums with log-weights log(w_k / beta) - log S_k and
        # -log(beta * r) - log S_k. The 1/beta inside the exponent keeps
        # exp from overflowing where the divided value fits.
        ell = np.empty((n + n_ref, 2 * c))
        ell[:, :c] = log_w - (log_s + math.log(beta))
        ell[:, c:] = np.where((order >= n).T, -(log_s + math.log(beta * n_ref)), -np.inf)

        # [event sums, reference sums] of each weight row, in input order
        sums = np.empty((2, c, n + n_ref))
        both = np.tile(gaps, 2) if per_row else gaps  # a row's gaps serve both its columns
        sums[(slice(None), *sort)] = np.exp(_self_excluded_logsum(both, ell)).T.reshape(2, c, -1)
        db = (d[:, :n] - sums[0, :, :n] - b) / w_total
        da = -sums[1, :, :n]
        dt = (da * b - a * db) / (denom * denom)
        if not np.isfinite(dt).all():
            raise NonFiniteGradient("weighted soft T weight gradient is not finite")
    if w.ndim == 1:
        return SoftTrial(float(a[0, 0]), float(b[0, 0]), float(t_soft[0, 0]),
                         None if dt is None else dt[0])
    return SoftTrial(a[:, 0], b[:, 0], t_soft[:, 0], dt)


def soft_t(timestamps, random_times, beta):
    """Unweighted soft T: weighted_soft_t with unit weight on every event."""
    t = _as_floats(timestamps, "timestamps")
    return weighted_soft_t(t, np.ones_like(t), random_times, beta)


def vca_penalty(t_soft, gamma):
    """Quadratic pull toward t_soft = 0.5: (value, d value / d t_soft)."""
    _real("gamma", gamma)
    # NaN fails every comparison
    if not (gamma >= 0 and _finite(gamma)):
        raise ValueError("gamma must be finite and non-negative")
    t = _as_floats(t_soft, "t_soft")
    if not np.isfinite(t).all():
        raise ValueError("t_soft must be finite")
    gap = 0.5 - (float(t) if t.ndim == 0 else t)
    return gamma * gap * gap, -2.0 * gamma * gap


def finite_difference_check(value, point, step=1e-6):
    """Max relative error between an analytic gradient and central differences.

    point is one point x of d coordinates, (d,), giving a float, or a
    (g, d) stack of points, giving one error per point, each
    bit-identical to the one-point call. value is called once, on the
    g(2d + 1) rows of every point in turn: x, then x + step * e_i for
    i < d, then x - step * e_i. It returns two things: the values of
    those rows and the analytic gradient at each point, of the point's
    shape. The relative error per coordinate is |fd - analytic| /
    max(1, |fd|, |analytic|), so near-zero gradients are compared
    absolutely. A coordinate whose difference quotient or analytic
    entry is not finite has error inf. An empty point has error 0.0,
    and value is not called.
    """
    _real("step", step)
    if not (step > 0 and _finite(step)):
        raise ValueError("step must be positive and finite")
    x = _as_floats(point, "point", "must fit in float64")
    if x.ndim not in (1, 2):
        raise ValueError("point must be (d,) or (g, d)")
    points = np.atleast_2d(x)
    g, d = points.shape
    if x.size == 0:
        return 0.0 if x.ndim == 1 else np.zeros(g)
    # Adding -0.0 keeps every bit of x, and adding -step * e_i, whose
    # other entries are -0.0, those of x - step * e_i
    shift = np.diag(np.full(d, step))
    shifts = np.concatenate((np.full((1, d), -0.0), shift, -shift))
    values, grad = value((points[:, None, :] + shifts).reshape(-1, d))
    values = np.asarray(values, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if values.shape != (g * (2 * d + 1),):
        raise ValueError("value must return one value per row of the stack")
    if grad.shape != x.shape:
        raise ValueError("value must return a gradient of the point's shape")
    values, grad = values.reshape(g, -1), grad.reshape(g, d)
    with np.errstate(over="ignore", invalid="ignore"):
        fd = (values[:, 1:d + 1] - values[:, d + 1:]) / (2.0 * step)
        err = np.abs(fd - grad) / np.maximum(1.0, np.maximum(np.abs(fd), np.abs(grad)))
    err[~(np.isfinite(fd) & np.isfinite(grad))] = np.inf
    worst = err.max(axis=1)
    return float(worst[0]) if x.ndim == 1 else worst
