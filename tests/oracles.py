"""Independent reference implementations used to cross-check the package.

Everything here is written from the documented contracts only, without
importing package internals. Small-scale routines are deliberately
brute-force (full pairwise distance matrices, explicit loops); the
uniform-pattern band sampler uses a faster sorted-gap route that is
itself validated against the brute-force one in the unit tests.
"""

import math
from collections import namedtuple

import numpy as np


def brute_nn_distance(index, times):
    """Min |t_i - t_j| over j != i via the full pairwise matrix."""
    d = np.abs(times[index] - times)
    d[index] = np.inf
    return float(d.min())


def brute_disg_sum(positions, times):
    return float(sum(brute_nn_distance(i, times) for i in positions))


def brute_ref_sum(ref_times, times):
    d = np.abs(ref_times[:, None] - times[None, :])
    return float(d.min(axis=1).sum())


def contract_draws(seed, i, big_k, k, period):
    """Trial i's (positions, random_times) per the documented contract.

    default_rng((seed, i)) draws first the k subsample positions out of
    big_k without replacement, then k normalized u in [0, 1), mapped
    onto the period as t_start + u * span.
    """
    rng = np.random.default_rng((seed, i))
    positions = rng.choice(big_k, size=k, replace=False)
    t_start, t_end = period
    return positions, t_start + rng.random(k) * (t_end - t_start)


def brute_vcs(times, period, tau=5, frac=0.5, seed=42):
    """VCS per the documented contract with brute-force distances.

    Returns (vcs, t_mean, per-trial t list).
    """
    times = np.asarray(times, dtype=np.float64)
    big_k = times.size
    k = min(max(1, int(math.floor(frac * big_k))), big_k - 1)
    t_stats = []
    for i in range(tau):
        positions, ref = contract_draws(seed, i, big_k, k, period)
        d_disg = brute_disg_sum(positions, times)
        d_r = brute_ref_sum(ref, times)
        t_stats.append(d_r / (d_r + d_disg))
    t_mean = float(np.mean(t_stats))
    return abs(0.5 - t_mean), t_mean, t_stats


def fast_vcs(times, period, tau=5, frac=0.5, seed=42):
    """Sorted-gap VCS used for the large Monte Carlo band.

    Draws as brute_vcs does, but its subsample positions index the
    sorted times, so it matches brute_vcs only on sorted input; the unit
    tests check that agreement. The band's times are i.i.d. uniform, so
    the sort leaves the distribution of its samples unchanged.
    """
    times = np.sort(np.asarray(times, dtype=np.float64))
    big_k = times.size
    k = min(max(1, int(math.floor(frac * big_k))), big_k - 1)
    gaps = np.diff(times)
    nn = np.minimum(
        np.concatenate(([np.inf], gaps)), np.concatenate((gaps, [np.inf]))
    )
    t_stats = []
    for i in range(tau):
        positions, ref = contract_draws(seed, i, big_k, k, period)
        d_disg = float(nn[positions].sum())
        idx = np.searchsorted(times, ref)
        lo = np.clip(idx - 1, 0, big_k - 1)
        hi = np.clip(idx, 0, big_k - 1)
        d_r = float(np.minimum(np.abs(ref - times[lo]), np.abs(ref - times[hi])).sum())
        t_stats.append(d_r / (d_r + d_disg))
    t_mean = float(np.mean(t_stats))
    return abs(0.5 - t_mean), t_mean, t_stats


def uniform_band_samples(n_runs=10000, n_errors=200, period=(0.0, 1000.0),
                         tau=5, frac=0.5, master_seed=777):
    """VCS samples under the uniform null: n_runs independent patterns."""
    master = np.random.default_rng(master_seed)
    t_start, t_end = period
    out = np.empty(n_runs)
    for j in range(n_runs):
        times = t_start + master.random(n_errors) * (t_end - t_start)
        out[j], _, _ = fast_vcs(times, period, tau=tau, frac=frac, seed=j)
    return out


def softmin_direct(distances, beta):
    """High-precision soft minimum via math.fsum on the shifted series."""
    m = min(distances)
    total = math.fsum(math.exp(-beta * (d - m)) for d in distances)
    return m - math.log(total) / beta


def soft_t_direct(timestamps, weights, ref_times, beta):
    """Weighted soft T recomputed with scalar loops and math.fsum."""
    n = len(timestamps)
    d_ev = []
    for i in range(n):
        terms = [
            weights[j] * math.exp(-beta * abs(timestamps[i] - timestamps[j]))
            for j in range(n)
            if j != i and weights[j] > 0
        ]
        d_ev.append(-math.log(math.fsum(terms)) / beta)
    w_total = math.fsum(weights)
    b = math.fsum(w * d for w, d in zip(weights, d_ev)) / w_total
    d_ref = []
    for r in ref_times:
        terms = [
            weights[j] * math.exp(-beta * abs(r - timestamps[j]))
            for j in range(n)
            if weights[j] > 0
        ]
        d_ref.append(-math.log(math.fsum(terms)) / beta)
    a = math.fsum(d_ref) / len(d_ref)
    return a / (a + b)


DenseSoftTrial = namedtuple(
    "DenseSoftTrial",
    ["d_r_soft", "d_disg_soft", "t_soft", "weight_gradient", "d_r_grad", "d_disg_grad"],
)


def _weighted_soft_rows(dist, log_w, beta):
    """Per-row soft distance and its weight gradient.

    dist: (q, n) absolute distances from q query points to n weighted
    events; log_w: (n,) with -inf at zero weights. Row r yields
    d(r) = -log(sum_j w_j exp(-beta*dist[r,j]))/beta and the gradient
    d d(r)/d w_j = -exp(-beta*dist[r,j] - logS_r)/beta, which is finite
    and generally nonzero even where w_j = 0.
    """
    ell = log_w[None, :] - beta * dist
    m = ell.max(axis=1, keepdims=True)
    log_s = m[:, 0] + np.log(np.exp(ell - m).sum(axis=1))
    d = -log_s / beta
    grad = -np.exp(-beta * dist - log_s[:, None]) / beta
    return d, grad


def dense_weighted_soft_t(timestamps, weights, random_times, beta):
    """Weighted soft T and its weight gradient from full pairwise matrices.

    The n x n and r x n form of the statistic, O(n^2) time and memory.
    Inputs are assumed valid (>= 2 positive weights, >= 1 reference
    time); an overflowing gradient comes back as inf. Also returns the
    weight gradients of d_r_soft and d_disg_soft, for error bounds.
    """
    t = np.asarray(timestamps, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    r = np.asarray(random_times, dtype=np.float64)
    w_total = w.sum()

    with np.errstate(divide="ignore"):
        log_w = np.where(w > 0, np.log(np.where(w > 0, w, 1.0)), -np.inf)

    dist_ev = np.abs(t[:, None] - t[None, :])
    log_w_excl = np.tile(log_w, (t.size, 1))
    np.fill_diagonal(log_w_excl, -np.inf)
    ell = log_w_excl - beta * dist_ev
    m = ell.max(axis=1, keepdims=True)
    log_s_ev = m[:, 0] + np.log(np.exp(ell - m).sum(axis=1))
    d_ev = -log_s_ev / beta
    grad_ev = -np.exp(-beta * dist_ev - log_s_ev[:, None]) / beta
    np.fill_diagonal(grad_ev, 0.0)

    dist_r = np.abs(r[:, None] - t[None, :])
    d_r, grad_r = _weighted_soft_rows(dist_r, log_w, beta)

    numer = float((w * d_ev).sum())
    b = numer / w_total
    a = float(d_r.mean())

    d_numer = d_ev + grad_ev.T @ w
    db = (d_numer - b) / w_total
    da = grad_r.mean(axis=0)
    denom = a + b
    dt = (da * b - a * db) / (denom * denom)

    return DenseSoftTrial(
        d_r_soft=a,
        d_disg_soft=b,
        t_soft=a / denom,
        weight_gradient=dt,
        d_r_grad=da,
        d_disg_grad=db,
    )


def logistic_twin(features, labels, learning_rate, epochs):
    """Plain full-batch logistic regression mirroring the trainer contract.

    Zero init, numerically stable sigmoid split at z = 0, probabilities
    clamped to [1e-7, 1 - 1e-7] inside the logs with the gradient masked
    at the clamp bounds, mean gradient via X^T.
    """
    x = np.hstack([features, np.ones((features.shape[0], 1))])
    y = labels.astype(np.float64)
    theta = np.zeros(x.shape[1])
    eps = 1e-7
    for _ in range(epochs):
        z = x @ theta
        p = np.empty_like(z)
        pos = z >= 0
        p[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        p[~pos] = ez / (1.0 + ez)
        gz = np.where((p > eps) & (p < 1.0 - eps), p - y, 0.0) / y.size
        theta = theta - learning_rate * (x.T @ gz)
    return theta


def average_precision_direct(y, p):
    """AP by explicit rank enumeration with stable descending sort."""
    order = sorted(range(len(p)), key=lambda i: -p[i])
    hits = 0
    total = 0.0
    for rank, idx in enumerate(order, start=1):
        if y[idx] == 1:
            hits += 1
            total += hits / rank
    return total / sum(y)


def auroc_direct(y, p):
    """AU-ROC by explicit pairwise comparison with 0.5 tie credit."""
    pos = [p[i] for i in range(len(y)) if y[i] == 1]
    neg = [p[i] for i in range(len(y)) if y[i] == 0]
    total = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (len(pos) * len(neg))
