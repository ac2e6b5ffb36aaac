"""Independent reference implementations used to cross-check the package.

Everything here is written from the documented contracts only, without
importing package internals. Small-scale routines are deliberately
brute-force (full pairwise distance matrices, explicit loops); the
uniform-pattern band sampler uses a faster sorted-gap route that is
itself validated against the brute-force one in the unit tests. The
exception is one_point_combined_loss, the trainer's loss one parameter
row at a time: the stacked loss must match it bit for bit, so it calls
the package's public one-row soft-T functions. So is
one_point_soft_nn_distance, the soft minimum for one set of points,
which the stacked soft_nn_distance must match bit for bit: it runs the
package's own scan on one column. jsonl_rows, csv_rows and
record_values raise the package's public MalformedRecord and EmptyInput,
whose messages they must match. average_precision_ranks and auroc_ranks
are the rank-array formulas that the package's counting average_precision
and auroc must match bit for bit. records_text is the writer one row at a
time, which serialize_records must match byte for byte. doubling_logsum
is the package's prefix log-sum scan with every doubling pass run; the
package's scan, which stops at a pass it proves empty, must match it bit
for bit. sequential_gradcheck is the gradcheck command as a loop of one
trial at a time, each scored in its own calls of the public soft-T
functions; the command, which scores a block of trials in one stacked
call per shape, must print the same bytes. It calls the trainer's
private value-only loss for the perturbed rows, as the command does.
"""

import csv
import io
import json
import math
from collections import namedtuple

import numpy as np

from vcseval import (DriftSpec, EmptyInput, InsufficientSet, LossBreakdown, MalformedRecord,
                     NonFiniteGradient, NonFiniteLoss, TrainConfig, combined_loss,
                     effective_beta, finite_difference_check, generate_drift_dataset,
                     soft_nn_distance, soft_nn_gradient, vca_penalty, weighted_soft_t)
from vcseval.soft_vca import _self_excluded_logsum
from vcseval.toy_trainer import P_CLAMP, WEIGHT_FLOOR, _losses


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


def dist_to_sorted(points, sorted_times):
    """Distance from each point to its nearest value in sorted_times, by binary search."""
    idx = np.searchsorted(sorted_times, points)
    lo = np.clip(idx - 1, 0, sorted_times.size - 1)
    hi = np.clip(idx, 0, sorted_times.size - 1)
    return np.minimum(np.abs(points - sorted_times[lo]), np.abs(points - sorted_times[hi]))


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


def exact_trial_sums(times, period, tau, k, seed):
    """Trial i's (d_disg, d_r) per the contract, for i < tau.

    Brute-force distances, each one rounded subtraction, summed in draw
    order as vcs sums them, so the sums match vcs's bit for bit. A sum
    past the float range is inf, which vcs rejects.
    """
    times = np.asarray(times, dtype=np.float64)
    sums = []
    with np.errstate(over="ignore"):
        for i in range(tau):
            positions, ref = contract_draws(seed, i, times.size, k, period)
            d_disg = np.array([brute_nn_distance(j, times) for j in positions])
            sums.append((float(d_disg.sum()), brute_ref_sum(ref, times)))
    return sums


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
        d_r = float(dist_to_sorted(ref, times).sum())
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


def _others(times, index):
    """times as an array, and a mask of every position but index."""
    t = np.asarray(times, dtype=np.float64)
    mask = np.ones(t.size, dtype=bool)
    mask[index] = False
    return t, mask


def mask_soft_nn_distance(times, index, beta):
    """Soft minimum distance from times[index], one masked log-sum-exp.

    The per-entry form of the statistic, O(n) per entry. Inputs are
    assumed valid: at least two entries, beta positive and finite.
    """
    t, mask = _others(times, index)
    exponents = -beta * np.abs(t[mask] - t[index])
    m = exponents.max()
    return float(-(m + np.log(np.exp(exponents - m).sum())) / beta)


def one_point_soft_nn_distance(times, index, beta):
    """soft_nn_distance for one (n,) set of points, one call per set.

    Entry index of the self-excluded scan over a one-column stack with
    unit weights, in the set's own stable sort order. Raises as
    soft_nn_distance does.
    """
    t = np.asarray(times, dtype=np.float64)
    if t.size < 2:
        raise InsufficientSet("soft distance needs at least one other entry")
    if not np.isfinite(t).all():
        raise ValueError("times must be finite")
    if not 0 < beta < math.inf:
        raise ValueError("beta must be positive and finite")
    order = np.argsort(t, kind="stable")
    ts = t[order]
    log_s = np.empty(t.size)
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = ((ts[1:] - ts[:-1]) * beta)[:, None]
        log_s[order] = _self_excluded_logsum(gaps, np.zeros((t.size, 1)))[:, 0]
        d = -log_s[index] / beta
    if not math.isfinite(d):
        raise ValueError("soft minimum is not finite at this beta")
    return float(d)


def doubling_logsum(gaps, ell):
    """Laplace-kernel prefix log-sums down each column, excluding the row itself.

    ell: (m, c) log-weights of m points in time order; gaps: (m - 1, c),
    beta times the gaps between neighbours. Row k holds
    log sum_{j<k} exp(ell[j] - beta * (t_k - t_j)), by log-depth
    doubling with every pass run: after the pass with stride h, row k
    covers the 2h rows before it.
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


def mask_soft_nn_gradient(times, index, beta):
    """(d/dt at index, d/dt over all positions) of mask_soft_nn_distance."""
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


def one_point_combined_loss(theta, batch, config, step):
    """The trainer's loss and gradient for one parameter row theta.

    Cross-entropy of the clamped logistic probabilities plus
    gamma * (0.5 - t_soft)^2, with t_soft the one-row weighted soft T on
    weights |p - y|, its own effective beta and reference times drawn
    from the (seed, step) substream. The penalty is skipped when fewer
    than 2 weights exceed WEIGHT_FLOOR. Raises NonFiniteLoss(step) as
    the trainer does.
    """
    x = np.hstack([np.asarray(batch.features, dtype=np.float64), np.ones((len(batch.y), 1))])
    y = batch.y.astype(np.float64)
    n = y.size
    z = x @ theta
    p = np.empty_like(z)
    pos = z >= 0
    p[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    p[~pos] = ez / (1.0 + ez)
    p_safe = np.clip(p, P_CLAMP, 1.0 - P_CLAMP)
    n_clamped = int(np.count_nonzero(p != p_safe))
    ce = float(-np.mean(y * np.log(p_safe) + (1.0 - y) * np.log(1.0 - p_safe)))
    unclamped = (p > P_CLAMP) & (p < 1.0 - P_CLAMP)
    gz = np.where(unclamped, p - y, 0.0) / n
    gradient = x.T @ gz

    penalty = 0.0
    skipped = False
    if config.gamma > 0:
        w = np.abs(p - y)
        if np.count_nonzero(w > WEIGHT_FLOOR) < 2:
            skipped = True
        else:
            beta = effective_beta(batch.t)
            rng = np.random.default_rng((config.seed, step))
            n_ref = max(2, n // 2)
            t_lo, t_hi = float(batch.t.min()), float(batch.t.max())
            ref_times = t_lo + rng.random(n_ref) * (t_hi - t_lo)
            try:
                trial = weighted_soft_t(batch.t, w, ref_times, beta)
            except (NonFiniteGradient, ValueError) as exc:
                raise NonFiniteLoss(step, str(exc)) from exc
            penalty, d_pen = vca_penalty(trial.t_soft, config.gamma)
            gz_pen = d_pen * trial.weight_gradient * np.sign(p - y) * p * (1.0 - p)
            gradient = gradient + x.T @ gz_pen

    total = ce + penalty
    if not np.isfinite(total) or not np.all(np.isfinite(gradient)):
        raise NonFiniteLoss(step, "loss or gradient is not finite")
    return LossBreakdown(ce, float(penalty), float(total), gradient, skipped, n_clamped)


def _tie_free_times(rng, n):
    while True:
        times = rng.random(n) * 10.0
        if np.min(np.diff(np.sort(times))) > 1e-2:
            return times


def _gradcheck_soft_nn(rng, step, beta):
    n = int(rng.integers(4, 13))
    times = _tie_free_times(rng, n)

    def value(points):
        return soft_nn_distance(points, 0, beta), soft_nn_gradient(points[0], 0, beta)

    return finite_difference_check(value, times, step)


def _gradcheck_weighted(rng, step, beta, compose_penalty):
    n = int(rng.integers(4, 11))
    times = _tie_free_times(rng, n)
    ref = _tie_free_times(rng, int(rng.integers(3, 7)))
    w0 = 0.1 + 0.8 * rng.random(n)

    def value(weight_rows):
        trial = weighted_soft_t(times, weight_rows, ref, beta)
        if not compose_penalty:
            return trial.t_soft, trial.weight_gradient[0]
        penalty, slope = vca_penalty(trial.t_soft, 0.1)
        return penalty, slope[0] * trial.weight_gradient[0]

    return finite_difference_check(value, w0, step)


def _gradcheck_combined(rng, step):
    spec = DriftSpec(n_events=40, seed=int(rng.integers(0, 2**31)))
    ds = generate_drift_dataset(spec)
    theta0 = 0.5 * rng.standard_normal(spec.feature_dim + 1)
    config = TrainConfig(gamma=0.1, seed=int(rng.integers(0, 2**31)))

    def value(thetas):
        point = combined_loss(thetas[0], ds, config, step=0)
        rest = _losses(thetas[1:], ds, config, 0, gradient=False).total
        return np.concatenate(([point.total], rest)), point.gradient

    return finite_difference_check(value, theta0, step)


def sequential_gradcheck(seed, trials, beta, step):
    """(exit code, stdout) of gradcheck, one trial at a time.

    Each family draws a trial's inputs from the one rng and scores them
    at once. The first trial that raises ValueError or NonFiniteGradient
    gives its family error inf and ends it, with the rng just past that
    trial's draws; the next family draws on from there.
    """
    rng = np.random.default_rng(seed)
    families = [
        ("soft_nn_distance", lambda: _gradcheck_soft_nn(rng, step, beta), 1e-5),
        ("weighted_soft_t", lambda: _gradcheck_weighted(rng, step, beta, False), 1e-5),
        ("vca_penalty_composed", lambda: _gradcheck_weighted(rng, step, beta, True), 1e-5),
        ("combined_loss", lambda: _gradcheck_combined(rng, step), 1e-4),
    ]
    lines, failed = [], False
    for name, run, tol in families:
        try:
            worst = max(run() for _ in range(trials))
        except (ValueError, NonFiniteGradient):
            worst = math.inf
        ok = worst <= tol
        failed = failed or not ok
        lines.append(f"{name:24s} max_rel_err={worst:.3e}  tol={tol:.0e}  "
                     f"{'PASS' if ok else 'FAIL'}\n")
    lines.append(f"gradcheck: {'FAIL' if failed else 'PASS'}\n")
    return (1 if failed else 0), "".join(lines)


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


def average_precision_ranks(stream):
    """AP from the precision at every rank: a cumsum of hits over a stable
    descending sort, divided by the ranks, summed where the hits are."""
    y = stream.y
    order = np.argsort(-stream.p, kind="stable")
    hits = y[order] == 1
    ranks = np.arange(1, y.size + 1)
    precision_at = np.cumsum(hits) / ranks
    return float(precision_at[hits].sum() / int(y.sum()))


def auroc_ranks(stream):
    """AU-ROC from the Mann-Whitney rank sum, each tie group sharing its mean rank."""
    y = stream.y
    p = stream.p
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    order = np.argsort(p, kind="stable")
    # Each tie group [start, stop) of sorted scores shares its mean rank.
    boundaries = np.flatnonzero(np.diff(p[order]) != 0) + 1
    starts = np.concatenate(([0], boundaries))
    stops = np.concatenate((boundaries, [y.size]))
    ranks = np.empty(y.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + 1 + stops), stops - starts)
    u = ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def jsonl_rows(text):
    """Yield (line, t, y, p, id or None) per JSONL record, one line at a time.

    Each line of text.splitlines() that is not blank is read by
    json.loads and must be an object with numeric t, y and p and a
    string id if any; the first line that breaks this raises
    MalformedRecord with its 1-based line number.
    """
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(lineno, f"invalid JSON: {exc.msg}") from None
        except (ValueError, RecursionError) as exc:  # an int past 4300 digits, deep nesting
            raise MalformedRecord(lineno, f"invalid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise MalformedRecord(lineno, "each line must be a JSON object")
        missing = [k for k in ("t", "y", "p") if k not in obj]
        if missing:
            raise MalformedRecord(lineno, f"missing keys: {', '.join(missing)}")
        rec_id = obj.get("id")
        if rec_id is not None and not isinstance(rec_id, str):
            raise MalformedRecord(lineno, "id must be a string")
        fields = (obj["t"], obj["y"], obj["p"])
        # JSON true/false load as bool, a subclass of int
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in fields):
            raise MalformedRecord(lineno, "t, y, p must be numeric")
        yield (lineno, *fields, rec_id)


def csv_rows(text):
    """Yield (line, t, y, p, id or None) per CSV row, as csv.reader reads it.

    The header must be t,y,p or t,y,p,id, spaces around a name aside;
    blank rows are skipped and every other row needs one field per header
    name. Fields are kept as text, ids verbatim. The first row that breaks
    this, or text csv.reader rejects, raises MalformedRecord with its
    line number as csv.reader counts it.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
        if header is None:
            raise EmptyInput("no CSV header")
        header = [h.strip() for h in header]
        if header not in (["t", "y", "p"], ["t", "y", "p", "id"]):
            raise MalformedRecord(
                1, f"header must be 't,y,p' or 't,y,p,id', got {','.join(header)!r}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise MalformedRecord(
                    reader.line_num, f"expected {len(header)} fields, got {len(row)}")
            yield reader.line_num, row[0], row[1], row[2], row[3] if len(row) == 4 else None
    except csv.Error as exc:
        raise MalformedRecord(reader.line_num, f"invalid CSV: {exc}") from None


def records_text(stream, fmt):
    """The text serialize_records writes for stream, one row at a time.

    Each row's id is its own, or str of its index where stream.ids is None.
    A JSONL line is the object with t, y, p and id in that order, each
    number by repr and the id by json.dumps. CSV has the header t,y,p,id,
    then one line of the same numbers and the id, which is put in quotes,
    its quotes doubled, when it holds a comma, a quote, a carriage return
    or a line feed. csv.writer is not the rule: it leaves a lone carriage
    return unquoted.
    """
    ids = [str(row) for row in range(len(stream))] if stream.ids is None else stream.ids
    rows = zip(stream.t.tolist(), stream.y.tolist(), stream.p.tolist(), ids)
    if fmt == "jsonl":
        return "".join(f'{{"t": {t!r}, "y": {y}, "p": {p!r}, "id": {json.dumps(i)}}}\n'
                       for t, y, p, i in rows)
    lines = ["t,y,p,id\n"]
    for t, y, p, i in rows:
        if any(c in i for c in ',"\r\n'):
            i = '"' + i.replace('"', '""') + '"'
        lines.append(f"{t!r},{y},{p!r},{i}\n")
    return "".join(lines)


def record_values(t, y, p, line):
    """One record's (t, y, p) as (float, int, float), or MalformedRecord.

    float() must read all three fields; then t must be finite and >= 0, y
    0 or 1 and p in [0, 1], checked in that order.
    """
    try:
        t, y, p = float(t), float(y), float(p)
    except (TypeError, ValueError, OverflowError):
        raise MalformedRecord(line, "t, y, p must be numeric") from None
    if not math.isfinite(t) or t < 0:
        raise MalformedRecord(line, f"t must be finite and >= 0, got {t!r}")
    if y not in (0.0, 1.0):
        raise MalformedRecord(line, f"y must be 0 or 1, got {y!r}")
    if not math.isfinite(p) or not 0.0 <= p <= 1.0:
        raise MalformedRecord(line, f"p must be in [0,1], got {p!r}")
    return t, int(y), p
