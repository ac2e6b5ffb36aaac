"""Desk-scale logistic trainer with an optional temporal-clustering penalty.

The loss is mean binary cross-entropy plus gamma * (0.5 - t_soft)^2,
where t_soft is the weighted soft clustering statistic over the batch
timestamps with per-event weights |p_i - y_i|. The penalty therefore
pushes probability mass away from whichever events currently form a
temporal error cluster. All gradients are analytic; reference times are
redrawn each step from a substream keyed by (seed, step) so runs are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteGradient, NonFiniteLoss, _as_floats, _finite, _integers, _real
from .event_stream import EvalStream
from .soft_vca import _soft_t, effective_beta, vca_penalty, weighted_soft_t
from .vcs import evaluate_stream

P_CLAMP = 1e-7
LEARNING_RATE = 0.05
WEIGHT_FLOOR = 1e-6


@dataclass(frozen=True)
class TrainConfig:
    gamma: float = 0.1
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        if not (_integers(self.epochs) and self.epochs >= 1):
            raise ValueError("epochs must be a positive integer")
        _real("gamma", self.gamma)
        # NaN fails every comparison
        if not (self.gamma >= 0 and _finite(self.gamma)):
            raise ValueError("gamma must be finite and non-negative")
        if not (_integers(self.seed) and self.seed >= 0):
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class LossBreakdown:
    """combined_loss's result: floats, a bool and an int for one
    parameter row (gradient (d,)), or arrays with one entry per row
    (gradient (c, d)) for a stack."""

    cross_entropy: float
    penalty: float
    total: float
    gradient: np.ndarray = field(repr=False)
    penalty_skipped: bool = False
    n_clamped: int = 0


def _augment(features):
    x = np.asarray(features, dtype=np.float64)
    return np.hstack([x, np.ones((x.shape[0], 1))])


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def combined_loss(thetas, batch, config, step):
    """Cross-entropy plus clustering penalty, with the full parameter
    gradient, for one (d,) parameter row or each row of a (c, d) stack.

    A (d,) row gives a LossBreakdown of floats, a bool and an int; a
    stack gives one LossBreakdown whose fields hold one entry per row
    (gradient (c, d)), each bit-identical to that row's own call. The
    penalty path chains d total / d t_soft through the weight gradient
    of the soft statistic, then through w_i = |p_i - y_i| and the
    logistic derivative, back to the parameters. Events whose
    probability hit the clamp bound contribute no cross-entropy
    gradient. A row with fewer than 2 weights above WEIGHT_FLOOR, or
    with a weight that is not finite, skips the penalty; the other rows
    share one beta, one draw of reference times from the (seed, step)
    substream and one stacked weighted_soft_t call.

    Raises ValueError unless step is a non-negative integer (a bool is
    not), and NonFiniteLoss(step) when any row's loss or gradient is not
    finite. The work the penalty rows share runs before that check and
    may fail first: effective_beta raises its ValueError, and a
    weighted_soft_t failure becomes NonFiniteLoss(step).
    """
    return _losses(thetas, batch, config, step, True)


@np.errstate(over="ignore", invalid="ignore")
def _losses(thetas, batch, config, step, gradient):
    """combined_loss, whose gradient is None unless gradient is set.

    Without the gradient every other field is bit-identical, and it
    raises what combined_loss raises, except that a gradient that is
    not finite raises nothing: the penalty rows' soft statistic skips
    its weight gradient, and no parameter gradient is formed.
    """
    # checked here, as only the penalty's substream reads step, and numpy
    # reads a bool or a numeric string as a seed
    if not (_integers(step) and step >= 0):
        raise ValueError("step must be a non-negative integer")
    x = _augment(batch.features)
    y = batch.y.astype(np.float64)
    n = y.size
    if n == 0:
        raise ValueError("batch must be non-empty")
    thetas = _as_floats(thetas, "thetas", "must fit in float64")
    if thetas.ndim not in (1, 2) or thetas.shape[-1] != x.shape[1]:
        raise ValueError("thetas must be (d,) or (c, d) with d the feature count + 1")
    if thetas.size == 0:
        raise ValueError("thetas must hold at least one row")
    stack = np.atleast_2d(thetas)

    # an overflow or NaN here fails the check of the totals below.
    # One matrix-vector product per row: x @ thetas.T rounds some
    # entries differently from the one-row product. Each row of a
    # C-contiguous (c, n) array is reduced with the pairwise sum of
    # the one-row call, so the rest runs on all rows at once.
    p = _sigmoid(np.array([x @ theta for theta in stack]))
    p_safe = np.clip(p, P_CLAMP, 1.0 - P_CLAMP)
    ces = -(y * np.log(p_safe) + (1.0 - y) * np.log(1.0 - p_safe)).sum(axis=1) / n
    n_clamped = (p != p_safe).sum(axis=1)
    penalty = np.zeros(stack.shape[0])
    eligible = np.zeros(stack.shape[0], dtype=bool)
    if config.gamma > 0:
        w = np.abs(p - y)
        # a weight that is not finite, from a NaN logit, would fail the
        # stack; its row fails the check of the totals below
        eligible = ((w > WEIGHT_FLOOR).sum(axis=1) >= 2) & np.isfinite(w).all(axis=1)
    rows = eligible.nonzero()[0]
    if rows.size:
        beta = effective_beta(batch.t)
        rng = np.random.default_rng((config.seed, step))
        n_ref = max(2, n // 2)
        t_lo, t_hi = float(batch.t.min()), float(batch.t.max())
        ref_times = t_lo + rng.random(n_ref) * (t_hi - t_lo)
        args = (batch.t, w[rows], ref_times, beta)
        try:
            trial = weighted_soft_t(*args) if gradient else _soft_t(*args, gradient=False)
        except (NonFiniteGradient, ValueError) as exc:
            raise NonFiniteLoss(step, str(exc)) from exc
        penalty[rows], d_pens = vca_penalty(trial.t_soft, config.gamma)
    total = ces + penalty
    if not np.isfinite(total).all():
        raise NonFiniteLoss(step, "loss or gradient is not finite")
    grad = None
    if gradient:
        unclamped = (p > P_CLAMP) & (p < 1.0 - P_CLAMP)
        gz = np.where(unclamped, p - y, 0.0) / y.size
        grad = np.array([x.T @ g for g in gz])
        if rows.size:
            p_pen = p[rows]
            gz_pen = d_pens[:, None] * trial.weight_gradient * np.sign(p_pen - y) * p_pen * (1.0 - p_pen)
            grad[rows] += [x.T @ g for g in gz_pen]
        # an overflow or NaN fails this check of every gradient entry
        if not np.isfinite(grad).all():
            raise NonFiniteLoss(step, "loss or gradient is not finite")
    skipped = (config.gamma > 0) & ~eligible
    if thetas.ndim == 1:
        return LossBreakdown(float(ces[0]), float(penalty[0]), float(total[0]),
                             None if grad is None else grad[0], bool(skipped[0]),
                             int(n_clamped[0]))
    return LossBreakdown(ces, penalty, total, grad, skipped, n_clamped)


def train(dataset, config=TrainConfig()):
    """Full-batch gradient descent from zero init; returns (weights, history)."""
    weights = np.zeros(dataset.features.shape[1] + 1)
    history = []
    for epoch in range(config.epochs):
        breakdown = combined_loss(weights, dataset, config, step=epoch)
        history.append(breakdown)
        weights = weights - LEARNING_RATE * breakdown.gradient
    return weights, history


def evaluate_model(weights, test):
    """Score a test dataset with weights (bias last): evaluate_stream on its predictions."""
    x = _augment(test.features)
    w = _as_floats(weights, "weights")
    if w.shape != x.shape[1:]:
        raise ValueError("weights must be (d,) with d the feature count + 1")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    p = _sigmoid(x @ w)
    return evaluate_stream(EvalStream(test.t, test.y, p))


def history_csv(history):
    """Render per-epoch losses as 'epoch,cross_entropy,penalty,total' CSV."""
    lines = ["epoch,cross_entropy,penalty,total"]
    for epoch, breakdown in enumerate(history):
        lines.append(
            f"{epoch},{breakdown.cross_entropy!r},{breakdown.penalty!r},{breakdown.total!r}"
        )
    return "\n".join(lines) + "\n"
