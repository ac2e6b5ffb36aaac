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

from .errors import NonFiniteGradient, NonFiniteLoss
from .event_stream import EvalStream
from .soft_vca import effective_beta, vca_penalty, weighted_soft_t
from .vcs import evaluate_stream

P_CLAMP = 1e-7
WEIGHT_FLOOR = 1e-6


@dataclass(frozen=True)
class TrainConfig:
    gamma: float = 0.1
    learning_rate: float = 0.05
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be non-negative")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")


@dataclass(frozen=True)
class LossBreakdown:
    cross_entropy: float
    penalty: float
    total: float
    gradient: np.ndarray = field(repr=False)
    penalty_skipped: bool = False
    n_clamped: int = 0


@dataclass(frozen=True)
class ToyModel:
    """Logistic scorer over affine features (last weight is the bias)."""

    weights: np.ndarray

    def predict_proba(self, features):
        return _sigmoid(_augment(features) @ self.weights)


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


def combined_loss(model, batch, config, step):
    """Cross-entropy plus clustering penalty, with the full parameter gradient.

    The penalty path chains d total / d t_soft through the weight
    gradient of the soft statistic, then through w_i = |p_i - y_i| and
    the logistic derivative, back to the parameters. Events whose
    probability hit the clamp bound contribute no cross-entropy
    gradient.
    """
    x = _augment(batch.features)
    y = batch.y.astype(np.float64)
    n = y.size
    if n == 0:
        raise ValueError("batch must be non-empty")

    z = x @ model.weights
    p = _sigmoid(z)
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
            except NonFiniteGradient as exc:
                raise NonFiniteLoss(step, str(exc)) from exc
            penalty, d_pen = vca_penalty(trial.t_soft, config.gamma)
            gz_pen = d_pen * trial.weight_gradient * np.sign(p - y) * p * (1.0 - p)
            gradient = gradient + x.T @ gz_pen

    total = ce + penalty
    if not np.isfinite(total) or not np.all(np.isfinite(gradient)):
        raise NonFiniteLoss(step, "loss or gradient is not finite")
    return LossBreakdown(
        cross_entropy=ce,
        penalty=float(penalty),
        total=float(total),
        gradient=gradient,
        penalty_skipped=skipped,
        n_clamped=n_clamped,
    )


def train(dataset, config=TrainConfig()):
    """Full-batch gradient descent from zero init; returns (model, history)."""
    weights = np.zeros(dataset.features.shape[1] + 1)
    history = []
    for epoch in range(config.epochs):
        breakdown = combined_loss(ToyModel(weights), dataset, config, step=epoch)
        history.append(breakdown)
        weights = weights - config.learning_rate * breakdown.gradient
    return ToyModel(weights), history


def evaluate_model(model, test):
    """Score a test dataset with the model: evaluate_stream on its predictions."""
    p = model.predict_proba(test.features)
    return evaluate_stream(EvalStream(test.t, test.y, p))


def history_csv(history):
    """Render per-epoch losses as 'epoch,cross_entropy,penalty,total' CSV."""
    lines = ["epoch,cross_entropy,penalty,total"]
    for epoch, breakdown in enumerate(history):
        lines.append(
            f"{epoch},{breakdown.cross_entropy!r},{breakdown.penalty!r},{breakdown.total!r}"
        )
    return "\n".join(lines) + "\n"
