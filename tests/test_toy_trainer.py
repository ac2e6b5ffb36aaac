import warnings

import numpy as np
import pytest

from vcseval import (
    DriftSpec,
    NonFiniteGradient,
    NonFiniteLoss,
    TrainConfig,
    combined_loss,
    evaluate_model,
    generate_drift_dataset,
    history_csv,
    train,
)
from vcseval.pattern_gen import DriftDataset
from vcseval.toy_trainer import ToyModel, _augment, _sigmoid

from . import oracles


def small_dataset(seed=0, n=60, **kwargs):
    return generate_drift_dataset(DriftSpec(n_events=n, seed=seed, **kwargs))


class TestCombinedLoss:
    def test_gamma_zero_equals_plain_ce(self):
        ds = small_dataset()
        theta = np.array([0.3, -0.2, 0.1, 0.4, 0.05])
        got = combined_loss(ToyModel(theta), ds, TrainConfig(gamma=0.0), step=0)
        x = _augment(ds.features)
        p = _sigmoid(x @ theta)
        y = ds.y.astype(float)
        want_ce = float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))
        want_grad = x.T @ ((p - y) / y.size)
        assert got.penalty == 0.0
        assert got.cross_entropy == pytest.approx(want_ce, abs=1e-12)
        assert np.allclose(got.gradient, want_grad, atol=1e-12)

    def test_total_is_sum_of_parts(self):
        ds = small_dataset()
        got = combined_loss(ToyModel(np.zeros(5)), ds, TrainConfig(gamma=0.1), step=3)
        assert got.total == pytest.approx(got.cross_entropy + got.penalty, abs=1e-12)
        assert got.penalty >= 0.0

    def test_saturated_model_skips_penalty(self):
        # enormous weights push every |p - y| below the activity floor
        ds = small_dataset(class_separation=8.0, drift_shift=0.0)
        theta = np.array([50.0, 50.0, 50.0, 50.0, 0.0])
        got = combined_loss(ToyModel(theta), ds, TrainConfig(gamma=0.1), step=0)
        assert got.penalty_skipped
        assert got.penalty == 0.0
        assert got.total == pytest.approx(got.cross_entropy, abs=1e-12)

    def test_clamping_is_recorded(self):
        ds = small_dataset(class_separation=8.0, drift_shift=0.0)
        theta = np.array([50.0, 50.0, 50.0, 50.0, 0.0])
        got = combined_loss(ToyModel(theta), ds, TrainConfig(gamma=0.0), step=0)
        assert got.n_clamped > 0

    def test_gradient_matches_finite_differences(self):
        from vcseval import finite_difference_check

        rng = np.random.default_rng(15)
        ds = small_dataset(seed=2, n=50)
        config = TrainConfig(gamma=0.1, seed=3)

        def fn(theta):
            breakdown = combined_loss(ToyModel(theta), ds, config, step=0)
            return breakdown.total, breakdown.gradient

        for _ in range(5):
            theta0 = 0.5 * rng.standard_normal(5)
            assert finite_difference_check(fn, theta0, 1e-6) <= 1e-4

    def test_non_finite_raises_with_step(self):
        ds = small_dataset()
        theta = np.array([np.nan, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(NonFiniteLoss) as err:
            combined_loss(ToyModel(theta), ds, TrainConfig(gamma=0.0), step=7)
        assert err.value.epoch == 7

    def test_gradient_overflow_surfaces_as_non_finite_loss(self):
        # every p is exactly 1.0, so w = |p - y| = [1, 0, 1, 1]: the
        # weighted_soft_t overflow case, reached through the trainer
        ds = DriftDataset(
            t=np.array([0.0, 1.0, 200.0, 201.0]),
            features=np.ones((4, 1)),
            y=np.array([0, 1, 0, 0]),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteLoss) as err:
                combined_loss(ToyModel(np.array([40.0, 0.0])), ds, TrainConfig(gamma=0.1), step=3)
        assert err.value.epoch == 3
        assert isinstance(err.value.__cause__, NonFiniteGradient)

    def test_reference_times_follow_substream(self):
        # same (seed, step) twice gives the identical penalty value
        ds = small_dataset(seed=4)
        theta = np.full(5, 0.2)
        cfg = TrainConfig(gamma=0.1, seed=11)
        a = combined_loss(ToyModel(theta), ds, cfg, step=5)
        b = combined_loss(ToyModel(theta), ds, cfg, step=5)
        c = combined_loss(ToyModel(theta), ds, cfg, step=6)
        assert a.penalty == b.penalty
        assert a.penalty != c.penalty


class TestTrain:
    def test_zero_learning_rate_returns_init(self):
        ds = small_dataset()
        model, history = train(ds, TrainConfig(gamma=0.0, learning_rate=0.0, epochs=5))
        assert np.array_equal(model.weights, np.zeros(5))
        assert len(history) == 5

    def test_ce_strictly_decreases_early(self):
        ds = small_dataset(seed=1, n=400, drift_shift=0.0)
        _, history = train(ds, TrainConfig(gamma=0.0, epochs=12))
        ces = [h.cross_entropy for h in history]
        assert all(b < a for a, b in zip(ces[:10], ces[1:11]))

    def test_bit_identical_to_independent_twin(self):
        ds = small_dataset(seed=5, n=120)
        config = TrainConfig(gamma=0.0, learning_rate=0.05, epochs=50)
        model, _ = train(ds, config)
        twin = oracles.logistic_twin(ds.features, ds.y, 0.05, 50)
        assert np.array_equal(model.weights, twin)

    def test_deterministic(self):
        ds = small_dataset(seed=6, n=80)
        config = TrainConfig(gamma=0.1, epochs=20, seed=2)
        a, _ = train(ds, config)
        b, _ = train(ds, config)
        assert np.array_equal(a.weights, b.weights)


class TestEvaluateModel:
    def test_constant_scores_give_half_auroc(self):
        ds = small_dataset(seed=7, n=100)
        summary = evaluate_model(ToyModel(np.zeros(5)), ds)
        assert summary.auroc == 0.5

    def test_oracle_weights_on_stationary_data(self):
        ds = small_dataset(seed=8, n=800, drift_shift=0.0)
        direction = np.ones(4) / 2.0  # aligned with the class-mean axis
        theta = np.concatenate([4.0 * direction, [0.0]])
        summary = evaluate_model(ToyModel(theta), ds)
        assert summary.ap > 0.95
        assert summary.disagreements.size < 0.08 * len(ds)

    def test_too_few_disagreements_reported_not_raised(self):
        ds = small_dataset(seed=9, n=60, class_separation=40.0, drift_shift=0.0)
        direction = np.ones(4) / 2.0
        theta = np.concatenate([10.0 * direction, [0.0]])
        summary = evaluate_model(ToyModel(theta), ds)
        assert summary.vcs_result is None
        assert "disagreement" in summary.vcs_undefined_reason
        assert summary.ap == 1.0

    def test_planted_cluster_visible_in_vcs(self, uniform_band):
        ds = generate_drift_dataset(DriftSpec(n_events=9000, seed=0))
        head = DriftDataset(t=ds.t[:6300], features=ds.features[:6300], y=ds.y[:6300])
        tail = DriftDataset(t=ds.t[6300:], features=ds.features[6300:], y=ds.y[6300:])
        model, _ = train(head, TrainConfig(gamma=0.0, epochs=200))
        summary = evaluate_model(model, tail)
        assert summary.vcs_result is not None
        assert summary.vcs_result.vcs > uniform_band["p999"]


class TestHistoryCsv:
    def test_format(self):
        ds = small_dataset(seed=10)
        _, history = train(ds, TrainConfig(gamma=0.1, epochs=3, seed=1))
        text = history_csv(history)
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,cross_entropy,penalty,total"
        assert len(lines) == 4
        epoch, ce, pen, total = lines[1].split(",")
        assert epoch == "0"
        assert float(ce) + float(pen) == pytest.approx(float(total), abs=1e-12)


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(gamma=-1.0)
