import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from vcseval import (
    DriftSpec,
    LossBreakdown,
    NonFiniteGradient,
    NonFiniteLoss,
    TrainConfig,
    combined_loss,
    evaluate_model,
    generate_drift_dataset,
    history_csv,
    soft_vca,
    toy_trainer,
    train,
    weighted_soft_t,
)
from vcseval.pattern_gen import DriftDataset
from vcseval.toy_trainer import LEARNING_RATE, _augment, _losses, _sigmoid

from . import oracles


def small_dataset(seed=0, n=60, **kwargs):
    return generate_drift_dataset(DriftSpec(n_events=n, seed=seed, **kwargs))


class TestCombinedLoss:
    def test_gamma_zero_equals_plain_ce(self):
        ds = small_dataset()
        theta = np.array([0.3, -0.2, 0.1, 0.4, 0.05])
        got = combined_loss(theta, ds, TrainConfig(gamma=0.0), step=0)
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
        got = combined_loss(np.zeros(5), ds, TrainConfig(gamma=0.1), step=3)
        assert got.total == pytest.approx(got.cross_entropy + got.penalty, abs=1e-12)
        assert got.penalty >= 0.0

    def test_saturated_model_skips_penalty(self):
        # enormous weights push every |p - y| below the activity floor
        ds = small_dataset(class_separation=8.0, drift_shift=0.0)
        theta = np.array([50.0, 50.0, 50.0, 50.0, 0.0])
        got = combined_loss(theta, ds, TrainConfig(gamma=0.1), step=0)
        assert got.penalty_skipped
        assert got.penalty == 0.0
        assert got.total == pytest.approx(got.cross_entropy, abs=1e-12)

    def test_clamping_is_recorded(self):
        ds = small_dataset(class_separation=8.0, drift_shift=0.0)
        theta = np.array([50.0, 50.0, 50.0, 50.0, 0.0])
        got = combined_loss(theta, ds, TrainConfig(gamma=0.0), step=0)
        assert got.n_clamped > 0

    def test_gradient_matches_finite_differences(self):
        from vcseval import finite_difference_check

        rng = np.random.default_rng(15)
        ds = small_dataset(seed=2, n=50)
        config = TrainConfig(gamma=0.1, seed=3)

        def loss(theta):
            return combined_loss(theta, ds, config, step=0)

        for _ in range(5):
            theta0 = 0.5 * rng.standard_normal(5)
            err = finite_difference_check(
                lambda thetas: ([loss(theta).total for theta in thetas], loss(thetas[0]).gradient),
                theta0, 1e-6)
            assert err <= 1e-4

    def test_non_finite_raises_with_step(self):
        ds = small_dataset()
        theta = np.array([np.nan, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(NonFiniteLoss) as err:
            combined_loss(theta, ds, TrainConfig(gamma=0.0), step=7)
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
                combined_loss(np.array([40.0, 0.0]), ds, TrainConfig(gamma=0.1), step=3)
        assert err.value.epoch == 3
        assert isinstance(err.value.__cause__, NonFiniteGradient)

    def test_soft_distance_overflow_surfaces_as_non_finite_loss(self):
        # beta = 5 / median gap = 5, and beta times the 1e308 gap to the
        # last event overflows, so its soft distance is not finite
        ds = DriftDataset(
            t=np.array([0.0, 1.0, 2.0, 3.0, 1e308]),
            features=np.zeros((5, 1)),
            y=np.array([0, 1, 0, 1, 1]),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteLoss, match="soft distances are not finite") as err:
                combined_loss(np.zeros(2), ds, TrainConfig(gamma=0.1), step=4)
        assert err.value.epoch == 4

    @pytest.mark.parametrize("gamma", [0.0, 0.1])
    def test_nan_logits_fail_the_rows_own_check(self, gamma):
        # some logits are 1e308 - 1e308 = NaN, so some weights |p - y| are
        # NaN: the row stays out of the weighted_soft_t stack
        ds = small_dataset(n=40)
        theta = np.array([1e308, -1e308, 0.0, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteLoss, match="^epoch 0: loss or gradient is not finite$"):
                combined_loss(theta[None], ds, TrainConfig(gamma=gamma), step=0)

    def test_reference_times_follow_substream(self):
        # same (seed, step) twice gives the identical penalty value
        ds = small_dataset(seed=4)
        theta = np.full(5, 0.2)
        cfg = TrainConfig(gamma=0.1, seed=11)
        a = combined_loss(theta, ds, cfg, step=5)
        b = combined_loss(theta, ds, cfg, step=5)
        c = combined_loss(theta, ds, cfg, step=6)
        assert a.penalty == b.penalty
        assert a.penalty != c.penalty


# Kinds of parameter row in a stack: moderate and large random rows,
# rows so sharp on the labelling direction that the penalty is skipped
# (when the labels follow it), and rows whose logits overflow.
ROW_SCALES = {"random": 1.0, "steep": 8.0, "saturated": 1e4, "overflow": 1e308}


def loss_bits(breakdown):
    return (np.array([breakdown.cross_entropy, breakdown.penalty, breakdown.total]).tobytes(),
            breakdown.gradient.tobytes(), breakdown.penalty_skipped, breakdown.n_clamped)


def row_bits(stacked, i):
    """loss_bits of row i of a stacked LossBreakdown."""
    return loss_bits(LossBreakdown(*(np.asarray(getattr(stacked, f.name))[i]
                                     for f in dataclasses.fields(LossBreakdown))))


def assert_one_row_types(breakdown, d):
    assert [type(v) for v in (breakdown.cross_entropy, breakdown.penalty, breakdown.total,
                              breakdown.penalty_skipped, breakdown.n_clamped)] == [
        float, float, float, bool, int]
    assert breakdown.gradient.shape == (d,)


def assert_stack_shapes(stacked, c, d):
    for name in ("cross_entropy", "penalty", "total"):
        assert getattr(stacked, name).shape == (c,) and getattr(stacked, name).dtype == np.float64
    assert stacked.gradient.shape == (c, d)
    assert stacked.penalty_skipped.shape == (c,) and stacked.penalty_skipped.dtype == bool
    assert stacked.n_clamped.shape == (c,) and stacked.n_clamped.dtype.kind == "i"


def value_bits(breakdown):
    """Every field of a LossBreakdown but its gradient, as bytes."""
    return [np.asarray(getattr(breakdown, f.name)).tobytes()
            for f in dataclasses.fields(LossBreakdown) if f.name != "gradient"]


def assert_value_stage_fails_alike(thetas, ds, config, step, full_error):
    """The value stage raises full_error's class and message, unless the
    full call failed on a gradient that is not finite: then the value
    stage gives finite totals, or fails on a loss that is not finite,
    which the full call checks only after the gradients."""
    gradient_failure = f"epoch {step}: weighted soft T weight gradient is not finite"
    try:
        values = _losses(thetas, ds, config, step, gradient=False)
    except Exception as exc:
        if str(full_error) == gradient_failure and str(exc) != gradient_failure:
            event("a gradient and a loss are not finite")
            assert type(exc) is NonFiniteLoss
            assert str(exc) == f"epoch {step}: loss or gradient is not finite"
        else:
            assert (type(exc), str(exc)) == (type(full_error), str(full_error))
        return
    event("only a gradient is not finite")
    assert type(full_error) is NonFiniteLoss
    assert str(full_error) in (gradient_failure, f"epoch {step}: loss or gradient is not finite")
    assert np.isfinite(values.total).all()


class TestCombinedLosses:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(3, 80),
        gamma=st.sampled_from([0.0, 0.1, 3.0]) | st.floats(1e-3, 10.0),
        seed=st.integers(0, 2**31 - 1),
        step=st.integers(0, 10**6),
        data_seed=st.integers(0, 2**32 - 1),
        labels_follow=st.booleans(),
        heavy_tailed=st.booleans(),
        kinds=st.lists(st.sampled_from(sorted(ROW_SCALES)), min_size=1, max_size=8),
    )
    def test_rows_match_one_point_oracle(self, n, gamma, seed, step, data_seed,
                                         labels_follow, heavy_tailed, kinds):
        rng = np.random.default_rng(data_seed)
        features = rng.standard_normal((n, 4))
        direction = rng.standard_normal(5)
        if labels_follow:
            y = (features @ direction[:4] + direction[4] > 0).astype(np.int64)
        else:
            y = rng.integers(0, 2, n)
        # heavy-tailed gaps: beta times the widest gap can overflow the
        # soft distances or their weight gradients
        t = np.cumsum(rng.pareto(0.5, n)) if heavy_tailed else np.sort(rng.random(n) * 100.0)
        ds = DriftDataset(t=t, features=features, y=y)
        thetas = np.array([
            ROW_SCALES[kind] * (direction if kind == "saturated" else rng.uniform(-1.0, 1.0, 5))
            for kind in kinds
        ])
        config = TrainConfig(gamma=gamma, seed=seed)

        want, first_error = [], None
        for theta in thetas:
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    want.append(oracles.one_point_combined_loss(theta, ds, config, step))
            except Exception as exc:
                first_error = exc
                break
        if first_error is not None:
            event(f"raises {type(first_error).__name__}")
            with pytest.raises(Exception) as err:
                combined_loss(thetas, ds, config, step)
            assert type(err.value) is type(first_error)
            assert_value_stage_fails_alike(thetas, ds, config, step, err.value)
            return
        event(f"penalty skipped in {sum(w.penalty_skipped for w in want)} rows")
        got = combined_loss(thetas, ds, config, step)
        assert_stack_shapes(got, len(thetas), 5)
        assert [row_bits(got, i) for i in range(len(thetas))] == [loss_bits(w) for w in want]
        values = _losses(thetas, ds, config, step, gradient=False)
        assert values.gradient is None
        assert value_bits(values) == value_bits(got)

    @pytest.mark.parametrize("gamma", [0.0, 0.1])
    def test_mixed_stack_matches_one_row_calls(self, gamma):
        # well-separated classes: the steep row drives every |p - y| below
        # WEIGHT_FLOOR and the reversed one every |p - y| near 1, and both
        # clamp some probabilities
        ds = small_dataset(class_separation=8.0, drift_shift=0.0)
        steep = np.array([50.0, 50.0, 50.0, 50.0, 0.0])
        thetas = np.array([[0.3, -0.2, 0.1, 0.4, 0.05], steep, -steep])
        config = TrainConfig(gamma=gamma, seed=7)
        got = combined_loss(thetas, ds, config, step=2)
        assert_stack_shapes(got, 3, 5)
        for i, theta in enumerate(thetas):
            one = combined_loss(theta, ds, config, step=2)
            assert_one_row_types(one, 5)
            assert row_bits(got, i) == loss_bits(one)
            assert row_bits(got, i) == row_bits(combined_loss(theta[None], ds, config, step=2), 0)
            assert row_bits(got, i) == loss_bits(oracles.one_point_combined_loss(theta, ds, config, 2))
        assert got.penalty_skipped.tolist() == [False, gamma > 0, False]
        assert (got.penalty[[0, 2]] > 0).tolist() == [gamma > 0] * 2
        assert got.penalty[1] == 0.0
        assert got.n_clamped[0] == 0 and (got.n_clamped[1:] > 0).all()

        # a NaN row stays out of the penalty stack and fails its own check
        nan_row = np.full(5, np.nan)
        combined_loss(thetas[:1], ds, config, step=2)
        with pytest.raises(NonFiniteLoss, match="^epoch 2: loss or gradient is not finite$"):
            combined_loss(np.array([thetas[0], nan_row, thetas[2]]), ds, config, step=2)

    def test_value_only_calls_skip_the_gradient_scan(self, monkeypatch):
        # the weight gradient takes a second scan; running it for
        # gradcheck's perturbed rows would cost that command about 14%
        calls = []

        def counted(*args, _fn=soft_vca._self_excluded_logsum):
            calls.append(args[1].shape)
            return _fn(*args)

        monkeypatch.setattr(soft_vca, "_self_excluded_logsum", counted)
        times, ref = np.array([0.0, 1.0, 3.0, 7.0]), np.array([2.0, 5.0])
        weights = np.array([[0.5, 0.5, 1.0, 0.2], [1.0, 0.2, 0.0, 0.7]])
        for gradient, scans in ((False, 1), (True, 2)):
            calls.clear()
            soft_vca._soft_t(times, weights, ref, 1.0, gradient=gradient)
            assert len(calls) == scans
        calls.clear()
        weighted_soft_t(times, weights, ref, 1.0)
        assert len(calls) == 2

        thetas = np.array([[0.3, -0.2, 0.1, 0.4, 0.05], np.zeros(5), [-0.3, 0.2, 0.0, 0.1, 0.0]])
        for gradient, scans in ((False, 1), (True, 2)):
            calls.clear()
            got = _losses(thetas, small_dataset(), TrainConfig(gamma=0.1), 0, gradient=gradient)
            assert not got.penalty_skipped.any()
            assert len(calls) == scans

    @pytest.mark.parametrize("thetas", [np.zeros((2, 4)), np.zeros((2, 6)), np.zeros(4),
                                        np.zeros((1, 2, 5)), np.zeros(())])
    def test_stack_shape_checked(self, thetas):
        with pytest.raises(ValueError, match="thetas"):
            combined_loss(thetas, small_dataset(), TrainConfig(), step=0)

    def test_int_past_the_float_range_named(self):
        with pytest.raises(ValueError, match="^thetas must fit in float64$"):
            combined_loss([10**400, 0, 0, 0, 0], small_dataset(), TrainConfig(), step=0)

    def test_empty_stack_is_named(self):
        with pytest.raises(ValueError, match="^thetas must hold at least one row$"):
            combined_loss(np.zeros((0, 5)), small_dataset(), TrainConfig(), step=0)

    @pytest.mark.parametrize("step", [-1, np.int64(-1), 1.5, "7", True, None])
    @pytest.mark.parametrize("gamma", [0.0, 0.1])
    def test_step_must_be_a_non_negative_integer(self, step, gamma):
        with pytest.raises(ValueError, match="^step must be a non-negative integer$"):
            combined_loss(np.zeros(5), small_dataset(), TrainConfig(gamma=gamma), step=step)

    def test_empty_batch_is_named(self):
        ds = small_dataset()
        empty = DriftDataset(ds.t[:0], ds.features[:0], ds.y[:0])
        with pytest.raises(ValueError, match="^batch must be non-empty$"):
            combined_loss(np.zeros(5), empty, TrainConfig(), step=0)


class TestTrain:
    def test_ce_strictly_decreases_early(self):
        ds = small_dataset(seed=1, n=400, drift_shift=0.0)
        _, history = train(ds, TrainConfig(gamma=0.0, epochs=12))
        ces = [h.cross_entropy for h in history]
        assert all(b < a for a, b in zip(ces[:10], ces[1:11]))

    def test_bit_identical_to_independent_twin(self):
        ds = small_dataset(seed=5, n=120)
        config = TrainConfig(gamma=0.0, epochs=50)
        weights, _ = train(ds, config)
        twin = oracles.logistic_twin(ds.features, ds.y, LEARNING_RATE, 50)
        assert np.array_equal(weights, twin)

    def test_each_epoch_is_one_row_call(self, monkeypatch):
        # the benchmark's tracer counts calls through this binding, and
        # each must take one (d,) parameter row
        calls = []

        def counted(thetas, *args, _fn=toy_trainer.combined_loss, **kwargs):
            calls.append(np.ndim(thetas))
            return _fn(thetas, *args, **kwargs)

        monkeypatch.setattr(toy_trainer, "combined_loss", counted)
        train(small_dataset(seed=6, n=80), TrainConfig(gamma=0.1, epochs=3))
        assert calls == [1, 1, 1]

    def test_deterministic(self):
        ds = small_dataset(seed=6, n=80)
        config = TrainConfig(gamma=0.1, epochs=20, seed=2)
        a, _ = train(ds, config)
        b, _ = train(ds, config)
        assert np.array_equal(a, b)


class TestEvaluateModel:
    def test_constant_scores_give_half_auroc(self):
        ds = small_dataset(seed=7, n=100)
        summary = evaluate_model(np.zeros(5), ds)
        assert summary.auroc == 0.5

    def test_oracle_weights_on_stationary_data(self):
        ds = small_dataset(seed=8, n=800, drift_shift=0.0)
        direction = np.ones(4) / 2.0  # aligned with the class-mean axis
        theta = np.concatenate([4.0 * direction, [0.0]])
        summary = evaluate_model(theta, ds)
        assert summary.ap > 0.95
        assert summary.disagreements.size < 0.08 * len(ds)

    def test_too_few_disagreements_reported_not_raised(self):
        ds = small_dataset(seed=9, n=60, class_separation=40.0, drift_shift=0.0)
        direction = np.ones(4) / 2.0
        theta = np.concatenate([10.0 * direction, [0.0]])
        summary = evaluate_model(theta, ds)
        assert summary.vcs_result is None
        assert "disagreement" in summary.vcs_undefined_reason
        assert summary.ap == 1.0

    def test_planted_cluster_visible_in_vcs(self, uniform_band):
        ds = generate_drift_dataset(DriftSpec(n_events=9000, seed=0))
        head = DriftDataset(t=ds.t[:6300], features=ds.features[:6300], y=ds.y[:6300])
        tail = DriftDataset(t=ds.t[6300:], features=ds.features[6300:], y=ds.y[6300:])
        weights, _ = train(head, TrainConfig(gamma=0.0, epochs=200))
        summary = evaluate_model(weights, tail)
        assert summary.vcs_result is not None
        assert summary.vcs_result.vcs > uniform_band["p999"]


    @pytest.mark.parametrize("weights, message", [
        ([10**400] * 5, "finite"), ([np.inf] * 5, "finite"), ([np.nan] * 5, "finite"),
        (np.zeros(4), r"\(d,\) with d the feature count \+ 1"),
        (np.zeros((1, 5)), r"\(d,\) with d the feature count \+ 1"),
    ])
    def test_weights_checked(self, weights, message):
        with pytest.raises(ValueError, match=f"^weights must be {message}$"):
            evaluate_model(weights, small_dataset(seed=7, n=100))

    def test_numeric_strings_read_as_their_floats(self):
        ds = small_dataset(seed=7, n=100)
        assert evaluate_model(["1"] * 5, ds).ap == evaluate_model(np.ones(5), ds).ap


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
        # Python floats, so each field is written as its shortest round-trip repr
        first = history[0]
        assert all(type(v) is float for v in (first.cross_entropy, first.penalty, first.total))
        assert lines[1] == f"0,{first.cross_entropy!r},{first.penalty!r},{first.total!r}"
        assert float(ce) + float(pen) == pytest.approx(float(total), abs=1e-12)


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(gamma=-1.0)
        for gamma in (np.nan, np.inf, 10**400):
            with pytest.raises(ValueError, match="^gamma must be finite"):
                TrainConfig(gamma=gamma)
        # a bool is not an integer
        for epochs in (2.5, True, False):
            with pytest.raises(ValueError, match="^epochs must be a positive integer"):
                TrainConfig(epochs=epochs)
        # rejected at construction, not at the first penalty step
        for seed in (-1, np.int64(-1), 1.5, np.nan, True, False):
            with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
                TrainConfig(seed=seed)
