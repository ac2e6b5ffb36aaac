import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vcseval import (
    AllZeroWeights,
    InsufficientSet,
    NonFiniteGradient,
    VcsEvalError,
    effective_beta,
    finite_difference_check,
    soft_nn_distance,
    soft_nn_gradient,
    soft_t,
    vca_penalty,
    weighted_soft_t,
)
from vcseval.soft_vca import FALLBACK_BETA

from . import oracles


class TestSoftNnDistance:
    def test_single_neighbor_collapses_to_exact_distance(self):
        assert soft_nn_distance([1.0, 3.0], 0, 1.0) == 2.0

    def test_two_equidistant_neighbors(self):
        got = soft_nn_distance([0.0, 1.0, 2.0], 1, 1.0)
        assert got == pytest.approx(1.0 - math.log(2.0), abs=1e-12)

    def test_sharp_beta_approaches_hard_min(self):
        got = soft_nn_distance([0.0, 1.0, 100.0], 0, 50.0)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_insufficient(self):
        with pytest.raises(InsufficientSet):
            soft_nn_distance([1.0], 0, 1.0)
        with pytest.raises(InsufficientSet):
            soft_nn_gradient([1.0], 0, 1.0)

    def test_duplicate_timestamp_is_another_entry(self):
        # exclusion is by position: the twin at t=5 is at distance 0
        assert soft_nn_distance([5.0, 5.0], 0, 3.0) == 0.0
        reordered = soft_nn_distance([5.0, 9.0, 5.0], 0, 3.0)
        assert soft_nn_distance([5.0, 5.0, 9.0], 0, 3.0) == reordered

    def test_matches_direct_series(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            times = rng.random(int(rng.integers(3, 12))) * 10
            beta = float(rng.uniform(0.5, 20))
            got = soft_nn_distance(times, 0, beta)
            want = oracles.softmin_direct([abs(times[0] - t) for t in times[1:]], beta)
            assert got == pytest.approx(want, abs=1e-10)

    def test_bounds_against_hard_min(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 15))
            times = rng.random(n) * 50
            beta = float(rng.uniform(0.5, 50))
            soft = soft_nn_distance(times, 0, beta)
            hard = oracles.brute_nn_distance(0, times)
            assert soft <= hard + 1e-12
            assert soft >= hard - math.log(n - 1) / beta - 1e-12

    def test_monotone_convergence_in_beta(self):
        # gaps kept small enough that the log-sum correction stays far
        # above float64 resolution at every beta in the ladder
        times = np.array([0.0, 0.07, 0.19, 0.42, 0.49])
        hard = oracles.brute_nn_distance(0, times)
        errors = [
            abs(soft_nn_distance(times, 0, beta) - hard)
            for beta in (1.0, 4.0, 16.0, 64.0)
        ]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 1e-4


class TestSoftNnGradient:
    def test_single_neighbor_signs(self):
        d_self, others = soft_nn_gradient([2.0, 5.0], 1, 1.0)
        assert d_self == 1.0
        assert others.tolist() == [-1.0, 0.0]

    def test_symmetric_neighbors_cancel(self):
        d_self, _ = soft_nn_gradient([0.0, 1.0, 2.0], 1, 2.0)
        assert d_self == pytest.approx(0.0, abs=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(3, 10))
            times = np.cumsum(0.3 + rng.random(n))  # spacing keeps points tie-free

            def fn(point):
                value = soft_nn_distance(point, 0, 5.0)
                d_self, others = soft_nn_gradient(point, 0, 5.0)
                grad = others.copy()
                grad[0] = d_self
                return value, grad

            assert finite_difference_check(fn, times, 1e-6) <= 1e-5


class TestWeightedSoftT:
    def test_binary_weights_reduce_to_subset(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(4, 16))
            times = rng.random(n) * 30
            w = (rng.random(n) < 0.6).astype(float)
            if w.sum() < 2:
                w[:2] = 1.0
            ref = rng.random(5) * 30
            beta = float(rng.uniform(0.5, 10))
            full = weighted_soft_t(times, w, ref, beta)
            sub = soft_t(times[w > 0], ref, beta)
            assert abs(full.t_soft - sub.t_soft) <= 1e-12
            assert abs(full.d_disg_soft - sub.d_disg_soft) <= 1e-12
            assert abs(full.d_r_soft - sub.d_r_soft) <= 1e-12

    def test_matches_direct_loops(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(3, 10))
            times = rng.random(n) * 10
            w = 0.05 + 0.95 * rng.random(n)
            ref = rng.random(4) * 10
            beta = float(rng.uniform(0.5, 8))
            got = weighted_soft_t(times, w, ref, beta)
            want = oracles.soft_t_direct(list(times), list(w), list(ref), beta)
            assert got.t_soft == pytest.approx(want, abs=1e-10)

    def test_weight_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(4, 10))
            times = np.cumsum(0.3 + rng.random(n))
            ref = rng.random(4) * float(times[-1])
            beta = float(rng.uniform(1, 8))
            w0 = 0.1 + 0.8 * rng.random(n)

            def fn(w):
                trial = weighted_soft_t(times, w, ref, beta)
                return trial.t_soft, trial.weight_gradient

            assert finite_difference_check(fn, w0, 1e-6) <= 1e-5

    def test_errors(self):
        times = np.array([1.0, 2.0, 3.0])
        ref = np.array([1.5])
        with pytest.raises(AllZeroWeights):
            weighted_soft_t(times, np.zeros(3), ref, 1.0)
        with pytest.raises(InsufficientSet):
            weighted_soft_t(times, np.array([1.0, 0.0, 0.0]), ref, 1.0)
        with pytest.raises(ValueError):
            weighted_soft_t(times, np.array([0.5, 0.5]), ref, 1.0)
        with pytest.raises(ValueError):
            weighted_soft_t(times, np.array([0.5, 0.5, 1.5]), ref, 1.0)
        with pytest.raises(ValueError):
            weighted_soft_t(times, np.ones(3), np.array([]), 1.0)

    def test_overflowing_gradient_raises(self):
        # the zero-weight event at t=1 sits far closer to event 0 than any
        # positive-weight neighbour does; the true derivative there is
        # about -exp(995)/beta
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteGradient):
                weighted_soft_t([0.0, 1.0, 200.0, 201.0], [1.0, 0.0, 1.0, 1.0], [100.0], 5.0)
        assert issubclass(NonFiniteGradient, VcsEvalError)

    def test_beta_must_be_positive_and_finite(self):
        for beta in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                weighted_soft_t([0.0, 1.0, 2.0], np.ones(3), [0.5], beta)

    def test_large_n_is_finite(self):
        # the dense pairwise form would need a 20,000 x 20,000 matrix here
        rng = np.random.default_rng(8)
        n = 20_000
        times = rng.random(n) * 1000.0
        w = rng.random(n)
        ref = rng.random(n // 2) * 1000.0
        beta = effective_beta(times)
        trial = weighted_soft_t(times, w, ref, beta)
        assert np.isfinite([trial.t_soft, trial.d_r_soft, trial.d_disg_soft]).all()
        assert trial.weight_gradient.shape == (n,)
        assert np.isfinite(trial.weight_gradient).all()

    def test_trial_ratio_invariant(self):
        trial = weighted_soft_t(
            np.array([0.0, 1.0, 5.0]), np.ones(3), np.array([2.0, 3.0]), 2.0
        )
        assert trial.t_soft == pytest.approx(
            trial.d_r_soft / (trial.d_r_soft + trial.d_disg_soft), abs=1e-15
        )


@st.composite
def soft_t_cases(draw):
    """Unsorted times with ties, zero weights, and references past both ends."""
    n = draw(st.integers(2, 24))
    coord = st.floats(-1e3, 1e3, allow_nan=False)
    pool = draw(st.lists(coord, min_size=1, max_size=n))
    times = np.array(draw(st.lists(st.sampled_from(pool) | coord, min_size=n, max_size=n)))
    weights = np.array(draw(st.lists(st.just(0.0) | st.floats(0.0, 1.0), min_size=n, max_size=n)))
    positive = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    weights[positive] = np.maximum(weights[positive], 0.5)
    span = float(np.ptp(times))
    if span > 0:
        lo, hi = times.min() - span, times.max() + span
    else:
        lo, hi = times[0] - 1.0, times[0] + 1.0
    ref = np.array(draw(st.lists(st.floats(lo, hi), min_size=1, max_size=12)))
    beta_span = 10.0 ** draw(st.floats(-1.0, 6.0))
    beta = beta_span / span if span > 0 else beta_span
    assume(math.isfinite(beta))
    return times, weights, ref, beta


def oracle_error_bounds(want, weights, beta, rel):
    """First-order error bounds on weighted_soft_t's outputs.

    Soft distances are -log(S)/beta, and log S carries an absolute
    rounding error of a few ulps in any implementation, so a and b get
    rel times (|value| + 1/beta): relative, with a floor of rel kernel
    lengths. t_soft = a / (a + b) and its gradient
    (da * b - a * db) / (a + b)^2 inherit bounds from a, b, da and db;
    db contains d_ev - b, which cancels when every event has the same
    soft distance, so its error scales with |b| / sum(w).
    """
    a, b = want.d_r_soft, want.d_disg_soft
    floor = 1.0 / beta
    err_a, err_b = abs(a) + floor, abs(b) + floor
    denom = a + b
    err_denom = (err_a + err_b) / abs(denom)
    err_t = (abs(b) * err_a + abs(a) * err_b) / denom**2
    da, db = np.abs(want.d_r_grad), np.abs(want.d_disg_grad)
    err_g = (
        da * (abs(b) + err_b) + db * err_a + abs(a) * abs(b) / weights.sum()
    ) / denom**2 + 2 * np.abs(want.weight_gradient) * err_denom
    return rel * err_a, rel * err_b, rel * err_t, rel * err_g.max()


class TestScanMatchesDenseOracle:
    """weighted_soft_t against the dense n x n form in tests/oracles.py.

    a, b and t_soft must agree to 1e-12 and the gradient to 1e-10 of
    its max norm, each relative to oracle_error_bounds.
    """

    @settings(max_examples=300, deadline=None)
    @given(soft_t_cases())
    @example((np.array([0.0] * 9 + [-1.0]), np.array([0.5, 0.5] + [0.0] * 8),
              np.array([0.0]), 1e6))
    @example((np.array([0.0, 1.0, 1.0 + 3e-7, 1.0 + 5e-7]), np.ones(4),
              np.array([1.0 + 1e-7, 2.0]), 1e6))
    @example((np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]), np.array([0.5, 0, 0, 1, 0, 0]),
              np.array([0.0]), 100.0))
    @example((np.array([0.0, 0.0, 0.0, 1.0, 1.0]), np.array([0.5, 0.5, 0, 0, 0]),
              np.array([0.0]), 1000.0))
    def test_matches_dense_oracle(self, case):
        times, weights, ref, beta = case
        with np.errstate(all="ignore"):
            want = oracles.dense_weighted_soft_t(times, weights, ref, beta)
        dense_finite = np.isfinite(want.weight_gradient).all()
        try:
            got = weighted_soft_t(times, weights, ref, beta)
        except NonFiniteGradient:
            assert not dense_finite
            return
        tol_a, tol_b, tol_t, _ = oracle_error_bounds(want, weights, beta, 1e-12)
        assert abs(got.d_r_soft - want.d_r_soft) <= tol_a
        assert abs(got.d_disg_soft - want.d_disg_soft) <= tol_b
        assert abs(got.t_soft - want.t_soft) <= tol_t
        # the dense form also turns 0 * exp(overflow) for zero-weight
        # rows into NaN, where the true gradient is finite
        if dense_finite:
            _, _, _, tol_g = oracle_error_bounds(want, weights, beta, 1e-10)
            assert np.abs(got.weight_gradient - want.weight_gradient).max() <= tol_g


class TestVcaPenalty:
    def test_zero_at_half(self):
        assert vca_penalty(0.5, 0.1) == (0.0, 0.0)

    def test_table_point(self):
        value, grad = vca_penalty(1.0, 0.1)
        assert value == pytest.approx(0.025, abs=1e-15)
        assert grad == pytest.approx(0.1, abs=1e-15)

    def test_gamma_zero_disables(self):
        assert vca_penalty(0.87, 0.0) == (0.0, 0.0)

    def test_symmetry_and_nonnegativity(self):
        for delta in (0.0, 0.1, 0.3, 0.5):
            lo, _ = vca_penalty(0.5 - delta, 0.2)
            hi, _ = vca_penalty(0.5 + delta, 0.2)
            assert lo == pytest.approx(hi, abs=1e-15)
            assert lo >= 0.0

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            vca_penalty(0.5, -0.1)


class TestEffectiveBeta:
    def test_adaptive_beta_from_median_gap(self):
        # gaps 1, 2, 4 -> median 2 -> beta 2.5
        assert effective_beta([0.0, 1.0, 3.0, 7.0]) == pytest.approx(2.5)

    def test_fallback_when_all_gaps_zero(self):
        assert effective_beta([5.0, 5.0, 5.0]) == FALLBACK_BETA


class TestFiniteDifferenceCheck:
    def test_quadratic_is_nearly_exact(self):
        def fn(x):
            return float(x @ x), 2.0 * x

        assert finite_difference_check(fn, np.array([1.0, -2.0, 0.5]), 1e-6) <= 1e-9

    def test_detects_wrong_gradient(self):
        def fn(x):
            return float(x @ x), 3.0 * x  # deliberately wrong scale

        assert finite_difference_check(fn, np.array([1.0, 2.0]), 1e-6) > 1e-2

    def test_nan_gradient_is_infinite_error(self):
        def fn(x):
            return float("nan"), np.full_like(x, np.nan)

        assert finite_difference_check(fn, np.array([1.0, 2.0]), 1e-6) == math.inf

    def test_non_finite_difference_is_infinite_error(self):
        def fn(x):
            return (math.inf if x[0] > 1.0 else 0.0), np.zeros_like(x)

        assert finite_difference_check(fn, np.array([1.0]), 1e-6) == math.inf

    def test_non_positive_step_rejected(self):
        def fn(x):
            return float(x @ x), 2.0 * x

        for step in (0.0, -1e-6):
            with pytest.raises(ValueError):
                finite_difference_check(fn, np.array([1.0]), step)
