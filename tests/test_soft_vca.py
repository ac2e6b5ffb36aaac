import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
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
from vcseval.soft_vca import FALLBACK_BETA, TARGET_SHARPNESS, _soft_t

from . import oracles


class TestSoftNnDistance:
    def test_single_neighbor_collapses_to_exact_distance(self):
        assert soft_nn_distance([1.0, 3.0], 0, 1.0) == 2.0
        assert soft_nn_distance([1.0, 3.0], -1, 1.0) == 2.0
        assert soft_nn_distance([1.0, 3.0], np.int64(1), 1.0) == 2.0

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

    def test_beta_must_be_positive_and_finite(self):
        for fn in (soft_nn_distance, soft_nn_gradient):
            for beta in (0.0, -1.0, math.inf, math.nan, 10**400):
                with pytest.raises(ValueError, match="beta must be positive and finite"):
                    fn([0.0, 1.0, 3.0], 0, beta)

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
        assert soft_nn_gradient([2.0, 5.0], 1, 1.0).tolist() == [-1.0, 1.0]

    def test_symmetric_neighbors_cancel(self):
        assert soft_nn_gradient([0.0, 1.0, 2.0], 1, 2.0)[1] == pytest.approx(0.0, abs=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(3, 10))
            times = np.cumsum(0.3 + rng.random(n))  # spacing keeps points tie-free
            err = finite_difference_check(
                lambda points: ([soft_nn_distance(point, 0, 5.0) for point in points],
                                soft_nn_gradient(points[0], 0, 5.0)), times, 1e-6)
            assert err <= 1e-5


class TestScanMatchesMaskOracle:
    """Every entry of the scan against the per-entry masked log-sum-exp.

    Distances agree to 1e-12 and gradient entries to 1e-10, on sets
    with ties from times rounded to a coarse grid.
    """

    def test_every_entry_matches_mask_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            n = int(rng.integers(2, 41))
            times = np.round(rng.random(n) * 50, int(rng.choice([0, 1, 15])))
            beta = float(10 ** rng.uniform(-1, 3))
            for i in range(n):
                got = soft_nn_distance(times, i, beta)
                assert abs(got - oracles.mask_soft_nn_distance(times, i, beta)) <= 1e-12
                want_self, want = oracles.mask_soft_nn_gradient(times, i, beta)
                want[i] = want_self
                assert np.abs(soft_nn_gradient(times, i, beta) - want).max() <= 1e-10


class TestStackedSoftNn:
    """A (c, n) stack of point sets gives one soft minimum per row, each
    with the bits of the one-point call on that row, also where a row has
    ties, where a step reorders its points and where the soft minimum is
    not finite."""

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 12),
        c=st.integers(1, 9),
        decimals=st.sampled_from([0, 1, 15]),
        step=st.sampled_from([1e-6, 1e-2]) | st.floats(0.1, 20.0),
        beta=st.floats(1e-2, 1e3) | st.sampled_from([1e300, 1e308]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_match_one_point_calls(self, n, c, decimals, step, beta, seed):
        rng = np.random.default_rng(seed)
        # a coarse grid gives ties
        base = np.round(rng.random(n) * 10, decimals)
        # each row moves one point by +-step, as a finite difference does
        stack = np.tile(base, (c, 1))
        stack[np.arange(c), rng.integers(0, n, c)] += step * rng.choice([-1.0, 1.0], c)
        index = int(rng.integers(0, n))
        base_order = np.argsort(base, kind="stable")
        event("ties" if np.unique(base).size < n else "no ties")
        if any((np.argsort(row, kind="stable") != base_order).any() for row in stack):
            event("a row is reordered")

        want, first_error = [], None
        for row in stack:
            try:
                want.append(oracles.one_point_soft_nn_distance(row, index, beta).hex())
            except ValueError as exc:
                first_error = exc
                break
        if first_error is not None:
            event("raises")
            with pytest.raises(type(first_error), match=str(first_error)):
                soft_nn_distance(stack, index, beta)
            return
        got = soft_nn_distance(stack, index, beta)
        assert got.shape == (c,)
        assert [float(d).hex() for d in got] == want
        one = soft_nn_distance(stack[0], index, beta)
        assert type(one) is float and one.hex() == want[0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_row_raises(self, bad):
        stack = np.array([[0.0, 1.0, 3.0], [0.0, bad, 3.0], [2.0, 1.0, 0.5]])
        with pytest.raises(ValueError, match="times must be finite"):
            soft_nn_distance(stack, 0, 1.0)

    def test_shapes(self):
        with pytest.raises(InsufficientSet):
            soft_nn_distance(np.zeros((3, 1)), 0, 1.0)
        with pytest.raises(ValueError, match=r"\(n,\) or \(c, n\)"):
            soft_nn_distance(np.zeros((2, 2, 3)), 0, 1.0)


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
            err = finite_difference_check(
                lambda rows: (weighted_soft_t(times, rows, ref, beta).t_soft,
                              weighted_soft_t(times, rows[0], ref, beta).weight_gradient),
                w0, 1e-6)
            assert err <= 1e-5

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
        for beta in (0.0, -1.0, math.inf, math.nan, 10**400):
            with pytest.raises(ValueError, match="^beta must be positive and finite$"):
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


@st.composite
def weight_stacks(draw):
    """Tied times, a (c, n) stack whose rows have zeros and >= 2 positives."""
    n, c = draw(st.integers(2, 60)), draw(st.integers(1, 25))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    decimals = draw(st.sampled_from([0, 1, 15]))
    times = np.round(rng.random(n) * 50, decimals)
    ref = np.round(rng.random(int(rng.integers(1, 13))) * 60 - 5, decimals)
    rows = rng.random((c, n))
    rows[rng.random((c, n)) < draw(st.floats(0.0, 0.9))] = 0.0
    for row in rows:
        positive = rng.choice(n, size=2, replace=False)
        row[positive] = np.maximum(row[positive], 0.5)
    beta = 10.0 ** draw(st.floats(-1.0, 3.0))
    return times, rows, ref, beta


def _call(fn, *args):
    try:
        return fn(*args)
    except (ValueError, VcsEvalError) as exc:
        return exc


def _stages_agree(times, weights, ref, beta):
    """weighted_soft_t's SoftTrial or error, once its value stage gave the
    same values bit for bit, or the same error class and message. The
    value stage alone may succeed only where the weight gradient is not
    finite. Neither call may emit a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        full = _call(weighted_soft_t, times, weights, ref, beta)
        values = _call(lambda *args: _soft_t(*args, gradient=False), times, weights, ref, beta)
    if isinstance(values, Exception):
        assert (type(values), str(values)) == (type(full), str(full))
    elif isinstance(full, Exception):
        assert type(full) is NonFiniteGradient
        event("only the weight gradient is not finite")
    else:
        assert values.weight_gradient is None
        for name in ("t_soft", "d_r_soft", "d_disg_soft"):
            got, want = getattr(values, name), getattr(full, name)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    return full


def _outcome(times, weights, ref, beta):
    got = _stages_agree(times, weights, ref, beta)
    if isinstance(got, VcsEvalError):
        return type(got)
    if isinstance(got, Exception):
        raise got
    return got


class TestStackedRows:
    """A (c, n) stack of weight rows against c one-row calls.

    Every field of every row is bit-identical, and a stack with one
    invalid row raises the error class that row raises alone.
    """

    @settings(max_examples=200, deadline=None)
    @given(weight_stacks())
    def test_rows_match_one_row_calls_bit_for_bit(self, case):
        times, rows, ref, beta = case
        alone = [_outcome(times, row, ref, beta) for row in rows]
        failed = [got for got in alone if isinstance(got, type)]
        stacked = _outcome(times, rows, ref, beta)
        if failed:
            assert stacked in failed
            return
        assert stacked.weight_gradient.shape == rows.shape
        for i, one in enumerate(alone):
            assert stacked.t_soft[i] == one.t_soft
            assert stacked.d_r_soft[i] == one.d_r_soft
            assert stacked.d_disg_soft[i] == one.d_disg_soft
            assert np.array_equal(stacked.weight_gradient[i], one.weight_gradient)

    @settings(max_examples=200, deadline=None)
    @given(weight_stacks(), st.sampled_from(["all_zero", "one_positive", "above_one",
                                             "negative", "nan"]), st.data())
    def test_invalid_row_raises_its_own_error(self, case, kind, data):
        times, rows, ref, beta = case
        bad = rows[data.draw(st.integers(0, rows.shape[0] - 1))]
        if kind in ("all_zero", "one_positive"):
            bad[:] = 0.0
            if kind == "one_positive":
                bad[0] = 0.5
        else:
            bad[0] = {"above_one": 1.5, "negative": -0.1, "nan": math.nan}[kind]
        want = {"all_zero": AllZeroWeights, "one_positive": InsufficientSet}.get(kind, ValueError)
        for weights in (bad, rows):
            with pytest.raises(want) as err:
                weighted_soft_t(times, weights, ref, beta)
            assert type(err.value) is want
            assert type(_stages_agree(times, weights, ref, beta)) is want

    @pytest.mark.parametrize("times, weights, ref, beta", [
        # weights outside [0, 1], too few positive, or of the wrong shape
        ([1.0, 2.0, 3.0], [0.5, 0.5, 1.5], [1.5], 1.0),
        ([1.0, 2.0, 3.0], [[0.5, 0.5, 0.5], [0.5, -0.1, 0.5]], [1.5], 1.0),
        ([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [1.5], 1.0),
        ([1.0, 2.0, 3.0], [[0.5, 0.5, 0.5], [1.0, 0.0, 0.0]], [1.5], 1.0),
        ([1.0, 2.0, 3.0], [0.5, 0.5], [1.5], 1.0),
        # times, reference times or beta not finite, or no reference time
        ([1.0, math.nan, 3.0], [0.5, 0.5, 0.5], [1.5], 1.0),
        ([1.0, 2.0, 3.0], [0.5, 0.5, 0.5], [math.inf], 1.0),
        ([1.0, 2.0, 3.0], [0.5, 0.5, 0.5], [], 1.0),
        ([1.0, 2.0, 3.0], [0.5, 0.5, 0.5], [1.5], math.nan),
        ([1.0, 2.0, 3.0], [0.5, 0.5, 0.5], [1.5], math.inf),
        # beta times every gap underflows: the soft distances overflow
        ([0.0, 1.0, 3.0], [[0.5, 0.5, 1.0], [1.0, 0.2, 0.0]], [2.0], 5e-324),
        # reference times of another shape than (r,)
        ([1.0, 2.0, 3.0], [0.5, 0.5, 0.5], 1.5, 1.0),
        ([1.0, 2.0, 3.0], [[0.5, 0.5, 0.5], [1.0, 0.2, 0.0]], [[1.5, 2.5]], 1.0),
        # finite soft distances near 1.5e308 whose mean overflows, so
        # d_disg_soft, and with it every gradient entry, is not finite
        ([0.0, 1.5e308], [1.0, 1.0], [0.0, 1.5e308], 1e-300),
    ])
    def test_value_stage_fails_as_the_full_call(self, times, weights, ref, beta):
        assert isinstance(_stages_agree(times, weights, ref, beta), Exception)

    def test_value_stage_succeeds_where_only_the_gradient_overflows(self):
        # test_overflowing_gradient_raises's case, as one row and in a stack
        times, weights, ref = [0.0, 1.0, 200.0, 201.0], [1.0, 0.0, 1.0, 1.0], [100.0]
        for stack in (weights, [[0.5, 0.5, 0.5, 0.5], weights]):
            with pytest.raises(NonFiniteGradient):
                weighted_soft_t(times, stack, ref, 5.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                trial = _soft_t(times, stack, ref, 5.0, gradient=False)
                assert np.isfinite(trial.t_soft).all()


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
        for gamma in (np.nan, np.inf, 10**400):
            with pytest.raises(ValueError, match="^gamma must be finite"):
                vca_penalty(0.3, gamma)
        for t_soft, rule in [(np.nan, "finite"), (np.array([0.3, np.nan]), "finite"),
                             (10**400, "finite"), (1j, "real, not complex")]:
            with pytest.raises(ValueError, match=f"^t_soft must be {rule}$"):
                vca_penalty(t_soft, 0.1)

    def test_real_input_keeps_its_type(self):
        value, slope = vca_penalty(0.3, 0.1)
        assert type(value) is float and type(slope) is float
        assert (value, slope) == (0.1 * 0.2 * 0.2, -2.0 * 0.1 * 0.2)
        value, slope = vca_penalty(np.array([0.3, 0.5]), 0.1)
        assert isinstance(value, np.ndarray) and isinstance(slope, np.ndarray)


class TestEffectiveBeta:
    def test_adaptive_beta_from_median_gap(self):
        # gaps 1, 2, 4 -> median 2 -> beta 2.5
        assert effective_beta([0.0, 1.0, 3.0, 7.0]) == pytest.approx(2.5)

    def test_fallback_when_all_gaps_zero(self):
        assert effective_beta([5.0, 5.0, 5.0]) == FALLBACK_BETA

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 1.0, 2.5, 7.0]) | st.floats(-1e6, 1e6),
                    min_size=1, max_size=30))
    @example([0.0, 1.0, 3.0, 7.0])  # three positive gaps
    @example([0.0, 1.0, 3.0, 7.0, 8.0])  # four positive gaps
    @example([0.0, 0.0, 2.0, 2.0, 5.0, 5.0, 6.0])  # ties give zero gaps
    def test_matches_numpy_median(self, times):
        gaps = np.diff(np.sort(times))
        positive = gaps[gaps > 0]
        with np.errstate(over="ignore"):
            want = TARGET_SHARPNESS / np.median(positive) if positive.size else FALLBACK_BETA
        if want == math.inf:
            with pytest.raises(ValueError, match="beta outside the float64 range"):
                effective_beta(times)
        else:
            assert effective_beta(times) == want

    def test_gaps_past_float_range_rejected(self):
        for times in ([0.0, 5e-324], [-1e308, 1e308]):
            with pytest.raises(ValueError, match="beta outside the float64 range"):
                effective_beta(times)


class TestFiniteDifferenceCheck:
    @staticmethod
    def square(points):
        return (points * points).sum(axis=1), 2.0 * points[0]

    @staticmethod
    def with_gradient(values, gradient):
        """A value function returning values(points) and a fixed gradient."""
        return lambda points: (values(points), gradient)

    def test_quadratic_is_nearly_exact(self):
        x = np.array([1.0, -2.0, 0.5])
        assert finite_difference_check(self.square, x, 1e-6) <= 1e-9

    def test_detects_wrong_gradient(self):
        x = np.array([1.0, 2.0])
        # deliberately wrong scale
        value = self.with_gradient(lambda points: (points * points).sum(axis=1), 3.0 * x)
        assert finite_difference_check(value, x, 1e-6) > 1e-2

    def test_nan_gradient_is_infinite_error(self):
        value = self.with_gradient(lambda points: np.full(len(points), math.nan),
                                   [math.nan, math.nan])
        assert finite_difference_check(value, [1.0, 2.0], 1e-6) == math.inf

    def test_non_finite_difference_is_infinite_error(self):
        value = self.with_gradient(lambda points: np.where(points[:, 0] > 1.0, math.inf, 0.0),
                                   [0.0])
        assert finite_difference_check(value, [1.0], 1e-6) == math.inf

    @pytest.mark.parametrize("step", (0.0, -1e-6, math.inf, math.nan,
                                      pytest.param(10**400, id="int-past-float-range")))
    def test_step_not_positive_and_finite_rejected(self, step):
        with pytest.raises(ValueError, match="step must be positive and finite"):
            finite_difference_check(self.square, [1.0], step)

    def test_int_point_past_the_float_range_named(self):
        with pytest.raises(ValueError, match="^point must fit in float64$"):
            finite_difference_check(self.square, [10**400])

    def test_value_called_once_on_the_stack(self):
        x = np.array([1.0, -2.0, 0.5])
        stacks = []

        def value(points):
            stacks.append(points.copy())
            return self.square(points)

        finite_difference_check(value, x, 0.25)
        (stack,) = stacks
        shift = np.diag(np.full(3, 0.25))
        assert np.array_equal(stack, np.concatenate((x[None], x + shift, x - shift)))

    def test_point_must_be_1d(self):
        with pytest.raises(ValueError, match="point must be 1-d"):
            finite_difference_check(self.square, [[1.0, 2.0]], 1e-6)

    def test_wrong_value_count_rejected(self):
        x = np.array([1.0, 2.0])
        for values in (lambda points: 0.0,
                       lambda points: (points * points).sum(axis=1)[1:],
                       lambda points: np.zeros((len(points), 1))):
            with pytest.raises(ValueError, match="one value per row"):
                finite_difference_check(self.with_gradient(values, 2.0 * x), x, 1e-6)

    def test_wrong_gradient_shape_rejected(self):
        x = np.array([1.0, 2.0])
        for gradient in ([2.0], np.zeros((1, 2)), 2.0):
            value = self.with_gradient(lambda points: (points * points).sum(axis=1), gradient)
            with pytest.raises(ValueError, match="gradient of the point's shape"):
                finite_difference_check(value, x, 1e-6)

    def test_empty_point_is_zero_error(self):
        def value(points):
            raise AssertionError("value is not called for an empty point")

        assert finite_difference_check(value, [], 1e-6) == 0.0


# an int past the float range is not finite either
NON_FINITE = (math.nan, math.inf, -math.inf, pytest.param(10**400, id="int-past-float-range"))


class TestNonFiniteInput:
    """Each soft entry point names a NaN or infinite argument, or one of
    the wrong shape, in a ValueError."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_effective_beta(self, bad):
        with pytest.raises(ValueError, match="timestamps must be finite"):
            effective_beta([0.0, bad, 1.0, 2.0])

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_soft_nn(self, bad):
        for fn in (soft_nn_distance, soft_nn_gradient):
            with pytest.raises(ValueError, match="times must be finite"):
                fn([0.0, bad, 2.0], 0, 1.0)

    def test_soft_nn_gradient_rejects_a_stack(self):
        # soft_nn_distance scores a (c, n) stack; its gradient takes one set
        times = np.random.default_rng(0).random((3, 5))
        with pytest.raises(ValueError, match="^times must be 1-d$"):
            soft_nn_gradient(times, 0, 2.0)

    @pytest.mark.parametrize("index", [3, -4, 1.0, np.float64(0.0), True, np.True_, None],
                             ids=["n", "-n-1", "float", "np.float64", "bool", "np.bool_", "None"])
    def test_soft_nn_index_outside_times(self, index):
        times = [0.0, 1.0, 3.0]
        for fn, points in ((soft_nn_distance, times), (soft_nn_distance, [times, times]),
                           (soft_nn_gradient, times)):
            with pytest.raises(ValueError, match="^index must be an integer position in times$"):
                fn(points, index, 1.0)

    @pytest.mark.parametrize("ref", [3.0, [[0.5, 1.5]]], ids=["scalar", "1x2"])
    def test_weighted_soft_t_rejects_other_reference_shapes(self, ref):
        times = [0.0, 1.0, 2.0]
        for call in (lambda: weighted_soft_t(times, [0.5, 0.5, 0.5], ref, 1.0),
                     lambda: weighted_soft_t(times, [[0.5, 0.5, 0.5]] * 2, ref, 1.0),
                     lambda: soft_t(times, ref, 1.0)):
            with pytest.raises(ValueError, match="^random_times must be 1-d$"):
                call()

    @pytest.mark.parametrize("timestamps", [[[0.0, 10.0], [0.0, 1.0]], 3.0], ids=["2x2", "scalar"])
    def test_effective_beta_rejects_other_shapes(self, timestamps):
        # row-wise gaps of the 2x2 input would give 0.909 against 1.0 flat
        with pytest.raises(ValueError, match="^timestamps must be 1-d$"):
            effective_beta(timestamps)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_weighted_soft_t(self, bad):
        times, w, ref = [0.0, 1.0, 2.0], [0.5, 0.5, 0.5], [0.5]
        with pytest.raises(ValueError, match="weights must lie in"):
            weighted_soft_t(times, [0.5, bad, 0.5], ref, 1.0)
        with pytest.raises(ValueError, match="timestamps must be finite"):
            weighted_soft_t([0.0, bad, 2.0], w, ref, 1.0)
        with pytest.raises(ValueError, match="timestamps must be finite"):
            soft_t([0.0, bad, 2.0], ref, 1.0)
        with pytest.raises(ValueError, match="random_times must be finite"):
            weighted_soft_t(times, w, [0.5, bad], 1.0)


def _weighted_outputs(times, ref, beta):
    trial = weighted_soft_t(times, np.full(times.size, 0.5), ref, beta)
    return [trial.t_soft, trial.d_r_soft, trial.d_disg_soft, *trial.weight_gradient]


class TestExtremeBeta:
    """Beta near the float64 limit, where beta times a gap overflows.

    Every result is finite, or ValueError or NonFiniteGradient is
    raised; numpy emits no warning.
    """

    @pytest.mark.parametrize("beta", [1e300, 1e308, 1.7e308])
    def test_finite_or_raises(self, beta):
        rng = np.random.default_rng(10)
        calls = (
            lambda t, ref: [soft_nn_distance(t, 0, beta)],
            lambda t, ref: soft_nn_gradient(t, 0, beta),
            lambda t, ref: _weighted_outputs(t, ref, beta),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(100):
                times = rng.random(int(rng.integers(2, 13))) * 10
                ref = rng.random(3) * 10
                for call in calls:
                    try:
                        out = call(times, ref)
                    except (ValueError, NonFiniteGradient):
                        continue
                    assert np.isfinite(out).all()

    @pytest.mark.parametrize("beta", [1e-320, 5e-324])
    def test_subnormal_beta_names_the_soft_distances(self, beta):
        # beta times every gap underflows, so -log S / beta overflows
        times, ref = np.array([0.0, 1.0, 3.0]), np.array([2.0])
        calls = (
            lambda: weighted_soft_t(times, [0.5, 0.5, 1.0], ref, beta),
            lambda: weighted_soft_t(times, [[0.5, 0.5, 1.0], [1.0, 0.2, 0.0]], ref, beta),
            lambda: soft_t(times, ref, beta),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(ValueError, match="soft distances are not finite at this beta"):
                    call()
