import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcseval import (
    EvalStream,
    InstanceMetricSpec,
    LengthMismatch,
    NoPositives,
    OneClassOnly,
    auroc,
    average_precision,
    hamming_disagreement,
    instance_metric,
)

from . import oracles


def stream_from(ys, ps, ts=None):
    return EvalStream(ts or list(range(len(ys))), ys, ps)


class TestHamming:
    def test_identity(self):
        assert hamming_disagreement([1, 0, 1], [1, 0, 1]) == 0

    def test_complement(self):
        y = [0, 1, 0, 1, 1]
        assert hamming_disagreement(y, [1 - v for v in y]) == 5

    def test_hand_count(self):
        assert hamming_disagreement([1, 0, 1, 1], [1, 1, 1, 0]) == 2

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            hamming_disagreement([1, 0], [1])

    def test_label_validation(self):
        with pytest.raises(ValueError):
            hamming_disagreement([1, 2], [0, 1])

    @pytest.mark.parametrize(
        "y,y_hat,name",
        [
            ([0.5, 1.7, 1], [0, 1, 1], "y"),
            ([0.9, 1], [0, 1], "y"),
            ([0, 1], [0, 1.0000001], "y_hat"),
            ([0, np.nan], [0, 1], "y"),
            ([0, 1], [np.inf, 1], "y_hat"),
            ([-np.inf, 1], [0, 1], "y"),
            ([0, 2**63], [0, 1], "y"),
        ],
        ids=["fractions", "fraction-below-one", "just-above-one", "nan", "inf", "minus-inf",
             "beyond-int64"],
    )
    def test_non_labels_rejected_before_any_cast(self, y, y_hat, name):
        for call in (lambda: hamming_disagreement(y, y_hat),
                     lambda: instance_metric(InstanceMetricSpec(), y, y_hat)):
            with pytest.raises(ValueError, match=f"^{name} entries must be 0 or 1$"):
                call()

    def test_int_past_the_float_range_named(self):
        for call in (lambda: hamming_disagreement([1, 0], [10**400, 0]),
                     lambda: instance_metric(InstanceMetricSpec(), [1, 0], [10**400, 0])):
            with pytest.raises(ValueError, match=r"^y_hat entries must be 0 or 1$"):
                call()

    @pytest.mark.parametrize("y", [[], [[0, 1], [1, 0]]], ids=["empty", "2-d"])
    def test_empty_or_2d_label_list_rejected(self, y):
        with pytest.raises(ValueError, match="^y must be a nonempty 1-d label list$"):
            hamming_disagreement(y, y)

    def test_float_and_bool_labels_count_as_ints(self):
        assert hamming_disagreement([0.0, 1.0, True], np.array([1, 1, 1], np.int8)) == 1


class TestInstanceMetric:
    def test_sum_equals_c_times_h(self):
        spec = InstanceMetricSpec(1.0, "sum")
        assert instance_metric(spec, [1, 0, 1, 1], [1, 1, 1, 0]) == 2.0

    def test_one_minus_mean_is_accuracy(self):
        spec = InstanceMetricSpec(1.0, "one_minus_mean")
        assert instance_metric(spec, [1, 0, 1], [1, 0, 1]) == 1.0

    def test_weighted_mean(self):
        spec = InstanceMetricSpec(3.0, "mean")
        assert instance_metric(spec, [1, 0, 1, 1], [1, 1, 1, 0]) == 1.5

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            InstanceMetricSpec(-1.0, "sum")
        for weight in (np.nan, np.inf, 10**400):
            with pytest.raises(ValueError, match="^mismatch_weight must be positive and finite"):
                InstanceMetricSpec(weight, "sum")
        with pytest.raises(ValueError):
            InstanceMetricSpec(1.0, "median")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 64), st.integers(0, 10**6), st.floats(0.01, 100.0))
    def test_counting_collapse(self, m, seed, c):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, m)
        h = int(rng.integers(0, m + 1))
        y_hat1, y_hat2 = y.copy(), y.copy()
        flip1 = rng.choice(m, size=h, replace=False)
        flip2 = rng.choice(m, size=h, replace=False)
        y_hat1[flip1] = 1 - y_hat1[flip1]
        y_hat2[flip2] = 1 - y_hat2[flip2]
        assert hamming_disagreement(y, y_hat1) == hamming_disagreement(y, y_hat2) == h
        for agg in ("sum", "mean", "one_minus_mean"):
            spec = InstanceMetricSpec(c, agg)
            a = instance_metric(spec, y, y_hat1)
            b = instance_metric(spec, y, y_hat2)
            assert a == b  # bit-identical, not merely close


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision(stream_from([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1])) == 1.0

    def test_all_positive(self):
        assert average_precision(stream_from([1, 1, 1], [0.2, 0.9, 0.5])) == 1.0

    def test_hand_example(self):
        ap = average_precision(stream_from([1, 0, 1], [0.9, 0.8, 0.7]))
        assert ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)

    def test_no_positives(self):
        with pytest.raises(NoPositives):
            average_precision(stream_from([0, 0], [0.1, 0.2]))

    def test_ties_keep_input_order(self):
        # identical scores: ranking is input order, so AP is order-dependent
        first = average_precision(stream_from([1, 0], [0.5, 0.5]))
        second = average_precision(stream_from([0, 1], [0.5, 0.5]))
        assert first == 1.0 and second == 0.5

    def test_against_direct_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(2, 30))
            y = rng.integers(0, 2, n)
            if y.sum() == 0:
                y[0] = 1
            p = np.round(rng.random(n), 2)  # rounding forces score ties
            got = average_precision(stream_from(list(y), list(p)))
            want = oracles.average_precision_direct(list(y), list(p))
            assert got == pytest.approx(want, abs=1e-12)


class TestAuroc:
    def test_perfect(self):
        assert auroc(stream_from([1, 1, 0], [0.9, 0.8, 0.1])) == 1.0

    def test_all_tied_scores(self):
        assert auroc(stream_from([1, 0, 1, 0], [0.5, 0.5, 0.5, 0.5])) == 0.5

    def test_hand_example(self):
        assert auroc(stream_from([1, 0, 1], [0.9, 0.8, 0.7])) == 0.5

    def test_one_class_only(self):
        with pytest.raises(OneClassOnly):
            auroc(stream_from([1, 1], [0.2, 0.4]))

    def test_against_pairwise_enumeration(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            n = int(rng.integers(2, 30))
            y = rng.integers(0, 2, n)
            y[0], y[1] = 0, 1
            p = np.round(rng.random(n), 2)
            got = auroc(stream_from(list(y), list(p)))
            want = oracles.auroc_direct(list(y), list(p))
            assert got == want  # both count exactly

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(17)
        y = list(rng.integers(0, 2, 40))
        y[0], y[1] = 0, 1
        p = rng.random(40)
        base = auroc(stream_from(y, list(p)))
        squashed = auroc(stream_from(y, list(0.1 + 0.8 * p**3)))
        assert squashed == pytest.approx(base, abs=1e-12)


@st.composite
def tied_streams(draw):
    """Scores rounded to 0-3 decimals, so that ties are common, with -0.0 beside
    0.0; n up to a few thousand, down to one positive or one negative."""
    n = draw(st.integers(2, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = np.round(rng.random(n), draw(st.integers(0, 3)))
    p[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0.0
    p[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = -0.0
    y = (rng.random(n) < draw(st.floats(0.0, 1.0))).astype(int)
    y[:2] = (0, 1)
    lone = draw(st.sampled_from([None, 0, 1]))
    if lone is not None:  # one positive, or one negative, at a random place
        y[:] = 1 - lone
        y[rng.integers(n)] = lone
    rng.shuffle(y)
    return stream_from(list(y), list(p))


class TestCountingMatchesRanks:
    """average_precision and auroc count; the rank-array bodies they replaced
    are the oracles, and the two agree bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(tied_streams())
    def test_bit_for_bit(self, stream):
        assert average_precision(stream) == oracles.average_precision_ranks(stream)
        assert auroc(stream) == oracles.auroc_ranks(stream)

    @pytest.mark.parametrize("positive_rate", [0.5, 0.9, 0.1], ids=["balanced", "9:1", "1:9"])
    def test_peak_memory_per_event(self, positive_rate):
        """No n-length rank arrays: each metric's traced peak stays within
        20 bytes per event, where the rank arrays took 24 to 64."""
        n = 200_000
        rng = np.random.default_rng(5)
        stream = stream_from(list((rng.random(n) < positive_rate).astype(int)),
                             list(np.round(rng.random(n), 3)))
        for metric in (average_precision, auroc):
            tracemalloc.start()
            try:
                metric(stream)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak / n <= 20, metric.__name__


    @pytest.mark.parametrize("positive_rate", [0.9, 0.1], ids=["9:1", "1:9"])
    def test_unbalanced_classes(self, positive_rate):
        """Each class is sorted in its masked copy and the smaller class is
        searched in the larger, so with 9:1 classes either way AU-ROC peaks
        at about 9 bytes per event; a second, sorted copy of each class and
        index arrays as long as the larger class took 15.2."""
        n = 200_000
        rng = np.random.default_rng(6)
        stream = stream_from(list((rng.random(n) < positive_rate).astype(int)),
                             list(np.round(rng.random(n), 3)))
        tracemalloc.start()
        try:
            got = auroc(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == oracles.auroc_ranks(stream)
        assert peak / n <= 10


class TestTimeBlindness:
    def test_metrics_ignore_timestamps(self):
        y = [1, 0, 1, 0, 1]
        p = [0.9, 0.7, 0.6, 0.3, 0.2]
        a = stream_from(y, p, ts=[0, 1, 2, 3, 4])
        b = stream_from(y, p, ts=[0, 100, 5000, 5001, 9999])
        assert average_precision(a) == average_precision(b)
        assert auroc(a) == auroc(b)
