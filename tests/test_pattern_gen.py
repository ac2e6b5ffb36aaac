import numpy as np
import pytest

from vcseval import (
    DriftSpec,
    PatternSpec,
    SpecViolation,
    VcsConfig,
    disagreement_set,
    generate_drift_dataset,
    generate_pattern,
    vcs,
)
from vcseval.pattern_gen import DriftDataset
from vcseval.toy_trainer import TrainConfig, evaluate_model, train

from . import oracles


class TestPatterns:
    def test_regular_placement(self):
        spec = PatternSpec("regular", n_events=8, n_errors=4, period=(0.0, 8.0), seed=1)
        stream = generate_pattern(spec)
        assert sorted(stream.t[disagreement_set(stream)].tolist()) == [1.0, 3.0, 5.0, 7.0]

    def test_regular_gaps_equal(self):
        spec = PatternSpec("regular", 500, 50, period=(0.0, 1000.0), seed=2)
        stream = generate_pattern(spec)
        times = np.sort(stream.t[disagreement_set(stream)])
        gaps = np.diff(times)
        assert np.allclose(gaps, 1000.0 / 50, atol=1e-9)

    def test_clustered_containment(self):
        spec = PatternSpec("clustered", 1000, 100, period=(0.0, 1000.0), seed=3)
        stream = generate_pattern(spec)
        times = stream.t[disagreement_set(stream)]
        assert times.min() >= 890.0 and times.max() <= 910.0

    @pytest.mark.parametrize("kind", ["random", "clustered", "regular"])
    def test_counts_and_invariants(self, kind):
        spec = PatternSpec(kind, 300, 40, seed=4)
        stream = generate_pattern(spec)
        assert len(stream) == 300
        assert np.all(np.diff(stream.t) >= 0)
        assert disagreement_set(stream, 0.5).size == 40

    @pytest.mark.parametrize("kind", ["random", "clustered", "regular"])
    def test_deterministic(self, kind):
        spec = PatternSpec(kind, 100, 10, seed=9)
        a, b = generate_pattern(spec), generate_pattern(spec)
        assert (a.t.tolist(), a.y.tolist(), a.p.tolist(), a.ids) == (
            b.t.tolist(), b.y.tolist(), b.p.tolist(), b.ids)

    def test_error_marking_convention(self):
        stream = generate_pattern(PatternSpec("random", 50, 10, seed=5))
        wrong = (stream.p >= 0.5).astype(int) != stream.y
        assert np.all(stream.y[wrong] == 1) and np.all(stream.p[wrong] == 0.1)

    def test_validation(self):
        with pytest.raises(SpecViolation):
            PatternSpec("spiral", 10, 5)
        with pytest.raises(SpecViolation):
            PatternSpec("random", 10, 1)
        with pytest.raises(SpecViolation):
            PatternSpec("random", 10, 11)
        # more float64 elements than numpy can size
        for n_events, n_errors in ((2**60, 2), (2**60, 2**60), (2**63, 2)):
            with pytest.raises(SpecViolation, match="n_events <= 1152921504606846975$"):
                PatternSpec("random", n_events, n_errors)
        with pytest.raises(SpecViolation):
            PatternSpec("random", 10, 5, period=(5.0, 5.0))
        for period in ((0.0, np.inf), (-np.inf, 0.0), (0.0, np.nan), (-1e308, 1e308)):
            with pytest.raises(SpecViolation):
                PatternSpec("random", 10, 5, period=period)
        with pytest.raises(SpecViolation):
            PatternSpec("clustered", 10, 5, cluster_width=0.0)
        for n_events, n_errors in ((10.5, 3), (10, 2.5), (np.nan, 3), (10.0, 3), (True, 3),
                                   (10, True), (10, False)):
            with pytest.raises(SpecViolation, match="must be integers"):
                PatternSpec("random", n_events, n_errors)
        assert PatternSpec("random", np.int64(10), np.int32(3)).n_errors == 3
        # a bool is not an integer
        for seed in (1.5, 2.0, -1, np.int64(-1), np.nan, "1", True, False):
            with pytest.raises(SpecViolation, match="^seed must be a non-negative integer$"):
                PatternSpec("random", 10, 5, seed=seed)
        # no upper bound: SeedSequence takes any non-negative integer
        for seed in (np.uint64(2**64 - 1), 2**100):
            assert len(generate_pattern(PatternSpec("random", 10, 5, seed=seed))) == 10

    def test_separation_quick(self, uniform_band):
        cfg = VcsConfig()
        values = {}
        for kind in ("random", "clustered", "regular"):
            spec = PatternSpec(kind, 2000, 200, seed=0)
            stream = generate_pattern(spec)
            times = stream.t[disagreement_set(stream)]
            values[kind] = vcs(times, (stream.t_start, stream.t_end), cfg).vcs
        assert values["random"] <= uniform_band["p999"]
        assert values["clustered"] > uniform_band["p999"]
        assert values["regular"] > uniform_band["p999"]


class TestDriftDataset:
    def test_deterministic(self):
        spec = DriftSpec(n_events=200, seed=6)
        a = generate_drift_dataset(spec)
        b = generate_drift_dataset(spec)
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.y, b.y)

    def test_shapes_and_sorting(self):
        ds = generate_drift_dataset(DriftSpec(n_events=300, seed=7, feature_dim=6))
        assert ds.features.shape == (300, 6)
        assert np.all(np.diff(ds.t) >= 0)
        assert set(np.unique(ds.y)) <= {0, 1}

    def test_burst_fraction_places_events_late(self):
        spec = DriftSpec(n_events=1000, seed=8, drift_onset=0.9, burst_fraction=0.3)
        ds = generate_drift_dataset(spec)
        in_window = np.count_nonzero(ds.t >= 900.0)
        assert in_window == 300

    def test_default_times_are_uniform(self):
        ds = generate_drift_dataset(DriftSpec(n_events=4000, seed=9))
        # crude uniformity check: quartile counts balanced
        counts, _ = np.histogram(ds.t, bins=4, range=(0.0, 1000.0))
        assert counts.min() > 850

    def test_validation(self):
        with pytest.raises(SpecViolation):
            DriftSpec(n_events=1)
        for n_events in (2**60, 2**63):
            with pytest.raises(SpecViolation,
                               match=r"^n_events must lie in \[2, 1152921504606846975\]$"):
                DriftSpec(n_events=n_events)
        with pytest.raises(SpecViolation):
            DriftSpec(n_events=10, drift_onset=1.5)
        with pytest.raises(SpecViolation):
            DriftSpec(n_events=10, feature_dim=0)
        # a feature matrix of more float64 elements than numpy can size
        too_big = r"^n_events \* feature_dim must be at most 1152921504606846975$"
        for n_events, feature_dim in ((10, 2**62), (2**30, 2**30),
                                      (np.int64(2**32), np.int64(2**32))):
            with pytest.raises(SpecViolation, match=too_big):
                DriftSpec(n_events=n_events, feature_dim=feature_dim)
        with pytest.raises(SpecViolation):
            DriftSpec(n_events=10, burst_fraction=1.0)
        for kwargs in ({"n_events": np.nan}, {"n_events": 10.5}, {"n_events": 10.0},
                       {"n_events": 10, "feature_dim": np.nan},
                       {"n_events": 10, "feature_dim": 2.5}, {"n_events": True},
                       {"n_events": 10, "feature_dim": True}):
            with pytest.raises(SpecViolation, match="must be integers"):
                DriftSpec(**kwargs)
        assert len(generate_drift_dataset(DriftSpec(n_events=np.int64(10)))) == 10
        for seed in (1.5, -1, np.int32(-1), np.nan, True, False):
            with pytest.raises(SpecViolation, match="^seed must be a non-negative integer$"):
                DriftSpec(n_events=10, seed=seed)
        assert len(generate_drift_dataset(DriftSpec(n_events=10, seed=2**100))) == 10
        for period in ((0.0, np.inf), (np.nan, 1.0)):
            with pytest.raises(SpecViolation):
                DriftSpec(n_events=10, period=period)
        for field, value in [("drift_shift", np.nan), ("drift_shift", np.inf),
                             ("class_separation", np.nan), ("class_separation", np.inf)]:
            with pytest.raises(SpecViolation, match=f"^{field} must be finite"):
                DriftSpec(n_events=10, **{field: value})
        for rate in (1.5, np.nan):
            with pytest.raises(SpecViolation, match=r"^post_class1_rate must lie in \[0, 1\]$"):
                DriftSpec(n_events=10, post_class1_rate=rate)


@pytest.mark.parametrize("make", [lambda period: PatternSpec("random", 10, 5, period=period),
                                  lambda period: DriftSpec(n_events=10, period=period)],
                         ids=["pattern", "drift"])
def test_period_must_be_a_pair(make):
    for period in ((0.0,), (0.0, 1.0, 2.0), 5.0, None, (), ("a", "b")):
        with pytest.raises(SpecViolation, match=r"^period must be a \(start, end\) pair$"):
            make(period)
    for period in ((5.0, 5.0), (1.0, 0.0), (0.0, np.inf), (np.nan, 1.0), (0, 10**400)):
        with pytest.raises(SpecViolation,
                           match="^period must be finite and have positive length$"):
            make(period)
    # parsing rejects negative timestamps, so a period may not start below 0
    for period in ((-50.0, 50.0), (-100.0, 0.0)):
        with pytest.raises(SpecViolation,
                           match=r"^period must start at t >= 0, as parsed timestamps do$"):
            make(period)
    for period in ([0.0, 1.0], np.array([0.0, 1.0])):
        assert tuple(make(period).period) == (0.0, 1.0)


def fit_early_eval_late(spec, train_frac=0.7):
    """Train on the chronological head, return VCS inputs from the tail."""
    ds = generate_drift_dataset(spec)
    cut = int(train_frac * len(ds))
    head = DriftDataset(t=ds.t[:cut], features=ds.features[:cut], y=ds.y[:cut])
    tail = DriftDataset(t=ds.t[cut:], features=ds.features[cut:], y=ds.y[cut:])
    weights, _ = train(head, TrainConfig(gamma=0.0, epochs=200, seed=spec.seed))
    errors = evaluate_model(weights, tail).disagreements
    return tail.t[errors], (float(tail.t.min()), float(tail.t.max()))


def band_for_k(k, n_runs=2000, seed=31):
    rng = np.random.default_rng(seed)
    samples = [
        oracles.fast_vcs(rng.random(k) * 1000.0, (0.0, 1000.0), seed=j)[0]
        for j in range(n_runs)
    ]
    return float(np.quantile(samples, 0.999))


class TestDriftPlanting:
    def test_strong_shift_plants_cluster(self):
        spec = DriftSpec(n_events=12000, seed=0)
        err_times, period = fit_early_eval_late(spec)
        assert err_times.size >= 20
        assert vcs(err_times, period).vcs > band_for_k(err_times.size)

    def test_zero_shift_errors_look_uniform(self):
        spec = DriftSpec(n_events=12000, seed=0, drift_shift=0.0)
        err_times, period = fit_early_eval_late(spec)
        assert err_times.size >= 20
        assert vcs(err_times, period).vcs <= band_for_k(err_times.size)
