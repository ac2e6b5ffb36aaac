import numpy as np
import pytest

from vcseval import (
    DegenerateDistances,
    EvalStream,
    PatternSpec,
    TooFewDisagreements,
    VcsConfig,
    auroc,
    average_precision,
    disagreement_set,
    evaluate_stream,
    generate_pattern,
    t_statistic,
    vcs,
)

from . import oracles


def trials_with_draws(times, period, config):
    """(positions, random_times, trial) per vcs trial, the draws from the contract."""
    times = np.asarray(times, dtype=np.float64)
    k = config.subsample_size(times.size)
    result = vcs(times, period, config)
    return [(*oracles.contract_draws(config.seed, i, times.size, k, period), trial)
            for i, trial in enumerate(result.trials)]


def single_draw_trials(times, tau=40, seed=0):
    """vcs trials with k = 1: each d_disg is one entry's nearest-neighbour distance."""
    config = VcsConfig(tau=tau, subsample_fraction=0.01, seed=seed)
    drawn = trials_with_draws(times, (0.0, 100.0), config)
    assert all(positions.size == 1 for positions, _, _ in drawn)
    return [(int(positions[0]), trial.d_disg) for positions, _, trial in drawn]


class TestNnDistance:
    """Per-entry nearest-neighbour distances, read from vcs trials with k = 1."""

    def test_simple_min(self):
        want = {0: 1.0, 1: 1.0, 2: 2.0}
        drawn = single_draw_trials([0.0, 1.0, 3.0])
        assert {pos for pos, _ in drawn} == set(want)
        assert all(d == want[pos] for pos, d in drawn)

    def test_duplicate_timestamp_gives_zero(self):
        assert all(d == 0.0 for _, d in single_draw_trials([2.0, 2.0]))

    def test_exclusion_is_by_position_not_time(self):
        # entries 0 and 1 share a timestamp but are different events
        want = {0: 0.0, 1: 0.0, 2: 4.0}
        drawn = single_draw_trials([5.0, 5.0, 9.0])
        assert {pos for pos, _ in drawn} == set(want)
        assert all(d == want[pos] for pos, d in drawn)

    def test_insufficient(self):
        # one entry has no other entry to measure a distance to
        with pytest.raises(TooFewDisagreements):
            vcs([1.0], (0.0, 10.0))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        times = rng.random(20) * 100
        drawn = single_draw_trials(times, tau=200)
        assert len({pos for pos, _ in drawn}) == 20
        for pos, d in drawn:
            assert d == oracles.brute_nn_distance(pos, times.copy())


class TestDisgSum:
    """Each trial's d_disg is the brute-force sum over its contract positions."""

    def trials(self, times, frac):
        return trials_with_draws(times, (0.0, 100.0),
                                 VcsConfig(tau=20, subsample_fraction=frac))

    def test_hand_example(self):
        # k = 2 of 3: the sum is 4 minus the distance of the entry left out
        left_out = {0: 3.0, 1: 3.0, 2: 2.0}
        for positions, _, trial in self.trials([0.0, 1.0, 3.0], 0.99):
            (missing,) = set(range(3)) - set(positions.tolist())
            assert trial.d_disg == left_out[missing]

    def test_all_same_timestamp(self):
        assert all(t.d_disg == 0.0 for _, _, t in self.trials([7.0, 7.0, 7.0], 0.99))

    def test_singleton_subsample(self):
        for positions, _, trial in self.trials([0.0, 1.0, 3.0], 0.01):
            assert trial.d_disg == {0: 1.0, 1: 1.0, 2: 2.0}[int(positions[0])]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        times = rng.random(30) * 50
        for positions, _, trial in self.trials(times, 0.5):
            assert positions.size == 15
            want = oracles.brute_disg_sum(positions, times)
            assert trial.d_disg == pytest.approx(want, abs=1e-12)


class TestRandomReference:
    """Each trial's d_r is the brute-force sum over its contract reference times."""

    def test_degenerate_period(self):
        for _, ref, trial in trials_with_draws([3.0, 3.0], (5.0, 5.0), VcsConfig(tau=3)):
            assert np.all(ref == 5.0)
            assert trial.d_r == pytest.approx(ref.size * 2.0, abs=1e-12)

    def test_documented_u_sequence(self):
        # contract: after the subsample draw, u = rng.random(k) and
        # times = t_start + u * span
        times = np.array([100.0, 500.0, 900.0, 950.0])
        drawn = trials_with_draws(times, (0.0, 1000.0), VcsConfig(tau=3, seed=11))
        for i, (positions, ref, trial) in enumerate(drawn):
            rng = np.random.default_rng((11, i))
            assert np.array_equal(positions, rng.choice(4, size=2, replace=False))
            expect_times = rng.random(2) * 1000.0
            assert np.array_equal(ref, expect_times)
            assert trial.d_disg == oracles.brute_disg_sum(positions, times)
            want = np.abs(expect_times[:, None] - times[None, :]).min(axis=1).sum()
            assert trial.d_r == pytest.approx(want, abs=1e-9)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(21)
        times = np.sort(rng.random(40) * 200)
        for _, ref, trial in trials_with_draws(times, (0.0, 200.0),
                                               VcsConfig(tau=10, seed=21)):
            want = oracles.brute_ref_sum(ref, times)
            assert trial.d_r == pytest.approx(want, abs=1e-10)


class TestTStatistic:
    def test_pure_cluster(self):
        assert t_statistic(5.0, 0.0) == 1.0

    def test_symmetric(self):
        assert t_statistic(7.0, 7.0) == 0.5

    def test_degenerate(self):
        with pytest.raises(DegenerateDistances):
            t_statistic(0.0, 0.0)
        with pytest.raises(DegenerateDistances, match="overflow"):
            t_statistic(1e308, 1e308)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            t_statistic(-1.0, 2.0)


class TestVcsConfig:
    def test_subsample_size(self):
        cfg = VcsConfig(subsample_fraction=0.5)
        assert cfg.subsample_size(2) == 1
        assert cfg.subsample_size(3) == 1
        assert cfg.subsample_size(200) == 100

    def test_small_fraction_floors_to_one(self):
        assert VcsConfig(subsample_fraction=0.001).subsample_size(10) == 1

    def test_cap_below_total(self):
        assert VcsConfig(subsample_fraction=0.999).subsample_size(4) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            VcsConfig(tau=0)
        with pytest.raises(ValueError):
            VcsConfig(subsample_fraction=1.0)
        with pytest.raises(ValueError):
            VcsConfig(seed=-1)


class TestVcs:
    def test_single_timestamp_cluster_limit(self):
        result = vcs([42.0] * 10, (0.0, 100.0), VcsConfig(seed=5))
        assert result.vcs == 0.5
        assert all(t.t_stat == 1.0 for t in result.trials)

    def test_too_few(self):
        for times in ([], [1.0]):
            with pytest.raises(TooFewDisagreements):
                vcs(times, (0.0, 10.0))

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        s = np.sort(rng.random(30) * 10)
        a = vcs(s, (0.0, 10.0), VcsConfig(seed=7))
        b = vcs(s, (0.0, 10.0), VcsConfig(seed=7))
        assert a.t_mean == b.t_mean and a.vcs == b.vcs
        assert [x.t_stat for x in a.trials] == [x.t_stat for x in b.trials]

    def test_matches_brute_oracle(self):
        rng = np.random.default_rng(2)
        for round_idx in range(10):
            times = np.sort(rng.random(int(rng.integers(5, 40))) * 100)
            got = vcs(times, (0.0, 100.0), VcsConfig(seed=round_idx))
            want_vcs, want_mean, want_ts = oracles.brute_vcs(
                times, (0.0, 100.0), seed=round_idx
            )
            assert got.vcs == pytest.approx(want_vcs, abs=1e-12)
            assert [t.t_stat for t in got.trials] == pytest.approx(want_ts, abs=1e-12)

    def test_trials_use_independent_substreams(self):
        s = np.linspace(0, 10, 20)
        short = vcs(s, (0.0, 10.0), VcsConfig(tau=3, seed=9))
        long = vcs(s, (0.0, 10.0), VcsConfig(tau=5, seed=9))
        assert [t.t_stat for t in short.trials] == [t.t_stat for t in long.trials[:3]]

    def test_range_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            times = rng.random(int(rng.integers(2, 50))) * 100
            result = vcs(np.sort(times), (0.0, 100.0))
            assert 0.0 <= result.vcs <= 0.5
            assert all(0.0 <= t.t_stat <= 1.0 for t in result.trials)

    def test_affine_invariance(self):
        rng = np.random.default_rng(8)
        times = np.sort(rng.random(30) * 100)
        base = vcs(times, (0.0, 100.0), VcsConfig(seed=3))
        for a, b in ((1e-3, 5.0), (1e3, -7.0), (2.0, 0.0)):
            mapped = vcs(a * times + b, (a * 0.0 + b, a * 100.0 + b), VcsConfig(seed=3))
            for t1, t2 in zip(base.trials, mapped.trials):
                assert t2.t_stat == pytest.approx(t1.t_stat, abs=1e-12)

    def test_signed_deviation(self):
        result = vcs([42.0] * 5, (0.0, 100.0))
        assert result.signed_deviation == pytest.approx(0.5, abs=1e-15)

    def test_result_echoes_config_and_k(self):
        times = np.linspace(0, 10, 12)
        cfg = VcsConfig(tau=4, seed=2)
        result = vcs(times, (0.0, 10.0), cfg)
        assert result.config == cfg
        assert result.k_total == 12
        assert len(result.trials) == 4
        for positions, ref, trial in trials_with_draws(times, (0.0, 10.0), cfg):
            assert positions.size == ref.size == 6
            assert trial.d_disg == pytest.approx(
                oracles.brute_disg_sum(positions, times), abs=1e-12)
            assert trial.d_r == pytest.approx(oracles.brute_ref_sum(ref, times), abs=1e-12)


class TestFastOracle:
    def test_matches_brute_oracle_on_sorted_times(self):
        # the band sampler's sorted-gap route against the brute-force one
        rng = np.random.default_rng(13)
        for case in range(200):
            times = np.sort(rng.random(int(rng.integers(2, 60))) * 100)
            fast = oracles.fast_vcs(times, (0.0, 100.0), seed=case)
            brute = oracles.brute_vcs(times, (0.0, 100.0), seed=case)
            assert fast[:2] == pytest.approx(brute[:2], abs=1e-12)
            assert fast[2] == pytest.approx(brute[2], abs=1e-12)


class TestEvaluateStream:
    def test_matches_direct_calls(self):
        stream = generate_pattern(PatternSpec("clustered", 300, 40, seed=1))
        config = VcsConfig(seed=3)
        summary = evaluate_stream(stream, 0.5, config)
        disg = disagreement_set(stream, 0.5)
        direct = vcs(stream.t[disg], (stream.t_start, stream.t_end), config)
        assert summary.disagreements.tolist() == disg.tolist()
        assert summary.disagreements.size == 40
        assert summary.ap == average_precision(stream)
        assert summary.auroc == auroc(stream)
        assert [t.t_stat for t in summary.vcs_result.trials] == [t.t_stat for t in direct.trials]
        assert summary.vcs_undefined is None and summary.vcs_undefined_reason is None

    def test_too_few_disagreements_marked(self):
        summary = evaluate_stream(EvalStream([1.0, 2.0], [1, 0], [0.1, 0.1]))
        assert summary.vcs_result is None
        assert summary.vcs_undefined == "too_few_disagreements"
        assert "at least 2" in summary.vcs_undefined_reason

    def test_equal_timestamps_marked_degenerate(self):
        summary = evaluate_stream(EvalStream([5.0] * 3, [1, 1, 0], [0.1, 0.1, 0.1]))
        assert summary.disagreements.size == 2
        assert summary.vcs_result is None
        assert summary.vcs_undefined == "degenerate_distances"
        assert summary.vcs_undefined_reason == "both distance sums are zero"

    def test_undefined_instance_metrics_are_none(self):
        summary = evaluate_stream(EvalStream([1.0, 2.0, 3.0], [0, 0, 0], [0.9, 0.1, 0.9]))
        assert summary.ap is None and summary.auroc is None
        assert summary.disagreements.size == 2 and summary.vcs_result is not None
