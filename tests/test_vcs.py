import importlib
import os
import pathlib
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vcseval
from vcseval import (
    DegenerateDistances,
    EvalStream,
    PatternSpec,
    TooFewDisagreements,
    VcsConfig,
    VcsTrial,
    auroc,
    average_precision,
    disagreement_set,
    evaluate_stream,
    generate_pattern,
    t_statistic,
    vcs,
)

from . import oracles

# vcseval.vcs is the function, which shadows its module
vcs_module = importlib.import_module("vcseval.vcs")


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
        # a NaN sum fails the sign check too, rather than being named an overflow
        for sums in ((-1.0, 2.0), (np.nan, 1.0), (1.0, np.nan), (np.nan, np.nan)):
            with pytest.raises(ValueError, match="^distance sums must be non-negative$"):
                t_statistic(*sums)


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
        # a bool is not an integer
        for tau in (0, 2.0, True, False):
            with pytest.raises(ValueError, match="^tau must be a positive integer$"):
                VcsConfig(tau=tau)
        with pytest.raises(ValueError):
            VcsConfig(subsample_fraction=1.0)
        for seed in (-1, True, False):
            with pytest.raises(ValueError, match="^seed must be a 64-bit unsigned integer$"):
                VcsConfig(seed=seed)


class TestVcs:
    def test_single_timestamp_cluster_limit(self):
        result = vcs([42.0] * 10, (0.0, 100.0), VcsConfig(seed=5))
        assert result.vcs == 0.5
        assert all(t.t_stat == 1.0 for t in result.trials)

    def test_too_few(self):
        for times in ([], [1.0]):
            with pytest.raises(TooFewDisagreements):
                vcs(times, (0.0, 10.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_named(self, bad):
        with pytest.raises(ValueError, match="times must be finite"):
            vcs([1.0, bad, 3.0], (0.0, 10.0))
        for period in ((bad, 10.0), (0.0, bad)):
            with pytest.raises(ValueError, match="period must be finite"):
                vcs([1.0, 2.0, 3.0], period)

    @pytest.mark.parametrize("times", [np.arange(9.0).reshape(3, 3), np.zeros((1, 1)), 5.0],
                             ids=["3x3", "1x1", "scalar"])
    def test_times_must_be_1d(self, times):
        with pytest.raises(ValueError, match="^times must be 1-d$"):
            vcs(times, (0, 10))

    @pytest.mark.parametrize("period", [(0, 10**400), (-10**400, 0)])
    def test_int_period_past_the_float_range_named(self, period):
        with pytest.raises(ValueError, match="period must be finite"):
            vcs(np.arange(10.0), period)

    def test_int_period_whose_length_overflows(self):
        # each end fits a float but their int difference does not; float
        # ends give an inf length and fail the same way
        for period in ((-10**308, 10**308), (-1e308, 1e308)):
            with pytest.raises(DegenerateDistances, match="overflow"):
                vcs(np.arange(10.0), period)

    @pytest.mark.parametrize("period", [(5.0, 0.0), (0.0, 5.0, 10.0), (1.0,), 3.0],
                             ids=["reversed", "three-values", "one-value", "scalar"])
    def test_period_must_be_an_ordered_pair(self, period):
        with pytest.raises(ValueError, match=r"period must be a \(start, end\) pair"):
            vcs([1.0, 2.0, 3.0], period)

    @pytest.mark.parametrize("period", [(2.0, 2.0), (100.0, 200.0)],
                             ids=["zero-length", "excludes-every-time"])
    def test_period_may_be_empty_or_exclude_the_times(self, period):
        result = vcs([1.0, 2.0, 3.0], period)
        assert 0.0 <= result.vcs <= 0.5

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


class TestSortSkip:
    """vcs sorts every input; sorted or not, tied times match the oracles bit for bit."""

    def tied_times(self, rng):
        return rng.integers(0, 20, int(rng.integers(2, 60))).astype(np.float64)

    def test_sorted_times_with_ties_match_fast_oracle(self):
        rng = np.random.default_rng(21)
        for case in range(100):
            times = np.sort(self.tied_times(rng))
            got = vcs(times, (0.0, 20.0), VcsConfig(seed=case))
            assert [t.t_stat for t in got.trials] == oracles.fast_vcs(times, (0.0, 20.0),
                                                                       seed=case)[2]

    def test_unsorted_times_with_ties_match_exact_sums(self):
        # each distance is one rounded subtraction either way, and both sides
        # sum the same array in draw order, so the sums agree exactly
        rng = np.random.default_rng(22)
        for case in range(100):
            times = self.tied_times(rng)
            cfg = VcsConfig(seed=case)
            for positions, ref, trial in trials_with_draws(times, (0.0, 20.0), cfg):
                d_disg = np.array([oracles.brute_nn_distance(i, times) for i in positions])
                assert trial.d_disg == float(d_disg.sum())
                assert trial.d_r == oracles.brute_ref_sum(ref, times)
                assert trial.t_stat == t_statistic(trial.d_r, trial.d_disg)


@st.composite
def lookup_cases(draw):
    """Sorted times with ties, a period and whether the times form one cluster.

    The periods hold the times, exclude them, have zero length or span
    nearly the float range. A cluster puts K distinct times in one cell.
    """
    k_total = draw(st.sampled_from([2, 3]) | st.integers(2, 300))
    scale = draw(st.sampled_from([1.0, 1e3, 5e306]))
    period = draw(st.sampled_from([(0.0, 10 * scale), (-5 * scale, -scale), (scale, scale),
                                   (-0.85e308, 0.9e308)]))
    t_start, t_end = period
    clustered = t_start < t_end and draw(st.booleans())
    if clustered:
        span = t_end - t_start
        times = t_start + 0.3 * span + np.arange(k_total) * (span * 1e-9)
    else:
        steps = draw(st.lists(st.integers(0, 10), min_size=k_total, max_size=k_total))
        times = np.array(steps, dtype=np.float64) * scale
    return np.sort(times), period, clustered, draw(st.integers(0, 2**32 - 1))


class TestCellLookup:
    """The cell table's reference distances equal the binary-search oracle's."""

    @settings(max_examples=300, deadline=None)
    @given(lookup_cases())
    def test_matches_searchsorted_bit_for_bit(self, case):
        sorted_times, (t_start, t_end), clustered, seed = case
        span = t_end - t_start
        with np.errstate(over="ignore"):
            table = vcs_module._cell_table(sorted_times, t_start, span)
            cells = table.starts.size - 1
            edges = np.arange(cells) / cells
            # every cell edge, the draw just below each, the largest draw and random draws
            u = np.concatenate((edges, np.nextafter(edges[1:], 0.0), [np.nextafter(1.0, 0.0)],
                                np.random.default_rng(seed).random(200)))
            got = vcs_module._ref_distances(u, table)
            want = oracles.dist_to_sorted(t_start + u * span, sorted_times)
        assert got.tobytes() == want.tobytes()
        if clustered:
            assert table.halvings == sorted_times.size.bit_length()


def outcome(times, period, config):
    """vcs's result, or the type and message of the error it raises."""
    try:
        return vcs(times, period, config)
    except DegenerateDistances as exc:
        return type(exc), str(exc)


@st.composite
def trial_cases(draw):
    """Unsorted times with ties, some large enough to overflow the sums."""
    scale = draw(st.sampled_from([1.0, 1e3, 5e306, 1.7e307]))
    steps = draw(st.lists(st.integers(0, 10), min_size=2, max_size=60))
    times = np.array(steps, dtype=np.float64) * scale
    period = draw(st.sampled_from([(0.0, 10 * scale), (0.0, 0.0), (times[0], times[0]),
                                   (0.0, 1.7e308), (-10 * scale, 10 * scale),
                                   (-5 * scale, -scale)]))
    config = VcsConfig(tau=draw(st.integers(1, 6)),
                       subsample_fraction=draw(st.sampled_from([0.01, 0.3, 0.5, 0.9])),
                       seed=draw(st.integers(0, 2**64 - 1)))
    return times, period, config


class TestThreadedTrials:
    """Trials on threads are bit-identical to the contract and to the serial path."""

    @settings(max_examples=300, deadline=None)
    @given(trial_cases())
    def test_every_trial_matches_exact_sums(self, case):
        times, period, config = case
        serial = outcome(times, period, config)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(vcs_module, "PARALLEL_MIN_K", 1)
            patch.setattr(vcs_module, "_usable_cpus", lambda: vcs_module.MAX_WORKERS)
            threaded = outcome(times, period, config)
        assert threaded == serial
        want, t_sum = [], 0.0
        k = config.subsample_size(times.size)
        for d_disg, d_r in oracles.exact_trial_sums(times, period, config.tau, k, config.seed):
            try:
                t_stat = t_statistic(d_r, d_disg)
            except DegenerateDistances as exc:
                # the first failing trial in trial order is the one reported
                assert threaded == (type(exc), str(exc))
                return
            want.append(VcsTrial(d_disg=d_disg, d_r=d_r, t_stat=t_stat))
            t_sum += t_stat
        assert threaded.trials == tuple(want)
        assert threaded.t_mean == t_sum / config.tau

    def test_real_size_runs_on_threads(self, monkeypatch):
        rng = np.random.default_rng(31)
        big_k = 2 * vcs_module.PARALLEL_MIN_K
        times = np.sort(rng.integers(0, 5000, big_k).astype(np.float64))
        config = VcsConfig(tau=6, seed=31)
        got = vcs(times, (0.0, 5000.0), config)
        assert [t.t_stat for t in got.trials] == oracles.fast_vcs(
            times, (0.0, 5000.0), tau=6, seed=31)[2]

        threads = set()
        lookup = vcs_module._ref_distances

        def slow_lookup(u, table):
            # the pause lets every thread take a trial before the others finish
            threads.add(threading.get_ident())
            time.sleep(0.01)
            return lookup(u, table)

        monkeypatch.setattr(vcs_module, "_ref_distances", slow_lookup)
        assert vcs(times, (0.0, 5000.0), config) == got
        assert len(threads) == min(config.tau, vcs_module._usable_cpus(),
                                   vcs_module.MAX_WORKERS)
        monkeypatch.setattr(vcs_module, "PARALLEL_MIN_K", big_k)
        threads.clear()
        assert vcs(times, (0.0, 5000.0), config) == got
        assert threads == {threading.get_ident()}

    @pytest.mark.parametrize("times, period, seed, message", [
        ([3.0] * 40, (3.0, 3.0), 0, "both distance sums are zero"),
        ([0.0, 1.7e308] * 20, (0.0, 1.7e308), 0, "distance sums overflow float64"),
        # trials 0-2 pass; trial 3 draws both far times, whose gaps overflow
        ([-0.9e308] + [0.0] * 10 + [0.9e308], (0.0, 0.0), 3, "distance sums overflow float64"),
        # trial 0 overflows and trial 1 has zero sums; trial 0 is reported
        ([-0.9e308] + [0.0] * 6 + [0.9e308], (0.0, 0.0), 3, "distance sums overflow float64"),
        # the period's length overflows, so every reference draw lies at inf
        (np.arange(40.0), (-1e308, 1e308), 0, "distance sums overflow float64"),
    ], ids=["zero-sums", "overflow", "later-trial-fails", "first-of-two-fails",
            "period-length-overflows"])
    def test_failing_trial_raises_the_same_error(self, times, period, seed, message,
                                                 monkeypatch):
        config = VcsConfig(tau=6, seed=seed)
        assert outcome(times, period, config) == (DegenerateDistances, message)
        monkeypatch.setattr(vcs_module, "PARALLEL_MIN_K", 1)
        monkeypatch.setattr(vcs_module, "_usable_cpus", lambda: vcs_module.MAX_WORKERS)
        assert outcome(times, period, config) == (DegenerateDistances, message)


def test_map_in_threads_under_stress():
    # more threads than cores and a short switch interval, so that a lost
    # update of the shared index or result list would show
    calls = []

    def fail_from_3000(i):
        calls.append(i)
        if i >= 3000 and i % 7 == 0:
            raise ValueError(i)
        return i

    interval, running = sys.getswitchinterval(), threading.active_count()
    sys.setswitchinterval(1e-6)
    try:
        assert vcs_module._map_in_threads(lambda i: i * i, 5000, 8) == [
            i * i for i in range(5000)]
        with pytest.raises(ValueError) as failure:
            vcs_module._map_in_threads(fail_from_3000, 5000, 8)
        assert failure.value.args == (3003,)
        # indices are taken in order, and none once a call has failed
        assert sorted(calls) == list(range(len(calls))) and len(calls) < 3100
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == running


def test_import_gradcheck_and_threaded_vcs_load_no_thread_pool():
    # vcs starts its threads with threading, which every command loads;
    # concurrent.futures would add logging's import time and RSS to each
    code = ("import sys, numpy as np, vcseval\n"
            "assert 'concurrent.futures' not in sys.modules\n"
            "from vcseval.report_cli import main\n"
            "assert main(['gradcheck', '--trials', '2']) == 0\n"
            "assert 'concurrent.futures' not in sys.modules, 'loaded by gradcheck'\n"
            # K = 2 * PARALLEL_MIN_K, so that the trials run on threads
            f"big_k = {2 * vcs_module.PARALLEL_MIN_K}\n"
            "vcseval.vcs(np.arange(big_k * 1.0), (0.0, big_k), vcseval.VcsConfig(tau=4))\n"
            "assert 'concurrent.futures' not in sys.modules, 'loaded by vcs'\n")
    src = str(pathlib.Path(vcseval.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


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
