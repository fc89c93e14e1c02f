"""Lag schedules, nested test groups, and the per-lag test family."""

import dataclasses
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from wedgeperm import (
    COMBINERS,
    CrossoverTimes,
    DataFormatError,
    LagFamily,
    McrtTest,
    PermutationResult,
    TestConfig,
    TrialData,
    TwoGroupSample,
    build_groups,
    build_schedule,
    combined_from_mcrt,
    invert_combined,
    naive_groups,
    permutation_pvalue,
    read_trial_csv,
    run_mcrts,
    write_trial_csv,
)
from wedgeperm import mcrt
from wedgeperm.rng import generator, seed_sequence

from conftest import make_trial


class TestBuildSchedule:
    def test_eight_periods_lag_one(self):
        s = build_schedule(8, 1)
        assert s == ((1, 3, 5, 7), (2, 4, 6, 8))
        assert sorted(k for subset in s for k in subset[:-1]) == [1, 2, 3, 4, 5, 6]

    def test_eight_periods_lag_zero(self):
        s = build_schedule(8, 0)
        assert s == (tuple(range(1, 9)),)
        assert sorted(k for subset in s for k in subset[:-1]) == list(range(1, 8))

    def test_eight_periods_lag_two(self):
        s = build_schedule(8, 2)
        assert s == ((1, 4, 7), (2, 5, 8), (3, 6))

    def test_lag_too_large_rejected(self):
        with pytest.raises(ValueError, match=re.escape("lag must lie in [0, 6]")):
            build_schedule(8, 7)
        with pytest.raises(ValueError, match=re.escape("lag must lie in [0, 1]")):
            build_schedule(3, 2)

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError, match=re.escape("lag must lie in [0, 6]")):
            build_schedule(8, -1)

    @pytest.mark.parametrize("lag", [0.5, 1.0, True, "1"], ids=repr)
    def test_lag_that_is_not_an_integer_rejected(self, lag):
        # 0.5 must not run as lag 0, nor True as lag 1
        with pytest.raises(ValueError, match=f"^lag must be an integer, got {re.escape(repr(lag))}$"):
            build_schedule(6, lag)

    @pytest.mark.parametrize("n_times", range(2, 11))
    def test_structural_invariants(self, n_times):
        for lag in range(n_times - 1):
            s = build_schedule(n_times, lag)
            assert len(s) == min(lag + 1, n_times - lag - 1)
            seen = set()
            for j, subset in enumerate(s, start=1):
                assert subset[0] == j
                assert all(b - a == lag + 1 for a, b in zip(subset, subset[1:]))
                assert subset[-1] <= n_times
                assert not (seen & set(subset))
                seen |= set(subset)


class TestBuildGroups:
    def test_first_test_controls_lag_one(self):
        times = CrossoverTimes(np.arange(1, 9), 8)
        groups = {g.test_time: g for g in build_groups(times, 8, 1)}
        assert times.times[groups[1].control_units].tolist() == [3, 5, 7]
        assert groups[1].treated_units.tolist() == [0]
        assert groups[1].control_units.tolist() == [2, 4, 6]
        assert groups[1].outcome_time == 2

    def test_last_subset_element_yields_no_group(self):
        times = CrossoverTimes(np.arange(1, 9), 8)
        tested = {g.test_time for g in build_groups(times, 8, 1)}
        assert 7 not in tested and 8 not in tested

    def test_groups_sorted_and_disjoint_across_subsets(self):
        rng = generator(1)
        times = CrossoverTimes(rng.integers(1, 9, size=40), 8)
        groups = build_groups(times, 8, 2)
        assert [g.test_time for g in groups] == sorted(g.test_time for g in groups)
        subset_of = {t: j for j, subset in enumerate(build_schedule(8, 2)) for t in subset}
        by_subset = {}
        for g in groups:
            pool = set(g.treated_units.tolist()) | set(g.control_units.tolist())
            by_subset.setdefault(subset_of[g.test_time], set()).update(pool)
        for a, b in itertools.combinations(by_subset.values(), 2):
            assert not (a & b)

    @pytest.mark.parametrize("groups", [build_groups, naive_groups])
    @pytest.mark.parametrize("lag", [-1, 7])
    def test_lag_admitting_no_test_rejected(self, groups, lag):
        times = CrossoverTimes(np.arange(1, 9), 8)
        with pytest.raises(ValueError, match="lag"):
            groups(times, 8, lag)

    @pytest.mark.parametrize("groups", [build_groups, naive_groups])
    @pytest.mark.parametrize("lag", [0.5, True], ids=repr)
    def test_lag_that_is_not_an_integer_rejected(self, groups, lag):
        times = CrossoverTimes(np.arange(1, 9), 8)
        with pytest.raises(ValueError, match=f"^lag must be an integer, got {lag!r}$"):
            groups(times, 8, lag)

    @pytest.mark.parametrize("groups", [build_groups, naive_groups])
    def test_times_over_more_periods_than_asked_rejected(self, groups):
        times = CrossoverTimes(np.arange(1, 9), 8)
        with pytest.raises(ValueError, match=r"^crossover times must lie in 1\.\.6$"):
            groups(times, 6, 1)

    def test_times_over_the_periods_asked_are_not_copied(self):
        times = CrossoverTimes(np.repeat(np.arange(1, 9), 2), 8)
        assert mcrt._times_array(times, 8) is times.times
        assert mcrt._times_array(times, 9) is not times.times

    @pytest.mark.parametrize("groups", [build_groups, naive_groups])
    def test_numpy_integer_lag_gives_the_same_groups(self, groups):
        times = CrossoverTimes(np.repeat(np.arange(1, 9), 2), 8)
        for a, b in zip(groups(times, 8, np.int64(2)), groups(times, 8, 2), strict=True):
            assert (a.test_time, a.outcome_time) == (b.test_time, b.outcome_time)
            assert type(a.outcome_time) is int
            assert np.array_equal(a.treated_units, b.treated_units)
            assert np.array_equal(a.control_units, b.control_units)

    def test_every_control_crosses_after_outcome_time(self):
        lag = 1
        rng = generator(2)
        times = CrossoverTimes(rng.integers(1, 7, size=30), 6)
        for g in build_groups(times, 6, lag):
            crossings = times.times[g.control_units]
            assert (crossings >= g.test_time + lag + 1).all()

    @pytest.mark.parametrize("n_times,lag", [(8, 1), (8, 2), (6, 0), (5, 2), (7, 3), (9, 4)])
    def test_pools_nested_along_each_subset(self, n_times, lag):
        rng = generator(3)
        times = CrossoverTimes(rng.integers(1, n_times + 1, size=50), n_times)
        groups = {g.test_time: g for g in build_groups(times, n_times, lag)}
        for subset in build_schedule(n_times, lag):
            chain = [groups[t] for t in subset[:-1]]
            pools = [
                set(g.treated_units.tolist()) | set(g.control_units.tolist()) for g in chain
            ]
            for earlier, later in zip(pools, pools[1:]):
                assert later < earlier

    @pytest.mark.parametrize("n_times,lag", [(8, 1), (8, 4), (6, 2), (5, 3), (4, 1)])
    def test_units_with_reachable_controls_are_covered(self, n_times, lag):
        # a unit crossing at t with t + lag + 1 <= T sits in some group
        times = CrossoverTimes(np.arange(1, n_times + 1), n_times)
        covered = set()
        for g in build_groups(times, n_times, lag):
            covered |= set(times.times[g.treated_units].tolist())
            covered |= set(times.times[g.control_units].tolist())
        for t in range(1, n_times + 1):
            if t + lag + 1 <= n_times:
                assert t in covered


class TestRunMcrts:
    @pytest.mark.parametrize(
        "setting, message",
        [({"statistic": "bogus"}, "unknown statistic 'bogus'"), ({"budget": 0}, "resample budget must be at least 1")],
    )
    def test_config_rejects_what_no_test_could_run(self, setting, message):
        with pytest.raises(ValueError, match=message):
            TestConfig(**setting)

    @pytest.mark.parametrize("seed", [-1, "abc", None, True, 2.5], ids=repr)
    def test_config_rejects_a_seed_no_stream_could_take(self, seed):
        # checked when the config is made, so a trial whose lag has no
        # testable group, which draws nothing, rejects it too
        data = make_trial(24, (1, 23), seed=5)
        with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
            run_mcrts(data, 0, TestConfig(seed=seed))

    def test_config_has_no_exactness_setting(self):
        assert [f.name for f in dataclasses.fields(TestConfig)] == ["budget", "statistic", "seed"]
        with pytest.raises(TypeError):
            TestConfig(exact_threshold=1)

    @pytest.mark.parametrize("budget", [2.5, True, 0, np.float64(99.0)])
    def test_budget_is_an_integer_of_at_least_one(self, budget):
        message = re.escape(f"resample budget must be at least 1 and an integer, got {budget!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            TestConfig(budget=budget)

    def test_numpy_integer_budget_kept_as_int(self):
        cfg = TestConfig(budget=np.int64(99))
        assert cfg.budget == 99 and type(cfg.budget) is int

    def test_partial_family_has_tails_but_no_results(self, exact_limit, tiny_trial):
        exact_limit(1)  # the 8-vs-8 test is sampled too
        cfg = TestConfig(budget=199, seed=21)
        testable, skips = mcrt._testable(tiny_trial, 0, build_groups)
        partial = [mcrt._draw(tiny_trial, cfg, g, 50) for g in testable]
        whole = run_mcrts(tiny_trial, 0, cfg)
        assert [g.test_time for g in testable] == [t.test_time for t in whole.tests]
        assert not skips and not whole.skipped
        assert all(tail.drawn == 50 for tail in partial)
        for tail, w in zip(partial, whole.tests):
            with pytest.raises(ValueError, match="the draw is partial"):
                tail.result()
            tail.grow()
            assert tail.result() == w.result

    def test_families_hold_only_complete_tests(self, exact_limit):
        exact_limit(1)  # the small pools are sampled too
        data = make_trial(25, (1, 8, 8, 8), effect=0.3, seed=7)
        cfg = TestConfig(budget=299, seed=9)
        with pytest.raises(TypeError):
            run_mcrts(data, 0, cfg, rows=96)
        for groups in (build_groups, naive_groups):
            family = run_mcrts(data, 0, cfg, groups)
            assert family.tests and family.skipped
            assert all(isinstance(t.result, PermutationResult) for t in family.tests)
            for method in COMBINERS:
                assert combined_from_mcrt(family, method, "two-sided").n_tests == len(family.tests)
                ci = invert_combined(family, 0.1, method)
                assert (ci.lag, ci.method, ci.n_grid > 0) == (0, method, True)

    def test_fractional_lag_rejected(self, tiny_trial):
        with pytest.raises(ValueError, match=r"^lag must be an integer, got 1\.7$"):
            run_mcrts(tiny_trial, 1.7, TestConfig(budget=9))

    def test_constant_outcomes_give_unit_pvalues(self):
        times = CrossoverTimes(np.repeat([1, 2, 3], 5), 3)
        data = TrialData(np.arange(15), times, np.full((15, 4), 7.0))
        res = run_mcrts(data, 0, TestConfig(budget=99))
        assert res.tests, "expected at least one completed test"
        assert all(t.result.p_less == 1.0 and t.result.p_greater == 1.0 for t in res.tests)

    def test_result_bookkeeping(self, tiny_trial):
        res = run_mcrts(tiny_trial, 1, TestConfig(budget=99))
        groups = build_groups(tiny_trial.times, tiny_trial.n_times, 1)
        testable = [g for g in groups if min(g.n_treated, g.n_control) >= 2]
        assert len(res.tests) + len(res.skipped) == len(groups)
        assert len(res.tests) == len(testable)
        assert [t.test_time for t in res.tests] == sorted(t.test_time for t in res.tests)
        for t, g in zip(res.tests, testable):
            assert (t.n_treated, t.n_control) == (g.n_treated, g.n_control)
            y = tiny_trial.outcomes[:, g.outcome_time]
            assert np.array_equal(t.tail.sample.treated, y[g.treated_units])
            assert np.array_equal(t.tail.sample.control, y[g.control_units])

    def test_naive_groups_family(self, tiny_trial):
        # the same runner over the unconditional pools: one test or skip
        # per group, each on its test time's stream
        cfg = TestConfig(budget=99, seed=17)
        res = run_mcrts(tiny_trial, 1, cfg, naive_groups)
        groups = naive_groups(tiny_trial.times, tiny_trial.n_times, 1)
        assert len(res.tests) + len(res.skipped) == len(groups)
        assert res.tests
        target = res.tests[0]
        (g,) = [g for g in groups if g.test_time == target.test_time]
        y = tiny_trial.outcomes[:, g.outcome_time]
        sample = TwoGroupSample(y[g.treated_units], y[g.control_units], tiny_trial.n_units)
        solo = permutation_pvalue(sample, budget=99, seed=seed_sequence(17, target.test_time))
        assert solo == target.result

    def test_arm_below_min_arm_is_skipped_with_reason(self):
        times = CrossoverTimes(np.asarray([1, 2, 2, 2, 3, 3, 3]), 3)
        data = TrialData(np.arange(7), times, np.zeros((7, 4)))
        res = run_mcrts(data, 0, TestConfig(budget=9))
        skipped = {s.test_time: s for s in res.skipped}
        assert skipped[1].reason == "arm size below min_arm=2 (treated 1, control 6)"
        assert {t.test_time for t in res.tests} == {2}

    def test_record_holds_the_result_and_its_plan(self):
        assert [f.name for f in dataclasses.fields(McrtTest)] == ["test_time", "outcome_time", "result", "tail"]
        assert [f.name for f in dataclasses.fields(LagFamily)] == ["lag", "tests", "skipped"]

    def test_same_seed_reproduces_everything(self, tiny_trial):
        cfg = TestConfig(budget=199, seed=21)
        a = run_mcrts(tiny_trial, 0, cfg)
        b = run_mcrts(tiny_trial, 0, cfg)
        assert [(t.result.p_less, t.result.p_greater) for t in a.tests] == [
            (t.result.p_less, t.result.p_greater) for t in b.tests
        ]

    def test_per_test_streams_do_not_interact(self, exact_limit, tiny_trial):
        # a test's p-values are unchanged when run alone
        exact_limit(1)  # the 8-vs-8 target is sampled too
        cfg = TestConfig(budget=199, seed=33)
        full = run_mcrts(tiny_trial, 0, cfg)
        groups = build_groups(tiny_trial.times, tiny_trial.n_times, 0)
        target = full.tests[-1]
        (g,) = [g for g in groups if g.test_time == target.test_time]
        y = tiny_trial.outcomes[:, g.outcome_time]
        sample = TwoGroupSample(y[g.treated_units], y[g.control_units], tiny_trial.n_units)
        solo = permutation_pvalue(sample, budget=cfg.budget, seed=seed_sequence(cfg.seed, target.test_time))
        assert solo.p_less == target.result.p_less
        assert solo.p_greater == target.result.p_greater

    def test_null_rejection_rate_controlled(self):
        # effect-free trials: combined family rejects no more than alpha
        alpha, n_reps = 0.05, 400
        hits = 0
        for rep in range(n_reps):
            data = make_trial(30, (10, 10, 10), seed=1000 + rep)
            res = run_mcrts(data, 0, TestConfig(budget=199, seed=rep))
            p = combined_from_mcrt(res, "bonferroni", "greater").p_value
            hits += p <= alpha
        se = math.sqrt(alpha * (1 - alpha) / n_reps)
        assert hits / n_reps <= alpha + 3 * se


class TestRunMcrtsThreads:
    """A family drawn on a pool of threads is the one drawn serially."""

    FAMILIES = {
        # pools of 400 and 600 slots, above the tagged-sort width of 256
        "wide_pool": (lambda: make_trial(600, (200, 200, 200), effect=0.2, seed=5), TestConfig(budget=199, seed=3)),
        "rank_sum": (lambda: make_trial(24, (8, 8, 8), seed=3), TestConfig(budget=199, seed=4, statistic="rank_sum")),
        # C(12, 4) = 495 and C(8, 4) = 70 relabelings, both enumerated
        "exact": (lambda: make_trial(12, (4, 4, 4), effect=0.5, seed=6), TestConfig(budget=99, seed=5)),
        # one unit crosses at time 1, so its test is skipped
        "skipped": (lambda: make_trial(25, (1, 8, 8, 8), seed=7), TestConfig(budget=99, seed=6)),
    }
    # families whose every test is sampled, though some pools are small enough to enumerate
    SAMPLED = {"rank_sum", "skipped"}

    @staticmethod
    def _assert_same_draws(family, reference):
        assert family == reference
        for t, r in zip(family.tests, reference.tests):
            assert t.tail.drawn == r.tail.drawn == r.tail.n_resamples
            assert np.array_equal(t.tail._sums, r.tail._sums)
            assert (t.tail._hits is None) == (r.tail._hits is None)
            if r.tail._hits is not None:
                assert np.array_equal(t.tail._hits, r.tail._hits)

    @pytest.mark.parametrize("threads", [2, 5])
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_family_equals_the_serial_one(self, thread_pools, exact_limit, name, threads):
        if name in self.SAMPLED:
            exact_limit(1)
        make, cfg = self.FAMILIES[name]
        data = make()
        serial = run_mcrts(data, 0, cfg)
        assert thread_pools == [] and len(serial.tests) >= 2
        assert bool(serial.skipped) == (name == "skipped")
        threaded = run_mcrts(data, 0, cfg, threads=threads)
        assert thread_pools == [min(threads, len(serial.tests))]
        self._assert_same_draws(threaded, serial)
        for method in COMBINERS:
            assert invert_combined(threaded, 0.1, method) == invert_combined(serial, 0.1, method)

    def test_one_testable_group_draws_without_a_pool(self, thread_pools):
        family = run_mcrts(make_trial(25, (1, 8, 8, 8), seed=7), 1, TestConfig(budget=49), threads=4)
        assert len(family.tests) == 1 and thread_pools == []

    @pytest.mark.parametrize("threads", [0, -3, True, 1.5, "2"], ids=repr)
    def test_thread_count_that_is_not_a_positive_integer_rejected_before_any_draw(self, monkeypatch, tiny_trial, threads):
        def no_draw(*args, **kwargs):
            pytest.fail("drew a test before checking the thread count")

        monkeypatch.setattr(mcrt, "_tail_plan", no_draw)
        message = f"^threads must be an integer of at least 1, got {re.escape(repr(threads))}$"
        with pytest.raises(ValueError, match=message):
            run_mcrts(tiny_trial, 0, TestConfig(budget=9), threads=threads)


class TestTrialCsv:
    def test_round_trip(self, tmp_path, tiny_trial):
        path = tmp_path / "trial.csv"
        write_trial_csv(path, tiny_trial)
        back = read_trial_csv(path)
        assert back.units.tolist() == tiny_trial.units.tolist()
        assert back.times.times.tolist() == tiny_trial.times.times.tolist()
        assert np.array_equal(back.outcomes, tiny_trial.outcomes)

    def test_malformed_value_cites_line(self, tmp_path):
        path = tmp_path / "trial.csv"
        path.write_text("unit,crossover_time,y0,y1,y2\n0,1,0.0,0.1,0.2\n1,2,bad,0.0,0.0\n")
        with pytest.raises(DataFormatError, match="line 3"):
            read_trial_csv(path)

    def test_wrong_column_count_cites_line(self, tmp_path):
        path = tmp_path / "trial.csv"
        path.write_text("unit,crossover_time,y0,y1,y2\n0,1,0.0,0.1\n")
        with pytest.raises(DataFormatError, match="line 2"):
            read_trial_csv(path)

    @pytest.mark.parametrize(
        "column, row", [("unit", "99999999999999999999,2"), ("crossover_time", "1,-99999999999999999999")]
    )
    def test_integer_beyond_int64_cites_line(self, tmp_path, column, row):
        path = tmp_path / "trial.csv"
        path.write_text(f"unit,crossover_time,y0,y1,y2\n0,1,0.0,0.1,0.2\n{row},0.0,0.0,0.0\n")
        with pytest.raises(DataFormatError, match=f"line 3: {column} .* 64-bit"):
            read_trial_csv(path)

    @pytest.mark.parametrize("bad_line", [1, 3, 1500])
    def test_undecodable_byte_cites_line(self, tmp_path, bad_line):
        # line 1 is the header; line 1500 lies beyond the block the header
        # read decodes, so the C reader meets it first, then the row loop
        rows = [b"%d,%d,0.0,0.1,0.2" % (i, i % 3 + 1) for i in range(2000)]
        lines = [b"unit,crossover_time,y0,y1,y2"] + rows
        lines[bad_line - 1] += b"\xff"
        path = tmp_path / "trial.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        message = f"{re.escape(str(path))}: line {bad_line}: .*can't decode byte 0xff"
        with pytest.raises(DataFormatError, match=message):
            read_trial_csv(path)

    def test_byte_order_mark_is_skipped(self, tmp_path, tiny_trial):
        # spreadsheet programs start a "CSV UTF-8" file with one
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_trial_csv(plain, tiny_trial)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for read in (read_trial_csv, mcrt._read_rows):
            assert _read_outcome(read, marked) == _read_outcome(read, plain)

    def test_misordered_outcome_columns_rejected(self, tmp_path):
        path = tmp_path / "trial.csv"
        path.write_text("unit,crossover_time,y1,y0,y2\n0,1,0,0,0\n")
        with pytest.raises(DataFormatError, match="y0"):
            read_trial_csv(path)


_HEADER = "unit,crossover_time,y0,y1,y2\n"

# (id, file text, None if it parses or a pattern of its message)
_READER_CORPUS = [
    ("quoted", _HEADER + '"0","1","0.5",0.1,"-0.2"\n1,2,0,0,0\n', None),
    ("padded", _HEADER + " 0 , 1 ,  0.5 ,0.1,0.2 \n1,2,0,0,0\n", None),
    ("tabs", _HEADER + "0\t,\t1,\t0.5,0.1,0.2\n1,2,0,0,0\n", None),
    ("no-break-spaces", _HEADER + "\xa00,1,\xa00.5\xa0,0.1,0.2\n1,2,0,0,0\n", None),
    ("crlf", _HEADER.replace("\n", "\r\n") + "0,1,0.5,0.1,0.2\r\n1,2,0,0,0\r\n", None),
    ("utf-8-bom", "\ufeff" + _HEADER + "0,1,0.5,0.1,0.2\n1,2,0,0,0\n", None),
    ("utf-8-bom-then-bad-row", "\ufeff" + _HEADER + "0,1,0.5,0.1,0.2\n1,2,0,oops,0\n", "line 3: could not convert"),
    ("plus-signs", _HEADER + "+0,+1,+0.5,0.1,+2e-3\n1,2,0,0,0\n", None),
    ("no-trailing-newline", _HEADER + "0,1,0.5,0.1,0.2\n1,2,0,0,0", None),
    ("blank-rows", _HEADER + "\n0,1,0.5,0.1,0.2\n\n1,2,0,0,0\n\n", None),
    ("whitespace-only-row", _HEADER + "0,1,0.5,0.1,0.2\n  \t \n1,2,0,0,0\n", None),
    ("empty-fields-row", _HEADER + "0,1,0.5,0.1,0.2\n,,,,\n1,2,0,0,0\n", None),
    ("digit-underscores", _HEADER + "0,1,1_0.5,0.1,0.2\n1_0,2,0,0,0\n", None),
    ("arabic-indic-digits", _HEADER + "\u0660,\u0661,\u0660.\u0665,0.1,0.2\n1,2,0,0,0\n", None),
    ("infinity", _HEADER + "0,1,infinity,0.1,0.2\n1,2,0,0,0\n", "non-finite"),
    ("float-crossover-time", _HEADER + "0,1,0.5,0.1,0.2\n1,1.0,0,0,0\n", "line 3: invalid literal"),
    ("fractional-crossover-time", _HEADER + "0,1,0.5,0.1,0.2\n1,1.7,0,0,0\n", "line 3: invalid literal"),
    ("nan-crossover-time", _HEADER + "0,1,0.5,0.1,0.2\n1,nan,0,0,0\n", "line 3: invalid literal"),
    ("int64-overflow-time", _HEADER + "0,1,0.5,0.1,0.2\n1,9223372036854775808,0,0,0\n", "line 3: crossover_time .* 64-bit"),
    ("int64-overflow", _HEADER + "0,1,0.5,0.1,0.2\n9223372036854775808,2,0,0,0\n", "line 3: unit .* 64-bit"),
    ("wrong-column-count", _HEADER + "0,1,0.5,0.1,0.2\n1,2,0,0\n", "line 3: expected 5 columns, got 4"),
    ("header-only", _HEADER, "no data rows"),
    ("blank-rows-only", _HEADER + "\n \n,,,,\n", "no data rows"),
]


def _read_outcome(read, path):
    try:
        data = read(path)
    except DataFormatError as exc:
        return str(exc)
    return data.units.tobytes(), data.times.times.tobytes(), data.outcomes.tobytes(), data.outcomes.shape


class TestTrialCsvReaderPaths:
    """The C-reader body parse and the row loop it falls back to agree."""

    @pytest.mark.parametrize("text, message", [c[1:] for c in _READER_CORPUS], ids=[c[0] for c in _READER_CORPUS])
    def test_fast_path_equals_row_loop(self, tmp_path, text, message):
        path = tmp_path / "trial.csv"
        path.write_bytes(text.encode())
        got = _read_outcome(read_trial_csv, path)
        assert got == _read_outcome(mcrt._read_rows, path)
        if message is None:
            assert not isinstance(got, str), got
        else:
            assert isinstance(got, str) and re.search(message, got), got

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_int_parsed_via_float_falls_back_to_the_row_loop(self, tmp_path, monkeypatch):
        # NumPy 1.23 and later releases that keep the deprecated parse read a
        # non-integer int64 cell as a float and truncate it, with only a
        # DeprecationWarning that their C reader raises as ValueError when
        # warnings are errors; this stands in for such a release
        path = tmp_path / "trial.csv"
        path.write_text(_HEADER + "0,1,0.5,0.1,0.2\n1,1.7,0,0,0\n")
        real_loadtxt = np.loadtxt

        def loadtxt(fh, dtype, **kwargs):
            body = real_loadtxt(fh, dtype=[(f[0], np.float64, *f[2:]) for f in dtype], **kwargs)
            try:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            except DeprecationWarning as exc:
                raise ValueError("could not convert string '1.7' to int64") from exc
            return body.astype(dtype)

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        with pytest.raises(DataFormatError, match="line 3: invalid literal for int"):
            read_trial_csv(path)

    def test_clean_file_never_reaches_the_row_loop(self, tmp_path, monkeypatch, tiny_trial):
        path = tmp_path / "trial.csv"
        write_trial_csv(path, tiny_trial)

        def row_loop(_path):
            raise AssertionError("a clean file fell back to the row loop")

        monkeypatch.setattr(mcrt, "_read_rows", row_loop)
        back = read_trial_csv(path)
        assert np.array_equal(back.outcomes, tiny_trial.outcomes)


class TestTrialData:
    def test_panel_width_must_match(self):
        times = CrossoverTimes(np.asarray([1, 2]), 2)
        with pytest.raises(ValueError, match="columns"):
            TrialData(np.arange(2), times, np.zeros((2, 2)))

    def test_duplicate_unit_ids_rejected(self):
        times = CrossoverTimes(np.asarray([1, 2]), 2)
        with pytest.raises(ValueError, match="distinct"):
            TrialData(np.asarray([3, 3]), times, np.zeros((2, 3)))

    def test_duplicates_apart_in_input_order_rejected(self):
        times = CrossoverTimes(np.asarray([1, 2, 2, 1]), 2)
        with pytest.raises(ValueError, match="distinct"):
            TrialData(np.asarray([9, -4, 2, -4]), times, np.zeros((4, 3)))

    def test_construction_memory_is_two_copies_and_a_sort(self):
        # the copies of the 50 000 x 11 panel and the ids take 4.6 MiB and
        # the sorted ids 0.4 MiB; a Python set of the ids took 3.5 MiB more
        rng = generator(5)
        n = 50_000
        units = rng.permutation(n).astype(np.int64) * 7 + 3
        times = CrossoverTimes(rng.integers(1, 11, n), 10)
        outcomes = rng.normal(size=(n, 11))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            TrialData(units, times, outcomes)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 6.5 * 2**20
