"""Two-group permutation engine: statistics, plans, exact and MC tails."""

import hashlib
import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

import wedgeperm
from wedgeperm import (
    PermutationResult,
    TailPlan,
    TwoGroupSample,
    diff_in_means,
    permutation_pvalue,
    rank_sum,
    relabel_plan,
    write_trial_csv,
)
from wedgeperm import permtest
from wedgeperm.permtest import _count_if_at_most, midranks
from wedgeperm.rng import generator, seed_sequence

from conftest import make_trial

finite_floats = st.floats(-50, 50, allow_nan=False, allow_infinity=False)
small_groups = st.tuples(
    st.lists(finite_floats, min_size=1, max_size=5),
    st.lists(finite_floats, min_size=1, max_size=5),
)


class TestTwoGroupSample:
    def test_pooled_is_treated_first(self):
        s = TwoGroupSample([1.0, 2.0], [3.0], 3)
        assert s.pooled().tolist() == [1.0, 2.0, 3.0]

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError, match="non-empty"):
            TwoGroupSample([], [1.0], 1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            TwoGroupSample([1.0, math.nan], [0.0], 3)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError, match="scale_n"):
            TwoGroupSample([1.0], [0.0], 0)


class TestStatistics:
    def test_equal_means_give_zero(self):
        assert diff_in_means(TwoGroupSample([1.0, 1.0], [1.0, 1.0], 4)) == 0.0

    def test_scaled_gap(self):
        assert diff_in_means(TwoGroupSample([2.0], [0.0], 4)) == 4.0

    def test_antisymmetry(self):
        a = TwoGroupSample([3.0, 1.0], [0.0, 2.0], 4)
        b = TwoGroupSample([0.0, 2.0], [3.0, 1.0], 4)
        assert diff_in_means(a) == -diff_in_means(b)

    def test_rank_sum_simple(self):
        assert rank_sum(TwoGroupSample([3.0], [1.0, 2.0], 3)) == 3.0

    def test_rank_sum_midranks_on_ties(self):
        # pooled (1, 1, 1): every rank is 2
        assert rank_sum(TwoGroupSample([1.0, 1.0], [1.0], 3)) == 4.0

    @pytest.mark.parametrize(
        "values",
        [
            [0.1, 0.2, 0.3, 0.7, 0.1, 0.2, 0.3, 0.7],
            [1.0 / 3, 0.1 + 0.2, 0.3, 2.0 / 3, 1.0 / 3, 0.1 + 0.2],
            [-0.0, 0.0, 5.5, -2.25, 5.5, 5.5],
            [4.2],
            [7.0, 7.0, 7.0],
        ],
    )
    def test_midranks_match_scipy_rankdata(self, values):
        ours = midranks(values)
        assert ours.dtype == np.float64
        assert np.array_equal(ours, rankdata(values))

    def test_midranks_match_scipy_rankdata_on_random_ties(self):
        gen = generator(44)
        for size in (2, 17, 1000):
            values = gen.integers(0, 5, size) * 0.1 + 0.7
            assert np.array_equal(midranks(values), rankdata(values))

    def test_package_and_cli_leave_scipy_unloaded(self, tmp_path):
        trial = tmp_path / "trial.csv"
        write_trial_csv(trial, make_trial(36, (12, 12, 12), lag=0, effect=0.8, seed=19))
        src = str(Path(wedgeperm.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        analyze = "".join(
            f"assert cli.main(['analyze', {str(trial)!r}, '--lag', '0', '--budget', '99', "
            f"'--combiner', {c!r}]) == 0\n"
            for c in ("weighted_z", "fisher")
        )
        simulate = (
            "assert cli.main(['simulate', '--preset', 'sim1-desk', '--replicates', '1', "
            "'--out', 'power.csv']) == 0\n"
        )
        report = "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        for run in ("", "from wedgeperm import cli\n" + analyze, "from wedgeperm import cli\n" + simulate):
            code = "import sys, wedgeperm\n" + run + report
            proc = subprocess.run(
                [sys.executable, "-c", code],
                env=env, cwd=tmp_path, capture_output=True, text=True, check=True, timeout=300,
            )
            assert proc.stdout.splitlines()[-1] == "[]", code

    def test_unknown_statistic_rejected(self):
        s = TwoGroupSample([1.0], [0.0], 2)
        with pytest.raises(ValueError, match="unknown statistic"):
            permutation_pvalue(s, statistic="median_gap")


def _unchunked_reference(pool_size, n_treated, budget, seed):
    """The Monte-Carlo draw with each 1024-row block's keys drawn at once."""
    root = seed_sequence(seed)
    parts, remaining = [], budget
    for child in root.spawn((budget + 1023) // 1024):
        take = min(1024, remaining)
        remaining -= take
        keys = np.random.default_rng(child).random((take, pool_size))
        parts.append(np.argpartition(keys, n_treated - 1, axis=1)[:, :n_treated])
    return np.vstack(parts)


class TestRelabelPlan:
    def test_exact_plan_enumerates_all_subsets(self):
        plan = relabel_plan(4, 2, exact_threshold=10)
        assert plan.exact and plan.n_resamples == 6
        rows = {tuple(sorted(r)) for r in plan.selections.tolist()}
        assert rows == {tuple(c) for c in itertools.combinations(range(4), 2)}

    def test_exact_hits_follow_hypergeometric_counts(self):
        m, n = 3, 4
        plan = relabel_plan(m + n, m, exact_threshold=100)
        hits = plan.treated_hits()
        for k in range(m + 1):
            assert int((hits == k).sum()) == math.comb(m, k) * math.comb(n, m - k)

    def test_sums_are_linear_in_a_constant_shift(self):
        plan = relabel_plan(10, 4, budget=200, exact_threshold=1, seed=3)
        values = np.arange(10, dtype=float)
        shifted = plan.sums(values + 2.5)
        assert np.allclose(shifted, plan.sums(values) + 4 * 2.5)

    def test_monte_carlo_plan_is_deterministic(self):
        a = relabel_plan(30, 10, budget=777, exact_threshold=1, seed=9)
        b = relabel_plan(30, 10, budget=777, exact_threshold=1, seed=9)
        assert np.array_equal(a.selections, b.selections)
        assert not a.exact and a.n_resamples == 777

    def test_budget_spanning_multiple_blocks(self):
        plan = relabel_plan(12, 3, budget=1500, exact_threshold=1, seed=0)
        assert plan.n_resamples == 1500
        assert ((plan.selections >= 0) & (plan.selections < 12)).all()
        # every row is a 3-subset: distinct slots
        assert all(len(set(row)) == 3 for row in plan.selections.tolist())

    @pytest.mark.parametrize("chunk", [7, 100, 1 << 20])
    def test_chunked_draw_equals_unchunked_draw(self, monkeypatch, chunk):
        # chunk 100 on pool 30 draws 3 rows at a time, so a block spans
        # many chunks and its last chunk is ragged; chunk 7 is below one row
        monkeypatch.setattr(permtest, "_KEY_CHUNK", chunk)
        for pool, m, budget in ((30, 10, 2500), (100, 17, 499), (7, 3, 1025)):
            plan = relabel_plan(pool, m, budget=budget, exact_threshold=1, seed=11)
            ref = _unchunked_reference(pool, m, budget, 11)
            assert plan.selections.dtype == ref.dtype
            assert np.array_equal(plan.selections, ref)

    @pytest.mark.parametrize("chunk", [100, permtest._KEY_CHUNK])
    def test_interleaved_draws_equal_separate_draws(self, monkeypatch, chunk):
        # two plans of different pool sizes draw through the thread's one
        # key buffer, a chunk of each in turn; chunk 100 gives each plan
        # many chunks, the default chunk a ragged last one on pool 100
        monkeypatch.setattr(permtest, "_KEY_CHUNK", chunk)
        shapes = ((30, 10, 2500), (100, 17, 1100))
        plans = [relabel_plan(pool, m, budget=budget, exact_threshold=1, seed=11) for pool, m, budget in shapes]
        yielded = [[], []]
        for pair in itertools.zip_longest(*(plan._chunks() for plan in plans)):
            for kept, item in zip(yielded, pair):
                if item is not None:
                    kept.append(item)
        # every chunk is read only now, after both draws have finished
        for (pool, m, budget), kept in zip(shapes, yielded):
            sel = np.full((budget, m), -1, dtype=np.intp)
            for lo, chunk in kept:
                sel[lo : lo + chunk.shape[0]] = chunk
            assert np.array_equal(sel, _unchunked_reference(pool, m, budget, 11))

    def test_concurrent_threads_draw_what_sequential_draws_do(self):
        shapes = ((30, 10, 4000, 11), (5000, 17, 999, 12), (300, 150, 2000, 13))
        expected = [relabel_plan(pool, m, budget=b, exact_threshold=1, seed=s).selections for pool, m, b, s in shapes]
        barrier = threading.Barrier(len(shapes))
        got = [None] * len(shapes)

        def draw(k):
            pool, m, budget, seed = shapes[k]
            barrier.wait()
            got[k] = [
                relabel_plan(pool, m, budget=budget, exact_threshold=1, seed=seed).selections for _ in range(4)
            ]

        # more threads than cores, switching often, so the draws overlap
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=draw, args=(k,)) for k in range(len(shapes))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for ref, draws in zip(expected, got):
            assert all(np.array_equal(ref, sel) for sel in draws)

    def test_wide_pool_keeps_at_most_one_key_chunk(self):
        wide = permtest._KEY_CHUNK + 500
        kept = {}

        def draw(name, pools):
            for pool in pools:
                relabel_plan(pool, 5, budget=3, exact_threshold=1, seed=1).selections
            buf = getattr(permtest._thread_keys, "buf", None)
            kept[name] = None if buf is None else buf.size

        # each in a new thread, so no earlier draw has sized its buffer
        for name, pools in (("wide only", [wide]), ("narrow, then wide", [10, wide])):
            t = threading.Thread(target=draw, args=(name, pools))
            t.start()
            t.join(timeout=60)
            assert not t.is_alive()
        assert kept == {"wide only": None, "narrow, then wide": permtest._KEY_CHUNK}

    @pytest.mark.parametrize("chunk", [7, 100, 1 << 20])
    @pytest.mark.parametrize("seed", [11, None])
    def test_streamed_reduction_equals_materialised_selections(self, monkeypatch, chunk, seed):
        monkeypatch.setattr(permtest, "_KEY_CHUNK", chunk)
        for pool, m, budget in ((30, 10, 2500), (100, 17, 499), (7, 3, 1025)):
            plan = relabel_plan(pool, m, budget=budget, exact_threshold=1, seed=seed)
            values = generator(pool).normal(size=pool)
            # streamed first, so the selections are drawn only afterwards
            sums, hits = plan.reduce(values)
            ref_sums, ref_hits = plan.sums(values), plan.treated_hits()
            assert sums.dtype == ref_sums.dtype and sums.tobytes() == ref_sums.tobytes()
            assert hits.dtype == ref_hits.dtype and np.array_equal(hits, ref_hits)

    def test_monte_carlo_draw_memory_is_bounded(self):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            # reading the selections forces the draw
            relabel_plan(20_000, 10, budget=999, exact_threshold=1, seed=0).selections
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @staticmethod
    def _streamed_tail_plan_peak():
        """tracemalloc peak of one m = 5000, pool 25 000, B = 999 TailPlan."""
        values = generator(4).normal(size=25_000)
        sample = TwoGroupSample(values[:5000], values[5000:], 50_000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            plan = relabel_plan(25_000, 5000, budget=999, exact_threshold=1, seed=0)
            TailPlan(sample, plan, "diff_in_means")
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_streamed_tail_plan_keeps_no_selections(self):
        # the selections and their gather would take 38 MiB each
        assert self._streamed_tail_plan_peak() < 24 * 2**20

    def test_streamed_tail_plan_peak_fits_a_few_key_chunks(self):
        # 512 KiB key chunks: the same plan peaked at 17.4 MiB with
        # 8 MiB chunks, each with an 8 MiB argpartition index
        assert self._streamed_tail_plan_peak() < 4 * 2**20

    def test_fixed_seed_selected_sets_and_hits_are_pinned(self):
        # argpartition lists a selected set in an order that depends on
        # the CPU's SIMD level, and the sums follow that order, so only
        # the row-sorted sets and the hits are pinned, never the sums
        plan = relabel_plan(500, 100, budget=499, seed=5)
        rows = np.sort(plan.selections, axis=1).astype(np.int64)
        hits = plan.treated_hits().astype(np.int64)
        assert hashlib.sha256(rows.tobytes()).hexdigest() == (
            "43c91bd02d257c632f6851c15a29864282429ee65c37eeafcb6c37f4415d4a09"
        )
        assert hashlib.sha256(hits.tobytes()).hexdigest() == (
            "d00886a078736fe5a66eac4dcc5281ac691ed202da9ac0f3e4c39f4eeb99bdb2"
        )

    def test_exact_threshold_boundary(self):
        for pool, m in ((10, 3), (12, 6), (200, 199), (25_000, 1)):
            total = math.comb(pool, m)
            plan = relabel_plan(pool, m, exact_threshold=total)
            assert plan.exact and plan.n_resamples == total
            plan = relabel_plan(pool, m, budget=50, exact_threshold=total - 1, seed=1)
            assert not plan.exact and plan.n_resamples == 50

    def test_early_exit_count_agrees_with_math_comb(self):
        for pool in range(2, 40):
            for m in range(1, pool):
                total = math.comb(pool, m)
                assert _count_if_at_most(pool, m, total) == total
                assert _count_if_at_most(pool, m, total + 1) == total
                assert _count_if_at_most(pool, m, total - 1) is None

    def test_rejects_degenerate_split(self):
        with pytest.raises(ValueError, match="at least one treated"):
            relabel_plan(4, 0)
        with pytest.raises(ValueError, match="at least one treated"):
            relabel_plan(4, 4)

    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError, match="budget"):
            relabel_plan(50, 10, budget=0, exact_threshold=1)


class TestExactPValues:
    def test_two_relabelings_observed_max(self):
        r = permutation_pvalue(TwoGroupSample([5.0], [0.0], 2))
        assert r.exact and r.n_resamples == 2
        assert r.p_greater == 0.5 and r.p_less == 1.0

    def test_all_identical_outcomes_tie_everywhere(self):
        r = permutation_pvalue(TwoGroupSample([2.0, 2.0], [2.0, 2.0], 4))
        assert r.p_less == 1.0 and r.p_greater == 1.0

    def test_granularity_exact(self):
        r = permutation_pvalue(TwoGroupSample([1.0, 2.0], [0.0, 3.0], 4))
        assert r.granularity == 1.0 / math.comb(4, 2)

    def test_matches_brute_force_enumeration(self):
        treated = np.asarray([0.3, -1.2, 2.0])
        control = np.asarray([0.1, 0.5, -0.7, 1.1])
        sample = TwoGroupSample(treated, control, 7)
        r = permutation_pvalue(sample)
        pool = sample.pooled()
        obs = diff_in_means(sample)
        stats = []
        for sel in itertools.combinations(range(7), 3):
            rest = [i for i in range(7) if i not in sel]
            stats.append(diff_in_means(TwoGroupSample(pool[list(sel)], pool[rest], 7)))
        stats = np.asarray(stats)
        assert r.p_less == pytest.approx(float((stats <= obs + 1e-12).mean()))
        assert r.p_greater == pytest.approx(float((stats >= obs - 1e-12).mean()))

    def test_rank_sum_matches_brute_force(self):
        treated = np.asarray([0.4, 0.4, 1.9])
        control = np.asarray([-0.3, 0.4, 2.2])
        sample = TwoGroupSample(treated, control, 6)
        r = permutation_pvalue(sample, statistic="rank_sum")
        pool = sample.pooled()
        obs = rank_sum(sample)
        stats = []
        for sel in itertools.combinations(range(6), 3):
            rest = [i for i in range(6) if i not in sel]
            stats.append(rank_sum(TwoGroupSample(pool[list(sel)], pool[rest], 6)))
        stats = np.asarray(stats)
        assert r.statistic == obs
        assert r.p_less == pytest.approx(float((stats <= obs).mean()))
        assert r.p_greater == pytest.approx(float((stats >= obs).mean()))


class TestMonteCarloPValues:
    def test_add_one_correction_and_granularity(self):
        s = TwoGroupSample(np.arange(6, dtype=float), np.arange(6, 14, dtype=float), 14)
        r = permutation_pvalue(s, budget=99, exact_threshold=1, seed=0)
        assert not r.exact and r.n_resamples == 99
        assert r.granularity == 1.0 / 100
        assert r.p_less >= 1.0 / 100 and r.p_greater >= 1.0 / 100

    def test_agrees_with_exact_within_mc_error(self):
        gen = generator(31)
        s = TwoGroupSample(gen.normal(0.4, 1, 4), gen.normal(0, 1, 8), 12)
        exact = permutation_pvalue(s)
        assert exact.exact and exact.n_resamples == math.comb(12, 4)
        mc = permutation_pvalue(s, budget=100_000, exact_threshold=1, seed=5)
        for tail in ("p_less", "p_greater"):
            p = getattr(exact, tail)
            se = math.sqrt(p * (1 - p) / 100_000)
            assert abs(getattr(mc, tail) - p) <= 3 * se + 2 / 100_000

    def test_same_seed_reproduces(self):
        s = TwoGroupSample(np.arange(5, dtype=float), np.arange(10, dtype=float), 15)
        a = permutation_pvalue(s, budget=500, exact_threshold=1, seed=4)
        b = permutation_pvalue(s, budget=500, exact_threshold=1, seed=4)
        assert (a.p_less, a.p_greater) == (b.p_less, b.p_greater)

    def test_location_invariance_exact_equality(self):
        gen = generator(8)
        t, c = gen.normal(0, 1, 6), gen.normal(0, 1, 9)
        a = permutation_pvalue(TwoGroupSample(t, c, 15), budget=400, exact_threshold=1, seed=2)
        b = permutation_pvalue(TwoGroupSample(t + 17.5, c + 17.5, 15), budget=400, exact_threshold=1, seed=2)
        assert (a.p_less, a.p_greater) == (b.p_less, b.p_greater)

    def test_shared_plan_overrides_budget(self):
        s = TwoGroupSample(np.arange(4, dtype=float), np.arange(8, dtype=float), 12)
        plan = relabel_plan(12, 4, budget=250, exact_threshold=1, seed=1)
        r = TailPlan(s, plan, "diff_in_means").result()
        assert r.n_resamples == 250
        assert r == permutation_pvalue(s, budget=250, exact_threshold=1, seed=1)


class TestNullValidity:
    def test_null_rejection_rates_bounded(self):
        # exact tests on iid data: P{p <= alpha} <= alpha, checked by MC
        gen = generator(99)
        n_reps = 2000
        pvals = np.empty(n_reps)
        for i in range(n_reps):
            y = gen.normal(0, 1, 10)
            pvals[i] = permutation_pvalue(TwoGroupSample(y[:5], y[5:], 10)).p_greater
        for alpha in (0.01, 0.05, 0.1):
            rate = float((pvals <= alpha).mean())
            se = math.sqrt(alpha * (1 - alpha) / n_reps)
            assert rate <= alpha + 3 * se


class TestPermutedVariance:
    def test_variance_formula_on_standardized_arms(self):
        # arms standardized to sample variances exactly 1 and 4
        m = n = 50
        N = m + n
        gen = generator(12)
        t = gen.normal(0, 1, m)
        c = gen.normal(0, 1, n)
        t = (t - t.mean()) / t.std(ddof=1)
        c = 2.0 * (c - c.mean()) / c.std(ddof=1)
        sample = TwoGroupSample(t, c, N)
        plan = relabel_plan(N, m, budget=40_000, exact_threshold=1, seed=6)
        sums = plan.sums(sample.pooled())
        # sum -> statistic: T = sqrt(N) * (s/m - (total - s)/n)
        total = sample.pooled().sum()
        stats = math.sqrt(N) * (sums / m - (total - sums) / n)
        expected = (N / n) * 1.0 + (N / m) * 4.0
        assert abs(float(stats.var()) / expected - 1.0) < 0.05


class TestResultInvariants:
    def test_tails_must_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            PermutationResult(0.0, 0.4, 0.4, 100, False)

    def test_pvalues_must_be_positive(self):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            PermutationResult(0.0, 0.0, 1.0, 100, False)

    @given(small_groups)
    @settings(max_examples=60, deadline=None)
    def test_tail_overlap_property(self, groups):
        treated, control = groups
        r = permutation_pvalue(TwoGroupSample(treated, control, len(treated) + len(control)))
        assert r.p_less + r.p_greater >= 1.0
        assert 0.0 < r.p_less <= 1.0 and 0.0 < r.p_greater <= 1.0
