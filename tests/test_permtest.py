"""Two-group permutation engine: statistics, plans, exact and MC tails."""

import hashlib
import itertools
import math
import os
import re
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
    STATISTICS,
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

    @pytest.mark.parametrize("scale", [2.7, 2.0, True, "4"])
    def test_scale_is_an_integer_never_truncated(self, scale):
        with pytest.raises(ValueError, match=f"^scale_n must be at least 1 and an integer, got {scale!r}$"):
            TwoGroupSample([1.0, 2.0], [3.0, 4.0], scale)

    def test_numpy_integer_scale_kept_as_int(self):
        s = TwoGroupSample([1.0, 2.0], [3.0, 4.0], np.int64(4))
        assert s.scale_n == 4 and type(s.scale_n) is int


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


def _block_keys(pool_size, budget, seed):
    """Each 1024-row block's keys of a Monte-Carlo draw, drawn at once."""
    root = seed_sequence(seed)
    remaining = budget
    for child in root.spawn((budget + 1023) // 1024):
        take = min(1024, remaining)
        remaining -= take
        yield np.random.default_rng(child).random((take, pool_size))


def _unchunked_reference(pool_size, n_treated, budget, seed):
    """The Monte-Carlo draw with each block drawn at once: a pool of more
    than 10 000 slots with at most half of them treated draws each row's
    slot indices with Generator.choice; a pool of up to 256 slots lists
    each selected set in key order, exact-key ties by slot, and any
    other pool as argpartition does."""
    if pool_size > 10_000 and 2 * n_treated <= pool_size:
        rows = []
        for k, child in enumerate(seed_sequence(seed).spawn((budget + 1023) // 1024)):
            rng = np.random.default_rng(child)
            rows += [rng.choice(pool_size, n_treated, replace=False, shuffle=False) for _ in range(min(1024, budget - 1024 * k))]
        return np.array(rows, dtype=np.intp)
    if pool_size <= 256:
        select = lambda keys: np.argsort(keys, axis=1, kind="stable")[:, :n_treated]
    else:
        select = lambda keys: np.argpartition(keys, n_treated - 1, axis=1)[:, :n_treated]
    return np.vstack([select(keys) for keys in _block_keys(pool_size, budget, seed)])


# NumPy 2.4's dispatched x86 levels above its X86_V2 baseline; disabling
# them leaves argpartition its baseline kernel
_BASELINE_SIMD = "X86_V4 AVX512_ICL AVX512_SPR X86_V3"

# run both in this process and in one with _BASELINE_SIMD disabled
_SIMD_DIGESTS = """
import hashlib
import numpy as np
import pytest
from wedgeperm import permtest, relabel_plan
from wedgeperm.rng import generator


def kernel_lists_key_order():
    keys = np.random.default_rng(0).random((200, 66))
    return bool((np.argpartition(keys, 15, axis=1)[:, :16] == np.argsort(keys, axis=1)[:, :16]).all())


def digests():
    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(permtest, "_EXACT_LIMIT", 1)  # C(5, 2) = 10 is drawn too, not enumerated
        for pool, m in ((5, 2), (33, 8), (66, 16), (100, 50), (256, 64), (12_000, 3000), (25_000, 5000)):
            for values in (generator(pool).normal(size=pool), np.round(generator(pool).normal(size=pool), 1)):
                sums, hits = relabel_plan(pool, m, budget=1100, seed=pool).reduce(values)
                out.append(hashlib.sha256(sums.tobytes() + hits.astype(np.int64).tobytes()).hexdigest()[:16])
    return out
"""


class TestRelabelPlan:
    def test_exact_plan_enumerates_all_subsets(self):
        plan = relabel_plan(4, 2)
        assert plan.exact and plan.n_resamples == 6
        rows = {tuple(sorted(r)) for r in plan.selections.tolist()}
        assert rows == {tuple(c) for c in itertools.combinations(range(4), 2)}

    @pytest.mark.parametrize("chunk", [7, 100])
    def test_exact_plan_streams_combinations_order_across_chunks(self, monkeypatch, chunk):
        # chunk 100 on pool 12 enumerates 8 rows at a time, so the 495
        # subsets span 62 chunks, the last one ragged; chunk 7 is below
        # one row
        monkeypatch.setattr(permtest, "_KEY_CHUNK", chunk)
        plan = relabel_plan(12, 4)
        assert plan.exact and plan.n_resamples == 495
        chunks = list(plan._chunks())
        assert len(chunks) == (62 if chunk == 100 else 495)
        # each chunk is contiguous, so reduce gathers from it directly
        assert all(c.flags.c_contiguous for _, c in chunks)
        sel = plan.selections
        assert sel.dtype == np.intp
        assert np.array_equal(sel, np.array(list(itertools.combinations(range(12), 4))))
        values = generator(12).normal(size=12)
        sums, hits = plan.reduce(values)
        assert sums.tobytes() == values[sel].sum(axis=1).tobytes()
        assert np.array_equal(hits, (sel < 4).sum(axis=1))

    def test_exact_plan_keeps_no_rows(self):
        # its 18 564 rows of 6 slots would take 0.85 MiB
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            plan = relabel_plan(18, 6)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert plan.exact and plan.n_resamples == 18_564
        assert grown < 4096

    def test_exact_hits_follow_hypergeometric_counts(self):
        m, n = 3, 4
        plan = relabel_plan(m + n, m)
        hits = (plan.selections < m).sum(axis=1)
        for k in range(m + 1):
            assert int((hits == k).sum()) == math.comb(m, k) * math.comb(n, m - k)

    def test_sums_are_linear_in_a_constant_shift(self, exact_limit):
        exact_limit(1)  # C(10, 4) = 210 relabelings, sampled
        plan = relabel_plan(10, 4, budget=200, seed=3)
        values = np.arange(10, dtype=float)
        shifted, _ = plan.reduce(values + 2.5)
        assert np.allclose(shifted, plan.reduce(values)[0] + 4 * 2.5)

    def test_monte_carlo_plan_is_deterministic(self):
        a = relabel_plan(30, 10, budget=777, seed=9)
        b = relabel_plan(30, 10, budget=777, seed=9)
        assert np.array_equal(a.selections, b.selections)
        assert not a.exact and a.n_resamples == 777

    def test_budget_spanning_multiple_blocks(self, exact_limit):
        exact_limit(1)  # C(12, 3) = 220 relabelings, sampled
        plan = relabel_plan(12, 3, budget=1500, seed=0)
        assert plan.n_resamples == 1500
        assert ((plan.selections >= 0) & (plan.selections < 12)).all()
        # every row is a 3-subset: distinct slots
        assert all(len(set(row)) == 3 for row in plan.selections.tolist())

    @pytest.mark.parametrize("chunk", [7, 100, 1 << 20])
    def test_chunked_draw_equals_unchunked_draw(self, monkeypatch, exact_limit, chunk):
        # chunk 100 on pool 30 draws 3 rows at a time, so a block spans
        # many chunks and its last chunk is ragged; chunk 7 is below one row
        monkeypatch.setattr(permtest, "_KEY_CHUNK", chunk)
        exact_limit(1)  # C(7, 3) = 35 relabelings, sampled
        for pool, m, budget in ((30, 10, 2500), (100, 17, 499), (7, 3, 1025)):
            plan = relabel_plan(pool, m, budget=budget, seed=11)
            ref = _unchunked_reference(pool, m, budget, 11)
            assert plan.selections.dtype == ref.dtype
            assert np.array_equal(plan.selections, ref)

    @pytest.mark.parametrize("chunk", [1000, permtest._KEY_CHUNK])
    def test_narrow_pools_list_selections_in_key_order(self, monkeypatch, exact_limit, chunk):
        # chunk 1000 draws 1000 // pool rows at a time, so a block spans
        # many chunks, most pools' last one ragged; budget 1100 spans two
        # blocks
        monkeypatch.setattr(permtest, "_KEY_CHUNK", chunk)
        exact_limit(1)  # the small pools are sampled too
        for pool in range(2, 258):
            budget = 1100 if pool in (2, 66, 255, 256, 257) else 40
            for m in sorted({1, pool // 3 or 1, pool - 1}):
                plan = relabel_plan(pool, m, budget=budget, seed=pool)
                by_key = np.vstack([
                    np.argsort(keys, axis=1, kind="stable")[:, :m] for keys in _block_keys(pool, budget, pool)
                ])
                values = generator(pool).normal(size=pool)
                # streamed first, so the selections are drawn only afterwards
                sums, hits = plan.reduce(values)
                assert np.array_equal(hits, (by_key < m).sum(axis=1))
                if pool <= 256:
                    assert np.array_equal(plan.selections, by_key), (pool, m)
                    assert sums.tobytes() == values[by_key].sum(axis=1).tobytes()
                else:  # argpartition's order, and the same selected sets
                    assert np.array_equal(plan.selections, _unchunked_reference(pool, m, budget, pool))
                    assert np.array_equal(np.sort(plan.selections, axis=1), np.sort(by_key, axis=1))

    def test_keys_are_multiples_of_two_to_the_minus_53(self):
        # the narrow-pool tags hold key * 2^53 exactly in 53 bits above
        # an 8-bit slot; keys with finer bits would spill into the slot
        keys = np.random.default_rng(seed_sequence(3)).random(1 << 16)
        scaled = keys * 2.0**53
        assert np.array_equal(scaled, np.floor(scaled)), "Generator.random keys are not multiples of 2^-53"
        assert scaled.max() < 2.0**53
        # the lowest of the 53 bits is used, so no coarser grid would do either
        assert (scaled % 2 == 1).any()

    def test_narrow_pool_keeps_one_tag_chunk(self, exact_limit):
        # a tagged draw writes its tags into the other half of the
        # thread's key buffer, so tagged and argpartition draws alike keep
        # that one buffer
        kept = {}
        exact_limit(1)  # C(10, 5) = 252 relabelings, sampled

        def draw(name, pools):
            seen = []
            for pool in pools:
                relabel_plan(pool, 5, budget=700, seed=1).reduce(np.zeros(pool))
                held = vars(permtest._thread_keys)
                buf = held["buf"]
                seen.append((sorted(held), buf.size, buf.dtype, buf.__array_interface__["data"][0]))
            kept[name] = seen

        # each in a new thread, so no earlier draw has made its buffer
        for name, pools in (("wide only", [257, 1000]), ("narrow and wide", [10, 256, 1000, 66])):
            t = threading.Thread(target=draw, args=(name, pools))
            t.start()
            t.join(timeout=60)
            assert not t.is_alive()
        for seen in kept.values():
            first, *rest = seen
            assert first[:3] == (["buf"], permtest._KEY_CHUNK, np.float64) and rest == [first] * len(rest)

        # with this thread's buffer made, a narrow draw allocates only
        # its selections, never a chunk of keys or tags
        values = np.zeros(66)
        relabel_plan(66, 16, budget=499, seed=2).reduce(values)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            relabel_plan(66, 16, budget=499, seed=3).reduce(values)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 499 * 66 * 8

    @pytest.mark.parametrize("kind", ["tagged", "argpartition", "indexed", "exact"])
    def test_every_kernel_yields_new_contiguous_slot_indices(self, monkeypatch, kind):
        # chunk 1000 gives every kind several chunks per block, so each
        # chunk is checked against the thread's key buffer and the others
        monkeypatch.setattr(permtest, "_KEY_CHUNK", 1000)
        pool, m, budget = _RANGE_PLANS[kind]
        plan = relabel_plan(pool, m, budget=budget, seed=pool)
        chunks = [chunk for _, chunk in plan._chunks()]
        assert len(chunks) > 2
        buf = getattr(permtest._thread_keys, "buf", None)
        for k, chunk in enumerate(chunks):
            assert chunk.dtype.kind == "i" and chunk.ndim == 2 and chunk.shape[1] == m
            assert chunk.flags.c_contiguous
            assert buf is None or not np.shares_memory(chunk, buf)
            assert not any(np.shares_memory(chunk, other) for other in chunks[:k])
        assert sum(chunk.shape[0] for chunk in chunks) == plan.n_resamples

    @pytest.mark.parametrize("chunk", [100, permtest._KEY_CHUNK])
    def test_interleaved_draws_equal_separate_draws(self, monkeypatch, chunk):
        # two plans of different pool sizes draw through the thread's one
        # key buffer, a chunk of each in turn; chunk 100 gives each plan
        # many chunks, the default chunk a ragged last one on pool 100
        monkeypatch.setattr(permtest, "_KEY_CHUNK", chunk)
        shapes = ((30, 10, 2500), (100, 17, 1100))
        plans = [relabel_plan(pool, m, budget=budget, seed=11) for pool, m, budget in shapes]
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
        shapes = ((30, 10, 4000, 11), (5000, 17, 999, 12), (300, 150, 2000, 13), (256, 64, 2000, 14), (12_000, 3000, 300, 15))
        expected = [relabel_plan(pool, m, budget=b, seed=s).selections for pool, m, b, s in shapes]
        barrier = threading.Barrier(len(shapes))
        got = [None] * len(shapes)

        def draw(k):
            pool, m, budget, seed = shapes[k]
            barrier.wait()
            got[k] = [
                relabel_plan(pool, m, budget=budget, seed=seed).selections for _ in range(4)
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

    def test_wide_pool_keeps_at_most_one_key_chunk(self, exact_limit):
        # more than half the wide pool is treated, so its rows are keys,
        # each wider than a chunk; an index-sampled draw takes no keys
        wide = (permtest._KEY_CHUNK + 500, permtest._KEY_CHUNK // 2 + 251)
        kept = {}
        exact_limit(1)  # C(10, 5) = 252 relabelings, sampled

        def draw(name, shapes):
            for pool, m in shapes:
                relabel_plan(pool, m, budget=3, seed=1).selections
            buf = getattr(permtest._thread_keys, "buf", None)
            kept[name] = None if buf is None else buf.size

        # each in a new thread, so no earlier draw has sized its buffer
        cases = (("wide only", [wide]), ("narrow, then wide", [(10, 5), wide]), ("index-sampled", [(20_000, 5000)]))
        for name, shapes in cases:
            t = threading.Thread(target=draw, args=(name, shapes))
            t.start()
            t.join(timeout=60)
            assert not t.is_alive()
        assert kept == {"wide only": None, "narrow, then wide": permtest._KEY_CHUNK, "index-sampled": None}

    @pytest.mark.parametrize("chunk", [7, 100, 1 << 20])
    @pytest.mark.parametrize("seed", [11])
    def test_streamed_reduction_equals_materialised_selections(self, monkeypatch, exact_limit, chunk, seed):
        monkeypatch.setattr(permtest, "_KEY_CHUNK", chunk)
        exact_limit(1)  # C(7, 3) = 35 relabelings, sampled
        for pool, m, budget in ((30, 10, 2500), (100, 17, 499), (7, 3, 1025)):
            plan = relabel_plan(pool, m, budget=budget, seed=seed)
            values = generator(pool).normal(size=pool)
            # streamed first, so the selections are drawn only afterwards
            sums, hits = plan.reduce(values)
            sel = plan.selections
            ref_sums, ref_hits = values[sel].sum(axis=1), (sel < m).sum(axis=1)
            assert sums.dtype == ref_sums.dtype and sums.tobytes() == ref_sums.tobytes()
            assert hits.dtype == ref_hits.dtype and np.array_equal(hits, ref_hits)

    def test_unseeded_draw_is_the_default_seed_draw(self):
        unseeded = relabel_plan(30, 10, budget=99)
        seeded = relabel_plan(30, 10, budget=99, seed=12345)
        assert np.array_equal(unseeded.selections, seeded.selections)

    @pytest.mark.parametrize("limit", [1, 10**9])
    def test_a_bad_seed_raises_for_sampled_and_exact_plans(self, exact_limit, limit):
        exact_limit(limit)  # 10**9 enumerates C(30, 10) = 30 045 015
        for seed in (None, True):
            with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
                relabel_plan(30, 10, budget=99, seed=seed)

    def test_monte_carlo_draw_memory_is_bounded(self):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            # reading the selections forces the draw
            relabel_plan(20_000, 10, budget=999, seed=0).selections
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @staticmethod
    def _streamed_tail_plan_peak(statistic, m=5000):
        """tracemalloc peak of one pool 25 000, B = 999 TailPlan with m
        treated slots: 5000 draw slot indices, 20 000 keys."""
        values = generator(4).normal(size=25_000)
        sample = TwoGroupSample(values[:m], values[m:], 50_000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            plan = relabel_plan(25_000, m, budget=999, seed=0)
            TailPlan(sample, plan, statistic)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_streamed_tail_plan_keeps_no_selections(self):
        # the selections and their gather would take 38 MiB each
        for statistic in STATISTICS:
            assert self._streamed_tail_plan_peak(statistic) < 24 * 2**20, statistic

    def test_streamed_tail_plan_peak_fits_a_few_key_chunks(self):
        # 512 KiB key chunks: the m = 5000 plan peaked at 17.4 MiB with
        # 8 MiB chunks, each with an 8 MiB argpartition index, when it
        # drew keys; an index-sampled chunk holds 6 rows of indices
        for statistic in STATISTICS:
            for m in (5000, 20_000):
                assert self._streamed_tail_plan_peak(statistic, m) < 4 * 2**20, (statistic, m)

    def test_fixed_seed_selected_sets_and_hits_are_pinned(self):
        # argpartition lists a selected set in an order that depends on
        # the CPU's SIMD level, and the sums follow that order, so only
        # the row-sorted sets and the hits are pinned, never the sums
        sel = relabel_plan(500, 100, budget=499, seed=5).selections
        rows = np.sort(sel, axis=1).astype(np.int64)
        hits = (sel < 100).sum(axis=1).astype(np.int64)
        assert hashlib.sha256(rows.tobytes()).hexdigest() == (
            "43c91bd02d257c632f6851c15a29864282429ee65c37eeafcb6c37f4415d4a09"
        )
        assert hashlib.sha256(hits.tobytes()).hexdigest() == (
            "d00886a078736fe5a66eac4dcc5281ac691ed202da9ac0f3e4c39f4eeb99bdb2"
        )

    def test_fixed_seed_index_sampled_sums_are_pinned(self):
        # a pool of more than 10 000 slots with at most half of them
        # treated draws slot indices, listed alike on every CPU, so its
        # sums are pinned to the bit
        values = np.round(generator(5).normal(size=12_000), 1)
        sums, hits = relabel_plan(12_000, 3000, budget=499, seed=5).reduce(values)
        assert hashlib.sha256(sums.tobytes()).hexdigest() == (
            "52deeb1b2c53393ad2f43fa65c4d2f8db29b1e49cb9c6154e00dbb4843caefb4"
        )
        assert hashlib.sha256(hits.astype(np.int64).tobytes()).hexdigest() == (
            "814f159cc2736658555eeabde33b1a52d7357fc36d6319062810029db5c559f1"
        )

    def test_index_sampled_rows_are_uniform_subsets(self):
        # hits of a uniform m-subset of pool slots, m of them treated,
        # are hypergeometric: mean m^2 / pool = 750 and variance
        # m^2 (pool - m)^2 / (pool^2 (pool - 1)) = 421.9; over 2100 rows
        # the mean's standard error is 0.45 and the sample variance's
        # relative one about sqrt(2 / 2099) = 3.1%, so the bounds are
        # four and five of them
        pool, m, budget = 12_000, 3000, 2100
        sel = relabel_plan(pool, m, budget=budget, seed=21).selections
        assert sel.shape == (budget, m) and sel.dtype == np.intp
        assert sel.min() >= 0 and sel.max() < pool
        assert (np.diff(np.sort(sel, axis=1), axis=1) > 0).all()
        hits = (sel < m).sum(axis=1)
        mean = m * m / pool
        var = m * m * (pool - m) ** 2 / (pool**2 * (pool - 1))
        assert abs(hits.mean() - mean) < 4 * math.sqrt(var / budget)
        assert abs(hits.var(ddof=1) / var - 1) < 5 * math.sqrt(2 / (budget - 1))

    def test_fixed_seed_narrow_pool_sums_are_pinned(self):
        # a pool of up to 256 slots lists each selected set in key order
        # on every CPU, so its sums are pinned to the bit
        values = np.round(generator(5).normal(size=66), 1)
        sums, hits = relabel_plan(66, 16, budget=499, seed=5).reduce(values)
        assert hashlib.sha256(sums.tobytes()).hexdigest() == (
            "5fad7532f4d1dc77bb92c6909d6d64e4a3e65113f15eb198798d228db50d2eb5"
        )
        assert hashlib.sha256(hits.astype(np.int64).tobytes()).hexdigest() == (
            "e8791f16c419a9972c37bc3d42cca1f1dd9efea62f92773b9bea29ab8d48b7e7"
        )

    def test_tagged_and_index_sampled_sums_do_not_depend_on_the_simd_level(self):
        # pools of up to 256 slots list each selected set in key order,
        # and pools of 12 000 and 25 000 slots in the order Generator.choice
        # leaves it, with every SIMD level
        namespace = {}
        exec(_SIMD_DIGESTS, namespace)
        if not namespace["kernel_lists_key_order"]():
            pytest.skip("argpartition runs its baseline kernel here already, as on a CPU without AVX2")
        src = str(Path(wedgeperm.__file__).resolve().parents[1])
        env = dict(
            os.environ,
            NPY_DISABLE_CPU_FEATURES=_BASELINE_SIMD,
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        )
        code = _SIMD_DIGESTS + "print(kernel_lists_key_order(), digests())"
        proc = subprocess.run(
            [sys.executable, "-W", "error::ImportWarning", "-c", code],
            env=env, capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0 and "NPY_DISABLE_CPU_FEATURES" in proc.stderr:
            pytest.skip("this NumPy rejects the baseline feature set: " + proc.stderr.strip().splitlines()[-1])
        assert proc.returncode == 0, proc.stderr
        key_order, got = proc.stdout.split(maxsplit=1)
        if key_order == "True":
            pytest.skip("argpartition lists key order with those features disabled too")
        assert got.strip() == repr(namespace["digests"]())


    def test_exact_threshold_boundary(self, exact_limit):
        for pool, m in ((10, 3), (12, 6), (200, 199), (25_000, 1)):
            total = math.comb(pool, m)
            exact_limit(total)
            plan = relabel_plan(pool, m)
            assert plan.exact and plan.n_resamples == total
            exact_limit(total - 1)
            plan = relabel_plan(pool, m, budget=50, seed=1)
            assert not plan.exact and plan.n_resamples == 50

    def test_default_limit_is_twenty_thousand_relabelings(self):
        # one treated slot among 20 000 is enumerated, among 20 001 sampled
        plan = relabel_plan(20_000, 1)
        assert plan.exact and plan.n_resamples == 20_000
        plan = relabel_plan(20_001, 1, budget=50, seed=1)
        assert not plan.exact and plan.n_resamples == 50

    def test_exactness_is_not_a_setting(self):
        with pytest.raises(TypeError):
            relabel_plan(200, 100, exact_threshold=1)
        with pytest.raises(TypeError):
            permutation_pvalue(TwoGroupSample([1.0, 2.0], [0.0, 3.0], 4), exact_threshold=1)

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
            relabel_plan(50, 10, budget=0)

    @pytest.mark.parametrize("budget", [2.5, 99.0, True, None])
    @pytest.mark.parametrize("limit", [1, 10**9])
    def test_budget_is_an_integer_for_sampled_and_exact_plans(self, exact_limit, budget, limit):
        exact_limit(limit)  # 10**9 enumerates C(30, 10) = 30 045 015
        message = "^" + re.escape(f"resample budget must be at least 1 and an integer, got {budget!r}") + "$"
        with pytest.raises(ValueError, match=message):
            relabel_plan(30, 10, budget=budget)

    def test_numpy_integer_budget_draws_as_the_int(self):
        a = relabel_plan(30, 10, budget=np.int32(99), seed=4)
        b = relabel_plan(30, 10, budget=99, seed=4)
        assert a.n_resamples == 99 and np.array_equal(a.selections, b.selections)


# a tagged draw (pool <= 256), an argpartition draw (257 to 10 000), an
# index-sampled draw (pool > 10 000, 2m <= pool) and an exact
# enumeration, each of more than one 1024-row block
_RANGE_PLANS = {
    "tagged": (66, 16, 2100),
    "argpartition": (300, 40, 1100),
    "indexed": (12_000, 3000, 2100),
    "exact": (14, 5, 10),  # C(14, 5) = 2002 relabelings
}
_one_pass = {}


def _one_pass_reduction(kind):
    """The plan, its values, and the whole draw's sums and hits in one pass."""
    if kind not in _one_pass:
        pool, m, budget = _RANGE_PLANS[kind]
        plan = relabel_plan(pool, m, budget=budget, seed=pool)
        values = generator(pool).normal(size=pool)
        _one_pass[kind] = (plan, values, *plan.reduce(values))
    return _one_pass[kind]


class TestRowRanges:
    @given(
        kind=st.sampled_from(sorted(_RANGE_PLANS)),
        chunk=st.sampled_from([1000, permtest._KEY_CHUNK]),
        cuts=st.lists(st.integers(0, 2100), max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_split_into_ranges_reduces_to_the_one_pass_sums_and_hits(self, kind, chunk, cuts):
        # chunk 1000 cuts a tagged block every 7 rows, an argpartition
        # block every 3, an index-sampled block every row (10 rows at the
        # default chunk) and the enumeration every 71, so ranges start
        # and end inside chunks and blocks; a repeated cut is an empty range
        plan, values, sums, hits = _one_pass_reduction(kind)
        n = plan.n_resamples
        assert n > 1024
        edges = [0, *sorted(min(c, n) for c in cuts), n]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(permtest, "_KEY_CHUNK", chunk)
            parts = [plan.reduce(values, lo, hi) for lo, hi in zip(edges, edges[1:])]
            bare_sums, no_hits = plan.reduce(values, edges[1], n, hits=False)
        assert np.concatenate([p[0] for p in parts]).tobytes() == sums.tobytes()
        assert np.concatenate([p[1] for p in parts]).tobytes() == hits.tobytes()
        assert no_hits is None and bare_sums.tobytes() == sums[edges[1] :].tobytes()

    def test_a_resumed_block_draws_the_uninterrupted_keys(self):
        # rows 1000..1100 cross the first block's edge: the first 24 rows
        # come from block 0 advanced past 1000 rows, the rest from block 1
        pool, m = 30, 10
        plan = relabel_plan(pool, m, budget=1500, seed=8)
        rows = np.vstack([chunk for _, chunk in plan._chunks(1000, 1100)])
        assert np.array_equal(rows, _unchunked_reference(pool, m, 1500, 8)[1000:1100])
        assert [lo for lo, _ in plan._chunks(1000, 1100)] == [1000, 1024]

    def test_a_resumed_index_block_draws_the_uninterrupted_rows(self):
        # an index row takes a varying number of draws, so rows 1000..1023
        # come from block 0 with its first 1000 rows drawn again; a chunk
        # holds _KEY_CHUNK // 6000 = 10 rows
        pool, m = 12_000, 3000
        plan = relabel_plan(pool, m, budget=1500, seed=8)
        rows = np.vstack([chunk for _, chunk in plan._chunks(1000, 1100)])
        assert np.array_equal(rows, _unchunked_reference(pool, m, 1500, 8)[1000:1100])
        assert [lo for lo, _ in plan._chunks(1000, 1100)] == [1000, 1010, 1020, *range(1024, 1100, 10)]


class TestTailPlanGrowth:
    @staticmethod
    def _sample(seed=5):
        y = generator(seed).normal(size=40)
        return TwoGroupSample(y[:15] + 0.3, y[15:], 40)

    @pytest.mark.parametrize("statistic", STATISTICS)
    @pytest.mark.parametrize("limit", [1, 10**12])
    def test_grown_draw_equals_the_draw_made_at_once(self, exact_limit, statistic, limit):
        sample = self._sample()
        exact_limit(limit)
        plan = relabel_plan(40, 15, budget=1500, seed=3)
        if plan.exact:  # C(40, 15) rows are too many to enumerate here
            plan = relabel_plan(12, 4)
            sample = TwoGroupSample(sample.treated[:4], sample.control[:8], 40)
        whole = TailPlan(sample, plan, statistic)
        grown = TailPlan(sample, plan, statistic, rows=100)
        assert grown.drawn == 100
        for rows in (100, 1024, 1100, None):
            grown.grow(rows)
        assert grown.drawn == whole.drawn == plan.n_resamples
        assert grown._sums.tobytes() == whole._sums.tobytes()
        assert grown.result() == whole.result()
        # only a draw made whole may be shifted, and only the means read hits
        assert grown._hits is None
        assert (whole._hits is None) == (statistic == "rank_sum")

    def test_a_partial_draw_has_no_result(self):
        tail = TailPlan(self._sample(), relabel_plan(40, 15, budget=499, seed=3), "diff_in_means", 96)
        with pytest.raises(ValueError, match="^the draw is partial: 96 of 499 relabelings drawn$"):
            tail.result()
        tail.grow(5000)  # never past the draw's end
        assert tail.drawn == 499 and tail.result().n_resamples == 499

    @pytest.mark.parametrize("seed", range(6))
    def test_bounds_bracket_the_whole_draw_and_meet_at_its_end(self, seed):
        sample = self._sample(seed)
        plan = relabel_plan(40, 15, budget=499, seed=seed)
        final = TailPlan(sample, plan, "diff_in_means").result()
        tail = TailPlan(sample, plan, "diff_in_means", 0)
        assert tail.bounds() == ((1 / 500, 1 / 500), (1.0, 1.0))
        for rows in (1, 96, 288, 498):
            tail.grow(rows)
            (le_lo, ge_lo), (le_hi, ge_hi) = tail.bounds()
            assert le_lo <= final.p_less <= le_hi and ge_lo <= final.p_greater <= ge_hi
            # the upper end counts every undrawn row: one fewer would be
            # a bound the whole draw can break
            assert le_hi - le_lo == pytest.approx((499 - rows) / 500) == ge_hi - ge_lo
        tail.grow()
        assert tail.bounds() == ((final.p_less, final.p_greater),) * 2

    def test_only_whole_means_draws_count_hits(self, monkeypatch):
        asked = []
        reduce = permtest.RelabelPlan.reduce

        def spy(plan, values, lo=0, hi=None, hits=True):
            asked.append(hits)
            return reduce(plan, values, lo, hi, hits)

        monkeypatch.setattr(permtest.RelabelPlan, "reduce", spy)
        plan = relabel_plan(40, 15, budget=499, seed=3)
        TailPlan(self._sample(), plan, "rank_sum")
        TailPlan(self._sample(), plan, "diff_in_means", rows=96).grow()
        TailPlan(self._sample(), plan, "diff_in_means")
        assert asked == [False, False, False, True]


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
    def test_add_one_correction_and_granularity(self, exact_limit):
        exact_limit(1)  # C(14, 6) = 3003 relabelings, sampled
        s = TwoGroupSample(np.arange(6, dtype=float), np.arange(6, 14, dtype=float), 14)
        r = permutation_pvalue(s, budget=99, seed=0)
        assert not r.exact and r.n_resamples == 99
        assert r.granularity == 1.0 / 100
        assert r.p_less >= 1.0 / 100 and r.p_greater >= 1.0 / 100

    def test_agrees_with_exact_within_mc_error(self, exact_limit):
        gen = generator(31)
        s = TwoGroupSample(gen.normal(0.4, 1, 4), gen.normal(0, 1, 8), 12)
        exact = permutation_pvalue(s)
        assert exact.exact and exact.n_resamples == math.comb(12, 4)
        exact_limit(1)
        mc = permutation_pvalue(s, budget=100_000, seed=5)
        for tail in ("p_less", "p_greater"):
            p = getattr(exact, tail)
            se = math.sqrt(p * (1 - p) / 100_000)
            assert abs(getattr(mc, tail) - p) <= 3 * se + 2 / 100_000

    def test_same_seed_reproduces(self, exact_limit):
        exact_limit(1)  # C(15, 5) = 3003 relabelings, sampled
        s = TwoGroupSample(np.arange(5, dtype=float), np.arange(10, dtype=float), 15)
        a = permutation_pvalue(s, budget=500, seed=4)
        b = permutation_pvalue(s, budget=500, seed=4)
        assert (a.p_less, a.p_greater) == (b.p_less, b.p_greater)

    def test_unseeded_calls_return_equal_results(self):
        s = TwoGroupSample(np.arange(10, dtype=float), np.arange(20, dtype=float), 30)
        assert permutation_pvalue(s, budget=99) == permutation_pvalue(s, budget=99)

    def test_a_seed_sequence_gives_the_same_draw_again_and_is_not_spawned(self):
        s = TwoGroupSample(np.arange(10, dtype=float), np.arange(20, dtype=float), 30)
        root = np.random.SeedSequence(2024)
        first = permutation_pvalue(s, budget=2500, seed=root)
        assert permutation_pvalue(s, budget=2500, seed=root) == first
        assert root.n_children_spawned == 0
        # a SeedSequence once used draws as a fresh one does
        assert first == permutation_pvalue(s, budget=2500, seed=np.random.SeedSequence(2024))

    def test_a_huge_budget_derives_no_stream_before_its_first_draw(self):
        plan = relabel_plan(1000, 500, budget=10**9, seed=3)
        assert plan.n_resamples == 10**9 and plan._streams == {}
        _, chunk = next(plan._chunks(0, 5))
        assert chunk.shape == (5, 500) and list(plan._streams) == [0]

    def test_location_invariance_exact_equality(self, exact_limit):
        exact_limit(1)  # C(15, 6) = 5005 relabelings, sampled
        gen = generator(8)
        t, c = gen.normal(0, 1, 6), gen.normal(0, 1, 9)
        a = permutation_pvalue(TwoGroupSample(t, c, 15), budget=400, seed=2)
        b = permutation_pvalue(TwoGroupSample(t + 17.5, c + 17.5, 15), budget=400, seed=2)
        assert (a.p_less, a.p_greater) == (b.p_less, b.p_greater)

    def test_shared_plan_overrides_budget(self, exact_limit):
        exact_limit(1)  # C(12, 4) = 495 relabelings, sampled
        s = TwoGroupSample(np.arange(4, dtype=float), np.arange(8, dtype=float), 12)
        plan = relabel_plan(12, 4, budget=250, seed=1)
        r = TailPlan(s, plan, "diff_in_means").result()
        assert r.n_resamples == 250
        assert r == permutation_pvalue(s, budget=250, seed=1)


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
        plan = relabel_plan(N, m, budget=40_000, seed=6)
        sums, _ = plan.reduce(sample.pooled())
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
