"""Confidence intervals by inverting (families of) permutation tests."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from wedgeperm import (
    COMBINERS,
    ConfidenceInterval,
    CrossoverTimes,
    Sim1Config,
    TailPlan,
    TestConfig,
    TrialData,
    TwoGroupSample,
    bonferroni_combine,
    combined_from_mcrt,
    diff_in_means,
    fisher_combine,
    gen_outcomes_sim1,
    invert_combined,
    invert_single,
    permutation_pvalue,
    read_ci_csv,
    relabel_plan,
    run_mcrts,
    weighted_z_combine,
    weights_from_result,
    write_ci_csv,
)
from wedgeperm import mcrt
from wedgeperm.permtest import RelabelPlan, _ShiftIndex
from wedgeperm.rng import generator, seed_sequence

from conftest import constant_baseline_trial, make_trial


def gaussian_shift_sample(m: int, n: int, tau: float, seed: int) -> TwoGroupSample:
    rng = generator(seed, 17)
    return TwoGroupSample(rng.normal(tau, 1, m), rng.normal(0, 1, n), m + n)


def shift_index(sample: TwoGroupSample, tcfg: TestConfig = TestConfig()) -> _ShiftIndex:
    """The one-test lookup invert_single builds for ``sample``."""
    plan = relabel_plan(
        sample.n_treated + sample.n_control, sample.n_treated, budget=tcfg.budget, seed=seed_sequence(tcfg.seed, 0)
    )
    return _ShiftIndex([TailPlan(sample, plan, tcfg.statistic)])


def probe(index: _ShiftIndex, v: float, side: str) -> tuple[float, float, float, float]:
    """(p_less, p_greater, below, above) of a one-test lookup on the open
    cell just above (``side="right"``) or below (``"left"``) the shift v."""
    at, below, above = index.cell(v, side)
    return float(index.tail(at, "less")[0]), float(index.tail(at, "greater")[0]), below, above


def tails_at(index: _ShiftIndex, delta: float) -> tuple[float, float]:
    """Both tails at a shift that is not a candidate: the cells on either
    side of it are one cell, strictly between two candidates."""
    right = probe(index, delta, "right")
    assert probe(index, delta, "left") == right
    p_less, p_greater, below, above = right
    assert below < delta < above
    return p_less, p_greater


class TestShiftOutcomes:
    def test_true_effect_shift_centers_the_statistic(self):
        tau = 0.8
        gaps = []
        for seed in range(300):
            s = gaussian_shift_sample(6, 6, tau, seed)
            gaps.append(diff_in_means(TwoGroupSample(s.treated - tau, s.control, s.scale_n)))
        # mean of sqrt(N)(gap) ~ N(0, N*(1/m+1/n)); se of the average below
        se = math.sqrt(12 * (1 / 6 + 1 / 6) / 300)
        assert abs(float(np.mean(gaps))) < 3 * se


class TestTailPValues:
    def test_symmetric_pool_has_equal_tails_at_zero(self):
        s = TwoGroupSample([-2.0, -1.0, 1.0, 2.0], [-2.0, -1.0, 1.0, 2.0], 8)
        r = permutation_pvalue(s)
        assert r.p_less == r.p_greater

    def test_large_shift_drives_tails_apart(self):
        s = gaussian_shift_sample(5, 5, 0.0, 3)
        index = shift_index(s)
        p1_hi, p2_hi = tails_at(index, 50.0)
        assert p2_hi == 1.0 and p1_hi <= 1.0 / math.comb(10, 5) + 1e-12
        p1_lo, p2_lo = tails_at(index, -50.0)
        assert p1_lo == 1.0 and p2_lo <= 1.0 / math.comb(10, 5) + 1e-12

    def test_exact_enumeration_cross_check(self):
        s = gaussian_shift_sample(4, 4, 0.5, 4)
        delta = 0.7
        p1, p2 = tails_at(shift_index(s), delta)
        shifted = TwoGroupSample(s.treated - delta, s.control, s.scale_n)
        pool = shifted.pooled()
        obs = diff_in_means(shifted)
        stats = []
        for sel in itertools.combinations(range(8), 4):
            rest = [i for i in range(8) if i not in sel]
            stats.append(diff_in_means(TwoGroupSample(pool[list(sel)], pool[rest], 8)))
        stats = np.asarray(stats)
        assert p1 == pytest.approx(float((stats <= obs + 1e-12).mean()))
        assert p2 == pytest.approx(float((stats >= obs - 1e-12).mean()))

    def test_matches_permutation_pvalue_at_zero_shift(self):
        s = gaussian_shift_sample(8, 12, 0.2, 5)
        tcfg = TestConfig(budget=299, seed=9)
        p1, p2 = tails_at(shift_index(s, tcfg), 0.0)
        r = permutation_pvalue(s, budget=299, seed=seed_sequence(9, 0))
        assert (p1, p2) == (r.p_less, r.p_greater)

    def test_monotone_in_delta_under_shared_randomness(self):
        s = gaussian_shift_sample(10, 14, 0.4, 6)
        index = shift_index(s, TestConfig(budget=199, seed=2))
        deltas = np.linspace(-2, 2, 41)
        curves = [tails_at(index, d) for d in deltas]
        p1 = np.asarray([c[0] for c in curves])
        p2 = np.asarray([c[1] for c in curves])
        assert (np.diff(p1) <= 1e-12).all()
        assert (np.diff(p2) >= -1e-12).all()


class TestInvertSingle:
    def test_zero_noise_exact_effect_recovered(self):
        # every relabeling ties the observed statistic at tau, the only
        # candidate shift, so the set is the single point tau
        tau = 2.0
        s = TwoGroupSample(np.full(6, tau), np.zeros(6), 12)
        ci = invert_single(s, 0.10)
        assert (ci.lower, ci.upper) == (tau, tau)
        assert ci.length == 0.0

    def test_a_tail_at_half_alpha_rejects_as_the_test_does(self):
        # all 20 relabelings are enumerated; at zero shift p_greater is
        # 1/20, so the two-sided p-value is alpha and the test rejects 0
        s = TwoGroupSample([4.0, 5.0, 6.0], [1.0, 2.0, 3.0], 6)
        assert permutation_pvalue(s).p_greater == 0.05
        ci = invert_single(s, 0.10)
        assert (ci.lower, ci.upper) == (1.0, 5.0)

    def test_covers_point_estimate(self):
        s = gaussian_shift_sample(10, 10, 0.5, 7)
        ci = invert_single(s, 0.10, TestConfig(budget=499, seed=3))
        gap = float(s.treated.mean() - s.control.mean())
        assert ci.lower <= gap <= ci.upper

    def test_equivariance_under_treated_shift(self):
        c = 3.5
        s = gaussian_shift_sample(9, 9, 0.0, 8)
        shifted = TwoGroupSample(s.treated + c, s.control, s.scale_n)
        tcfg = TestConfig(budget=299, seed=4)
        a = invert_single(s, 0.10, tcfg)
        b = invert_single(shifted, 0.10, tcfg)
        assert b.lower == pytest.approx(a.lower + c, abs=1e-9)
        assert b.upper == pytest.approx(a.upper + c, abs=1e-9)

    def test_higher_confidence_never_shortens(self):
        s = gaussian_shift_sample(12, 12, 0.3, 9)
        tcfg = TestConfig(budget=399, seed=5)
        wide = invert_single(s, 0.10, tcfg)
        narrow = invert_single(s, 0.50, tcfg)
        assert narrow.lower >= wide.lower - 1e-9
        assert narrow.upper <= wide.upper + 1e-9
        assert narrow.length <= wide.length + 1e-9

    def test_coverage_at_ninety_percent(self):
        # 200 replicates of a constant-shift model at level 0.90
        tau, n_reps, covered = 0.5, 200, 0
        for rep in range(n_reps):
            s = gaussian_shift_sample(12, 12, tau, 2_000 + rep)
            ci = invert_single(s, 0.10, TestConfig(budget=299, seed=rep))
            covered += ci.lower <= tau <= ci.upper
        se = math.sqrt(0.9 * 0.1 / n_reps)
        assert covered / n_reps >= 0.90 - 3 * se


class TestRankStatisticPath:
    def test_tails_match_brute_force_recomputation(self):
        s = gaussian_shift_sample(4, 5, 0.6, 12)
        index = shift_index(s, TestConfig(statistic="rank_sum"))
        from scipy.stats import rankdata

        r = permutation_pvalue(s, statistic="rank_sum")
        assert tails_at(index, 0.0) == (r.p_less, r.p_greater)
        for delta in (-0.5, 0.0, 0.8):
            p1, p2 = tails_at(index, delta)
            pool = TwoGroupSample(s.treated - delta, s.control, s.scale_n).pooled()
            ranks = rankdata(pool)
            obs = ranks[:4].sum()
            sums = []
            for sel in itertools.combinations(range(9), 4):
                sums.append(ranks[list(sel)].sum())
            sums = np.asarray(sums)
            assert p1 == pytest.approx(float((sums <= obs).mean()))
            assert p2 == pytest.approx(float((sums >= obs).mean()))

    def test_interval_covers_effect(self):
        s = gaussian_shift_sample(10, 10, 1.0, 13)
        ci = invert_single(s, 0.10, TestConfig(statistic="rank_sum", budget=299))
        assert ci.lower <= 1.0 <= ci.upper

    def test_selections_are_gathered_once_per_kept_test(self, monkeypatch):
        reads = []
        gather = RelabelPlan.selections.fget
        monkeypatch.setattr(RelabelPlan, "selections", property(lambda plan: reads.append(plan) or gather(plan)))
        data = make_trial(60, (15, 15, 15, 15), lag=1, effect=0.4, seed=21, noise=0.5)
        family = run_mcrts(data, 1, TestConfig(budget=199, statistic="rank_sum", seed=5))
        assert reads == []  # the p-values reduce the draw chunk by chunk
        for method in COMBINERS:
            invert_combined(family, 0.10, method)
        # every combiner keeps every test here, so they share one lookup
        assert len(reads) == len(family.tests) == len({id(plan) for plan in reads})


class TestInvertCombined:
    def test_single_group_family_matches_invert_single(self):
        # T=2 at lag 0 produces exactly one test; the group is small
        # enough for exact enumeration, so streams cannot differ
        rng = generator(14)
        times = CrossoverTimes(np.repeat([1, 2], 5), 2)
        y = rng.normal(0, 1, (10, 3))
        y[times.times == 1, 1] += 0.7
        data = TrialData(np.arange(10), times, y)
        combined = invert_combined(run_mcrts(data, 0), 0.10, "weighted_z")
        group_sample = TwoGroupSample(y[times.times == 1, 1], y[times.times == 2, 1], 10)
        single = invert_single(group_sample, 0.10)
        assert combined.lower == pytest.approx(single.lower, abs=1e-6)
        assert combined.upper == pytest.approx(single.upper, abs=1e-6)

    @pytest.mark.parametrize("method", ["weighted_z", "fisher", "bonferroni"])
    def test_covers_injected_effect(self, method):
        tau, lag = 0.6, 1
        data = make_trial(96, (24, 24, 24, 24), lag=lag, effect=tau, seed=15, noise=0.3)
        ci = invert_combined(run_mcrts(data, lag), 0.10, method)
        assert ci.lower <= tau <= ci.upper
        assert ci.method == method and ci.lag == lag

    def test_effect_free_interval_contains_zero_mostly(self):
        covered = 0
        n_reps = 60
        for rep in range(n_reps):
            data = make_trial(40, (10, 10, 10, 10), seed=3_000 + rep)
            ci = invert_combined(run_mcrts(data, 0, TestConfig(budget=199, seed=rep)), 0.10)
            covered += ci.lower <= 0.0 <= ci.upper
        se = math.sqrt(0.9 * 0.1 / n_reps)
        assert covered / n_reps >= 0.90 - 3 * se

    def test_zero_noise_trial_recovers_exact_effect(self):
        # every arm is constant, so for each combiner the qualifying set
        # degenerates to the single point 1.5
        times = CrossoverTimes(np.repeat([1, 2, 3], 6), 3)
        family = run_mcrts(constant_baseline_trial(times, lag=0, effect=1.5), 0)
        for method in COMBINERS:
            ci = invert_combined(family, 0.10, method)
            assert ci.lower - 1e-5 <= 1.5 <= ci.upper + 1e-5
            assert ci.length < 0.1

    @pytest.mark.parametrize("method", ["weighted_z", "fisher", "bonferroni"])
    def test_no_testable_groups_give_the_whole_line(self, method):
        # a family with no test rejects no shift
        times = CrossoverTimes(np.asarray([1, 2, 2, 2]), 2)
        data = TrialData(np.arange(4), times, np.random.default_rng(0).normal(size=(4, 3)))
        family = run_mcrts(data, 0)
        assert not family.tests
        ci = invert_combined(family, 0.10, method)
        assert (ci.lower, ci.upper, ci.n_grid) == (-math.inf, math.inf, 0)
        assert not ci.empty and ci.length == math.inf


def dyadic_trial(seed: int) -> TrialData:
    """Nine units crossing at times 1, 2, 3, three each, with outcomes on
    a 1/8 grid: at lag 0 the family is an exactly enumerated 3-vs-6 and
    3-vs-3 test, with ties within and across arms."""
    rng = generator(seed, 31)
    times = CrossoverTimes(np.repeat([1, 2, 3], 3), 3)
    return TrialData(np.arange(9), times, rng.integers(-12, 13, (9, 4)) / 8.0)


def _fraction_midranks(values):
    return [sum(u < v for u in values) + Fraction(sum(u == v for u in values) + 1, 2) for v in values]


def _exact_tails(sample: TwoGroupSample, delta: Fraction, statistic: str):
    """Both tails of the exactly enumerated test shifted by delta, in Fractions."""
    m = sample.n_treated
    pool = [Fraction(x) - delta for x in sample.treated] + [Fraction(y) for y in sample.control]
    if statistic == "rank_sum":
        pool = _fraction_midranks(pool)
    # with the pool fixed, the difference in means grows with the treated sum
    sums = [sum(pool[i] for i in sel) for sel in itertools.combinations(range(len(pool)), m)]
    obs = sum(pool[:m])
    return Fraction(sum(s <= obs for s in sums), len(sums)), Fraction(sum(s >= obs for s in sums), len(sums))


def _candidates(sample: TwoGroupSample, statistic: str) -> set:
    """Shifts at which some relabeling can change side, in Fractions."""
    x = [Fraction(v) for v in sample.treated]
    y = [Fraction(v) for v in sample.control]
    if statistic == "rank_sum":
        return {a - b for a in x for b in y}
    m, pool = len(x), x + y
    out = set()
    for sel in itertools.combinations(range(len(pool)), m):
        hits = sum(i < m for i in sel)
        if hits < m:
            out.add((sum(x) - sum(pool[i] for i in sel)) / (m - hits))
    return out


class ExactOracle:
    """The accepted set of a family, from Fraction tails at every candidate
    shift, between each neighbouring pair and beyond both ends."""

    def __init__(self, samples, statistic, combined, alpha):
        self.cands = sorted(set().union(*(_candidates(s, statistic) for s in samples)))
        points = [self.cands[0] - 1]
        for a, b in zip(self.cands, self.cands[1:]):
            points += [a, (a + b) / 2]
        self.points = points + [self.cands[-1], self.cands[-1] + 1]
        self.samples, self.statistic, self.combined = samples, statistic, combined
        self.thr = alpha / 2

    def accepts(self, delta: Fraction) -> tuple[bool, bool]:
        """Whether the combined p_less and p_greater are above alpha/2 at delta."""
        tails = [_exact_tails(s, delta, self.statistic) for s in self.samples]
        return (
            self.combined([float(p) for p, _ in tails]) > self.thr,
            self.combined([float(q) for _, q in tails]) > self.thr,
        )

    def interval(self) -> tuple:
        # odd positions of ``points`` are candidates, even ones the open
        # cells between them (ends included)
        flags = [self.accepts(d) for d in self.points]
        less_ok = [i for i, (ok, _) in enumerate(flags) if ok]
        greater_ok = [i for i, (_, ok) in enumerate(flags) if ok]
        if not less_ok or not greater_ok:
            return None
        i, j = greater_ok[0], less_ok[-1]
        lower = -math.inf if i == 0 else self.points[i if i % 2 else i - 1]
        upper = math.inf if j == len(self.points) - 1 else self.points[j if j % 2 else j + 1]
        return None if lower > upper else (lower, upper)

    def neighbours(self, endpoint: float) -> tuple[Fraction, Fraction, Fraction]:
        """The candidate at ``endpoint`` and the midpoints to the next
        candidate on each side (one unit out at an end)."""
        k = min(range(len(self.cands)), key=lambda i: abs(self.cands[i] - Fraction(endpoint)))
        c = self.cands[k]
        below = (self.cands[k - 1] + c) / 2 if k > 0 else c - 1
        above = (c + self.cands[k + 1]) / 2 if k + 1 < len(self.cands) else c + 1
        return c, below, above


class TestExactEndpoints:
    @pytest.mark.parametrize("alpha", [0.10, 0.30])
    @pytest.mark.parametrize("method", ["single", "weighted_z", "fisher", "bonferroni"])
    @pytest.mark.parametrize("statistic", ["diff_in_means", "rank_sum"])
    def test_endpoints_match_fraction_oracle(self, statistic, method, alpha):
        data = dyadic_trial(40 + int(100 * alpha))
        tcfg = TestConfig(statistic=statistic)
        family = run_mcrts(data, 0, tcfg)
        tails = [t.tail for t in family.tests]
        assert all(tail.exact for tail in tails)
        samples = [tail.sample for tail in tails]
        if method == "single":
            samples = samples[:1]
            ci = invert_single(samples[0], alpha, tcfg)
            combined = lambda p: p[0]
        else:
            ci = invert_combined(family, alpha, method)
            if method == "weighted_z":
                w = weights_from_result(family)
                assert len(w) == len(samples)
                gran = [t.result.granularity for t in family.tests]
                combined = lambda p: weighted_z_combine(p, w, gran).p_value
            else:
                combined = lambda p: (fisher_combine if method == "fisher" else bonferroni_combine)(p).p_value
        oracle = ExactOracle(samples, statistic, combined, alpha)
        expected = oracle.interval()
        assert expected is not None
        # rank candidates are exact differences; a mean-difference candidate
        # is rounded once, in its division by the number of swapped slots
        ulps = 0 if statistic == "rank_sum" else 1
        for got, want in zip((ci.lower, ci.upper), expected):
            assert math.isfinite(got), (ci, expected)
            assert abs(got - float(want)) <= ulps * math.ulp(float(want))
        # the decision flips across each endpoint, strictly between candidates
        _, below, above = oracle.neighbours(ci.lower)
        assert not oracle.accepts(below)[1] and oracle.accepts(above)[1]
        _, below, above = oracle.neighbours(ci.upper)
        assert oracle.accepts(below)[0] and not oracle.accepts(above)[0]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_adjacent_float_candidates(self, sign):
        # treated values one ulp apart make neighbouring candidates with no
        # float between them at the upper endpoint (the lower one when
        # mirrored), so the search must decide from the cells beside them
        u = math.ulp(1.0)
        s = TwoGroupSample(sign * (1.0 + u * np.arange(4)), sign * np.array([0.0, 0.0, 0.5, 1.5]), 8)
        ci = invert_single(s, 0.30, TestConfig(statistic="rank_sum"))
        oracle = ExactOracle([s], "rank_sum", lambda p: p[0], 0.30)
        assert (ci.lower, ci.upper) == tuple(float(e) for e in oracle.interval())
        endpoint = Fraction(ci.upper if sign > 0 else ci.lower)
        assert any(abs(c - endpoint) == u for c in oracle.cands)

    @pytest.mark.parametrize("statistic", ["diff_in_means", "rank_sum"])
    def test_cells_beside_each_candidate(self, statistic):
        tail = run_mcrts(dyadic_trial(3), 0, TestConfig(statistic=statistic)).tests[0].tail
        index = _ShiftIndex([tail])
        cands = sorted(_candidates(tail.sample, statistic))
        edges = [cands[0] - 1] + cands + [cands[-1] + 1]
        for k, c in enumerate(cands, start=1):
            for side, (lo, hi) in (("left", edges[k - 1 : k + 1]), ("right", edges[k : k + 2])):
                p_less, p_greater, below, above = probe(index, float(c), side)
                exact = _exact_tails(tail.sample, (lo + hi) / 2, statistic)
                assert (p_less, p_greater) == tuple(float(p) for p in exact)
                assert below == (float(lo) if lo in cands else -math.inf)
                assert above == (float(hi) if hi in cands else math.inf)

    def test_empty_set_is_reported_as_empty(self):
        # Bonferroni's combined tails never both reach alpha/2 here: the
        # lower endpoint (about 0.509) exceeds the upper one (about 0.201)
        data = gen_outcomes_sim1(Sim1Config(100, 6, lag=1, effect=0.3), generator(19))
        family = run_mcrts(data, 1)
        ci = invert_combined(family, 0.10, "bonferroni")
        assert ci.empty and math.isnan(ci.lower) and math.isnan(ci.upper)
        assert ci.length == 0.0
        tails = [t.tail for t in family.tests]
        k = len(tails)
        indexes = [_ShiftIndex([tail]) for tail in tails]
        for delta in np.linspace(-1.0, 2.0, 3001):
            # on both sides of each point, in case it is a candidate
            for side in ("left", "right"):
                cells = [probe(index, float(delta), side) for index in indexes]
                p_less = min(1.0, k * min(c[0] for c in cells))
                p_greater = min(1.0, k * min(c[1] for c in cells))
                assert not (p_less >= 0.05 and p_greater >= 0.05)
        assert not invert_combined(family, 0.10, "weighted_z").empty

    def test_unbounded_sides_are_infinite(self):
        # two against two has six relabelings, so no p-value falls below
        # 1/6 and every shift is accepted at alpha = 0.10
        s = TwoGroupSample([0.5, 1.25], [0.0, -0.75], 4)
        ci = invert_single(s, 0.10)
        assert (ci.lower, ci.upper, ci.length) == (-math.inf, math.inf, math.inf)
        assert not ci.empty
        finite = invert_single(s, 0.40)
        assert math.isfinite(finite.lower) and math.isfinite(finite.upper)


@pytest.fixture
def built_indexes(monkeypatch):
    """The tails of every family shift index built while the test runs."""
    built = []

    class Counted(_ShiftIndex):
        def __init__(self, tails):
            built.append(tuple(tails))
            super().__init__(tails)

    monkeypatch.setattr(mcrt, "_ShiftIndex", Counted)
    return built


class TestSharedFamily:
    @pytest.mark.parametrize("statistic", ["diff_in_means", "rank_sum"])
    def test_shared_family_matches_independent_builds(self, statistic, built_indexes):
        lag = 1
        data = make_trial(60, (15, 15, 15, 15), lag=lag, effect=0.4, seed=21, noise=0.5)
        tcfg = TestConfig(budget=199, statistic=statistic, seed=5)
        family = run_mcrts(data, lag, tcfg)
        assert family == run_mcrts(data, lag, tcfg)
        for method in COMBINERS:
            # the family's relabelings are read, never redrawn, so a
            # second inversion matches one from a fresh family
            first = invert_combined(family, 0.10, method)
            again = invert_combined(family, 0.10, method)
            fresh = invert_combined(run_mcrts(data, lag, tcfg), 0.10, method)
            assert first == again == fresh
        # one index per family: the three combiners of ``family`` read one,
        # and each fresh family builds its own
        tails = tuple(t.tail for t in family.tests)
        assert sum(b == tails for b in built_indexes) == 1
        assert len(built_indexes) == 1 + len(COMBINERS)

    def test_constant_arm_test_is_weighted_and_shares_the_lookup(self, built_indexes):
        data = make_trial(60, (15, 15, 15, 15), lag=0, effect=0.4, seed=21, noise=0.5)
        outcomes = data.outcomes.copy()
        outcomes[:, 2] = 1.0  # both arms of the time-2 test are constant
        data = TrialData(data.units, data.times, outcomes)
        tcfg = TestConfig(budget=199, seed=5)
        family = run_mcrts(data, 0, tcfg)
        assert 2 in [t.test_time for t in family.tests]
        assert len(weights_from_result(family)) == len(family.tests)
        assert combined_from_mcrt(family, "weighted_z").n_tests == len(family.tests)
        for method in ("weighted_z", "fisher", "bonferroni", "weighted_z"):
            assert invert_combined(family, 0.10, method) == invert_combined(run_mcrts(data, 0, tcfg), 0.10, method)
        tails = tuple(t.tail for t in family.tests)
        assert sum(b == tails for b in built_indexes) == 1

    def test_equality_and_repr_ignore_the_kept_lookups(self):
        data = make_trial(60, (15, 15, 15, 15), lag=1, effect=0.4, seed=21, noise=0.5)
        family, other = run_mcrts(data, 1), run_mcrts(data, 1)
        invert_combined(family, 0.10, "fisher")
        assert "_shift_index" in vars(family) and "_shift_index" not in vars(other)
        assert family == other
        assert repr(family) == repr(other)


class TestFamilyLookup:
    def test_matches_direct_counts_on_monte_carlo_family(self, exact_limit):
        # outcomes on a 0.1 grid make tests share candidate shifts, and the
        # 5-vs-5 test has relabelings that never change side
        exact_limit(1)  # every test is sampled, the 5-vs-5 one too
        data = gen_outcomes_sim1(Sim1Config(20, 4, lag=0, effect=0.3), generator(23))
        data = TrialData(data.units, data.times, np.round(data.outcomes, 1))
        family = run_mcrts(data, 0, TestConfig(budget=499, seed=8))
        direct = []
        tails = [t.tail for t in family.tests]
        for test, tail in zip(family.tests, tails):
            m, pool = tail.sample.n_treated, tail.sample.pooled()
            plan = relabel_plan(pool.size, m, budget=499, seed=seed_sequence(8, test.test_time))
            sums, hits = plan.reduce(pool)
            obs, moves = float(pool[:m].sum()), hits < m
            fixed = sums[~moves]
            breaks = (obs - sums[moves]) / (m - hits[moves])
            direct.append((breaks, int((fixed <= obs).sum()), int((fixed >= obs).sum())))
        cands = np.unique(np.concatenate([d for d, _, _ in direct]))
        assert (sum(np.isin(cands, d) for d, _, _ in direct) >= 2).any()
        assert any(le or ge for _, le, ge in direct)

        index = _ShiftIndex(tails)
        probes = [(-math.inf, "right"), (math.inf, "left")]
        probes += [(float(c), side) for c in cands for side in ("left", "right")]
        for v, side in probes:
            at, below, above = index.cell(v, side)
            # on the cell just above v a relabeling with candidate d is at or
            # above the observed statistic when d <= v; just below v when d < v
            up = [(d <= v if side == "right" else d < v).sum() for d, _, _ in direct]
            assert index.tail(at, "less").tolist() == [
                (1 + le + d.size - u) / 500 for (d, le, _), u in zip(direct, up)
            ]
            assert index.tail(at, "greater").tolist() == [(1 + ge + u) / 500 for (_, _, ge), u in zip(direct, up)]
            under = cands[cands <= v] if side == "right" else cands[cands < v]
            over = cands[cands > v] if side == "right" else cands[cands >= v]
            assert below == (under[-1] if under.size else -math.inf)
            assert above == (over[0] if over.size else math.inf)


# (trial, statistic, lag, combiner, lower, upper, n_grid), recorded from the
# per-test evaluator that preceded the family lookup; the weighted_z rows
# were recorded again when its weights came to depend on arm sizes alone
PINNED_INTERVALS = [
    ("raw", "diff_in_means", 0, "weighted_z", -0.25139322686927557, -0.00965750885442208, 29),
    ("raw", "diff_in_means", 0, "fisher", -0.2591746054102637, -0.004576572971387065, 27),
    ("raw", "diff_in_means", 0, "bonferroni", -0.31260485410555905, 0.10134597595744564, 26),
    ("raw", "diff_in_means", 1, "weighted_z", 0.05594762795159861, 0.3684520352474781, 26),
    ("raw", "diff_in_means", 1, "fisher", 0.05947098029110048, 0.3350300308869244, 28),
    ("raw", "diff_in_means", 1, "bonferroni", 0.05594762795159861, 0.27322886446815886, 28),
    ("raw", "diff_in_means", 2, "weighted_z", -0.28726719867926676, 0.054448656036206224, 27),
    ("raw", "diff_in_means", 2, "fisher", -0.30777687855786495, 0.06915604255444764, 31),
    ("raw", "diff_in_means", 2, "bonferroni", -0.47227408796152154, 0.20083611053689232, 26),
    ("raw", "diff_in_means", 3, "weighted_z", -0.25947835720874934, 0.15834492637648032, 28),
    ("raw", "diff_in_means", 3, "fisher", -0.28741467630900935, 0.20568507920712772, 26),
    ("raw", "diff_in_means", 3, "bonferroni", -0.37172305652632903, 0.3096177508085087, 27),
    ("raw", "diff_in_means", 4, "weighted_z", -0.30298214752877967, 0.1529109803079495, 27),
    ("raw", "diff_in_means", 4, "fisher", -0.3422686325809785, 0.18556051425445474, 27),
    ("raw", "diff_in_means", 4, "bonferroni", -0.4315954446979333, 0.28297520405188514, 25),
    ("raw", "rank_sum", 0, "weighted_z", -0.2542769945483918, -0.016415322643520636, 30),
    ("raw", "rank_sum", 0, "fisher", -0.2542769945483918, -0.01341240272404809, 30),
    ("raw", "rank_sum", 0, "bonferroni", -0.30581277278611707, 0.08490157967645251, 28),
    ("raw", "rank_sum", 1, "weighted_z", 0.03583387203316324, 0.34808452197378226, 27),
    ("raw", "rank_sum", 1, "fisher", 0.03509094284777481, 0.3515037753302437, 27),
    ("raw", "rank_sum", 1, "bonferroni", 0.0034338046665296496, 0.260095738364043, 28),
    ("raw", "rank_sum", 2, "weighted_z", -0.3630883736641082, 0.00363668154760477, 27),
    ("raw", "rank_sum", 2, "fisher", -0.3584518524956142, 0.00955268410744825, 29),
    ("raw", "rank_sum", 2, "bonferroni", -0.4773151088717036, 0.09467165503832842, 27),
    ("raw", "rank_sum", 3, "weighted_z", -0.3100332133628392, 0.1504249489334033, 23),
    ("raw", "rank_sum", 3, "fisher", -0.35544717223979094, 0.20214220780840297, 23),
    ("raw", "rank_sum", 3, "bonferroni", -0.37503616904587367, 0.2126942302083572, 24),
    ("raw", "rank_sum", 4, "weighted_z", -0.35314147847579624, 0.10612949175508035, 22),
    ("raw", "rank_sum", 4, "fisher", -0.3955781977912447, 0.17025542206609368, 22),
    ("raw", "rank_sum", 4, "bonferroni", -0.49682030272138755, 0.33982088855561043, 25),
    ("rounded", "diff_in_means", 0, "weighted_z", -0.25, -0.009090909090909139, 27),
    ("rounded", "diff_in_means", 0, "fisher", -0.2599999999999998, -3.700743415417188e-17, 28),
    ("rounded", "diff_in_means", 0, "bonferroni", -0.28181818181818197, 0.1142857142857144, 25),
    ("rounded", "diff_in_means", 1, "weighted_z", 0.06666666666666761, 0.3777777777777776, 26),
    ("rounded", "diff_in_means", 1, "fisher", 0.07999999999999971, 0.3444444444444446, 28),
    ("rounded", "diff_in_means", 1, "bonferroni", 0.08333333333333333, 0.3000000000000007, 25),
    ("rounded", "diff_in_means", 2, "weighted_z", -0.29999999999999954, 0.04999999999999982, 27),
    ("rounded", "diff_in_means", 2, "fisher", -0.31428571428571417, 0.07500000000000018, 24),
    ("rounded", "diff_in_means", 2, "bonferroni", -0.48571428571428604, 0.21666666666666737, 26),
    ("rounded", "diff_in_means", 3, "weighted_z", -0.25999999999999945, 0.15000000000000094, 24),
    ("rounded", "diff_in_means", 3, "fisher", -0.28999999999999987, 0.20000000000000018, 23),
    ("rounded", "diff_in_means", 3, "bonferroni", -0.366666666666666, 0.31666666666666643, 24),
    ("rounded", "diff_in_means", 4, "weighted_z", -0.3, 0.1555555555555554, 24),
    ("rounded", "diff_in_means", 4, "fisher", -0.3333333333333339, 0.18000000000000113, 23),
    ("rounded", "diff_in_means", 4, "bonferroni", -0.4199999999999989, 0.27500000000000036, 23),
    ("rounded", "rank_sum", 0, "weighted_z", -0.20000000000000018, 0.0, 17),
    ("rounded", "rank_sum", 0, "fisher", -0.20000000000000018, 0.0, 17),
    ("rounded", "rank_sum", 0, "bonferroni", -0.30000000000000004, 0.10000000000000009, 20),
    ("rounded", "rank_sum", 1, "weighted_z", 0.09999999999999964, 0.3999999999999999, 19),
    ("rounded", "rank_sum", 1, "fisher", 0.09999999999999964, 0.30000000000000027, 19),
    ("rounded", "rank_sum", 1, "bonferroni", 0.0, 0.2999999999999998, 15),
    ("rounded", "rank_sum", 2, "weighted_z", -0.3999999999999999, 0.0, 16),
    ("rounded", "rank_sum", 2, "fisher", -0.3999999999999999, 0.0, 16),
    ("rounded", "rank_sum", 2, "bonferroni", -0.5, 0.10000000000000009, 18),
    ("rounded", "rank_sum", 3, "weighted_z", -0.30000000000000004, 0.19999999999999973, 16),
    ("rounded", "rank_sum", 3, "fisher", -0.30000000000000027, 0.19999999999999996, 17),
    ("rounded", "rank_sum", 3, "bonferroni", -0.30000000000000027, 0.19999999999999973, 16),
    ("rounded", "rank_sum", 4, "weighted_z", -0.30000000000000027, 0.10000000000000009, 18),
    ("rounded", "rank_sum", 4, "fisher", -0.3999999999999999, 0.19999999999999973, 16),
    ("rounded", "rank_sum", 4, "bonferroni", -0.5, 0.30000000000000027, 17),
]


class TestFixedSeedIntervals:
    def test_endpoints_and_evaluations_are_pinned(self):
        data = gen_outcomes_sim1(Sim1Config(100, 8, lag=1, effect=0.3), generator(7))
        trials = {"raw": data, "rounded": TrialData(data.units, data.times, np.round(data.outcomes, 1))}
        families = {}
        for trial, statistic, lag, method, lower, upper, n_grid in PINNED_INTERVALS:
            key = (trial, statistic, lag)
            if key not in families:
                families[key] = run_mcrts(trials[trial], lag, TestConfig(statistic=statistic, seed=11))
            ci = invert_combined(families[key], 0.10, method)
            got = (repr(ci.lower), repr(ci.upper), ci.n_grid)
            assert got == (repr(lower), repr(upper), n_grid), (key, method)


class TestIntervalArguments:
    def test_alpha_checked_before_any_draw(self, monkeypatch):
        def no_draw(plan, values, *rows, **hits):
            raise AssertionError("relabelings drawn")

        monkeypatch.setattr(RelabelPlan, "reduce", no_draw)
        s = TwoGroupSample([0.5, 1.25, 2.0], [0.0, -0.75, 0.25], 6)
        for alpha in (0.0, 1.0, 1.5, -0.1, math.nan):
            with pytest.raises(ValueError, match="alpha"):
                invert_single(s, alpha)
        with pytest.raises(AssertionError, match="relabelings drawn"):
            invert_single(s, 0.10)

    def test_alpha_bounds(self):
        s = TwoGroupSample([0.5, 1.25, 2.0], [0.0, -0.75, 0.25], 6)
        family = run_mcrts(make_trial(40, (10, 10, 10, 10), seed=22), 0, TestConfig(budget=99))
        for alpha in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError, match="alpha"):
                invert_single(s, alpha)
            with pytest.raises(ValueError, match="alpha"):
                invert_combined(family, alpha)

    def test_empty_sets_compare_and_hash_equal(self):
        a = ConfidenceInterval(1, "fisher", 0.9, float("nan"), float("nan"), 0)
        b = ConfidenceInterval(1, "fisher", 0.9, float("nan"), float("nan"), 0)
        assert a == b and hash(a) == hash(b)
        assert a != ConfidenceInterval(1, "fisher", 0.9, 0.0, 0.0, 0)

    def test_interval_endpoint_order_enforced(self):
        with pytest.raises(ValueError, match="out of order"):
            ConfidenceInterval(0, "single", 0.9, 2.0, 1.0, 10)
        with pytest.raises(ValueError, match="both endpoints nan"):
            ConfidenceInterval(0, "single", 0.9, math.nan, 1.0, 10)


class TestCiCsv:
    def test_round_trip_with_and_without_lag(self, tmp_path):
        path = tmp_path / "ci.csv"
        rows = [
            ConfidenceInterval(2, "weighted_z", 0.9, -0.25, 0.75, 121),
            ConfidenceInterval(None, "single", 0.95, 0.1, 0.2, 41),
            ConfidenceInterval(1, "bonferroni", 0.9, math.nan, math.nan, 26),
            ConfidenceInterval(0, "fisher", 0.9, -math.inf, math.inf, 2),
        ]
        write_ci_csv(path, rows)
        assert path.read_text().splitlines()[3:] == ["1,bonferroni,0.9,nan,nan", "0,fisher,0.9,-inf,inf"]
        back = read_ci_csv(path)
        assert [(r.lag, r.method, r.level) for r in back] == [
            (2, "weighted_z", 0.9),
            (None, "single", 0.95),
            (1, "bonferroni", 0.9),
            (0, "fisher", 0.9),
        ]
        assert back[0].lower == -0.25 and back[0].upper == 0.75
        assert [r.empty for r in back] == [False, False, True, False]
        # an empty set read back equals another read and the one written, but for n_grid
        assert read_ci_csv(path) == back and back[2] == ConfidenceInterval(1, "bonferroni", 0.9, math.nan, math.nan, 0)
        assert back[2].length == 0.0
        assert (back[3].lower, back[3].upper, back[3].length) == (-math.inf, math.inf, math.inf)

    def test_zero_endpoint_is_written_as_positive_zero(self, tmp_path):
        # the rank-sum candidates here include -0.0 - 0.0, which is -0.0, at the upper endpoint
        s = TwoGroupSample([0.0, 0.0, -0.0, -1.0, -0.0, -1.0], [0.0, 1.0, -0.0, -1.0, 0.0, 0.0], 12)
        ci = invert_single(s, 0.2, TestConfig(statistic="rank_sum"))
        assert (repr(ci.lower), repr(ci.upper)) == ("-1.0", "0.0")
        path = tmp_path / "ci.csv"
        write_ci_csv(path, [ci])
        assert path.read_text().splitlines()[1] == ",single,0.8,-1.0,0.0"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "ci.csv"
        path.write_text("lag,method,level\n")
        from wedgeperm import DataFormatError

        with pytest.raises(DataFormatError, match="line 1"):
            read_ci_csv(path)
