"""Confidence intervals by inverting (families of) permutation tests."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from wedgeperm import (
    COMBINERS,
    CIConfig,
    ConfidenceInterval,
    CrossoverTimes,
    Sim1Config,
    TestConfig,
    TrialData,
    TwoGroupSample,
    build_family,
    bonferroni_combine,
    diff_in_means,
    fisher_combine,
    gen_outcomes_sim1,
    invert_combined,
    invert_single,
    permutation_pvalue,
    read_ci_csv,
    run_mcrts,
    shift_outcomes,
    tail_pvalues,
    weighted_z_combine,
    weights_from_result,
    write_ci_csv,
)
from wedgeperm.rng import generator, seed_sequence

from conftest import constant_baseline_trial, make_trial


def gaussian_shift_sample(m: int, n: int, tau: float, seed: int) -> TwoGroupSample:
    rng = generator(seed, 17)
    return TwoGroupSample(rng.normal(tau, 1, m), rng.normal(0, 1, n), m + n)


class TestShiftOutcomes:
    def test_zero_shift_is_identity(self):
        s = gaussian_shift_sample(4, 4, 0.3, 1)
        out = shift_outcomes(s, 0.0)
        assert np.array_equal(out.treated, s.treated)
        assert np.array_equal(out.control, s.control)

    def test_round_trip(self):
        s = gaussian_shift_sample(4, 4, 0.3, 2)
        back = shift_outcomes(shift_outcomes(s, 1.25), -1.25)
        assert np.allclose(back.treated, s.treated)

    def test_true_effect_shift_centers_the_statistic(self):
        tau = 0.8
        gaps = []
        for seed in range(300):
            s = gaussian_shift_sample(6, 6, tau, seed)
            gaps.append(diff_in_means(shift_outcomes(s, tau)))
        # mean of sqrt(N)(gap) ~ N(0, N*(1/m+1/n)); se of the average below
        se = math.sqrt(12 * (1 / 6 + 1 / 6) / 300)
        assert abs(float(np.mean(gaps))) < 3 * se


class TestTailPValues:
    def test_symmetric_pool_has_equal_tails_at_zero(self):
        s = TwoGroupSample([-2.0, -1.0, 1.0, 2.0], [-2.0, -1.0, 1.0, 2.0], 8)
        p1, p2 = tail_pvalues(s, 0.0, CIConfig())
        assert p1 == p2

    def test_large_shift_drives_tails_apart(self):
        s = gaussian_shift_sample(5, 5, 0.0, 3)
        p1_hi, p2_hi = tail_pvalues(s, 50.0, CIConfig())
        assert p2_hi == 1.0 and p1_hi <= 1.0 / math.comb(10, 5) + 1e-12
        p1_lo, p2_lo = tail_pvalues(s, -50.0, CIConfig())
        assert p1_lo == 1.0 and p2_lo <= 1.0 / math.comb(10, 5) + 1e-12

    def test_exact_enumeration_cross_check(self):
        s = gaussian_shift_sample(4, 4, 0.5, 4)
        delta = 0.7
        p1, p2 = tail_pvalues(s, delta, CIConfig())
        shifted = shift_outcomes(s, delta)
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
        cfg = CIConfig(test=TestConfig(budget=299, exact_threshold=1, seed=9))
        p1, p2 = tail_pvalues(s, 0.0, cfg)
        r = permutation_pvalue(
            s, budget=299, exact_threshold=1, seed=seed_sequence(9, 0)
        )
        assert (p1, p2) == (r.p_less, r.p_greater)

    def test_monotone_in_delta_under_shared_randomness(self):
        s = gaussian_shift_sample(10, 14, 0.4, 6)
        cfg = CIConfig(test=TestConfig(budget=199, exact_threshold=1, seed=2))
        deltas = np.linspace(-2, 2, 41)
        curves = [tail_pvalues(s, d, cfg) for d in deltas]
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
        ci = invert_single(s, CIConfig(alpha=0.10))
        assert (ci.lower, ci.upper) == (tau, tau)
        assert ci.length == 0.0

    def test_covers_point_estimate(self):
        s = gaussian_shift_sample(10, 10, 0.5, 7)
        ci = invert_single(s, CIConfig(alpha=0.10, test=TestConfig(budget=499, seed=3)))
        gap = float(s.treated.mean() - s.control.mean())
        assert ci.lower <= gap <= ci.upper

    def test_equivariance_under_treated_shift(self):
        c = 3.5
        s = gaussian_shift_sample(9, 9, 0.0, 8)
        shifted = TwoGroupSample(s.treated + c, s.control, s.scale_n)
        cfg = CIConfig(alpha=0.10, test=TestConfig(budget=299, seed=4))
        a = invert_single(s, cfg)
        b = invert_single(shifted, cfg)
        assert b.lower == pytest.approx(a.lower + c, abs=1e-9)
        assert b.upper == pytest.approx(a.upper + c, abs=1e-9)

    def test_higher_confidence_never_shortens(self):
        s = gaussian_shift_sample(12, 12, 0.3, 9)
        tcfg = TestConfig(budget=399, seed=5)
        wide = invert_single(s, CIConfig(alpha=0.10, test=tcfg))
        narrow = invert_single(s, CIConfig(alpha=0.50, test=tcfg))
        assert narrow.lower >= wide.lower - 1e-9
        assert narrow.upper <= wide.upper + 1e-9
        assert narrow.length <= wide.length + 1e-9

    def test_coverage_at_ninety_percent(self):
        # 200 replicates of a constant-shift model at level 0.90
        tau, n_reps, covered = 0.5, 200, 0
        for rep in range(n_reps):
            s = gaussian_shift_sample(12, 12, tau, 2_000 + rep)
            cfg = CIConfig(alpha=0.10, test=TestConfig(budget=299, seed=rep))
            ci = invert_single(s, cfg)
            covered += ci.lower <= tau <= ci.upper
        se = math.sqrt(0.9 * 0.1 / n_reps)
        assert covered / n_reps >= 0.90 - 3 * se


class TestRankStatisticPath:
    def test_tails_match_brute_force_recomputation(self):
        s = gaussian_shift_sample(4, 5, 0.6, 12)
        cfg = CIConfig(test=TestConfig(statistic="rank_sum"))
        from scipy.stats import rankdata

        for delta in (-0.5, 0.0, 0.8):
            p1, p2 = tail_pvalues(s, delta, cfg)
            pool = shift_outcomes(s, delta).pooled()
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
        cfg = CIConfig(alpha=0.10, test=TestConfig(statistic="rank_sum", budget=299))
        ci = invert_single(s, cfg)
        assert ci.lower <= 1.0 <= ci.upper


class TestInvertCombined:
    def test_single_group_family_matches_invert_single(self):
        # T=2 at lag 0 produces exactly one test; the group is small
        # enough for exact enumeration, so streams cannot differ
        rng = generator(14)
        times = CrossoverTimes(np.repeat([1, 2], 5), 2)
        y = rng.normal(0, 1, (10, 3))
        y[times.times == 1, 1] += 0.7
        data = TrialData(np.arange(10), times, y)
        cfg = CIConfig(alpha=0.10)
        combined = invert_combined(data, 0, cfg, method="weighted_z")
        group_sample = TwoGroupSample(y[times.times == 1, 1], y[times.times == 2, 1], 10)
        single = invert_single(group_sample, cfg)
        assert combined.lower == pytest.approx(single.lower, abs=1e-6)
        assert combined.upper == pytest.approx(single.upper, abs=1e-6)

    @pytest.mark.parametrize("method", ["weighted_z", "fisher", "bonferroni"])
    def test_covers_injected_effect(self, method):
        tau, lag = 0.6, 1
        data = make_trial(96, (24, 24, 24, 24), lag=lag, effect=tau, seed=15, noise=0.3)
        ci = invert_combined(data, lag, CIConfig(alpha=0.10), method=method)
        assert ci.lower <= tau <= ci.upper
        assert ci.method == method and ci.lag == lag

    def test_effect_free_interval_contains_zero_mostly(self):
        covered = 0
        n_reps = 60
        for rep in range(n_reps):
            data = make_trial(40, (10, 10, 10, 10), seed=3_000 + rep)
            cfg = CIConfig(alpha=0.10, test=TestConfig(budget=199, seed=rep))
            ci = invert_combined(data, 0, cfg)
            covered += ci.lower <= 0.0 <= ci.upper
        se = math.sqrt(0.9 * 0.1 / n_reps)
        assert covered / n_reps >= 0.90 - 3 * se

    def test_zero_noise_trial_recovers_exact_effect(self):
        # constant arms carry no precision weights, so combine with
        # fisher; the qualifying set degenerates to the single point 1.5
        times = CrossoverTimes(np.repeat([1, 2, 3], 6), 3)
        data = constant_baseline_trial(times, lag=0, effect=1.5)
        ci = invert_combined(data, 0, CIConfig(alpha=0.10), method="fisher")
        assert ci.lower - 1e-5 <= 1.5 <= ci.upper + 1e-5
        assert ci.length < 0.1

    def test_no_testable_groups_rejected(self):
        times = CrossoverTimes(np.asarray([1, 2, 2, 2]), 2)
        data = TrialData(np.arange(4), times, np.random.default_rng(0).normal(size=(4, 3)))
        with pytest.raises(ValueError, match="no testable groups"):
            invert_combined(data, 0, CIConfig())


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
        """Whether the combined p_less and p_greater reach alpha/2 at delta."""
        tails = [_exact_tails(s, delta, self.statistic) for s in self.samples]
        return (
            self.combined([float(p) for p, _ in tails]) >= self.thr,
            self.combined([float(q) for _, q in tails]) >= self.thr,
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
        cfg = CIConfig(alpha=alpha, test=tcfg)
        family = build_family(data, 0, tcfg)
        assert all(tail.exact for tail in family.tails)
        samples = [tail.sample for tail in family.tails]
        if method == "single":
            samples = samples[:1]
            ci = invert_single(samples[0], cfg)
            combined = lambda p: p[0]
        else:
            ci = invert_combined(data, 0, cfg, method=method, family=family)
            if method == "weighted_z":
                wv = weights_from_result(family.result())
                assert len(wv.test_times) == len(samples)
                gran = [t.granularity for t in family.tests]
                combined = lambda p: weighted_z_combine(p, wv, gran).p_value
            else:
                combined = lambda p: (fisher_combine if method == "fisher" else bonferroni_combine)(p).p_value
        oracle = ExactOracle(samples, statistic, combined, alpha)
        expected = oracle.interval()
        assert expected is not None and ci.resolution == 0.0
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
        ci = invert_single(s, CIConfig(alpha=0.30, test=TestConfig(statistic="rank_sum")))
        oracle = ExactOracle([s], "rank_sum", lambda p: p[0], 0.30)
        assert (ci.lower, ci.upper) == tuple(float(e) for e in oracle.interval())
        endpoint = Fraction(ci.upper if sign > 0 else ci.lower)
        assert any(abs(c - endpoint) == u for c in oracle.cands)

    @pytest.mark.parametrize("statistic", ["diff_in_means", "rank_sum"])
    def test_cells_beside_each_candidate(self, statistic):
        tail = build_family(dyadic_trial(3), 0, TestConfig(statistic=statistic)).tails[0]
        cands = sorted(_candidates(tail.sample, statistic))
        edges = [cands[0] - 1] + cands + [cands[-1] + 1]
        for k, c in enumerate(cands, start=1):
            for side, (lo, hi) in (("left", edges[k - 1 : k + 1]), ("right", edges[k : k + 2])):
                p_less, p_greater, below, above = tail.cell(float(c), side)
                exact = _exact_tails(tail.sample, (lo + hi) / 2, statistic)
                assert (p_less, p_greater) == tuple(float(p) for p in exact)
                assert below == (float(lo) if lo in cands else -math.inf)
                assert above == (float(hi) if hi in cands else math.inf)

    def test_empty_set_is_reported_as_empty(self):
        # Bonferroni's combined tails never both reach alpha/2 here: the
        # lower endpoint (about 0.509) exceeds the upper one (about 0.201)
        data = gen_outcomes_sim1(Sim1Config(100, 6, lag=1, effect=0.3), generator(19))
        cfg = CIConfig(alpha=0.10)
        ci = invert_combined(data, 1, cfg, method="bonferroni")
        assert ci.empty and math.isnan(ci.lower) and math.isnan(ci.upper)
        assert ci.length == 0.0
        family = build_family(data, 1, cfg.test)
        deltas = np.linspace(-1.0, 2.0, 3001)
        tails = [tail.tails(deltas) for tail in family.tails]
        k = len(tails)
        p_less = np.minimum(1.0, k * np.min([t[0] for t in tails], axis=0))
        p_greater = np.minimum(1.0, k * np.min([t[1] for t in tails], axis=0))
        assert not ((p_less >= 0.05) & (p_greater >= 0.05)).any()
        assert not invert_combined(data, 1, cfg, method="weighted_z", family=family).empty

    def test_unbounded_sides_are_infinite(self):
        # two against two has six relabelings, so no p-value falls below
        # 1/6 and every shift is accepted at alpha = 0.10
        s = TwoGroupSample([0.5, 1.25], [0.0, -0.75], 4)
        ci = invert_single(s, CIConfig(alpha=0.10))
        assert (ci.lower, ci.upper, ci.length) == (-math.inf, math.inf, math.inf)
        assert not ci.empty
        finite = invert_single(s, CIConfig(alpha=0.40))
        assert math.isfinite(finite.lower) and math.isfinite(finite.upper)


class TestSharedFamily:
    @pytest.mark.parametrize("statistic", ["diff_in_means", "rank_sum"])
    def test_shared_family_matches_independent_builds(self, statistic):
        lag = 1
        data = make_trial(60, (15, 15, 15, 15), lag=lag, effect=0.4, seed=21, noise=0.5)
        tcfg = TestConfig(budget=199, statistic=statistic, seed=5)
        cfg = CIConfig(alpha=0.10, test=tcfg)
        family = build_family(data, lag, tcfg)
        shared = run_mcrts(data, lag, tcfg, family=family)
        alone = run_mcrts(data, lag, tcfg)
        assert shared == alone
        for method in COMBINERS:
            a = invert_combined(data, lag, cfg, method=method, family=family)
            b = invert_combined(data, lag, cfg, method=method)
            assert (a.lower, a.upper, a.n_grid) == (b.lower, b.upper, b.n_grid)

    def test_family_for_another_lag_or_config_rejected(self):
        data = make_trial(40, (10, 10, 10, 10), seed=22)
        tcfg = TestConfig(budget=99, seed=6)
        family = build_family(data, 0, tcfg)
        with pytest.raises(ValueError, match="family was built"):
            invert_combined(data, 1, CIConfig(test=tcfg), family=family)
        with pytest.raises(ValueError, match="family was built"):
            run_mcrts(data, 0, TestConfig(budget=199, seed=6), family=family)


class TestCIConfig:
    def test_alpha_bounds(self):
        with pytest.raises(ValueError, match="alpha"):
            CIConfig(alpha=0.0)

    def test_interval_endpoint_order_enforced(self):
        with pytest.raises(ValueError, match="out of order"):
            ConfidenceInterval(0, "single", 0.9, 2.0, 1.0, 0.01, 10)
        with pytest.raises(ValueError, match="both endpoints nan"):
            ConfidenceInterval(0, "single", 0.9, math.nan, 1.0, 0.0, 10)


class TestCiCsv:
    def test_round_trip_with_and_without_lag(self, tmp_path):
        path = tmp_path / "ci.csv"
        rows = [
            ConfidenceInterval(2, "weighted_z", 0.9, -0.25, 0.75, 0.001, 121),
            ConfidenceInterval(None, "single", 0.95, 0.1, 0.2, 0.001, 41),
            ConfidenceInterval(1, "bonferroni", 0.9, math.nan, math.nan, 0.0, 26),
            ConfidenceInterval(0, "fisher", 0.9, -math.inf, math.inf, 0.0, 2),
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
        assert back[2].length == 0.0
        assert (back[3].lower, back[3].upper, back[3].length) == (-math.inf, math.inf, math.inf)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "ci.csv"
        path.write_text("lag,method,level\n")
        from wedgeperm import DataFormatError

        with pytest.raises(DataFormatError, match="line 1"):
            read_ci_csv(path)
