"""Confidence intervals by inverting (families of) permutation tests."""

import itertools
import math

import numpy as np
import pytest

from wedgeperm import (
    COMBINERS,
    CIConfig,
    ConfidenceInterval,
    CrossoverTimes,
    GridBracketError,
    TestConfig,
    TrialData,
    TwoGroupSample,
    build_family,
    diff_in_means,
    invert_combined,
    invert_single,
    permutation_pvalue,
    read_ci_csv,
    run_mcrts,
    shift_outcomes,
    tail_pvalues,
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
        # the qualifying set is the single point tau, which may fall
        # between grid nodes; the interval then collapses onto it
        tau = 2.0
        s = TwoGroupSample(np.full(6, tau), np.zeros(6), 12)
        ci = invert_single(s, CIConfig(alpha=0.10))
        assert ci.lower - 1e-5 <= tau <= ci.upper + 1e-5
        assert ci.length < 0.1

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

    def test_explicit_grid_and_resolution(self):
        s = gaussian_shift_sample(10, 10, 0.5, 10)
        cfg = CIConfig(alpha=0.10, grid=(-4.0, 5.0, 0.5), refine=True, refine_iters=12)
        ci = invert_single(s, cfg)
        assert ci.resolution == pytest.approx(0.5 / 2**12)
        assert -4.0 <= ci.lower <= ci.upper <= 5.0

    def test_unrefined_endpoints_sit_on_the_grid(self):
        s = gaussian_shift_sample(10, 10, 0.5, 11)
        cfg = CIConfig(alpha=0.10, grid=(-4.0, 5.0, 0.25), refine=False)
        ci = invert_single(s, cfg)
        for endpoint in (ci.lower, ci.upper):
            steps = (endpoint - (-4.0)) / 0.25
            assert steps == pytest.approx(round(steps), abs=1e-9)

    def test_refinement_tightens_within_one_step(self):
        s = gaussian_shift_sample(10, 10, 0.5, 11)
        coarse = invert_single(s, CIConfig(alpha=0.10, grid=(-4.0, 5.0, 0.25), refine=False))
        fine = invert_single(s, CIConfig(alpha=0.10, grid=(-4.0, 5.0, 0.25), refine=True))
        assert coarse.lower - 0.25 <= fine.lower <= coarse.lower + 1e-9
        assert coarse.upper <= fine.upper <= coarse.upper + 0.25 + 1e-9

    def test_bracket_failure_carries_boundary_pvalues(self):
        s = TwoGroupSample(np.full(6, 5.0) + 0.01 * np.arange(6), 0.01 * np.arange(6), 12)
        with pytest.raises(GridBracketError, match="widen the grid") as err:
            invert_single(s, CIConfig(alpha=0.10, grid=(-0.2, 0.2, 0.05)))
        assert 0.0 <= err.value.p2_hi < 0.05

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
        cfg = CIConfig(alpha=0.10, grid=(-2.0, 4.0, 0.1), test=TestConfig(statistic="rank_sum", budget=299))
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

    def test_grid_order(self):
        with pytest.raises(ValueError, match="grid"):
            CIConfig(grid=(1.0, -1.0, 0.1))

    def test_interval_endpoint_order_enforced(self):
        with pytest.raises(ValueError, match="out of order"):
            ConfidenceInterval(0, "single", 0.9, 2.0, 1.0, 0.01, 10)


class TestCiCsv:
    def test_round_trip_with_and_without_lag(self, tmp_path):
        path = tmp_path / "ci.csv"
        rows = [
            ConfidenceInterval(2, "weighted_z", 0.9, -0.25, 0.75, 0.001, 121),
            ConfidenceInterval(None, "single", 0.95, 0.1, 0.2, 0.001, 41),
        ]
        write_ci_csv(path, rows)
        back = read_ci_csv(path)
        assert [(r.lag, r.method, r.level) for r in back] == [
            (2, "weighted_z", 0.9),
            (None, "single", 0.95),
        ]
        assert back[0].lower == -0.25 and back[0].upper == 0.75

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "ci.csv"
        path.write_text("lag,method,level\n")
        from wedgeperm import DataFormatError

        with pytest.raises(DataFormatError, match="line 1"):
            read_ci_csv(path)
