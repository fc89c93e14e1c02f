"""P-value combiners: design weights, weighted-Z, Fisher, Bonferroni, and their exact size."""

import math
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc, ndtr, ndtri

from wedgeperm import (
    COMBINERS,
    CombinedPValue,
    CrossoverTimes,
    DesignSpec,
    TestConfig,
    TrialData,
    bonferroni_combine,
    combined_from_mcrt,
    enumerate_crossover_vectors,
    fisher_combine,
    run_mcrts,
    weighted_z_combine,
    weights_from_result,
)
from wedgeperm.combine import _chi2_even_sf, _norm_cdf, _normal_scores
from wedgeperm.rng import generator

from conftest import make_trial

EQUAL2 = np.full(2, math.sqrt(0.5))


def stub_test(test_time, n_treated, n_control, p_less=0.5, p_greater=0.5):
    """Duck-typed completed test for weighting and combining."""
    return SimpleNamespace(
        test_time=test_time,
        n_treated=n_treated,
        n_control=n_control,
        result=SimpleNamespace(p_less=p_less, p_greater=p_greater),
        tail=SimpleNamespace(granularity=0.002, sample=SimpleNamespace(n_treated=n_treated, n_control=n_control)),
    )


class TestWeightedZ:
    def test_single_test_is_identity(self):
        out = weighted_z_combine([0.05], np.asarray([1.0]))
        assert out.p_value == pytest.approx(0.05, abs=1e-12)

    def test_two_medians_stay_median(self):
        out = weighted_z_combine([0.5, 0.5], EQUAL2)
        assert out.statistic == pytest.approx(0.0, abs=1e-12)
        assert out.p_value == pytest.approx(0.5, abs=1e-12)

    def test_rejects_nonpositive_pvalue(self):
        with pytest.raises(ValueError, match="strictly positive"):
            weighted_z_combine([0.0, 0.5], EQUAL2)

    def test_rejects_pvalue_above_one(self):
        with pytest.raises(ValueError, match="exceed 1"):
            weighted_z_combine([1.2, 0.5], EQUAL2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "combine",
        [lambda p: weighted_z_combine(p, EQUAL2), fisher_combine, bonferroni_combine],
        ids=["weighted_z", "fisher", "bonferroni"],
    )
    def test_rejects_non_finite_pvalue(self, combine, bad):
        with pytest.raises(ValueError, match="p-values must be finite"):
            combine([bad, 0.001])

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(ValueError, match="sum to 1"):
            weighted_z_combine([0.5, 0.5], np.asarray([1.0, 1.0]))

    def test_unit_pvalue_needs_granularity(self):
        with pytest.raises(ValueError, match="granularity"):
            weighted_z_combine([1.0, 0.5], EQUAL2)

    def test_unit_pvalue_capped_by_half_granularity(self):
        out = weighted_z_combine([1.0, 1.0], EQUAL2, granularity=[0.01, 0.01])
        capped = weighted_z_combine([1.0 - 0.005, 1.0 - 0.005], EQUAL2)
        assert out.p_value == pytest.approx(capped.p_value)
        assert out.p_value < 1.0

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -0.1, 1.5, math.inf])
    def test_granularity_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match=re.escape("granularity values must lie in (0, 1]")):
            weighted_z_combine([1.0, 0.001], EQUAL2, granularity=[bad, 0.1])

    @pytest.mark.parametrize(
        "granularity, message",
        [([math.nan, 7.0], "granularity values must lie in (0, 1]"),
         ([0.1] * 5, "granularity must be one value or one per p-value")],
        ids=["nan-and-too-large", "misaligned"],
    )
    def test_granularity_checked_without_a_unit_pvalue(self, granularity, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            weighted_z_combine([0.5, 0.2], [0.6, 0.8], granularity=granularity)

    def test_one_granularity_serves_every_test(self):
        one = weighted_z_combine([1.0, 0.2], [0.6, 0.8], granularity=0.01)
        assert one == weighted_z_combine([1.0, 0.2], [0.6, 0.8], granularity=[0.01, 0.01])

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([math.nan, 1.0], "weights must be finite"),
            ([math.inf, 1.0], "weights must be finite"),
            ([-math.inf, 1.0], "weights must be finite"),
            ([0.9, 0.9], "squared weights must sum to 1 within 1e-12"),
            ([0.0, 1.0], "weights must be strictly positive"),
            ([-0.6, 0.8], "weights must be strictly positive"),
            ([[0.6, 0.8]], "weights must be a non-empty 1-d vector"),
            ([], "weights must be a non-empty 1-d vector"),
            ([1.0], "weights and p-values must align"),
            ([0.6, 0.48, 0.64], "weights and p-values must align"),
        ],
        ids=["nan", "inf", "-inf", "unnormalized", "zero", "negative", "2-d", "empty", "too-few", "too-many"],
    )
    def test_rejects_bad_weights(self, weights, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            weighted_z_combine([0.2, 0.9], weights)


class TestFisher:
    def test_single_test_is_identity(self):
        assert fisher_combine([0.37]).p_value == pytest.approx(0.37, abs=1e-12)

    def test_all_ones_give_one(self):
        out = fisher_combine([1.0, 1.0, 1.0])
        assert out.statistic == 0.0 and out.p_value == 1.0

    def test_tail_rounded_past_one_is_capped(self):
        # the chi-square tail rounds to 1.0000000000000002 here
        assert fisher_combine([1, 1, 1, 1, 1, 0.998]).p_value == 1.0

    def test_uniform_inputs_stay_uniform(self):
        rng = generator(77)
        n = 100_000
        P = rng.uniform(size=(n, 3))
        out = np.sort([fisher_combine(row).p_value for row in P])
        grid = np.arange(1, n + 1) / n
        ks = float(np.max(np.maximum(np.abs(out - grid), np.abs(out - grid + 1 / n))))
        assert ks < 0.01


class TestBonferroni:
    def test_scales_minimum(self):
        assert bonferroni_combine([0.01, 0.5]).p_value == pytest.approx(0.02)

    def test_all_ones_capped(self):
        assert bonferroni_combine([1.0, 1.0, 1.0]).p_value == 1.0


def ulps_apart(a, b) -> np.ndarray:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))


def attainable_pvalues() -> np.ndarray:
    """Every p-value a test can report, sorted: Monte Carlo, exact, and capped."""
    ps = set()
    for budget in (99, 499, 999, 9999):
        ps.update((1 + c) / (budget + 1) for c in range(budget))
        ps.add(1.0 - 0.5 / (budget + 1))
    for m in {math.comb(n, k) for n in range(2, 17) for k in range(1, n)}:
        ps.update(c / m for c in range(1, m))
        ps.add(1.0 - 0.5 / m)
    return np.asarray(sorted(ps))


class TestNormalAndChiSquareTails:
    """The in-package distribution functions against SciPy's."""

    def test_quantile_matches_ndtri_and_is_monotone(self):
        p = attainable_pvalues()
        ours = np.asarray(_normal_scores(p, None))
        assert ulps_apart(ours, ndtri(p)).max() <= 64
        assert (np.diff(ours) >= 0).all()
        # a cap below one ulp of 1 leaves p = 1, whose quantile is inf as in ndtri
        assert _normal_scores(np.asarray([1.0, 0.5]), 1e-17) == [math.inf, 0.0]

    def test_cdf_matches_ndtr(self):
        x = np.linspace(-38.0, 38.0, 76_001)
        ours = np.asarray([_norm_cdf(v) for v in x.tolist()])
        ref = ndtr(x)
        apart = ulps_apart(ours, ref)
        assert (apart[np.abs(x) <= 8] <= 64).all()
        # ndtr forms exp(-z*z) from a rounded square, which alone moves it
        # up to x**2 / 2 ulps in the lower tail; past x = -37.7 it returns 0
        # where the true value is subnormal
        assert (apart[ref > 0] <= (64 + x**2 / 2)[ref > 0]).all()
        assert (ours[ref == 0] < np.finfo(np.float64).tiny).all()
        assert (np.diff(ours) >= 0).all()

    def test_even_df_chi_square_tail_matches_gammaincc(self):
        eps = np.finfo(np.float64).eps
        y = np.geomspace(1e-12, 2000.0, 3001)
        for k in range(1, 41):
            ref = gammaincc(k, y)
            ours = np.asarray([_chi2_even_sf(k, v) for v in y.tolist()])
            # gammaincc exponentiates the rounded k*log(y) - y - lgamma(k),
            # an error of about that exponent times eps of its own
            exponent = np.abs(k * np.log(y) - y - math.lgamma(k))
            rtol = np.maximum(1e-13, 4 * eps * exponent)
            big = ref >= 1e-300
            assert (np.abs(ours - ref)[big] <= (rtol * ref)[big]).all(), k
            assert (ours[ref >= np.finfo(np.float64).tiny] > 0).all(), k

    @pytest.mark.parametrize(
        "k, y, expected, rtol",
        [
            # the regularized upper incomplete gamma to 256 bits, rounded
            (10, 750.0, 3.9825649431765975e-306, 1e-14),
            (26, 750.9, 3.9982065857104005e-280, 1e-14),
            (39, 776.8, 5.957011129890495e-273, 1e-14),
            (38, 813.3, 2.233747937592235e-289, 1e-14),
            # the sum itself overflows: terms are summed in log space
            (1000, 1204.0, 6.45420572869353e-10, 1e-12),
        ],
    )
    def test_chi_square_tail_deep_values(self, k, y, expected, rtol):
        assert _chi2_even_sf(k, y) == pytest.approx(expected, rel=rtol, abs=0)


class TestCombinerMonotonicity:
    @given(
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_decreasing_an_input_never_raises_output(self, pvals, data):
        k = data.draw(st.integers(0, len(pvals) - 1))
        factor = data.draw(st.floats(0.1, 0.99))
        lowered = list(pvals)
        lowered[k] = pvals[k] * factor
        w = np.full(len(pvals), math.sqrt(1 / len(pvals)))
        gran = [0.001] * len(pvals)
        for combine in (
            lambda p: weighted_z_combine(p, w, gran).p_value,
            lambda p: fisher_combine(p).p_value,
            lambda p: bonferroni_combine(p).p_value,
        ):
            assert combine(lowered) <= combine(pvals) + 1e-12


class TestWeightsFromResult:
    def test_identical_tests_share_weight_equally(self):
        tests = [stub_test(1, 5, 5), stub_test(2, 5, 5)]
        wv = combined_from_mcrt(SimpleNamespace(tests=tests), "weighted_z", "greater")
        # symmetric case collapses to the equal-weight combination
        direct = weighted_z_combine([0.5, 0.5], EQUAL2, [0.002, 0.002])
        assert wv.p_value == pytest.approx(direct.p_value)

    def test_three_test_hand_computation(self):
        spec = [(1, 10, 30), (2, 8, 16), (3, 12, 12)]
        tests = [stub_test(*row) for row in spec]
        w = weights_from_result(SimpleNamespace(tests=tests))
        # 1 / (1/n1 + 1/n0): 7.5, 16/3 and 6, one weight per test in order
        lam = np.asarray([n1 * n0 / (n1 + n0) for _, n1, n0 in spec])
        assert np.allclose(lam, [7.5, 16 / 3, 6.0])
        assert w.shape == (3,)
        assert np.allclose(w, np.sqrt(lam / lam.sum()))
        assert float((w**2).sum()) == pytest.approx(1.0, abs=1e-12)

    def test_weights_depend_on_arm_sizes_alone(self):
        # every assignment of a design has the same arm sizes, so the
        # weights do not move with the assignment or the outcomes, and a
        # test whose arms are constant keeps its weight
        weights = set()
        for seed in range(4):
            data = make_trial(24, (8, 8, 8), seed=seed)
            for y in (data.outcomes, np.zeros_like(data.outcomes)):
                res = run_mcrts(TrialData(data.units, data.times, y), 0, TestConfig(budget=49, seed=seed))
                weights.add(tuple(weights_from_result(res).tolist()))
        assert len(weights) == 1

    def test_constant_arm_test_excluded_and_renormalized(self):
        # a test whose arms are both constant is no longer excluded: it
        # keeps its arm-size weight, and the squared weights are
        # normalized over the whole family
        data = make_trial(24, (8, 8, 8), seed=4)
        cfg = TestConfig(budget=49, seed=4)
        base = run_mcrts(data, 0, cfg)
        y = data.outcomes.copy()
        y[:, base.tests[1].outcome_time] = 3.0
        res = run_mcrts(TrialData(data.units, data.times, y), 0, cfg)
        w = weights_from_result(res)
        assert [t.test_time for t in res.tests] == [t.test_time for t in base.tests]
        assert w.shape == (len(res.tests),)
        lam = np.asarray([t.n_treated * t.n_control / (t.n_treated + t.n_control) for t in res.tests])
        assert np.allclose(w, np.sqrt(lam / lam.sum()))
        assert np.array_equal(w, weights_from_result(base))
        assert float((w**2).sum()) == pytest.approx(1.0, abs=1e-12)

    def test_all_tests_unweightable_rejected(self):
        # only an empty arm leaves a test without a design weight
        for arms in ([(0, 5)], [(5, 0), (0, 5)], [(5, 5), (0, 5)]):
            tests = [stub_test(k + 1, n1, n0) for k, (n1, n0) in enumerate(arms)]
            with pytest.raises(ValueError, match="empty arm cannot be weighted"):
                weights_from_result(SimpleNamespace(tests=tests))

    def test_empty_result_rejected(self):
        with pytest.raises(ValueError, match="no completed tests"):
            weights_from_result(SimpleNamespace(tests=()))

    def test_squared_weights_sum_to_one_on_real_runs(self):
        for seed in range(5):
            data = make_trial(24, (8, 8, 8), seed=seed)
            res = run_mcrts(data, 0, TestConfig(budget=49, seed=seed))
            w = weights_from_result(res)
            assert float((w**2).sum()) == pytest.approx(1.0, abs=1e-12)


class TestCombinedFromTests:
    def test_two_sided_doubles_smaller_tail(self):
        data = make_trial(24, (8, 8, 8), seed=2)
        res = run_mcrts(data, 0, TestConfig(budget=99, seed=6))
        lo = combined_from_mcrt(res, "fisher", "less").p_value
        hi = combined_from_mcrt(res, "fisher", "greater").p_value
        two = combined_from_mcrt(res, "fisher", "two-sided").p_value
        assert two == pytest.approx(min(1.0, 2.0 * min(lo, hi)))

    def test_default_alternative_is_greater(self):
        data = make_trial(24, (8, 8, 8), seed=2)
        res = run_mcrts(data, 0, TestConfig(budget=99, seed=6))
        assert combined_from_mcrt(res, "fisher").alternative == "greater"

    def test_unknown_method_rejected(self):
        tests = [stub_test(1, 5, 5)]
        with pytest.raises(ValueError, match="unknown combiner"):
            combined_from_mcrt(SimpleNamespace(tests=tests), "tippett", "greater")
        with pytest.raises(ValueError, match="unknown combiner"):
            combined_from_mcrt(SimpleNamespace(tests=()), "tippett", "greater")

    @pytest.mark.parametrize(
        "tests, method",
        [
            ((), "weighted_z"),
            ((), "fisher"),
            ((), "bonferroni"),
        ],
        ids=["empty-weighted_z", "empty-fisher", "empty-bonferroni"],
    )
    @pytest.mark.parametrize("alternative", ["less", "greater", "two-sided"])
    def test_no_kept_test_gives_p_one(self, tests, method, alternative):
        combined = combined_from_mcrt(SimpleNamespace(tests=tests), method, alternative)
        assert (combined.p_value, combined.n_tests, combined.alternative) == (1.0, 0, alternative)
        assert math.isnan(combined.statistic)

    def test_invariant_on_result_type(self):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            CombinedPValue("fisher", "greater", 0.0, 0.0, 2)


class TestPipelineNullValidity:
    def test_combined_pvalues_valid_under_global_null(self, exact_limit):
        exact_limit(1)  # every test is sampled, though its pool is small enough to enumerate
        n_reps = 2000
        cfg_budget = 199
        methods = ("weighted_z", "fisher", "bonferroni")
        pvals = {m: np.empty(n_reps) for m in methods}
        for rep in range(n_reps):
            data = make_trial(18, (6, 6, 6), seed=50_000 + rep)
            res = run_mcrts(data, 0, TestConfig(budget=cfg_budget, seed=rep))
            for m in methods:
                pvals[m][rep] = combined_from_mcrt(res, m, "greater").p_value
        for m in methods:
            for alpha in (0.01, 0.05, 0.1):
                rate = float((pvals[m] <= alpha).mean())
                se = math.sqrt(alpha * (1 - alpha) / n_reps)
                assert rate <= alpha + 3 * se, f"{m} at {alpha}: {rate}"


class TestExactSize:
    """Each combiner's size under the sharp null, by exact enumeration.

    Every assignment of a small design is equally likely and the outcome
    panel is fixed, so the size at level a is the share of assignments
    whose combined p-value is at most a.  Unit scales spread widely, so
    the arms' variances differ from one assignment to the next.
    """

    @pytest.mark.parametrize(
        "n_units, counts, lag, seed",
        [(9, (3, 3, 3), 0, 3), (9, (3, 3, 3), 0, 9), (8, (2, 2, 2, 2), 1, 3)],
        ids=["N9-333-lag0-seed3", "N9-333-lag0-seed9", "N8-2222-lag1-seed3"],
    )
    def test_no_combiner_exceeds_its_level(self, n_units, counts, lag, seed):
        spec = DesignSpec(n_units, counts)
        rng = generator(seed)
        y = rng.standard_normal((n_units, spec.n_times + 1)) * np.exp(1.5 * rng.standard_normal(n_units))[:, None]
        cases = [(m, alt) for m in COMBINERS for alt in ("greater", "less", "two-sided")]
        pvalues = {case: [] for case in cases}
        for vec in enumerate_crossover_vectors(spec):
            family = run_mcrts(TrialData(np.arange(n_units), CrossoverTimes(vec, spec.n_times), y), lag)
            assert all(t.tail.exact for t in family.tests)
            for method, alternative in cases:
                pvalues[method, alternative].append(combined_from_mcrt(family, method, alternative).p_value)
        excess = []
        for case, ps in pvalues.items():
            ps = np.sort(ps)
            for a in np.unique(ps[ps <= 0.5]).tolist():
                count = int(np.searchsorted(ps, a, side="right"))
                if count > Fraction(a) * ps.size:
                    excess.append((case, a, count, ps.size))
        # the first assignment count above its bound, per failing case
        assert not excess, {case: (a, count, n) for case, a, count, n in reversed(excess)}
