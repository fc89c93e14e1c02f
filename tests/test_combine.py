"""P-value combiners: precision weights, weighted-Z, Fisher, Bonferroni."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc, ndtr, ndtri

from wedgeperm import (
    CombinedPValue,
    TestConfig,
    WeightVector,
    bonferroni_combine,
    combined_from_mcrt,
    estimate_lambda,
    fisher_combine,
    run_mcrts,
    weighted_z_combine,
    weights_from_result,
)
from wedgeperm.combine import _chi2_even_sf, _norm_cdf, _normal_scores
from wedgeperm.rng import generator

from conftest import make_trial

EQUAL2 = np.full(2, math.sqrt(0.5))


def standardized(rng, size: int, sd: float = 1.0) -> np.ndarray:
    """Draws rescaled so the sample variance is exactly sd**2."""
    x = rng.normal(0, 1, size)
    return sd * (x - x.mean()) / x.std(ddof=1)


def stub_test(test_time, var_treated, var_control, n_treated, n_control, p_less=0.5, p_greater=0.5):
    """Duck-typed completed test for weighting and combining."""
    return SimpleNamespace(
        test_time=test_time,
        var_treated=var_treated,
        var_control=var_control,
        n_treated=n_treated,
        n_control=n_control,
        result=SimpleNamespace(p_less=p_less, p_greater=p_greater, granularity=0.002),
    )


class TestEstimateLambda:
    def test_unit_variances_equal_arms(self):
        treated = np.asarray([-1.0, 0.0, 1.0])
        control = np.asarray([5.0, 6.0, 7.0])
        assert estimate_lambda(treated, control, 6) == pytest.approx(0.25)

    def test_doubling_outcomes_quarters_lambda(self):
        rng = generator(4)
        t, c = rng.normal(0, 1, 8), rng.normal(0, 2, 10)
        base = estimate_lambda(t, c, 18)
        assert estimate_lambda(2 * t, 2 * c, 18) == pytest.approx(base / 4)

    def test_monotone_in_arm_sizes(self):
        rng = generator(5)
        control = standardized(rng, 6, sd=2.0)
        small = estimate_lambda(standardized(rng, 4), control, 40)
        large = estimate_lambda(standardized(rng, 12), control, 40)
        assert large > small
        bigger_control = estimate_lambda(standardized(rng, 4), np.tile(control, 3), 40)
        assert bigger_control > small

    def test_rejects_singleton_arm(self):
        with pytest.raises(ValueError, match="two outcomes"):
            estimate_lambda([1.0], [0.0, 1.0], 3)

    def test_rejects_doubly_constant_arms(self):
        with pytest.raises(ValueError, match="zero variance"):
            estimate_lambda([1.0, 1.0], [2.0, 2.0], 4)


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

    def test_accepts_weight_vector_object(self):
        wv = WeightVector(EQUAL2, (1, 2))
        out = weighted_z_combine([0.2, 0.9], wv)
        assert 0.0 < out.p_value <= 1.0


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


class TestWeightVector:
    def test_squared_sum_enforced(self):
        with pytest.raises(ValueError, match="sum to 1"):
            WeightVector(np.asarray([0.9, 0.9]), (1, 2))

    def test_lambda_consistency_enforced(self):
        with pytest.raises(ValueError, match="sqrt"):
            WeightVector(EQUAL2, (1, 2), lambdas=np.asarray([1.0, 2.0]))

    def test_symmetric_lambdas_accepted(self):
        wv = WeightVector(EQUAL2, (1, 2), lambdas=np.asarray([0.3, 0.3]))
        assert wv.lambdas is not None


class TestWeightsFromResult:
    def test_identical_tests_share_weight_equally(self):
        tests = [stub_test(1, 1.0, 1.0, 5, 5), stub_test(2, 1.0, 1.0, 5, 5)]
        wv = combined_from_mcrt(SimpleNamespace(tests=tests, n_units=10), "weighted_z", "greater")
        # symmetric case collapses to the equal-weight combination
        direct = weighted_z_combine([0.5, 0.5], EQUAL2, [0.002, 0.002])
        assert wv.p_value == pytest.approx(direct.p_value)

    def test_three_test_hand_computation(self):
        spec = [(1, 1.0, 4.0, 10, 30), (2, 2.0, 1.0, 8, 16), (3, 0.5, 0.5, 12, 12)]
        N = 48
        tests = [stub_test(*row) for row in spec]
        wv = weights_from_result(SimpleNamespace(tests=tests, n_units=N))
        lam = np.asarray(
            [1.0 / ((N / n0) * v1 + (N / n1) * v0) for _, v1, v0, n1, n0 in spec]
        )
        assert np.allclose(wv.weights, np.sqrt(lam / lam.sum()))
        assert np.allclose(wv.lambdas, lam)
        assert float((wv.weights**2).sum()) == pytest.approx(1.0, abs=1e-12)

    def test_constant_arm_test_excluded_and_renormalized(self):
        tests = [
            stub_test(1, 1.0, 1.0, 5, 5),
            stub_test(2, 0.0, 0.0, 5, 5),  # both arms constant: no weight
            stub_test(3, 2.0, 2.0, 5, 5),
        ]
        wv = weights_from_result(SimpleNamespace(tests=tests, n_units=10))
        assert wv.test_times == (1, 3)
        assert [t for t, _ in wv.excluded] == [2]
        assert float((wv.weights**2).sum()) == pytest.approx(1.0, abs=1e-12)

    def test_all_tests_unweightable_rejected(self):
        tests = [stub_test(1, 0.0, 0.0, 5, 5)]
        with pytest.raises(ValueError, match="no test could be weighted"):
            weights_from_result(SimpleNamespace(tests=tests, n_units=10))

    def test_empty_result_rejected(self):
        with pytest.raises(ValueError, match="no completed tests"):
            weights_from_result(SimpleNamespace(tests=(), n_units=10))

    def test_squared_weights_sum_to_one_on_real_runs(self):
        for seed in range(5):
            data = make_trial(24, (8, 8, 8), seed=seed)
            res = run_mcrts(data, 0, TestConfig(budget=49, seed=seed))
            wv = weights_from_result(res)
            assert float((wv.weights**2).sum()) == pytest.approx(1.0, abs=1e-12)


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
        tests = [stub_test(1, 1.0, 1.0, 5, 5)]
        with pytest.raises(ValueError, match="unknown combiner"):
            combined_from_mcrt(SimpleNamespace(tests=tests, n_units=10), "tippett", "greater")
        with pytest.raises(ValueError, match="unknown combiner"):
            combined_from_mcrt(SimpleNamespace(tests=(), n_units=10), "tippett", "greater")

    @pytest.mark.parametrize(
        "tests, method",
        [
            ((), "weighted_z"),
            ((), "fisher"),
            ((), "bonferroni"),
            ((stub_test(1, 0.0, 0.0, 5, 5, 0.001, 1.0),), "weighted_z"),
        ],
        ids=["empty-weighted_z", "empty-fisher", "empty-bonferroni", "unweightable"],
    )
    @pytest.mark.parametrize("alternative", ["less", "greater", "two-sided"])
    def test_no_kept_test_gives_p_one(self, tests, method, alternative):
        combined = combined_from_mcrt(SimpleNamespace(tests=tests, n_units=10), method, alternative)
        assert (combined.p_value, combined.n_tests, combined.alternative) == (1.0, 0, alternative)
        assert math.isnan(combined.statistic)

    def test_invariant_on_result_type(self):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            CombinedPValue("fisher", "greater", 0.0, 0.0, 2)


class TestPipelineNullValidity:
    def test_combined_pvalues_valid_under_global_null(self):
        n_reps = 2000
        cfg_budget = 199
        methods = ("weighted_z", "fisher", "bonferroni")
        pvals = {m: np.empty(n_reps) for m in methods}
        for rep in range(n_reps):
            data = make_trial(18, (6, 6, 6), seed=50_000 + rep)
            res = run_mcrts(
                data, 0, TestConfig(budget=cfg_budget, exact_threshold=1, seed=rep)
            )
            for m in methods:
                pvals[m][rep] = combined_from_mcrt(res, m, "greater").p_value
        for m in methods:
            for alpha in (0.01, 0.05, 0.1):
                rate = float((pvals[m] <= alpha).mean())
                se = math.sqrt(alpha * (1 - alpha) / n_reps)
                assert rate <= alpha + 3 * se, f"{m} at {alpha}: {rate}"
