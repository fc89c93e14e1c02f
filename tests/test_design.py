"""Assignment designs: sizes, conditional probabilities, sampling."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from wedgeperm import (
    CrossoverTimes,
    DesignSpec,
    enumerate_crossover_vectors,
    naive_groups,
    sample_assignment,
    space_size,
)
from wedgeperm.rng import generator

counts_strategy = st.lists(st.integers(1, 4), min_size=1, max_size=5).map(tuple)


def spec_of(counts) -> DesignSpec:
    return DesignSpec(sum(counts), counts)


def step_conditional_prob(spec: DesignSpec, t: int) -> Fraction:
    """Exact probability of the time-t crossover set given times 1..t-1:
    1 / C(remaining units, count at t), written out in factorials.  The
    product over t telescopes to 1 / space_size(spec)."""
    remaining = spec.n_units - sum(spec.counts[: t - 1])
    c_t = spec.counts[t - 1]
    return Fraction(math.factorial(c_t) * math.factorial(remaining - c_t), math.factorial(remaining))


class TestDesignSpec:
    def test_rejects_zero_count(self):
        with pytest.raises(ValueError, match="at least one unit"):
            DesignSpec(3, (2, 0, 1))

    def test_rejects_count_sum_mismatch(self):
        with pytest.raises(ValueError, match="sum to 3"):
            DesignSpec(4, (2, 1))

    def test_n_times(self):
        assert spec_of((2, 2, 2)).n_times == 3


class TestSpaceSize:
    def test_two_by_two(self):
        assert space_size(spec_of((2, 2))) == 6

    def test_single_column_forced(self):
        assert space_size(spec_of((3,))) == 1

    def test_three_equal_columns(self):
        assert space_size(spec_of((2, 2, 2))) == 90

    def test_large_design_exceeds_64_bits(self):
        # 500 units over 12 equal-ish steps: must not overflow
        counts = (42,) * 11 + (38,)
        size = space_size(spec_of(counts))
        assert size > 2**63
        assert size == math.factorial(500) // math.prod(math.factorial(c) for c in counts)

    @given(counts_strategy)
    @settings(max_examples=40, deadline=None)
    def test_matches_enumeration_count(self, counts):
        spec = spec_of(counts)
        if space_size(spec) <= 2000:
            assert sum(1 for _ in enumerate_crossover_vectors(spec)) == space_size(spec)


class TestStepConditionalProb:
    def test_first_step_two_by_two(self):
        assert step_conditional_prob(spec_of((2, 2)), 1) == Fraction(1, 6)

    def test_last_step_forced(self):
        assert step_conditional_prob(spec_of((2, 2)), 2) == Fraction(1)

    def test_returns_exact_fraction(self):
        p = step_conditional_prob(spec_of((3, 2, 1)), 1)
        assert isinstance(p, Fraction)
        assert p == Fraction(1, math.comb(6, 3))

    @given(counts_strategy)
    @settings(max_examples=60, deadline=None)
    def test_telescoping_product(self, counts):
        spec = spec_of(counts)
        prod = math.prod(
            (step_conditional_prob(spec, t) for t in range(1, spec.n_times + 1)),
            start=Fraction(1),
        )
        assert prod == Fraction(1, space_size(spec))


class TestSampleAssignment:
    def test_forced_single_column(self):
        t = sample_assignment(spec_of((3,)), generator(0))
        assert t.times.tolist() == [1, 1, 1]
        assert t.n_times == 1

    def test_every_draw_validates(self):
        spec = spec_of((3, 1, 2))
        rng = generator(42)
        for _ in range(50):
            t = sample_assignment(spec, rng)
            assert DesignSpec(t.n_units, np.bincount(t.times)[1:]) == spec

    def test_same_seed_is_bit_identical(self):
        spec = spec_of((4, 3, 5))
        a = sample_assignment(spec, generator(7, 1)).times
        b = sample_assignment(spec, generator(7, 1)).times
        assert a.dtype == b.dtype == np.int64
        assert a.tobytes() == b.tobytes()

    def test_fixed_seed_draw_is_pinned(self):
        # a change to the shuffle, or to how it reads the stream, moves these
        assert sample_assignment(spec_of((2, 3, 1)), generator(5)).times.tolist() == [1, 2, 2, 2, 3, 1]
        assert sample_assignment(spec_of((4, 3, 5)), generator(7, 1)).times.tolist() == [
            3, 3, 2, 3, 1, 3, 3, 1, 1, 2, 1, 2,
        ]

    def test_uniform_over_small_space(self):
        # chi-square goodness of fit at level 0.001 on a 90-cell space
        spec = spec_of((2, 2, 2))
        cells = {vec: 0 for vec in enumerate_crossover_vectors(spec)}
        assert len(cells) == 90
        rng = generator(2024)
        n_draws = 100_000
        for _ in range(n_draws):
            cells[tuple(sample_assignment(spec, rng).times.tolist())] += 1
        observed = np.asarray(list(cells.values()), dtype=float)
        expected = n_draws / len(cells)
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < stats.chi2.ppf(0.999, len(cells) - 1)


class TestCrossoverTimes:
    def test_histogram_matches_counts(self):
        spec = spec_of((3, 1, 4))
        rng = generator(9)
        for _ in range(20):
            assert tuple(np.bincount(sample_assignment(spec, rng).times)[1:]) == spec.counts

    def test_wrong_counts_fail_the_design_check(self):
        times = CrossoverTimes(np.asarray([1, 1, 1, 2]), 2)
        spec = DesignSpec(times.n_units, np.bincount(times.times)[1:])
        assert spec == DesignSpec(4, (3, 1))
        assert spec != spec_of((2, 2))

    def test_rejects_out_of_range_times(self):
        with pytest.raises(ValueError, match="1..2"):
            CrossoverTimes(np.asarray([1, 3]), 2)

    @pytest.mark.parametrize("times", [[], [[1, 2], [2, 1]]], ids=["empty", "2-d"])
    def test_rejects_anything_but_a_vector(self, times):
        with pytest.raises(ValueError, match="non-empty 1-d"):
            CrossoverTimes(np.asarray(times), 2)

    @pytest.mark.parametrize("times", [[1.5, 2.9], [1.0, np.nan], [1.0, np.inf]], ids=["fraction", "nan", "inf"])
    def test_rejects_non_integral_times(self, times):
        with pytest.raises(ValueError, match="whole numbers"):
            CrossoverTimes(np.asarray(times), 2)

    def test_integral_floats_are_accepted(self):
        assert CrossoverTimes(np.asarray([2.0, 1.0]), 2).times.tolist() == [2, 1]

    def test_group_builders_reject_non_integral_times(self):
        with pytest.raises(ValueError, match="whole numbers"):
            naive_groups([1.7, 2.2, 3.0], 3, 0)


class TestEnumeration:
    def test_two_by_two_lists_all_six(self):
        vecs = list(enumerate_crossover_vectors(spec_of((2, 2))))
        assert len(vecs) == len(set(vecs)) == 6
        for vec in vecs:
            assert sorted(vec) == [1, 1, 2, 2]

    def test_cap_enforced(self):
        # 16! / (4!)^4 = 63 063 000 assignments, above the fixed cap of
        # 10^6: the first step raises, before any assignment is listed
        spec = DesignSpec(16, (4, 4, 4, 4))
        assert space_size(spec) == 63_063_000
        with pytest.raises(ValueError, match="^assignment space has 63063000 elements, above the cap of 1000000$"):
            next(enumerate_crossover_vectors(spec))
        with pytest.raises(TypeError):
            enumerate_crossover_vectors(spec, cap=10**8)

    @pytest.mark.parametrize("counts", [(3, 2, 1), (1, 3, 1, 2), (1,) * 6, (2, 2, 2), (4,)])
    def test_lex_order_of_the_distinct_permutations(self, counts):
        labels = [t for t, c in enumerate(counts, start=1) for _ in range(c)]
        expected = sorted(set(itertools.permutations(labels)))
        assert list(enumerate_crossover_vectors(spec_of(counts))) == expected

    def test_many_units_do_not_deepen_the_stack(self):
        vecs = enumerate_crossover_vectors(DesignSpec(1200, (1199, 1)))
        assert sum(1 for _ in vecs) == 1200
