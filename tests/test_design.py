"""Assignment designs: sizes, conditional probabilities, sampling, IO."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from wedgeperm import (
    AssignmentMatrix,
    CrossoverTimes,
    DataFormatError,
    DesignSpec,
    crossover_times,
    enumerate_crossover_vectors,
    matrix_from_times,
    read_assignment_csv,
    sample_assignment,
    space_size,
    step_conditional_prob,
    validate_assignment,
    write_assignment_csv,
)
from wedgeperm.rng import generator

counts_strategy = st.lists(st.integers(1, 4), min_size=1, max_size=5).map(tuple)


def spec_of(counts) -> DesignSpec:
    return DesignSpec(sum(counts), counts)


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
        m = sample_assignment(spec_of((3,)), generator(0))
        assert m.z.tolist() == [[1], [1], [1]]

    def test_every_draw_validates(self):
        spec = spec_of((3, 1, 2))
        rng = generator(42)
        for _ in range(50):
            assert validate_assignment(sample_assignment(spec, rng).z, spec) is None

    def test_same_seed_is_bit_identical(self):
        spec = spec_of((4, 3, 5))
        a = sample_assignment(spec, generator(7, 1)).z
        b = sample_assignment(spec, generator(7, 1)).z
        assert np.array_equal(a, b)

    def test_uniform_over_small_space(self):
        # chi-square goodness of fit at level 0.001 on a 90-cell space
        spec = spec_of((2, 2, 2))
        cells = {vec: 0 for vec in enumerate_crossover_vectors(spec)}
        assert len(cells) == 90
        rng = generator(2024)
        n_draws = 100_000
        for _ in range(n_draws):
            m = sample_assignment(spec, rng)
            cells[tuple(crossover_times(m).times.tolist())] += 1
        observed = np.asarray(list(cells.values()), dtype=float)
        expected = n_draws / len(cells)
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < stats.chi2.ppf(0.999, len(cells) - 1)


class TestCrossoverTimes:
    def test_identity_two_by_two(self):
        m = AssignmentMatrix(np.asarray([[1, 0], [0, 1]]))
        assert crossover_times(m).times.tolist() == [1, 2]

    def test_round_trip_matrix(self):
        spec = spec_of((2, 3, 1))
        m = sample_assignment(spec, generator(5))
        rebuilt = matrix_from_times(crossover_times(m))
        assert np.array_equal(rebuilt.z, m.z)

    def test_histogram_matches_counts(self):
        spec = spec_of((3, 1, 4))
        rng = generator(9)
        for _ in range(20):
            t = crossover_times(sample_assignment(spec, rng))
            assert t.counts() == spec.counts

    def test_rejects_out_of_range_times(self):
        with pytest.raises(ValueError, match="1..2"):
            CrossoverTimes(np.asarray([1, 3]), 2)


class TestValidateAssignment:
    def test_valid_matrix_passes(self):
        spec = spec_of((2, 2))
        m = sample_assignment(spec, generator(1))
        assert validate_assignment(m.z, spec) is None

    def test_row_of_zeros_names_row(self):
        spec = spec_of((2, 2))
        z = np.asarray([[1, 0], [0, 1], [0, 0], [0, 1]])
        v = validate_assignment(z, spec)
        assert v is not None and v.kind == "row" and v.index == 2
        assert "unit 2" in v.message

    def test_wrong_column_sum_names_column(self):
        spec = spec_of((2, 2))
        z = np.asarray([[1, 0], [1, 0], [1, 0], [0, 1]])
        v = validate_assignment(z, spec)
        assert v is not None and v.kind == "column" and v.index == 1
        assert "time 1" in v.message

    def test_shape_mismatch_reported(self):
        v = validate_assignment(np.zeros((2, 2)), spec_of((2, 2)))
        assert v is not None and v.kind == "shape"

    def test_non_binary_entry_reported(self):
        z = np.asarray([[2, 0], [0, 1], [1, 0], [0, 1]])
        v = validate_assignment(z, spec_of((2, 2)))
        assert v is not None and v.kind == "values"


class TestEnumeration:
    def test_two_by_two_lists_all_six(self):
        vecs = list(enumerate_crossover_vectors(spec_of((2, 2))))
        assert len(vecs) == len(set(vecs)) == 6
        for vec in vecs:
            assert sorted(vec) == [1, 1, 2, 2]

    def test_cap_enforced(self):
        spec = spec_of((5, 5, 5))
        with pytest.raises(ValueError, match="cap"):
            list(enumerate_crossover_vectors(spec, cap=100))


class TestAssignmentCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "assign.csv"
        times = CrossoverTimes(np.asarray([2, 1, 3, 1]), 3)
        write_assignment_csv(path, times)
        units, back = read_assignment_csv(path, n_times=3)
        assert units.tolist() == [0, 1, 2, 3]
        assert back.times.tolist() == [2, 1, 3, 1]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "assign.csv"
        path.write_text("who,when\n0,1\n")
        with pytest.raises(DataFormatError, match="line 1"):
            read_assignment_csv(path)

    def test_non_integer_row_cites_line(self, tmp_path):
        path = tmp_path / "assign.csv"
        path.write_text("unit,crossover_time\n0,1\n1,x\n")
        with pytest.raises(DataFormatError, match="line 3"):
            read_assignment_csv(path)

    @pytest.mark.parametrize("column, row, value", [
        ("unit", "99999999999999999999,2", "99999999999999999999"),
        ("crossover_time", "1,-99999999999999999999", "-99999999999999999999"),
    ], ids=["unit", "crossover_time"])
    def test_integer_beyond_int64_cites_line(self, tmp_path, column, row, value):
        path = tmp_path / "assign.csv"
        path.write_text(f"unit,crossover_time\n0,1\n{row}\n")
        with pytest.raises(DataFormatError, match=f"line 3: {column} {value} does not fit in a 64-bit integer"):
            read_assignment_csv(path)

    def test_empty_body_rejected(self, tmp_path):
        path = tmp_path / "assign.csv"
        path.write_text("unit,crossover_time\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            read_assignment_csv(path)
