"""Simulation studies: outcome models, power and coverage tables."""

import hashlib
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wedgeperm
import wedgeperm.mcrt
from wedgeperm import (
    CoverageRow,
    CrossoverTimes,
    DataFormatError,
    POWER_METHODS,
    PowerRow,
    Sim1Config,
    Sim2Config,
    StudyResult,
    TestConfig,
    TwoGroupSample,
    combined_from_mcrt,
    coverage_study,
    default_counts,
    emit_tables,
    gen_outcomes_sim1,
    gen_outcomes_sim2,
    build_groups,
    build_schedule,
    interaction_f,
    naive_groups,
    parse_tables,
    permutation_pvalue,
    power_study,
    run_mcrts,
)
from wedgeperm.rng import DEFAULT_SEED, generator, seed_sequence
from wedgeperm.sim import _POWER_TAG, _power_replicate


class TestDefaultCounts:
    def test_even_split_absorbs_remainder_at_the_end(self):
        assert default_counts(100, 6) == (16, 16, 16, 16, 16, 20)
        assert default_counts(6, 6) == (1, 1, 1, 1, 1, 1)
        assert sum(default_counts(17, 4)) == 17

    def test_too_few_periods(self):
        with pytest.raises(ValueError, match="two periods"):
            default_counts(10, 1)

    def test_too_few_units(self):
        with pytest.raises(ValueError, match="one unit per period"):
            default_counts(3, 4)


class TestConfigs:
    def test_lag_bounds(self):
        with pytest.raises(ValueError, match=r"lag must lie in \[0, 4\]"):
            Sim1Config(n_units=12, n_times=6, lag=5)

    @pytest.mark.parametrize("lag", [0.5, 1.0, True], ids=repr)
    def test_lag_that_is_not_an_integer_rejected(self, lag):
        with pytest.raises(ValueError, match=f"^lag must be an integer, got {lag!r}$"):
            Sim1Config(n_units=12, n_times=6, lag=lag)

    def test_numpy_integer_lag_kept_as_int(self):
        cfg = Sim1Config(n_units=12, n_times=6, lag=np.int64(2))
        assert cfg.lag == 2 and type(cfg.lag) is int

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError, match="var_noise"):
            Sim1Config(var_noise=-0.1)

    def test_zero_variances_allowed(self):
        cfg = Sim1Config(var_unit=0.0, var_covariate=0.0, var_noise=0.0)
        assert cfg.var_unit == 0.0

    def test_replicates_positive(self):
        with pytest.raises(ValueError, match="replicates"):
            Sim1Config(replicates=0)

    @pytest.mark.parametrize("model", [Sim1Config, Sim2Config])
    def test_negative_seed_rejected(self, model):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            model(seed=-1)

    @pytest.mark.parametrize("seed", [None, 3.7, "12", True], ids=repr)
    @pytest.mark.parametrize("model", [Sim1Config, Sim2Config])
    def test_seed_that_is_not_an_integer_rejected(self, model, seed):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
            model(seed=seed)

    def test_default_effects_are_cut_or_padded_to_the_periods(self):
        assert Sim2Config().taus == (0.1, 0.3, 0.6, 0.4, 0.2, 0.0, 0.0, 0.0)
        assert Sim2Config(n_times=3).taus == (0.1, 0.3, 0.6)
        assert Sim2Config(n_times=10).taus == (0.1, 0.3, 0.6, 0.4, 0.2) + (0.0,) * 5
        assert Sim2Config(n_times=2, taus=[0.5, 1]).taus == (0.5, 1)

    def test_effect_vector_length_must_match_periods(self):
        with pytest.raises(ValueError, match="one effect per lag"):
            Sim2Config(n_times=4, taus=(0.1, 0.2))

    def test_interaction_index_checked(self):
        with pytest.raises(ValueError, match="interaction"):
            Sim2Config(interaction=7, taus=(0.0,) * 8)

    def test_level_bounds(self):
        with pytest.raises(ValueError, match="level"):
            Sim2Config(level=1.0)


class TestInteractionF:
    def test_zero_index_vanishes(self):
        assert np.array_equal(interaction_f(0, [-3.0, 0.0, 2.5]), np.zeros(3))

    def test_quadratic(self):
        assert interaction_f(1, 2.0) == 4.0
        assert np.array_equal(interaction_f(1, [-1.0, 3.0]), [1.0, 9.0])

    def test_exponential(self):
        assert interaction_f(2, 0.0) == 2.0
        assert interaction_f(2, 2.0) == pytest.approx(2.0 * math.e)

    def test_saturating(self):
        assert interaction_f(3, 0.0) == 0.0
        assert interaction_f(3, 50.0) == pytest.approx(5.0)
        assert interaction_f(3, -50.0) == pytest.approx(-5.0)

    def test_unknown_index(self):
        with pytest.raises(ValueError, match="interaction index"):
            interaction_f(4, 1.0)


class TestOutcomeModels:
    def test_deterministic_panel_is_exact(self):
        # all variances zero: outcome is 0.5*t plus the effect exactly
        # one step after each unit's crossover
        cfg = Sim1Config(
            n_units=12, n_times=3, lag=1, effect=1.0,
            var_unit=0.0, var_covariate=0.0, var_noise=0.0, replicates=1,
        )
        data = gen_outcomes_sim1(cfg, generator(5, 1))
        a = data.times.times
        for t in range(4):
            expected = 0.5 * t + (a + 1 == t)
            assert np.array_equal(data.outcomes[:, t], expected)

    def test_linear_time_slope_is_one_half(self):
        cfg = Sim1Config(
            n_units=10, n_times=4, var_unit=0.0, var_covariate=0.25,
            var_noise=0.0, replicates=1,
        )
        data = gen_outcomes_sim1(cfg, generator(6, 1))
        assert np.allclose(np.diff(data.outcomes, axis=1), 0.5)

    def test_unit_intercept_variance(self):
        # with covariate and noise silenced, column 0 is the intercept
        cfg = Sim1Config(
            n_units=20_000, n_times=2, var_unit=0.25, var_covariate=0.0,
            var_noise=0.0, replicates=1,
        )
        draws = np.concatenate(
            [gen_outcomes_sim1(cfg, generator(7, rep)).outcomes[:, 0] for rep in range(5)]
        )
        assert draws.size == 100_000
        assert abs(draws.var() / 0.25 - 1.0) < 0.10

    def test_effect_vector_model_reduces_to_single_effect_model(self):
        common = dict(var_unit=0.25, var_covariate=0.25, var_noise=0.1)
        cfg1 = Sim1Config(n_units=30, n_times=4, lag=2, effect=0.7, **common)
        cfg2 = Sim2Config(
            n_units=30, n_times=4, taus=(0.0, 0.0, 0.7, 0.0),
            interaction=0, **common,
        )
        d1 = gen_outcomes_sim1(cfg1, generator(8, 3))
        d2 = gen_outcomes_sim2(cfg2, generator(8, 3))
        assert np.array_equal(d1.times.times, d2.times.times)
        assert np.array_equal(d1.outcomes, d2.outcomes)

    def test_quadratic_interaction_bends_trajectories(self):
        # noise-free interaction=1 outcomes are quadratic in time with
        # second difference exactly 2 * 0.1
        cfg = Sim2Config(
            n_units=8, n_times=4, taus=(0.0,) * 4, interaction=1,
            var_unit=0.0, var_covariate=0.25, var_noise=0.0,
        )
        data = gen_outcomes_sim2(cfg, generator(9, 1))
        second = np.diff(data.outcomes, n=2, axis=1)
        assert np.allclose(second, 0.2)

    def test_interaction_shrinks_the_linear_slope(self):
        # with the covariate silenced the interaction term is a pure
        # function of t, so the linear part is identifiable exactly
        cfg = Sim2Config(
            n_units=6, n_times=3, taus=(0.0,) * 3, interaction=3,
            var_unit=0.0, var_covariate=0.0, var_noise=0.0,
        )
        data = gen_outcomes_sim2(cfg, generator(10, 1))
        t = np.arange(4)
        expected = 0.45 * t + 0.1 * 5.0 * np.tanh(t)
        assert np.allclose(data.outcomes, expected[None, :])


class TestPowerStudy:
    def test_infeasible_tuple_cells_are_skipped_with_reason(self):
        result = power_study(
            [(12, 3, 5, 0.1), (12, 3, 0, 0.0)], replicates=5, budget=49
        )
        assert len(result.skipped) == 1
        cell, reason = result.skipped[0]
        assert cell == repr((12, 3, 5, 0.1)) and "lag" in reason
        assert {r.lag for r in result.rows} == {0}

    def test_fractional_lag_cell_is_skipped(self):
        # a row labelled lag 0.5 must not hold a lag-0 run
        result = power_study([(60, 4, 0.5, 0.3)], replicates=2, budget=19, methods=["mcrts_z"])
        assert result.rows == ()
        assert result.skipped == ((repr((60, 4, 0.5, 0.3)), "lag must be an integer, got 0.5"),)

    def test_rank_cell_never_gathers_selections(self, monkeypatch):
        def no_gather(plan):
            raise AssertionError("selections gathered")

        monkeypatch.setattr(wedgeperm.RelabelPlan, "selections", property(no_gather))
        result = power_study([(100, 6, 1, 0.3)], replicates=2, budget=49, statistic="rank_sum")
        assert [r.replicates for r in result.rows] == [2, 2, 2]

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown methods"):
            power_study([(12, 3, 0, 0.0)], methods=("mcrts_z", "anova"))

    def test_negative_seed_rejected_not_skipped(self):
        # the cell is infeasible too, yet the seed is what fails
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            power_study([(12, 3, 5, 0.1)], replicates=2, seed=-1)

    @pytest.mark.parametrize(
        "grid, methods, message",
        [([], POWER_METHODS, "grid must hold at least one cell"),
         ([(12, 3, 0, 0.0)], (), "methods must name at least one method"),
         ([(12, 3, 0, 0.0)], ("mcrts_f", "mcrts_f"), "methods must be distinct")],
        ids=["grid-empty", "methods-empty", "methods-repeated"],
    )
    def test_study_over_nothing_rejected(self, grid, methods, message):
        with pytest.raises(ValueError, match=message):
            power_study(grid, replicates=2, budget=19, methods=methods)

    def test_seed_applies_to_every_cell(self, monkeypatch):
        seeds = []
        draw = wedgeperm.sim.generator

        def recording_generator(seed, *key):
            seeds.append(seed)
            return draw(seed, *key)

        monkeypatch.setattr(wedgeperm.sim, "generator", recording_generator)
        grid = [Sim1Config(n_units=16, n_times=2, replicates=2, seed=21), (16, 2, 0, 0.0)]
        power_study(grid, replicates=2, budget=19, methods=("mcrts_f",), seed=5)
        assert seeds == [5] * 4
        seeds.clear()
        power_study(grid, replicates=2, budget=19, methods=("mcrts_f",))
        assert seeds == [21, 21, DEFAULT_SEED, DEFAULT_SEED]

    def test_rows_per_method_and_replicate_override(self):
        cfg = Sim1Config(n_units=16, n_times=2, replicates=3, seed=21)
        result = power_study([cfg], replicates=8, budget=49)
        assert len(result.rows) == 3
        assert all(r.replicates == 8 for r in result.rows)
        assert {r.method for r in result.rows} == {"mcrts_z", "mcrts_f", "bonferroni"}
        assert len(result.rows_for(method="mcrts_z")) == 1

    def test_replicate_reproducible_from_public_pieces(self):
        # one replicate re-derived by hand: same dataset stream, same
        # per-test streams, both combiners read the same nested family
        # run, and Bonferroni reads the naive family on stream key 2
        cfg = Sim1Config(n_units=20, n_times=3, lag=1, effect=0.5, seed=31)
        out = _power_replicate((cfg, 4, 0.05, TestConfig(budget=99), POWER_METHODS))
        data = gen_outcomes_sim1(cfg, generator(31, _POWER_TAG, 4, 0))
        nested = run_mcrts(
            data, 1, TestConfig(budget=99, seed=seed_sequence(31, _POWER_TAG, 4, 1))
        )
        naive = run_mcrts(
            data, 1, TestConfig(budget=99, seed=seed_sequence(31, _POWER_TAG, 4, 2)), naive_groups
        )
        for name, family, combiner in (
            ("mcrts_z", nested, "weighted_z"),
            ("mcrts_f", nested, "fisher"),
            ("bonferroni", naive, "bonferroni"),
        ):
            p = combined_from_mcrt(family, combiner, "two-sided").p_value
            assert out[name] == (p <= 0.05)

    def test_family_without_completed_tests_rejects_nothing(self):
        # one unit per period: every arm is below min_arm, so every test
        # of both families is skipped
        result = power_study([(6, 6, 0, 0.0)], replicates=3, budget=49)
        assert [r.method for r in result.rows] == list(POWER_METHODS)
        assert all(r.rejections == 0 for r in result.rows)

    def test_family_without_weightable_tests_gives_rows(self):
        # zero variances: every arm is constant, and weighted_z weighs
        # each test by its arm sizes, so every method sees the effect
        cfg = Sim1Config(
            n_units=12, n_times=3, lag=0, effect=1.0,
            var_unit=0, var_covariate=0, var_noise=0, replicates=2,
        )
        result = power_study([cfg], budget=49)
        assert {r.method: r.rejections for r in result.rows} == {"mcrts_z": 2, "mcrts_f": 2, "bonferroni": 2}

    @pytest.mark.parametrize("seed", [0, 12345, 2**40 + 7])
    @pytest.mark.parametrize("statistic", ["diff_in_means", "rank_sum"])
    def test_baseline_matches_the_per_test_permutation_loop(self, seed, statistic):
        # the baseline family's test at time t draws on
        # seed_sequence(seed_sequence(seed, TAG, rep, 2), t), which must
        # be the stream seed_sequence(seed, TAG, rep, 2, t) that a plain
        # loop of permutation tests over naive_groups used; NumPy pads
        # entropy before a spawn key only when it is under 4 words
        for n_units, n_times, lag in ((40, 8, 3), (300, 8, 2), (20, 3, 1)):
            cfg = Sim1Config(n_units=n_units, n_times=n_times, lag=lag, effect=0.3, seed=seed)
            for rep in range(2):
                data = gen_outcomes_sim1(cfg, generator(seed, _POWER_TAG, rep, 0))
                tcfg = TestConfig(
                    budget=99, statistic=statistic, seed=seed_sequence(seed, _POWER_TAG, rep, 2)
                )
                family = run_mcrts(data, lag, tcfg, naive_groups)
                y = data.outcomes
                expected, pvals = [], []
                for g in naive_groups(data.times, n_times, lag):
                    if min(g.n_treated, g.n_control) < 2:
                        continue
                    sample = TwoGroupSample(
                        y[g.treated_units, g.outcome_time], y[g.control_units, g.outcome_time], n_units
                    )
                    r = permutation_pvalue(
                        sample, budget=99, statistic=statistic,
                        seed=seed_sequence(seed, _POWER_TAG, rep, 2, g.test_time),
                    )
                    expected.append((g.test_time, r))
                    pvals.append(min(1.0, 2.0 * min(r.p_less, r.p_greater)))
                assert [(t.test_time, t.result) for t in family.tests] == expected
                old = min(1.0, len(pvals) * min(pvals))
                assert combined_from_mcrt(family, "bonferroni", "two-sided").p_value == old

    def test_three_method_table_bytes_are_pinned(self, tmp_path):
        # sha256 of this table as the separate Bonferroni loop wrote it
        result = power_study(
            [(24, 4, 1, 0.8), (30, 5, 2, 0.0)], replicates=6, budget=49, seed=2**40 + 7
        )
        path = tmp_path / "power.csv"
        emit_tables(result, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "57cdc6f7a4d77b07c3a63d11c79c66a463c954f48fea2a8cf96626ecf3c66fce"
        )

    def test_power_rises_with_the_effect(self):
        result = power_study(
            [(24, 2, 0, 0.0), (24, 2, 0, 1.5)],
            replicates=60, budget=99, methods=("mcrts_z",), seed=41,
        )
        null_rate = result.rows_for(effect=0.0)[0].rate
        alt_rate = result.rows_for(effect=1.5)[0].rate
        assert alt_rate > null_rate + 0.3


class TestCoverageStudy:
    def test_rows_and_lag_validation(self):
        cfg = Sim2Config(
            n_units=24, n_times=3, taus=(0.0, 0.5, 0.0), replicates=3, seed=51
        )
        with pytest.raises(ValueError, match=re.escape("lag must lie in [0, 1]")):
            coverage_study(cfg, lags=(5,))
        result = coverage_study(
            cfg, methods=("weighted_z", "fisher"), lags=(0, 1), budget=99
        )
        assert len(result.rows) == 4
        row = result.rows_for(lag=1, method="weighted_z")[0]
        assert row.effect == 0.5 and row.replicates == 3
        assert row.covered + row.empty_sets <= row.replicates
        assert row.mean_length >= 0.0


    def test_unknown_combiner_rejected_before_any_replicate(self, monkeypatch):
        def no_data(cfg, rng):
            pytest.fail("drew a dataset before checking the combiners")

        monkeypatch.setattr(wedgeperm.sim, "gen_outcomes_sim2", no_data)
        cfg = Sim2Config(n_units=24, n_times=3, replicates=2)
        with pytest.raises(ValueError, match=r"unknown combiners: \['anova'\]"):
            coverage_study(cfg, methods=("weighted_z", "anova"), lags=(0,), budget=49)

    @pytest.mark.parametrize(
        "methods, lags, message",
        [((), (0,), "methods must name at least one combiner"), (("fisher",), (), "lags must name at least one lag"),
         (("fisher", "fisher"), (0,), "methods must be distinct"), (("fisher",), (1, 1), "lags must be distinct")],
        ids=["methods-empty", "lags-empty", "methods-repeated", "lags-repeated"],
    )
    def test_study_over_nothing_rejected(self, methods, lags, message):
        with pytest.raises(ValueError, match=message):
            coverage_study(Sim2Config(n_units=24, n_times=3, replicates=2), methods=methods, lags=lags)

    def test_fractional_lag_rejected_before_any_replicate(self, monkeypatch):
        def no_family(*args):
            pytest.fail("ran a test family before checking the lags")

        monkeypatch.setattr(wedgeperm.sim, "run_mcrts", no_family)
        with pytest.raises(ValueError, match=r"^lag must be an integer, got 0\.0$"):
            coverage_study(Sim2Config(n_units=24, n_times=3, replicates=2), lags=[0.0], budget=19)

    def test_lag_without_testable_groups_is_covered_with_infinite_length(self):
        # eight units over eight periods: one unit per arm, so every
        # lag-0 test is skipped and each set is the whole line
        cfg = Sim2Config(n_units=8, n_times=8, replicates=2)
        [row] = coverage_study(cfg, lags=[0], budget=49).rows
        assert (row.covered, row.coverage, row.mean_length, row.empty_sets) == (2, 1.0, math.inf, 0)

    def test_each_lag_draws_its_relabelings_once_for_all_combiners(self, monkeypatch):
        drawn = []
        draw = wedgeperm.permtest.relabel_plan

        def counting_draw(*args, **kwargs):
            seed = kwargs["seed"]
            drawn.append((tuple(seed.entropy), tuple(seed.spawn_key)))
            return draw(*args, **kwargs)

        monkeypatch.setattr(wedgeperm.permtest, "relabel_plan", counting_draw)
        cfg = Sim2Config(n_units=40, n_times=4, taus=(0.2, 0.4, 0.0, 0.0), replicates=2, seed=52)
        lags = (0, 1)
        coverage_study(cfg, methods=("weighted_z", "fisher", "bonferroni"), lags=lags, budget=49)
        tests_per_replicate = sum(
            len([k for subset in build_schedule(cfg.n_times, lag) for k in subset[:-1]]) for lag in lags
        )
        assert len(drawn) == cfg.replicates * tests_per_replicate
        assert len(set(drawn)) == len(drawn)


class TestProgressLog:
    GRID = [(16, 2, 0, 0.0), (16, 2, 5, 0.0)]
    COVERAGE = Sim2Config(n_units=24, n_times=3, replicates=1)

    def _run_both(self):
        power_study(self.GRID, replicates=1, budget=19, methods=("mcrts_f",))
        coverage_study(self.COVERAGE, lags=(0,), budget=19)

    def test_library_calls_write_nothing_while_logging_is_unconfigured(self, capfd):
        self._run_both()
        assert capfd.readouterr() == ("", "")

    def test_one_info_record_per_cell_skip_and_coverage_study(self, caplog):
        with caplog.at_level(logging.INFO, logger="wedgeperm"):
            self._run_both()
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("wedgeperm.sim", logging.INFO, "power study: cell 1/2 (16, 2, 0, 0.0)"),
            ("wedgeperm.sim", logging.INFO, "power study: cell 2/2 (16, 2, 5, 0.0)"),
            ("wedgeperm.sim", logging.INFO, "  skipped (16, 2, 5, 0.0): lag must lie in [0, 0]"),
            ("wedgeperm.sim", logging.INFO, "coverage study: N=24 T=3 interaction=0 replicates=1"),
        ]


class TestRowValidation:
    def test_power_row_checks_the_stderr_formula(self):
        with pytest.raises(ValueError, match="binomial formula"):
            PowerRow(10, 2, 0, 0.0, "mcrts_z", 100, 20, 0.2, 0.9)
        row = PowerRow.from_counts(10, 2, 0, 0.0, "mcrts_z", 100, 20)
        assert row.rate == 0.2
        assert row.stderr == pytest.approx(math.sqrt(0.2 * 0.8 / 100))

    def test_coverage_row_checks_the_rate_range(self):
        with pytest.raises(ValueError, match="coverage"):
            CoverageRow(10, 2, 0, 0.9, 0, 0.0, "weighted_z", 5, 3, 1.5, 0.1, 0.2, 0)


class TestTables:
    def test_power_round_trip(self, tmp_path):
        result = power_study([(16, 2, 0, 0.4)], replicates=6, budget=49, seed=61)
        path = tmp_path / "power.csv"
        emit_tables(result, path)
        back = parse_tables(path)
        assert back.study == "power" and back.rows == result.rows

    def test_coverage_round_trip(self, tmp_path):
        cfg = Sim2Config(
            n_units=24, n_times=3, taus=(0.0, 0.3, 0.0), replicates=2, seed=71
        )
        result = coverage_study(cfg, lags=(1,), budget=99)
        path = tmp_path / "coverage.csv"
        emit_tables(result, path)
        back = parse_tables(path)
        assert back.study == "coverage" and back.rows == result.rows

    def test_skipped_cells_are_not_written(self, tmp_path):
        # the table holds rows only; simulate reports skipped cells on stderr
        result = power_study([(16, 2, 0, 0.0), (16, 2, 5, 0.0)], replicates=2, budget=19)
        assert result.skipped == ((repr((16, 2, 5, 0.0)), "lag must lie in [0, 0]"),)
        path = tmp_path / "power.csv"
        emit_tables(result, path)
        assert parse_tables(path) == StudyResult("power", result.rows)

    def test_unknown_study_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown study kind"):
            emit_tables(StudyResult("junk", ()), tmp_path / "junk.csv")

    def test_unrecognized_header_rejected(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataFormatError, match="unrecognized table header"):
            parse_tables(path)

    def test_corrupt_row_cites_its_line(self, tmp_path):
        result = power_study([(16, 2, 0, 0.0)], replicates=4, budget=49)
        path = tmp_path / "power.csv"
        emit_tables(result, path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",not-a-float"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="line 2"):
            parse_tables(path)


class TestDeterminism:
    def test_power_tables_identical_across_thread_counts(self, tmp_path):
        kwargs = dict(replicates=8, budget=49, seed=81)
        serial = power_study([(16, 2, 0, 0.3)], threads=1, **kwargs)
        fanned = power_study([(16, 2, 0, 0.3)], threads=2, **kwargs)
        p1, p2 = tmp_path / "serial.csv", tmp_path / "fanned.csv"
        emit_tables(serial, p1)
        emit_tables(fanned, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_coverage_tables_identical_across_thread_counts(self, tmp_path):
        cfg = Sim2Config(
            n_units=24, n_times=3, taus=(0.0, 0.4, 0.0), replicates=4, seed=91
        )
        serial = coverage_study(cfg, lags=(1,), budget=99, threads=1)
        fanned = coverage_study(cfg, lags=(1,), budget=99, threads=2)
        p1, p2 = tmp_path / "serial.csv", tmp_path / "fanned.csv"
        emit_tables(serial, p1)
        emit_tables(fanned, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_one_process_pool_per_study(self, monkeypatch):
        import concurrent.futures

        started = []

        class CountedPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
        grid = [(100, 6, 0, 0.0), (100, 6, 9, 0.0), (6, 6, 0, 0.0), (60, 4, 1, 0.3)]
        result = power_study(grid, replicates=3, budget=49, threads=2)
        assert len(result.rows) == 9 and len(result.skipped) == 1
        assert started == [{"max_workers": 2}]

    @pytest.mark.parametrize("threads", [0, -3, True, 1.5, "2"], ids=repr)
    def test_thread_count_that_is_not_a_positive_integer_rejected(self, monkeypatch, caplog, threads):
        def no_data(cfg, rng):
            pytest.fail("drew a dataset before checking the thread count")

        monkeypatch.setattr(wedgeperm.sim, "gen_outcomes_sim1", no_data)
        monkeypatch.setattr(wedgeperm.sim, "gen_outcomes_sim2", no_data)
        message = f"^threads must be an integer of at least 1, got {re.escape(repr(threads))}$"
        with caplog.at_level(logging.INFO, logger="wedgeperm"):
            with pytest.raises(ValueError, match=message):
                power_study([(16, 2, 0, 0.0)], replicates=2, budget=19, threads=threads)
            with pytest.raises(ValueError, match=message):
                coverage_study(Sim2Config(n_units=24, n_times=3, replicates=2), lags=(0,), budget=19, threads=threads)
        assert caplog.records == []

    def test_same_seed_same_rows(self):
        a = power_study([(16, 2, 0, 0.2)], replicates=5, budget=49, seed=13)
        b = power_study([(16, 2, 0, 0.2)], replicates=5, budget=49, seed=13)
        assert a.rows == b.rows


def test_package_import_leaves_process_pools_unloaded():
    # only a study run with threads > 1 needs concurrent.futures
    src = str(Path(wedgeperm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, wedgeperm; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert proc.stdout.strip() == "[]"


class _FamilyRan(Exception):
    """Raised in place of running a test family: the lag was accepted."""


def _lag_outcome(call, lag):
    """The message of the ValueError that ``call(lag)`` raises, or "ok" if it accepts the lag."""
    try:
        call(lag)
    except _FamilyRan:
        pass
    except ValueError as exc:
        return str(exc)
    return "ok"


@given(st.integers(-3, 8) | st.integers(-3, 8).map(np.int64) | st.floats() | st.booleans() | st.text(max_size=3))
@settings(max_examples=60, deadline=None)
def test_every_lag_entry_point_applies_the_one_lag_rule(lag):
    times = CrossoverTimes(np.repeat(np.arange(1, 7), 2), 6)

    def no_family(*args):
        raise _FamilyRan

    calls = [
        lambda lag: build_schedule(6, lag),
        lambda lag: build_groups(times, 6, lag),
        lambda lag: naive_groups(times, 6, lag),
        lambda lag: Sim1Config(n_units=12, n_times=6, lag=lag),
        lambda lag: coverage_study(Sim2Config(n_units=12, n_times=6, replicates=1), lags=[lag], budget=9),
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wedgeperm.sim, "run_mcrts", no_family)
        outcomes = {_lag_outcome(call, lag) for call in calls}
    assert len(outcomes) == 1, outcomes
    assert (outcomes == {"ok"}) == (type(lag) in (int, np.int64) and 0 <= lag <= 4)
