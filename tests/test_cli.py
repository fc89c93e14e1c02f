"""End-to-end command-line behavior, exit codes, and file outputs."""

import json
import logging
import math
import os
import re

import numpy as np
import pytest

import wedgeperm.cli
import wedgeperm.sim
import wedgeperm.validate
from wedgeperm import (
    COMBINERS,
    CrossoverTimes,
    TestConfig,
    Sim1Config,
    Sim2Config,
    StudyResult,
    gen_outcomes_sim1,
    gen_outcomes_sim2,
    parse_tables,
    read_ci_csv,
    TrialData,
    bundled_scenario,
    read_trial_csv,
    run_mcrts,
    weights_from_result,
    write_trial_csv,
)
from wedgeperm.cli import EXIT_CHECK, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from wedgeperm.design import _write_table
from wedgeperm.rng import generator
from wedgeperm.validate import Scenario, FiniteAssignmentSpace, PartitionFamily, save_scenario

from conftest import make_trial

CELLS = "config key 'grid' must be a list of [N, T, lag, effect] cells of three integers and a number"


class TestSchedule:
    def test_prints_one_line_per_subset(self, capsys):
        assert main(["schedule", "--T", "8", "--lag", "1"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out == ["1,3,5,7", "2,4,6,8"]

    def test_writes_csv(self, tmp_path, capsys):
        path = tmp_path / "schedule.csv"
        assert main(["schedule", "--T", "3", "--lag", "1", "--out", str(path)]) == EXIT_OK
        assert path.read_text() == "subset,time\n1,1\n1,3\n"

    def test_csv_goes_through_the_table_writer(self, tmp_path, capsys):
        path, expected = tmp_path / "schedule.csv", tmp_path / "expected.csv"
        assert main(["schedule", "--T", "8", "--lag", "2", "--out", str(path)]) == EXIT_OK
        _write_table(expected, ["subset", "time"], [[1, 1], [1, 4], [1, 7], [2, 2], [2, 5], [2, 8], [3, 3], [3, 6]])
        assert path.read_bytes() == expected.read_bytes()
        assert path.read_bytes() == b"subset,time\r\n1,1\r\n1,4\r\n1,7\r\n2,2\r\n2,5\r\n2,8\r\n3,3\r\n3,6\r\n"

    def test_lag_too_large_is_a_usage_error(self, capsys):
        assert main(["schedule", "--T", "3", "--lag", "2"]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["schedule", "--T", "4"]) == EXIT_USAGE

    def test_no_command(self, capsys):
        assert main([]) == EXIT_USAGE


class TestAnalyze:
    @pytest.fixture()
    def trial_csv(self, tmp_path):
        data = make_trial(36, (12, 12, 12), lag=0, effect=0.8, seed=19, noise=0.3)
        path = tmp_path / "trial.csv"
        write_trial_csv(path, data)
        return path

    def test_full_run_with_outputs(self, trial_csv, tmp_path, capsys):
        res_path = tmp_path / "tests.csv"
        ci_path = tmp_path / "ci.csv"
        code = main(
            [
                "analyze", str(trial_csv), "--lag", "0", "--seed", "7",
                "--out", str(res_path), "--ci-out", str(ci_path),
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "lag 0: 2 tests" in out
        assert "combined (weighted_z, two-sided): p =" in out
        assert "90% interval for the lag-0 effect:" in out

        lines = res_path.read_text().splitlines()
        assert lines[0] == (
            "test_time,outcome_time,n_treated,n_control,statistic,p_less,p_greater,weight"
        )
        assert len(lines) == 3  # header + one row per test
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "1"
        weights = [float(row.split(",")[-1]) for row in lines[1:]]
        assert sum(w * w for w in weights) == pytest.approx(1.0, abs=1e-12)

        intervals = read_ci_csv(ci_path)
        assert len(intervals) == 1
        ci = intervals[0]
        assert ci.method == "weighted_z" and ci.level == 0.9 and ci.lag == 0
        assert ci.lower <= 0.8 <= ci.upper

    def test_per_test_csv_goes_through_the_table_writer(self, tmp_path, capsys):
        # every outcome at time 1 is 0, so the test at time 1 has constant
        # arms; its weight, like the time-2 test's, comes from its arm sizes
        data = make_trial(12, (4, 4, 4), seed=3)
        y = np.array(data.outcomes)
        y[:, 1] = 0.0
        trial, path, expected = tmp_path / "trial.csv", tmp_path / "tests.csv", tmp_path / "expected.csv"
        write_trial_csv(trial, TrialData(data.units, data.times, y))
        assert main(["analyze", str(trial), "--lag", "0", "--seed", "7", "--out", str(path)]) == EXIT_OK

        family = run_mcrts(read_trial_csv(trial), 0, TestConfig(seed=7))
        weights = weights_from_result(family).tolist()
        assert [t.test_time for t in family.tests] == [1, 2]
        header = ["test_time", "outcome_time", "n_treated", "n_control", "statistic", "p_less", "p_greater", "weight"]
        rows = [
            [t.test_time, t.outcome_time, t.n_treated, t.n_control, t.result.statistic,
             t.result.p_less, t.result.p_greater, w]
            for t, w in zip(family.tests, weights)
        ]
        _write_table(expected, header, rows)
        written = path.read_bytes()
        assert written == expected.read_bytes()

        lines = written.decode().split("\r\n")
        assert lines[0] == ",".join(header) and lines[-1] == "" and "\n" not in "".join(lines)
        cells = [line.split(",") for line in lines[1:-1]]
        assert [row[7] for row in cells] == [repr(w) for w in weights]
        for row, t in zip(cells, family.tests, strict=True):
            assert [int(c) for c in row[:4]] == [t.test_time, t.outcome_time, t.n_treated, t.n_control]
            assert float(row[4]) == t.result.statistic
            assert float(row[5]) == t.result.p_less and float(row[6]) == t.result.p_greater

        # a combiner without weights leaves the column empty
        argv = ["analyze", str(trial), "--lag", "0", "--seed", "7", "--combiner", "fisher", "--out", str(path)]
        assert main(argv) == EXIT_OK
        assert [line.split(",")[7] for line in path.read_text().splitlines()[1:]] == ["", ""]

    def test_combiner_and_alpha_flags(self, trial_csv, capsys):
        code = main(
            ["analyze", str(trial_csv), "--lag", "0", "--combiner", "fisher", "--alpha", "0.5"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "combined (fisher, two-sided)" in out
        assert "50% interval" in out

    @pytest.mark.parametrize("statistic", ["diff_in_means", "rank_sum"])
    def test_fisher_with_tails_near_one(self, tmp_path, capsys, statistic):
        # five p_less of 1 and one of 0.998: Fisher's tail rounds past 1
        data = gen_outcomes_sim2(Sim2Config(n_units=2000, n_times=8, interaction=1), generator(3, 2000, 8))
        path = tmp_path / "trial.csv"
        write_trial_csv(path, data)
        argv = ["analyze", str(path), "--lag", "1", "--budget", "499", "--seed", "7"]
        assert main(argv + ["--combiner", "fisher", "--statistic", statistic]) == EXIT_OK
        assert "combined (fisher, two-sided): p = " in capsys.readouterr().out

    def test_malformed_row_cites_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("unit,crossover_time,y0,y1,y2\n1,1,0.0,0.1,0.2\n2,2,oops,0.1,0.2\n")
        assert main(["analyze", str(path), "--lag", "0"]) == EXIT_DATA
        assert "line 3" in capsys.readouterr().err

    def test_undecodable_byte_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"unit,crossover_time,y0,y1,y2\n1,1,0.0,0.1,0.2\n2,2,0.\xff,0.1,0.2\n3,3,0.0,0.1,0.2\n")
        assert main(["analyze", str(path), "--lag", "0"]) == EXIT_DATA
        assert f"{path}: line 3: " in capsys.readouterr().err

    def test_byte_order_mark_analyzes_identically(self, trial_csv, tmp_path, capsys):
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + trial_csv.read_bytes())
        runs = []
        for name, path in (("plain", trial_csv), ("marked", marked)):
            res, ci = tmp_path / f"{name}_tests.csv", tmp_path / f"{name}_ci.csv"
            argv = ["analyze", str(path), "--lag", "0", "--seed", "7", "--out", str(res), "--ci-out", str(ci)]
            assert main(argv) == EXIT_OK
            runs.append((capsys.readouterr().out, res.read_bytes(), ci.read_bytes()))
        assert runs[0] == runs[1]

    def test_outputs_identical_at_any_cpu_count(self, tmp_path, capsys, monkeypatch, thread_pools):
        # pools of 300 to 600 slots, above the tagged-sort width of 256
        path = tmp_path / "wide.csv"
        write_trial_csv(path, make_trial(600, (150, 150, 150, 150), effect=0.2, seed=23))
        runs = []
        for cpus in (1, 2, 4):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)), raising=False)
            res, ci = tmp_path / f"tests_{cpus}.csv", tmp_path / f"ci_{cpus}.csv"
            argv = ["analyze", str(path), "--lag", "0", "--budget", "99", "--out", str(res), "--ci-out", str(ci)]
            assert main(argv) == EXIT_OK
            runs.append((capsys.readouterr().out, res.read_bytes(), ci.read_bytes()))
        assert runs[0][0].startswith("lag 0: 3 tests, 0 skipped\n")
        assert runs[0] == runs[1] == runs[2]
        assert thread_pools == [2, 3]  # min(cpus, tests); one CPU opens no pool

    def test_cpu_count_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert wedgeperm.cli._cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert wedgeperm.cli._cpus() == 1

    def test_oversized_unit_id_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("unit,crossover_time,y0,y1,y2\n1,1,0.0,0.1,0.2\n99999999999999999999,2,0.0,0.1,0.2\n")
        assert main(["analyze", str(path), "--lag", "0"]) == EXIT_DATA
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["0", "1", "1.5", "-0.1"])
    def test_alpha_outside_unit_interval_is_a_usage_error_before_any_output(self, trial_csv, capsys, alpha):
        assert main(["analyze", str(trial_csv), "--lag", "0", "--alpha", alpha]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--alpha must lie in (0, 1)" in captured.err

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/trial.csv", "--lag", "0"]) == EXIT_DATA

    def test_no_usable_tests(self, tmp_path, capsys):
        data = make_trial(24, (1, 23), seed=5)
        path = tmp_path / "thin.csv"
        write_trial_csv(path, data)
        assert main(["analyze", str(path), "--lag", "0"]) == EXIT_DATA
        assert "no usable tests" in capsys.readouterr().err

    def test_constant_trial_weighs_every_test(self, tmp_path, capsys):
        # five units cross at each of times 1..6 and every outcome at
        # time t is t: each test's arms are constant, and each still gets
        # the weight of its arm sizes
        y = np.tile(np.arange(7.0), (30, 1))
        data = TrialData(np.arange(30), CrossoverTimes(np.repeat(np.arange(1, 7), 5), 6), y)
        path = tmp_path / "constant.csv"
        write_trial_csv(path, data)
        argv = ["analyze", str(path), "--lag", "1", "--combiner"]
        assert main(argv + ["weighted_z"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        tests = [line for line in captured.out.splitlines() if line.startswith("  t=")]
        assert len(tests) == len(run_mcrts(data, 1).tests) > 1
        assert all(re.search(r"  weight=0\.\d{4}$", line) for line in tests)
        assert main(argv + ["fisher"]) == EXIT_OK
        assert main(argv + ["bonferroni"]) == EXIT_OK

    def test_empty_set_is_printed_and_written(self, tmp_path, capsys):
        data = gen_outcomes_sim1(Sim1Config(100, 6, lag=1, effect=0.3), generator(19))
        path, ci_path = tmp_path / "trial.csv", tmp_path / "ci.csv"
        write_trial_csv(path, data)
        argv = ["analyze", str(path), "--lag", "1", "--combiner", "bonferroni"]
        assert main(argv + ["--ci-out", str(ci_path)]) == EXIT_OK
        assert "90% interval for the lag-1 effect: empty" in capsys.readouterr().out
        assert ci_path.read_text().splitlines()[1] == "1,bonferroni,0.9,nan,nan"
        assert read_ci_csv(ci_path)[0].empty
        assert main(argv + ["--grid", "-1", "1", "0.1"]) == EXIT_USAGE

    def test_unbounded_interval_is_printed_and_written(self, tmp_path, capsys):
        # one two-against-two test: no p-value falls below 1/6
        data = make_trial(4, (2, 2), seed=5)
        path, ci_path = tmp_path / "tiny.csv", tmp_path / "ci.csv"
        write_trial_csv(path, data)
        assert main(["analyze", str(path), "--lag", "0", "--ci-out", str(ci_path)]) == EXIT_OK
        assert "90% interval for the lag-0 effect: [-inf, inf]" in capsys.readouterr().out
        assert ci_path.read_text().splitlines()[1] == "0,weighted_z,0.9,-inf,inf"


class TestSimulate:
    def test_preset_with_reduced_replicates(self, tmp_path, capsys):
        out = tmp_path / "power.csv"
        code = main(
            ["simulate", "--preset", "sim1-desk", "--replicates", "2", "--out", str(out)]
        )
        assert code == EXIT_OK
        result = parse_tables(out)
        assert result.study == "power"
        assert len(result.rows) == 12  # 4 cells x 3 methods
        assert all(r.replicates == 2 for r in result.rows)
        assert "wrote" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, replicates", [([], 1000), (["--replicates", "2"], 2)], ids=["full-scale", "replicates-override"]
    )
    def test_full_scale_sets_replicates_and_budget(self, tmp_path, monkeypatch, extra, replicates):
        # --full-scale means 1000 replicates and 1000 relabelings, and
        # --replicates still overrides the replicate count
        calls = []

        def spy(grid, **kwargs):
            calls.append(kwargs)
            return StudyResult("power", ())

        monkeypatch.setattr(wedgeperm.cli, "power_study", spy)
        argv = ["simulate", "--preset", "sim1-desk", "--full-scale", *extra, "--out", str(tmp_path / "power.csv")]
        assert main(argv) == EXIT_OK
        [kwargs] = calls
        assert (kwargs["replicates"], kwargs["budget"]) == (replicates, 1000)

    def test_cell_with_more_units_than_numpy_holds_is_skipped(self, tmp_path, capsys):
        cfg_path, out = tmp_path / "study.json", tmp_path / "power.csv"
        cell = [10**30, 6, 0, 0.0]
        cfg_path.write_text(json.dumps({"study": "power", "grid": [cell], "replicates": 1}))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err.splitlines() == [
            f"power study: cell 1/1 {cell}",
            f"  skipped {tuple(cell)}: n_units must be at most {2**63 - 1}, got {10**30}",
            f"wrote {out} (0 rows)",
        ]

    def test_power_stderr_is_one_line_per_cell_and_skip(self, tmp_path, capsys):
        grid = [[100, 6, 0, 0.0], [100, 6, 9, 0.0], [6, 6, 0, 0.0], [60, 4, 1, 0.3]]
        cfg_path, out = tmp_path / "study.json", tmp_path / "power.csv"
        cfg_path.write_text(json.dumps({"study": "power", "grid": grid, "replicates": 3, "budget": 49}))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err.splitlines() == [
            "power study: cell 1/4 [100, 6, 0, 0.0]",
            "power study: cell 2/4 [100, 6, 9, 0.0]",
            "  skipped (100, 6, 9, 0.0): lag must lie in [0, 4]",
            "power study: cell 3/4 [6, 6, 0, 0.0]",
            "power study: cell 4/4 [60, 4, 1, 0.3]",
            f"wrote {out} (9 rows)",
        ]

    def test_coverage_stderr_is_the_study_line_and_the_table_line(self, tmp_path, capsys):
        cfg = {"study": "coverage", "n_units": 40, "n_times": 6, "replicates": 2,
               "lags": [0, 1], "methods": ["weighted_z", "fisher"], "budget": 49}
        cfg_path, out = tmp_path / "study.json", tmp_path / "coverage.csv"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err.splitlines() == [
            "coverage study: N=40 T=6 interaction=0 replicates=2",
            f"wrote {out} (4 rows)",
        ]

    def test_each_run_prints_its_progress_once_and_restores_the_logger(self, tmp_path, capsys):
        logger = logging.getLogger("wedgeperm")
        before = (list(logger.handlers), logger.level)
        cfg_path, out = tmp_path / "study.json", tmp_path / "power.csv"
        cfg_path.write_text(json.dumps({"study": "power", "grid": [[16, 2, 0, 0.0]], "replicates": 1, "budget": 49}))
        for _ in range(2):
            assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
            assert capsys.readouterr().err.splitlines() == ["power study: cell 1/1 [16, 2, 0, 0.0]", f"wrote {out} (3 rows)"]
            assert (logger.handlers, logger.level) == before
        # a run that fails inside the study restores the logger too
        assert main(["simulate", "--config", str(cfg_path), "--seed", "-1", "--out", str(out)]) == EXIT_USAGE
        assert (logger.handlers, logger.level) == before

    def test_cell_whose_tests_are_all_skipped_rejects_nothing(self, tmp_path, capsys):
        # one unit per period leaves every arm below min_arm
        cfg_path, out = tmp_path / "study.json", tmp_path / "power.csv"
        cfg_path.write_text(json.dumps({"study": "power", "grid": [[6, 6, 0, 0.0]], "replicates": 3}))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        rows = parse_tables(out).rows
        assert [r.method for r in rows] == ["mcrts_z", "mcrts_f", "bonferroni"]
        assert all(r.rejections == 0 for r in rows)

    def test_config_file_coverage(self, tmp_path, capsys):
        cfg = {
            "study": "coverage", "n_units": 24, "n_times": 3,
            "taus": [0.0, 0.4, 0.0], "replicates": 2, "lags": [1], "budget": 99,
        }
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "cov.csv"
        code = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        assert code == EXIT_OK
        result = parse_tables(out)
        assert result.study == "coverage" and len(result.rows) == 1
        assert result.rows[0].lag == 1 and result.rows[0].effect == 0.4

    def test_default_output_name(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = {
            "study": "coverage", "n_units": 24, "n_times": 3,
            "taus": [0.0, 0.0, 0.0], "replicates": 1, "lags": [0], "budget": 49,
        }
        (tmp_path / "study.json").write_text(json.dumps(cfg))
        assert main(["simulate", "--config", "study.json"]) == EXIT_OK
        assert (tmp_path / "coverage.csv").exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps({"study": "power", "grid": [[12, 2, 0, 0.0]], "bogus": 1}))
        assert main(["simulate", "--config", str(cfg_path)]) == EXIT_USAGE
        assert "bogus" in capsys.readouterr().err

    def test_config_with_byte_order_mark_reads_like_one_without(self, tmp_path, capsys):
        cfg = {"study": "power", "grid": [[16, 2, 0, 0.0]], "replicates": 1, "budget": 49}
        runs = []
        for name, prefix in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
            cfg_path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            cfg_path.write_bytes(prefix + json.dumps(cfg).encode())
            assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
            runs.append(out.read_bytes())
        assert runs[0] == runs[1]

    def test_undecodable_config_is_a_data_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "study.json"
        cfg_path.write_bytes(b'{"study": "power", "grid": [[16, 2, 0, 0.0]], "replicates": 1}\xff')
        assert main(["simulate", "--config", str(cfg_path)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {cfg_path}: not valid UTF-8: ")

    def test_invalid_json_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text("{broken")
        assert main(["simulate", "--config", str(cfg_path)]) == EXIT_DATA
        assert "not valid JSON" in capsys.readouterr().err

    def test_zero_replicates_rejected(self, tmp_path, capsys):
        out = tmp_path / "power.csv"
        code = main(
            ["simulate", "--preset", "sim1-desk", "--replicates", "0", "--out", str(out)]
        )
        assert code == EXIT_USAGE
        assert "replicates" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"alpha": 1.5}, "alpha must lie in (0, 1)"),
            ({"grid": [[100, 6]]}, f"{CELLS}, got [[100, 6]]"),
            ({"grid": [["a", 6, 0, 0.0]]}, f"{CELLS}, got [['a', 6, 0, 0.0]]"),
            ({"grid": [[60.0, 4, 0, 0.0]]}, f"{CELLS}, got [[60.0, 4, 0, 0.0]]"),
            ({"grid": [[60, 4, 0.5, 0.0]]}, f"{CELLS}, got [[60, 4, 0.5, 0.0]]"),
            ({"methods": "mcrts_z"}, "'methods' must be a list"),
            ({"methods": ["mcrts_z", 1]}, "config key 'methods' must be a list of strings, got ['mcrts_z', 1]"),
            ({"replicates": "2"}, "config key 'replicates' must be an integer, got '2'"),
            ({"budget": "49"}, "config key 'budget' must be an integer, got '49'"),
            ({"alpha": True}, "config key 'alpha' must be a number, got True"),
            ({"alpha": math.nan}, "config key 'alpha' must be a number, got nan"),
            ({"grid": [[16, 2, 0, math.inf]]}, f"{CELLS}, got [[16, 2, 0, inf]]"),
            ({"grid": [[16, 2, 0, math.nan]]}, f"{CELLS}, got [[16, 2, 0, nan]]"),
            ({"replicates": 2.5}, "config key 'replicates' must be an integer, got 2.5"),
            # one unit per period skips every test, so no test would reach these
            ({"grid": [[6, 6, 0, 0.0]], "statistic": "bogus"}, "unknown statistic 'bogus'"),
            ({"grid": [[6, 6, 0, 0.0]], "budget": 0}, "resample budget must be at least 1"),
            ({"statistic": "bogus"}, "unknown statistic 'bogus'"),
            ({"methods": ["mcrts_q"]}, "unknown methods: ['mcrts_q']"),
            ({"seed": -1}, "seed must be a non-negative integer"),
            ({"methods": []}, "methods must name at least one method"),
            ({"grid": []}, "grid must hold at least one cell"),
            ({"methods": ["mcrts_f", "mcrts_f"]}, "methods must be distinct"),
        ],
        ids=[
            "alpha", "short-cell", "text-in-cell", "float-units-in-cell", "float-lag-in-cell",
            "methods-not-a-list", "number-in-methods", "replicates-text", "budget-text", "alpha-bool",
            "alpha-nan", "infinite-effect-in-cell", "nan-effect-in-cell", "replicates-float",
            "statistic-all-skipped", "budget-all-skipped", "statistic", "unknown-method",
            "seed-negative", "methods-empty", "grid-empty", "methods-repeated",
        ],
    )
    def test_malformed_power_config_rejected_before_any_replicate(self, tmp_path, capsys, edit, message):
        cfg = {"study": "power", "grid": [[100, 6, 1, 0.3]], "replicates": 2, "budget": 49}
        cfg_path, out = tmp_path / "study.json", tmp_path / "power.csv"
        cfg_path.write_text(json.dumps({**cfg, **edit}))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_USAGE
        # the error is the only line: no progress line precedes it
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"lags": 3}, "config key 'lags' must be a list, got 3"),
            ({"lags": [1.0]}, "config key 'lags' must be a list of integers, got [1.0]"),
            ({"lags": ["x"]}, "config key 'lags' must be a list of integers, got ['x']"),
            ({"taus": ["a", 0, 0, 0, 0, 0]}, "config key 'taus' must be a list of numbers, got ['a', 0, 0, 0, 0, 0]"),
            ({"level": "0.9"}, "config key 'level' must be a number, got '0.9'"),
            ({"taus": [0.1, math.nan, 0.2, 0, 0, 0]}, "config key 'taus' must be a list of numbers, got [0.1, nan, 0.2, 0, 0, 0]"),
            ({"taus": [0, 0, 0, 0, 0, -math.inf]}, "config key 'taus' must be a list of numbers, got [0, 0, 0, 0, 0, -inf]"),
            ({"level": math.inf}, "config key 'level' must be a number, got inf"),
            ({"replicates": "2"}, "config key 'replicates' must be an integer, got '2'"),
            ({"n_units": 40.0}, "config key 'n_units' must be an integer, got 40.0"),
            ({"lags": [9]}, "lag must lie in [0, 4]"),
            ({"methods": ["nope"]}, f"unknown combiners: ['nope']; choose from {COMBINERS}"),
            ({"budget": 0}, "resample budget must be at least 1 and an integer, got 0"),
            ({"seed": -1}, "seed must be a non-negative integer"),
            ({"methods": []}, "methods must name at least one combiner"),
            ({"lags": []}, "lags must name at least one lag"),
            ({"lags": [1, 1]}, "lags must be distinct"),
            ({"methods": ["fisher", "fisher"]}, "methods must be distinct"),
            ({"n_units": 2**70}, f"n_units must be at most {2**63 - 1}, got {2**70}"),
            ({"level": 1e-300}, "level must lie in (0, 1) with 1 - level below 1, got 1e-300"),
        ],
        ids=[
            "lags-number", "float-in-lags", "text-in-lags", "text-in-taus",
            "level-text", "nan-in-taus", "infinity-in-taus", "level-infinite", "replicates-text", "n_units-float", "lag-out-of-range", "unknown-combiner",
            "budget-zero", "seed-negative", "methods-empty", "lags-empty", "lags-repeated",
            "methods-repeated", "n_units-beyond-int64", "level-whose-alpha-rounds-to-one",
        ],
    )
    def test_malformed_coverage_config_rejected_before_any_replicate(
        self, tmp_path, capsys, monkeypatch, edit, message
    ):
        def no_replicate(*args):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(wedgeperm.sim, "gen_outcomes_sim2", no_replicate)
        cfg = {"study": "coverage", "n_units": 40, "n_times": 6, "replicates": 2, "lags": [0], "budget": 49}
        cfg_path, out = tmp_path / "study.json", tmp_path / "coverage.csv"
        cfg_path.write_text(json.dumps({**cfg, **edit}))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_missing_study_source(self, capsys):
        assert main(["simulate"]) == EXIT_USAGE

    def test_same_seed_same_bytes_across_thread_settings(self, tmp_path, capsys):
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(
            json.dumps({"study": "power", "grid": [[16, 2, 0, 0.3]], "replicates": 6, "budget": 49})
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(a)]) == EXIT_OK
        assert main(["simulate", "--config", str(cfg_path), "--threads", "2", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_grid_table_and_stderr_identical_across_thread_settings(self, tmp_path, capsys):
        grid = [[100, 6, 0, 0.0], [100, 6, 9, 0.0], [6, 6, 0, 0.0], [60, 4, 1, 0.3]]
        cfg_path, out = tmp_path / "study.json", tmp_path / "power.csv"
        cfg_path.write_text(json.dumps({"study": "power", "grid": grid, "replicates": 3, "budget": 49}))
        runs = []
        for threads in ("1", "2"):
            assert main(["simulate", "--config", str(cfg_path), "--threads", threads, "--out", str(out)]) == EXIT_OK
            runs.append((out.read_bytes(), capsys.readouterr().err))
        assert runs[0] == runs[1]

    def test_thread_count_below_one_rejected(self, tmp_path, capsys):
        cfg_path, out = tmp_path / "study.json", tmp_path / "power.csv"
        cfg_path.write_text(
            json.dumps({"study": "power", "grid": [[16, 2, 0, 0.0]], "replicates": 1, "budget": 49})
        )
        assert main(["simulate", "--config", str(cfg_path), "--threads", "0", "--out", str(out)]) == EXIT_USAGE
        assert "error: threads must be an integer of at least 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_thread_count_is_not_read_from_the_environment(self, monkeypatch, capsys):
        monkeypatch.setenv("WEDGEPERM_THREADS", "abc")
        assert main(["schedule", "--T", "8", "--lag", "1"]) == EXIT_OK


class TestValidate:
    def test_bundled_valid_scenario_passes(self, capsys):
        assert main(["validate", "--name", "nested-lag0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "joint dominance (exact): pass" in out
        assert "overall: pass" in out

    def test_bundled_broken_scenario_fails(self, capsys):
        assert main(["validate", "--name", "naive-lag1"]) == EXIT_CHECK
        out = capsys.readouterr().out
        assert "nestedness 0,1: FAIL" in out
        assert "joint dominance (exact): FAIL" in out
        assert "overall: FAIL" in out

    def test_scenario_file(self, tmp_path, capsys):
        from wedgeperm import stepped_wedge_scenario

        path = tmp_path / "scenario.json"
        save_scenario(path, stepped_wedge_scenario(4, (2, 1, 1), lag=0, name="from-file"))
        assert main(["validate", "--scenario", str(path)]) == EXIT_OK
        assert "from-file" in capsys.readouterr().out

    def test_float_scenario_validates_without_a_draw_count(self, tmp_path, capsys):
        space = FiniteAssignmentSpace([(0,), (1,), (2,)], [0.5, 0.25, 0.25])
        scenario = Scenario(
            space=space,
            family=PartitionFamily([[0, 0, 0]]),
            stats=[np.asarray([2.0, 1.0, 0.0])],
            stat_names=["gap"],
            partition_names=["test"],
            alphas=[(0.5,)],
            name="float-probs",
        )
        path = tmp_path / "float.json"
        save_scenario(path, scenario)
        assert main(["validate", "--scenario", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "(3 elements, 1 partitions, exact probabilities)" in out
        assert "joint dominance (exact): pass" in out
        assert "draws" not in out

    def test_float_violation_exits_3(self, tmp_path, capsys):
        # both tests reject on 251 of 1000 equally likely elements
        n = 1000
        scenario = Scenario(
            space=FiniteAssignmentSpace([(i,) for i in range(n)], [1.0 / n] * n),
            family=PartitionFamily([[0] * n, [0] * n]),
            stats=[np.isin(np.arange(n), np.arange(lo, lo + 500)).astype(float) for lo in (0, 249)],
            stat_names=["a", "b"],
            partition_names=["a", "b"],
            alphas=[(0.5, 0.5)],
            name="float-violation",
        )
        path = tmp_path / "violation.json"
        save_scenario(path, scenario)
        assert main(["validate", "--scenario", str(path)]) == EXIT_CHECK
        out = capsys.readouterr().out
        assert "joint dominance (exact): FAIL" in out
        assert "marginal violation at levels (0.5, 0.5): probability 0.251 > bound 0.25" in out

    def test_nestedness_is_computed_once(self, monkeypatch, capsys):
        # each pair is checked once, by the report, and the nestedness
        # line prints the report's result
        calls = []
        check = wedgeperm.validate.pairwise_nested_check
        monkeypatch.setattr(
            wedgeperm.validate, "pairwise_nested_check", lambda *a: calls.append(a[1:]) or check(*a)
        )
        assert main(["validate", "--name", "naive-lag1"]) == EXIT_CHECK
        K = bundled_scenario("naive-lag1").family.n_partitions
        assert K > 1 and sorted(calls) == [(j, k) for j in range(K) for k in range(j + 1, K)]

    @pytest.mark.parametrize("draws", ["10", "0", "-5"])
    def test_draws_is_an_unknown_option(self, capsys, draws):
        assert main(["validate", "--name", "nested-lag0", "--draws", draws]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --draws" in captured.err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["alphas"][0].pop(),
            lambda doc: doc.update(probs=["1/2"] * len(doc["elements"])),
            lambda doc: doc.update(probs=["abc"] + ["1/12"] * (len(doc["elements"]) - 1)),
            lambda doc: doc["partitions"][0]["labels"].pop(),
            lambda doc: doc["elements"].__setitem__(1, doc["elements"][0]),
            lambda doc: doc["statistics"][0]["values"].__setitem__(0, "x"),
            lambda doc: doc["alphas"][0].__setitem__(0, "zz"),
            lambda doc: doc.update(probs=["1/0"] + ["1/12"] * (len(doc["elements"]) - 1)),
            lambda doc: doc["statistics"][0]["values"].__setitem__(0, float("nan")),
            lambda doc: doc.update(probs=[1 / 12 + 1e-6] + [1 / 12] * (len(doc["elements"]) - 1)),
            lambda doc: doc.update(probs=[True] + ["1/12"] * (len(doc["elements"]) - 1)),
            lambda doc: doc["alphas"][0].__setitem__(0, True),
            lambda doc: doc.update(probs=[float("nan")] + ["1/12"] * (len(doc["elements"]) - 1)),
            lambda doc: doc.update(probs=[float("inf")] + ["1/12"] * (len(doc["elements"]) - 1)),
            lambda doc: doc.update(probs=[-1 / 12, 3 / 12] + ["1/12"] * (len(doc["elements"]) - 2)),
            lambda doc: doc["statistics"][0]["values"].__setitem__(0, 10**400),
        ],
        ids=[
            "alpha-vector-length", "probs-sum", "prob-not-a-number", "label-lengths",
            "duplicate-elements", "statistic-not-a-number", "alpha-not-a-number",
            "prob-zero-denominator", "statistic-not-finite", "probs-sum-off-by-1e-6",
            "prob-bool", "alpha-bool", "prob-nan", "prob-infinite", "prob-negative",
            "statistic-beyond-float",
        ],
    )
    def test_malformed_scenario_file_is_a_data_error(self, tmp_path, capsys, edit):
        from wedgeperm import stepped_wedge_scenario

        path = tmp_path / "scenario.json"
        save_scenario(path, stepped_wedge_scenario(4, (2, 1, 1), lag=0))
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        assert main(["validate", "--scenario", str(path)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ")

    def test_invalid_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        assert main(["validate", "--scenario", str(path)]) == EXIT_DATA

    def test_scenario_with_byte_order_mark_validates(self, tmp_path, capsys):
        from wedgeperm import stepped_wedge_scenario

        path = tmp_path / "scenario.json"
        save_scenario(path, stepped_wedge_scenario(4, (2, 1, 1), lag=0, name="from-file"))
        assert main(["validate", "--scenario", str(path)]) == EXIT_OK
        plain = capsys.readouterr().out
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert main(["validate", "--scenario", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == plain

    def test_undecodable_scenario_file_is_a_data_error(self, tmp_path, capsys):
        from wedgeperm import stepped_wedge_scenario

        path = tmp_path / "scenario.json"
        save_scenario(path, stepped_wedge_scenario(4, (2, 1, 1), lag=0))
        path.write_bytes(path.read_bytes().replace(b"{", b"{\xff", 1))
        assert main(["validate", "--scenario", str(path)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {path}: not valid UTF-8: ")

    def test_missing_scenario_file(self, capsys):
        assert main(["validate", "--scenario", "/nonexistent.json"]) == EXIT_DATA

    def test_no_color_output_is_plain(self, capsys, monkeypatch):
        monkeypatch.setenv("NO_COLOR", "1")
        main(["validate", "--name", "nested-lag0"])
        assert "\x1b[" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [["analyze", "{}", "--lag", "1"], ["simulate", "--config", "{}"], ["validate", "--scenario", "{}"]],
    ids=["analyze", "simulate", "validate"],
)
def test_input_path_that_cannot_be_read_is_a_data_error(tmp_path, capsys, argv):
    # a directory passes every argument check and fails only at open()
    assert main([arg.format(tmp_path) for arg in argv]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = captured.err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error: ") and str(tmp_path) in errors[0]


@pytest.mark.parametrize("command", ["simulate --config", "validate --scenario"])
def test_deeply_nested_json_is_a_data_error(tmp_path, capsys, command):
    # valid JSON nested deeper than the parser recurses
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main([*command.split(), str(path)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = captured.err.splitlines()
    assert len(errors) == 1 and errors[0].startswith(f"error: {path}: not valid JSON: ")


@pytest.mark.parametrize("command", ["simulate --config", "validate --scenario"])
def test_json_integer_too_long_to_read_is_a_data_error(tmp_path, capsys, command):
    # valid JSON, but int() reads at most 4300 digits
    path = tmp_path / "long.json"
    path.write_text('{"seed": ' + "9" * 5000 + "}")
    assert main([*command.split(), str(path)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = captured.err.splitlines()
    assert len(errors) == 1 and errors[0].startswith(f"error: {path}: not valid JSON: ")


def test_budget_too_large_for_memory_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # stands in for TailPlan's allocation of one float per relabeling,
    # which a budget of 10**9 asks for
    def allocate(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.45 GiB for an array with shape (1000000000,)")

    monkeypatch.setattr(wedgeperm.cli, "run_mcrts", allocate)
    path = tmp_path / "trial.csv"
    write_trial_csv(path, make_trial(12, (4, 4, 4), seed=3))
    assert main(["analyze", str(path), "--lag", "0", "--budget", "1000000000"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory: Unable to allocate 7.45 GiB for an array with shape (1000000000,)\n"
