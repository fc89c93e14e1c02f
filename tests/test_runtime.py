"""What the commands must do on the runtime dependencies alone.

CI runs this module, with every other module that imports neither SciPy
nor hypothesis, on an install of the package and pytest only.  Each
check calls cli.main in this process, except where it needs a fresh
interpreter: what importing the package loads, NumPy's SIMD dispatch,
which is fixed when NumPy is imported, and the CPU affinity mask.
"""

import ast
import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wedgeperm
from wedgeperm import Sim1Config, gen_outcomes_sim1, read_ci_csv, write_trial_csv
from wedgeperm.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from wedgeperm.rng import generator

from test_golden import ANALYZE, COVERAGE, TRIALS, analyze_argv, analyze_digests, coverage_argv, sha256, write_trial

# the SIMD levels above x86-64's baseline that NumPy may dispatch to
BASELINE_SIMD = "X86_V4 AVX512_ICL AVX512_SPR X86_V3"

# A fresh interpreter: it keeps to the CPUs it is given, if any, imports
# the package and prints which of SciPy and concurrent.futures that
# loaded, runs each (stdout file, argv) through cli.main, and prints
# what is loaded then.
_CHILD = """
import contextlib, json, os, sys
runs, cpus = json.loads(sys.argv[1])
if cpus:
    os.sched_setaffinity(0, cpus)
def loaded():
    return sorted({name.split(".")[0] for name in sys.modules} & {"scipy", "concurrent"})
import wedgeperm
print(loaded())
from wedgeperm.cli import main
for stdout, argv in runs:
    with open(stdout, "w") as fh, contextlib.redirect_stdout(fh):
        code = main(argv)
    if code:
        sys.exit(f"exit {code}: {argv}")
print(loaded())
"""

needs_affinity = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call here")


def run_child(runs, cpus=None, **env) -> subprocess.CompletedProcess:
    """Run the (stdout path, argv) pairs in a fresh interpreter on
    ``cpus`` (all by default), with ``env`` added to the environment."""
    src = str(Path(wedgeperm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **env)
    payload = json.dumps([[[str(out), argv] for out, argv in runs], sorted(cpus or [])])
    return subprocess.run(
        [sys.executable, "-c", _CHILD, payload], env=env, capture_output=True, text=True, timeout=300
    )


def first_cpu() -> set[int]:
    return {min(os.sched_getaffinity(0))}


@needs_affinity
def test_import_and_every_command_load_neither_scipy_nor_concurrent(tmp_path):
    # on one CPU no command needs a pool: simulate runs in its own
    # process and analyze draws on one thread
    trial = write_trial(tmp_path, "narrow")
    runs = [
        (tmp_path / "schedule.out", ["schedule", "--T", "8", "--lag", "1"]),
        (tmp_path / "validate.out", ["validate", "--name", "nested-lag0"]),
        (tmp_path / "power.out", ["simulate", "--preset", "sim1-desk", "--replicates", "2", "--out", str(tmp_path / "p.csv")]),
        (tmp_path / "coverage.out", ["simulate", "--preset", "sim2-desk", "--replicates", "2", "--out", str(tmp_path / "c.csv")]),
        (tmp_path / "analyze.out", ["analyze", str(trial), "--lag", "1"]),
    ]
    proc = run_child(runs, first_cpu())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]
    assert (tmp_path / "schedule.out").read_text() == "1,3,5,7\n2,4,6,8\n"
    assert (tmp_path / "analyze.out").read_text().startswith("lag 1: 3 tests, 0 skipped\n")


def test_import_leaves_numpy_random_unloaded():
    # importing the package makes config defaults, whose integer seeds
    # are checked without np.random, which NumPy 2 loads on first use
    src = str(Path(wedgeperm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, numpy; print('numpy.random' in sys.modules); import wedgeperm; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with_numpy, with_package = proc.stdout.split()
    if with_numpy == "True":
        pytest.skip("this NumPy loads np.random when it is imported")
    assert with_package == "False"


def test_outputs_do_not_depend_on_the_simd_level(tmp_path):
    # pools of up to 256 slots list each selected set in key order on
    # every CPU, index-sampled pools of more than 10 000 slots in the
    # order Generator.choice leaves it, and exact pools enumerate in
    # combinations order, so the sums, and the intervals' last bits,
    # agree with the pinned outputs
    runs, dirs = [], {}
    for trial, statistic in ANALYZE:
        directory = dirs[trial, statistic] = tmp_path / f"{trial}-{statistic}"
        directory.mkdir()
        runs.append((directory / "stdout", analyze_argv(write_trial(directory, trial), statistic, directory, TRIALS[trial].lag)))
    runs.append((tmp_path / "coverage.out", coverage_argv(tmp_path)))
    proc = run_child(runs, NPY_DISABLE_CPU_FEATURES=BASELINE_SIMD)
    if proc.returncode != 0 and "NPY_DISABLE_CPU_FEATURES" in proc.stderr:
        pytest.skip("this NumPy rejects the baseline feature set: " + proc.stderr.strip().splitlines()[-1])
    assert proc.returncode == 0, proc.stderr
    for case, directory in dirs.items():
        assert analyze_digests((directory / "stdout").read_bytes(), directory) == ANALYZE[case], case
    assert sha256((tmp_path / "coverage.csv").read_bytes()) == COVERAGE


@needs_affinity
def test_wide_pool_trial_analyzes_to_the_same_bytes_on_one_cpu_and_on_every_cpu(tmp_path, capsys):
    # analyze draws a family's tests on one thread per CPU it may run
    # on; each test draws from its own stream, and pools of 257 to
    # 10 000 slots take argpartition's order, so this trial covers that
    # path
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU here: both runs would draw on one thread")
    trial = tmp_path / "wide.csv"
    write_trial_csv(trial, gen_outcomes_sim1(Sim1Config(n_units=2000, n_times=5, lag=1, effect=0.1), generator(11)))
    one, every = tmp_path / "one", tmp_path / "every"
    one.mkdir()
    every.mkdir()
    argv = ["analyze", str(trial), "--lag", "1"]
    proc = run_child([(one / "stdout", argv + ["--out", str(one / "tests.csv"), "--ci-out", str(one / "ci.csv")])], first_cpu())
    assert proc.returncode == 0, proc.stderr
    assert main(argv + ["--out", str(every / "tests.csv"), "--ci-out", str(every / "ci.csv")]) == EXIT_OK
    rows = list(csv.DictReader((every / "tests.csv").read_text().splitlines()))
    assert len(rows) >= 2 and all(256 < int(r["n_treated"]) + int(r["n_control"]) <= 10_000 for r in rows), rows
    assert (one / "stdout").read_text() == capsys.readouterr().out
    for name in ("tests.csv", "ci.csv"):
        assert (one / name).read_bytes() == (every / name).read_bytes(), name


def test_exact_trial_enumerates_every_pool(tmp_path, capsys):
    # each one-sided p-value times C(n1 + n0, n1) is a whole count
    assert main(analyze_argv(write_trial(tmp_path, "exact"), "diff_in_means", tmp_path)) == EXIT_OK
    rows = list(csv.DictReader((tmp_path / "tests.csv").read_text().splitlines()))
    counts = [float(r["p_less"]) * math.comb(int(r["n_treated"]) + int(r["n_control"]), int(r["n_treated"])) for r in rows]
    assert rows and all(abs(k - round(k)) < 1e-6 for k in counts), counts


def test_lf_copy_with_a_quoted_outcome_and_a_blank_row_analyzes_identically(tmp_path, capsys):
    # write_trial_csv ends each row in CRLF; the copy ends them in LF
    head, first, *rest = write_trial(tmp_path, "narrow").read_text().splitlines()
    cells = first.split(",")
    cells[2] = f'"{cells[2]}"'
    copy = tmp_path / "lf.csv"
    copy.write_bytes(("\n".join([head, ",".join(cells), "   "] + rest) + "\n").encode())
    assert main(analyze_argv(copy, "diff_in_means", tmp_path)) == EXIT_OK
    assert analyze_digests(capsys.readouterr().out.encode(), tmp_path) == ANALYZE["narrow", "diff_in_means"]


def test_rank_sum_fisher_interval_is_one_ordered_row(tmp_path, capsys):
    argv = ["analyze", str(write_trial(tmp_path, "narrow")), "--lag", "1", "--statistic", "rank_sum",
            "--combiner", "fisher", "--ci-out", str(tmp_path / "ci.csv")]
    assert main(argv) == EXIT_OK
    [interval] = read_ci_csv(tmp_path / "ci.csv")
    assert interval.method == "fisher" and interval.lower <= interval.upper


def _thin_trial(directory):
    """A trial whose one lag-0 test has a single treated unit, so the
    test is skipped and no stream is drawn."""
    path = directory / "thin.csv"
    rows = "".join(f"{u},{1 if u == 0 else 2},0.0,0.1,0.2\n" for u in range(6))
    path.write_text("unit,crossover_time,y0,y1,y2\n" + rows)
    return path


def _bad_cell_trial(directory):
    lines = write_trial(directory, "narrow").read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",1.0x"
    path = directory / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize(
    "argv, code, error",
    [
        (["schedule", "--T", "6", "--lag", "5", "--out", "{out}"], EXIT_USAGE, "error: lag must lie in [0, 4]"),
        (["simulate", "--preset", "sim1-desk", "--replicates", "2", "--seed", "-1", "--out", "{out}"],
         EXIT_USAGE, "error: seed must be a non-negative integer"),
        (["analyze", "{bad}", "--lag", "1", "--out", "{out}"],
         EXIT_DATA, "error: {bad}: line 4: could not convert string to float: '1.0x'"),
        (["analyze", "{thin}", "--lag", "0", "--seed", "-1", "--out", "{out}"],
         EXIT_USAGE, "error: seed must be a non-negative integer"),
    ],
    ids=["schedule-lag", "simulate-seed", "analyze-cell", "analyze-seed-no-testable-group"],
)
def test_bad_input_exits_with_one_error_line_and_no_output(tmp_path, capsys, argv, code, error):
    paths = {"out": tmp_path / "out.csv", "bad": _bad_cell_trial(tmp_path), "thin": _thin_trial(tmp_path)}
    assert main([arg.format(**paths) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [error.format(**paths)]
    assert not paths["out"].exists()


def _imports(path: Path) -> set[str]:
    """The top-level names of the modules that a file imports, anywhere in it."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_runtime_job_runs_every_module_that_imports_neither_scipy_nor_hypothesis():
    # a module counts as importing what conftest, which pytest loads for
    # every module, and the test modules it imports import in turn
    tests = Path(__file__).resolve().parent

    def heavy(name: str, seen: set[str]) -> bool:
        seen.add(name)
        names = _imports(tests / f"{name}.py") | {"conftest"}
        local = {n for n in names - seen if (tests / f"{n}.py").is_file()}
        return bool(names & {"scipy", "hypothesis"}) or any(heavy(n, seen) for n in local)

    light = sorted(path.name for path in tests.glob("test_*.py") if not heavy(path.stem, set()))
    workflow = (tests.parent / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    job = re.split(r"\n  (?=\S)", workflow.split("\n  runtime-smoke:")[1])[0]
    assert sorted(re.findall(r"\btests/(test_\w+\.py)", job)) == light
