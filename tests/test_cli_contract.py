"""The command line's exit-code contract under generated input.

Every run of ``cli.main`` exits 0, 1, 2 or 3 and raises nothing.  A
run that fails through an exception reports it in exactly one line,
the last, starting ``error:``.  Three failures keep their own
documented output instead: argparse's usage errors (usage, then
``wedgeperm ...: error: ...``, exit 1), analyze's "no usable tests"
line (exit 2) and validate's failed check (its report, exit 3).

Generated sizes stay small (a few dozen units, budgets and replicate
counts below 13, or counts too large for any array), so each example
runs in milliseconds.
"""

import contextlib
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wedgeperm import write_trial_csv
from wedgeperm.cli import EXIT_CHECK, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from wedgeperm.validate import bundled_scenario, save_scenario

from conftest import make_trial

# a count no array can have, and a JSON integer too long for int()
_HUGE = (2**63, 2**70, 10**30)
_LONG_DIGITS = "9" * 5000


def _run_checked(argv) -> None:
    """Run ``cli.main(argv)`` and check its exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_CHECK), (code, err)
    lines = err.splitlines()
    errors = [line for line in lines if line.startswith("error:")]
    if lines and lines[0].startswith("usage:"):
        assert code == EXIT_USAGE and not errors, err
        assert lines[-1].startswith("wedgeperm") and ": error: " in lines[-1], err
    elif code == EXIT_CHECK:
        assert out.splitlines()[-1].startswith("overall:") and not errors, (out, err)
    elif code == EXIT_DATA and lines and lines[0].startswith("no usable tests at lag"):
        assert len(lines) == 1, err
    elif code == EXIT_OK:
        assert not errors, err
    else:
        assert len(errors) == 1 and lines[-1] == errors[0], err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding the fixed input files, made the working
    directory for the module's tests, so a default output name lands
    there too."""
    root = tmp_path_factory.mktemp("cli_contract")
    write_trial_csv(root / "trial.csv", make_trial(30, (10, 10, 10), lag=0, effect=0.5, seed=4))
    save_scenario(root / "scenario.json", bundled_scenario("nested-lag0"))
    (root / "bad.json").write_text("{not json")
    (root / "bytes.csv").write_bytes(b"unit,crossover_time,y0,y1,y2\n1,\xff,0,0,0\n")
    cwd = os.getcwd()
    os.chdir(root)
    try:
        yield root
    finally:
        os.chdir(cwd)


_COMMANDS = ("schedule", "analyze", "simulate", "validate")
_FLAGS = (
    "--T", "--lag", "--out", "--combiner", "--alpha", "--budget", "--statistic", "--seed",
    "--ci-out", "--preset", "--config", "--replicates", "--full-scale", "--name", "--scenario",
    "--help", "--bogus",
)
# no study config that runs: --full-scale or a preset would start a
# study of hundreds of replicates
_WORDS = (
    "0.05", "0.5", "1e-300", "nan", "inf", "-0.0", "", "x", "weighted_z", "fisher", "bonferroni",
    "rank_sum", "diff_in_means", "nested-lag0", "naive-lag1", "sim3", "trial.csv", "bytes.csv",
    "scenario.json", "bad.json", "missing.csv", ".", "out.csv", "no-such-dir/out.csv", _LONG_DIGITS,
    *map(str, _HUGE),
)
_TOKENS = st.one_of(st.integers(-2, 12).map(str), st.sampled_from(_WORDS + _FLAGS))


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(_COMMANDS + ("", "--seed")), args=st.lists(_TOKENS, max_size=9))
def test_generated_argv_keeps_the_contract(workdir, command, args):
    _run_checked([command, *args])


_SMALL = st.integers(-1, 12)
_COUNT = st.one_of(_SMALL, st.sampled_from(_HUGE))
_NUMBER = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, 1.0, 1e-300, 1e308, -1e308, 0.9]))
# any JSON value, for a key given the wrong type
_ANY = st.recursive(
    st.one_of(st.none(), st.booleans(), _SMALL, st.floats(), st.sampled_from(["", "x", "fisher"])),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=6,
)


def _rarely(draw) -> bool:
    """True one time in eight: how often a generated input is broken
    at one more place, so most inputs get past the first check."""
    return draw(st.integers(0, 7)) == 4


_CELL = st.tuples(st.integers(0, 40) | st.sampled_from(_HUGE), st.integers(0, 8) | st.sampled_from(_HUGE),
                  _SMALL, _NUMBER).map(list)
_POWER_KEYS = {
    "grid": st.lists(_CELL | _ANY, min_size=1, max_size=3),
    "alpha": _NUMBER,
    "methods": st.lists(st.sampled_from(["mcrts_z", "mcrts_f", "bonferroni", "x"]), min_size=1, max_size=3),
    "seed": _COUNT,
    "statistic": st.sampled_from(["diff_in_means", "rank_sum", "x"]),
}
_COVERAGE_KEYS = {
    "n_units": st.integers(0, 40) | st.sampled_from(_HUGE),
    "n_times": st.integers(0, 8) | st.sampled_from(_HUGE),
    "taus": st.lists(_NUMBER, max_size=8),
    "interaction": _SMALL,
    "level": _NUMBER,
    "methods": st.lists(st.sampled_from(["weighted_z", "fisher", "bonferroni", "x"]), min_size=1, max_size=3),
    "lags": st.lists(_SMALL, min_size=1, max_size=3),
    "seed": _COUNT,
    "statistic": st.sampled_from(["diff_in_means", "rank_sum", "x"]),
}


@st.composite
def _study_configs(draw):
    """A study config: a known study or not, its keys with values of the
    right type or any other, and always a replicate count and a budget
    (their defaults run hundreds of replicates at 499 relabelings).  The
    replicate count is never a huge integer: a study lists a task per
    replicate before running any."""
    study = draw(st.sampled_from(["power", "coverage"]))
    keys = _POWER_KEYS if study == "power" else _COVERAGE_KEYS
    doc = {"study": "x" if _rarely(draw) else study}
    # a power study needs a grid, or it has no cell to run
    chosen = draw(st.lists(st.sampled_from(sorted(keys)), unique=True))
    for key in chosen + ["grid"] * (study == "power" and "grid" not in chosen):
        doc[key] = draw(_ANY if _rarely(draw) else keys[key])
    doc["replicates"] = draw(_ANY if _rarely(draw) else st.integers(1, 2))
    doc["budget"] = draw(_ANY if _rarely(draw) else st.integers(1, 12) | st.sampled_from(_HUGE))
    if _rarely(draw):
        doc[draw(st.sampled_from(["extra", "grid", "n_units"]))] = draw(_ANY)
    return doc


@settings(max_examples=60, deadline=None)
@given(doc=_study_configs())
def test_generated_study_config_keeps_the_contract(workdir, doc):
    path = workdir / "study.json"
    path.write_text(json.dumps(doc))
    _run_checked(["simulate", "--config", str(path), "--out", str(workdir / "study.csv")])


@st.composite
def _scenario_edits(draw, doc: dict):
    """``doc`` with up to three values replaced by generated JSON, each
    at a path into the document drawn step by step, or with a key
    dropped; ``doc`` is edited in place."""
    for _ in range(draw(st.integers(0, 3))):
        node, key = doc, draw(st.sampled_from(sorted(doc)))
        while isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
            node = node[key]
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        if isinstance(node, dict) and _rarely(draw):
            del node[key]
            break
        node[key] = draw(_ANY | st.sampled_from([*_HUGE, 10**400, "1/0", "-1/3", "uniform", 1e308]))
    return doc


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generated_scenario_keeps_the_contract(workdir, data):
    # the bundled nested-lag0 scenario, edited
    doc = data.draw(_scenario_edits(json.loads((workdir / "scenario.json").read_text())))
    path = workdir / "edited.json"
    path.write_text(json.dumps(doc))
    _run_checked(["validate", "--scenario", str(path)])


_CSV_CELLS = st.one_of(
    st.integers(-1, 4).map(str), st.floats(-3.0, 3.0).map(repr),
    st.sampled_from(["", " ", "x", "nan", "inf", "1.5", "1e999", '"2"', str(2**64), _LONG_DIGITS]),
)


@st.composite
def _trial_csv_bytes(draw):
    """A trial CSV: a header for T in 2..4 or generated cells, rows of
    units 0..n-1 with times in 1..T and outcomes, now and then a row of
    generated cells in part or whole, and now and then generated bytes
    spliced in."""
    n_times = draw(st.integers(2, 4))
    header = ["unit", "crossover_time", *(f"y{t}" for t in range(n_times + 1))]
    if _rarely(draw):
        header = draw(st.lists(_CSV_CELLS, min_size=1, max_size=6))
    lines = [",".join(header)]
    for unit in range(draw(st.integers(0, 24))):
        row = [str(unit), str(draw(st.integers(1, n_times))),
               *(repr(draw(st.floats(-3.0, 3.0))) for _ in range(n_times + 1))]
        if draw(st.integers(0, 39)) == 0:
            cells = draw(st.lists(_CSV_CELLS, min_size=1, max_size=n_times + 4))
            row = cells if draw(st.booleans()) else row[: len(row) - len(cells)] + cells
        lines.append(",".join(row))
    data = "\n".join(lines).encode()
    if _rarely(draw):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(max_size=6)) + data[at:]
    return data


@settings(max_examples=60, deadline=None)
@given(data=_trial_csv_bytes(), lag=st.integers(-1, 3), statistic=st.sampled_from(["diff_in_means", "rank_sum"]))
def test_generated_trial_csv_keeps_the_contract(workdir, data, lag, statistic):
    path = workdir / "generated.csv"
    path.write_bytes(data)
    _run_checked([
        "analyze", str(path), "--lag", str(lag), "--budget", "9", "--statistic", statistic,
        "--out", str(workdir / "tests.csv"), "--ci-out", str(workdir / "ci.csv"),
    ])
