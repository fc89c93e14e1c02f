"""The benchmark's workloads: op lists, the timed calls, and output checks.

An op is one timed call into wedgeperm's public API.  Op ``i`` of a
workload is a pure function of (workload seed, i): its kind comes from a
fixed rotation and its seeds from ``SeedSequence([seed, i])``.  A pass
is ops ``0 .. pass_ops - 1`` and holds every kind of the rotation
equally often, so a pass's counts repeat exactly on a seed and its
mix is the same on every seed.

Every op's output is checked after the timed region and reduced to
canonical bytes, whose sha256 over a pass is the workload digest.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os

import numpy as np

import wedgeperm
from wedgeperm import ci, cli, mcrt, sim

POWER_CELLS = ((100, 6, 0, 0.0), (100, 6, 1, 0.0), (100, 6, 2, 0.0), (100, 6, 1, 0.3))
POWER_METHODS = ("mcrts_z", "mcrts_f", "bonferroni")
COVERAGE_LAGS = (0, 1, 2, 3, 4)
COMBINERS = ("weighted_z", "fisher", "bonferroni")
LARGE_TRIAL = (50_000, 10)
TESTS_HEADER = "test_time,outcome_time,n_treated,n_control,statistic,p_less,p_greater,weight"


class CheckError(Exception):
    """An op's output is malformed."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def op_seeds(seed: int, i: int, n: int = 1) -> list[int]:
    return [int(x) for x in np.random.SeedSequence([seed, i]).generate_state(n)]


def _taus(n_times: int) -> tuple[float, ...]:
    base = sim.Sim2Config().taus
    return (base + (0.0,) * n_times)[:n_times]


def _write_trial(path: str, n_units: int, n_times: int, seed: int) -> str:
    cfg = sim.Sim2Config(n_units=n_units, n_times=n_times, taus=_taus(n_times), interaction=1)
    data = sim.gen_outcomes_sim2(cfg, wedgeperm.generator(seed, n_units, n_times))
    mcrt.write_trial_csv(path, data)
    return path


def _roundtrip_table(result, path: str) -> bytes:
    sim.emit_tables(result, path)
    back = sim.parse_tables(path)
    _require(back.rows == result.rows, "study table does not parse back to the same rows")
    with open(path, "rb") as fh:
        return fh.read()


class Workload:
    name = ""
    pass_ops = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def kind(self, i: int) -> str:
        """Label of op ``i``'s place in the rotation (its mix class)."""
        raise NotImplementedError

    def run(self, i: int):
        """The timed call for op ``i``."""
        raise NotImplementedError

    def check(self, i: int, out) -> bytes:
        """Check op ``i``'s output; return it as canonical bytes."""
        raise NotImplementedError


class Power(Workload):
    """One size/power replicate of every sim1-desk cell, all three methods.

    One op covers all four cells, so every op does the same work and the
    op times have one mode rather than four.  Each cell gets its own
    seed, as separate replicates would, so no relabeling stream repeats
    within an op.
    """

    name = "power"
    pass_ops = 100

    def kind(self, i):
        return "sim1-desk grid"

    def run(self, i):
        cells = [
            sim.Sim1Config(n_units=n, n_times=t, lag=lag, effect=effect, replicates=1, seed=s)
            for (n, t, lag, effect), s in zip(POWER_CELLS, op_seeds(self.seed, i, len(POWER_CELLS)))
        ]
        return sim.power_study(
            cells, replicates=1, budget=499, alpha=0.05, methods=POWER_METHODS,
            statistic="diff_in_means", threads=1,
        )

    def check(self, i, out):
        _require(not out.skipped, f"cells skipped: {out.skipped}")
        expected = [(cell, m) for cell in POWER_CELLS for m in POWER_METHODS]
        got = [((r.n_units, r.n_times, r.lag, r.effect), r.method) for r in out.rows]
        _require(got == expected, "wrong power cells or methods")
        for r in out.rows:
            _require(r.replicates == 1 and r.rejections in (0, 1), "bad rejection count")
            _require(r.rate == r.rejections and r.stderr == 0.0, "bad rate or stderr")
        return _roundtrip_table(out, os.path.join(self.workdir, "power.csv"))


class Coverage(Workload):
    """One coverage replicate: five lags, three combiners, interaction 1."""

    name = "coverage"
    pass_ops = 8

    def kind(self, i):
        return "N=100,T=8"

    def run(self, i):
        cfg = sim.Sim2Config(n_units=100, n_times=8, interaction=1, seed=op_seeds(self.seed, i)[0])
        return sim.coverage_study(
            cfg, methods=COMBINERS, replicates=1, lags=COVERAGE_LAGS, budget=499,
            statistic="diff_in_means", threads=1,
        )

    def check(self, i, out):
        expected = [(lag, m) for lag in COVERAGE_LAGS for m in COMBINERS]
        _require([(r.lag, r.method) for r in out.rows] == expected, "wrong coverage rows")
        for r in out.rows:
            _require(r.replicates == 1 and r.covered in (0, 1), "bad covered count")
            _require(0.0 <= r.coverage <= 1.0 and r.mean_length >= 0.0, "bad coverage or length")
        return _roundtrip_table(out, os.path.join(self.workdir, "coverage.csv"))


class Large(Workload):
    """``wedgeperm analyze`` in process on one N=50 000, T=10 trial.

    Lag 1, B=999, ``diff_in_means``, ``weighted_z``; the trial CSV is
    written at set-up and op ``i`` differs only in its ``--seed``.
    """

    name = "large"
    pass_ops = 1
    lag = 1
    combiner = "weighted_z"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        n, t = LARGE_TRIAL
        self.trial = _write_trial(os.path.join(workdir, f"trial_{n}x{t}.csv"), n, t, seed)

    def kind(self, i):
        return "N={},T={},lag={},diff_in_means,{}".format(*LARGE_TRIAL, self.lag, self.combiner)

    def run(self, i):
        out = os.path.join(self.workdir, f"op{i}_tests.csv")
        ci_out = os.path.join(self.workdir, f"op{i}_ci.csv")
        argv = [
            "analyze", self.trial, "--lag", str(self.lag), "--statistic", "diff_in_means",
            "--combiner", self.combiner, "--budget", "999",
            "--seed", str(op_seeds(self.seed, i)[0]), "--out", out, "--ci-out", ci_out,
        ]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        return code, stdout.getvalue(), stderr.getvalue(), out, ci_out

    def check(self, i, out):
        code, stdout, stderr, tests_path, ci_path = out
        try:
            _require(code == 0, f"exit code {code}: {stderr.strip()[:300]}")
            _require("combined (" in stdout and "interval for the lag" in stdout, "missing summary")
            with open(tests_path, "rb") as fh:
                tests_bytes = fh.read()
            with open(ci_path, "rb") as fh:
                ci_bytes = fh.read()
            rows = list(csv.reader(io.StringIO(tests_bytes.decode())))
            _require(rows and ",".join(rows[0]) == TESTS_HEADER, "bad per-test header")
            _require(len(rows) > 1, "no tests")
            for row in rows[1:]:
                p_less, p_greater = float(row[5]), float(row[6])
                _require(0.0 < p_less <= 1.0 and 0.0 < p_greater <= 1.0, "p-value outside (0, 1]")
                _require(p_less + p_greater >= 1.0, "tail p-values do not overlap")
                _require(int(row[2]) >= 1 and int(row[3]) >= 1, "empty arm")
            intervals = ci.read_ci_csv(ci_path)
            _require(len(intervals) == 1, "expected one interval")
            iv = intervals[0]
            _require(iv.lag == self.lag and iv.method == self.combiner, "wrong interval lag or method")
            _require(math.isfinite(iv.lower) and iv.lower <= iv.upper, "bad interval endpoints")
        finally:
            for path in (tests_path, ci_path):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
        return stdout.encode() + tests_bytes + ci_bytes


WORKLOADS = {w.name: w for w in (Power, Coverage, Large)}
