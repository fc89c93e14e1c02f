"""Multiple lagged randomization tests for stepped-wedge trials.

For a lag l, testable times are grouped into disjoint subsets that
stride by l+1; within a subset, the test at time k compares units
crossing over at k (outcome measured at k+l) against units of the same
subset crossing later.  Pooling only same-subset later times is what
makes the per-test conditioning sets nested, so the family of p-values
is jointly valid; pooling all later times (the tempting construction)
breaks that for l >= 1.

A LagFamily draws every test's relabelings once per (data, lag,
TestConfig); the p-values at zero shift and the confidence-interval
search over shifted effects both evaluate that one draw.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, field, replace

import numpy as np

from .design import CrossoverTimes, DataFormatError, DesignSpec, AssignmentMatrix, crossover_times as _to_times
from .permtest import (
    DEFAULT_EXACT_THRESHOLD,
    PermutationResult,
    TailPlan,
    TwoGroupSample,
    relabel_plan,
)
from .rng import DEFAULT_SEED, seed_sequence

__all__ = [
    "LagSchedule",
    "LagTestGroup",
    "TrialData",
    "TestConfig",
    "McrtTest",
    "McrtSkip",
    "McrtResult",
    "LagFamily",
    "build_schedule",
    "build_groups",
    "build_family",
    "run_groups",
    "run_mcrts",
    "imputable_units",
    "read_trial_csv",
    "write_trial_csv",
]


@dataclass(frozen=True)
class LagSchedule:
    """Disjoint test-time subsets for one lag."""

    n_times: int
    lag: int
    subsets: tuple[tuple[int, ...], ...]

    def test_times(self) -> tuple[int, ...]:
        """Times that yield a test: every subset element with a later
        element in the same subset (the last element has no controls)."""
        return tuple(sorted(k for subset in self.subsets for k in subset[:-1]))


def build_schedule(n_times: int, lag: int) -> LagSchedule:
    """Construct the lag-l test subsets.

    Subset j starts at time j and strides by lag+1 while the next time
    still fits in 1..n_times.  The number of subsets is
    min(lag+1, n_times-lag-1): beyond that, a starting time could never
    pair a tested unit with a later-crossing control.
    """
    n_times = int(n_times)
    lag = int(lag)
    if n_times < 2:
        raise ValueError("need at least two crossover times")
    if lag < 0:
        raise ValueError("lag must be non-negative")
    if lag >= n_times - 1:
        raise ValueError(
            f"lag {lag} admits no tests with {n_times} times: "
            "every potential control would have to cross over after the last time"
        )
    n_subsets = min(lag + 1, n_times - lag - 1)
    subsets = []
    for j in range(1, n_subsets + 1):
        t = j
        members = [t]
        while t + lag + 1 <= n_times:
            t += lag + 1
            members.append(t)
        subsets.append(tuple(members))
    return LagSchedule(n_times, lag, tuple(subsets))


@dataclass(frozen=True)
class LagTestGroup:
    """Treated/control unit sets for the test at one crossover time."""

    test_time: int
    outcome_time: int
    subset_index: int
    treated_units: np.ndarray
    control_units: np.ndarray
    control_times: tuple[int, ...]

    def __post_init__(self):
        for name in ("treated_units", "control_units"):
            arr = np.array(getattr(self, name), dtype=np.intp, copy=True)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_treated(self) -> int:
        return int(self.treated_units.size)

    @property
    def n_control(self) -> int:
        return int(self.control_units.size)


def _as_times_array(times) -> np.ndarray:
    if isinstance(times, CrossoverTimes):
        return times.times
    if isinstance(times, AssignmentMatrix):
        return _to_times(times).times
    return np.asarray(times, dtype=np.int64)


def build_groups(times, schedule: LagSchedule) -> tuple[LagTestGroup, ...]:
    """Treated/control groups for every test in the schedule.

    Controls for the test at time k are the units crossing at the later
    times of k's own subset; a subset's last element yields no test.
    Groups are returned in increasing test time.
    """
    arr = _as_times_array(times)
    if arr.min() < 1 or arr.max() > schedule.n_times:
        raise ValueError(f"crossover times must lie in 1..{schedule.n_times}")
    groups = []
    for j, subset in enumerate(schedule.subsets, start=1):
        for pos, k in enumerate(subset[:-1]):
            later = subset[pos + 1 :]
            groups.append(
                LagTestGroup(
                    test_time=k,
                    outcome_time=k + schedule.lag,
                    subset_index=j,
                    treated_units=np.flatnonzero(arr == k),
                    control_units=np.flatnonzero(np.isin(arr, later)),
                    control_times=tuple(later),
                )
            )
    return tuple(sorted(groups, key=lambda g: g.test_time))


@dataclass(frozen=True)
class TrialData:
    """One realized trial: unit ids, crossover times, outcome panel.

    ``outcomes`` has one column per time 0..T (column t = time t), so
    its width is n_times + 1.
    """

    units: np.ndarray
    times: CrossoverTimes
    outcomes: np.ndarray

    def __post_init__(self):
        units = np.array(self.units, dtype=np.int64, copy=True)
        outcomes = np.array(self.outcomes, dtype=np.float64, copy=True)
        if units.ndim != 1:
            raise ValueError("unit ids must be 1-d")
        if len(set(units.tolist())) != units.size:
            raise ValueError("unit ids must be distinct")
        if outcomes.ndim != 2:
            raise ValueError("outcome panel must be 2-d")
        n = units.size
        if self.times.n_units != n or outcomes.shape[0] != n:
            raise ValueError("units, times, and outcome rows must agree in length")
        if outcomes.shape[1] != self.times.n_times + 1:
            raise ValueError(
                f"outcome panel has {outcomes.shape[1]} columns; expected "
                f"{self.times.n_times + 1} (times 0..{self.times.n_times})"
            )
        if not np.isfinite(outcomes).all():
            raise ValueError("outcome panel contains non-finite values")
        units.setflags(write=False)
        outcomes.setflags(write=False)
        object.__setattr__(self, "units", units)
        object.__setattr__(self, "outcomes", outcomes)

    @property
    def n_units(self) -> int:
        return int(self.units.size)

    @property
    def n_times(self) -> int:
        return self.times.n_times

    def spec(self) -> DesignSpec:
        return self.times.to_spec()


@dataclass(frozen=True)
class TestConfig:
    """Knobs shared by the per-test permutation engine.

    The per-test stream is derived from (seed, test time), so adding or
    removing one test never perturbs the others.
    """

    budget: int = 499
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD
    min_arm: int = 2
    statistic: str = "diff_in_means"
    seed: int = DEFAULT_SEED


@dataclass(frozen=True)
class McrtTest:
    """One completed test: group sizes, arm moments, permutation result."""

    test_time: int
    outcome_time: int
    subset_index: int
    n_treated: int
    n_control: int
    mean_treated: float
    mean_control: float
    var_treated: float
    var_control: float
    result: PermutationResult

    @property
    def granularity(self) -> float:
        return self.result.granularity


@dataclass(frozen=True)
class McrtSkip:
    test_time: int
    outcome_time: int
    n_treated: int
    n_control: int
    reason: str


@dataclass(frozen=True)
class McrtResult:
    """All tests for one lag, ordered by test time, plus skips."""

    lag: int
    n_units: int
    schedule: LagSchedule
    tests: tuple[McrtTest, ...]
    skipped: tuple[McrtSkip, ...]

    def p_values(self, tail: str) -> np.ndarray:
        if tail == "less":
            return np.asarray([t.result.p_less for t in self.tests])
        if tail == "greater":
            return np.asarray([t.result.p_greater for t in self.tests])
        raise ValueError("tail must be 'less' or 'greater'")


@dataclass(frozen=True)
class LagFamily:
    """One lag's test family with every test's relabelings drawn once.

    ``tests`` hold each testable group's arm moments and p-values at
    zero shift; ``tails`` holds, in the same order, the TailPlan that
    re-evaluates that test under any shifted effect.  Built from one
    (data, lag, config), it is shared by run_mcrts, invert_combined and
    every combiner.
    """

    lag: int
    n_units: int
    schedule: LagSchedule
    config: TestConfig
    tests: tuple[McrtTest, ...]
    tails: tuple[TailPlan, ...]
    skipped: tuple[McrtSkip, ...]

    def result(self) -> McrtResult:
        return McrtResult(
            lag=self.lag, n_units=self.n_units, schedule=self.schedule,
            tests=self.tests, skipped=self.skipped,
        )


def _plan_groups(data: TrialData, groups, cfg: TestConfig):
    """Draw each testable group's relabelings; skip groups below min_arm."""
    tests: list[McrtTest] = []
    tails: list[TailPlan] = []
    skips: list[McrtSkip] = []
    for g in groups:
        if min(g.n_treated, g.n_control) < cfg.min_arm:
            skips.append(
                McrtSkip(
                    g.test_time,
                    g.outcome_time,
                    g.n_treated,
                    g.n_control,
                    f"arm size below min_arm={cfg.min_arm} "
                    f"(treated {g.n_treated}, control {g.n_control})",
                )
            )
            continue
        y = data.outcomes[:, g.outcome_time]
        treated = y[g.treated_units]
        control = y[g.control_units]
        sample = TwoGroupSample(treated, control, data.n_units)
        plan = relabel_plan(
            g.n_treated + g.n_control,
            g.n_treated,
            budget=cfg.budget,
            exact_threshold=cfg.exact_threshold,
            seed=seed_sequence(cfg.seed, g.test_time),
        )
        tail = TailPlan(sample, plan, cfg.statistic)
        tests.append(
            McrtTest(
                test_time=g.test_time,
                outcome_time=g.outcome_time,
                subset_index=g.subset_index,
                n_treated=g.n_treated,
                n_control=g.n_control,
                mean_treated=float(treated.mean()),
                mean_control=float(control.mean()),
                var_treated=float(treated.var(ddof=1)) if g.n_treated > 1 else math.nan,
                var_control=float(control.var(ddof=1)) if g.n_control > 1 else math.nan,
                result=tail.result(),
            )
        )
        tails.append(tail)
    return tests, tails, skips


def run_groups(data: TrialData, groups, cfg: TestConfig) -> tuple[tuple[McrtTest, ...], tuple[McrtSkip, ...]]:
    """Run the permutation engine over prepared groups.

    Groups with an arm below ``cfg.min_arm`` are skipped with a reason
    rather than tested; callers decide how to report them.
    """
    tests, _, skips = _plan_groups(data, groups, cfg)
    return tuple(tests), tuple(skips)


def build_family(data: TrialData, lag: int, cfg: TestConfig = TestConfig()) -> LagFamily:
    """Draw the relabelings of the whole lag-l test family once."""
    schedule = build_schedule(data.n_times, lag)
    tests, tails, skips = _plan_groups(data, build_groups(data.times, schedule), cfg)
    return LagFamily(lag, data.n_units, schedule, cfg, tuple(tests), tuple(tails), tuple(skips))


def _family_for(data: TrialData, lag: int, cfg: TestConfig, family: LagFamily | None) -> LagFamily:
    """``family`` after checking it was built for (data, lag, cfg), else a new one."""
    if family is None:
        return build_family(data, lag, cfg)
    if (family.lag, family.n_units, family.config) != (lag, data.n_units, cfg):
        raise ValueError("family was built for another trial size, lag or test config")
    return family


def run_mcrts(
    data: TrialData, lag: int, cfg: TestConfig = TestConfig(), family: LagFamily | None = None
) -> McrtResult:
    """Run the whole lag-l test family on one trial.

    A ``family`` from build_family(data, lag, cfg) supplies the tests
    already drawn, so an interval inverted from the same family reuses
    its relabelings.
    """
    return _family_for(data, lag, cfg, family).result()


def imputable_units(z, z_star, t: int, lag: int) -> np.ndarray:
    """Units whose lag-l outcome at time t+lag is imputable under both assignments.

    A unit qualifies iff under each assignment its first t+lag columns
    are either "crossed exactly at t" or "not yet crossed by t+lag",
    i.e. its crossover time is t or at least t+lag+1.
    """
    a = _as_times_array(z)
    b = _as_times_array(z_star)
    if a.shape != b.shape:
        raise ValueError("assignments must cover the same units")
    n_times = None
    for obj in (z, z_star):
        if isinstance(obj, CrossoverTimes):
            n_times = obj.n_times
        elif isinstance(obj, AssignmentMatrix):
            n_times = obj.n_times
    if n_times is None:
        n_times = int(max(a.max(), b.max()))
    if not 1 <= t <= n_times - lag:
        raise ValueError(f"t must lie in 1..{n_times - lag} so the outcome time exists")
    ok_a = (a == t) | (a >= t + lag + 1)
    ok_b = (b == t) | (b >= t + lag + 1)
    return np.flatnonzero(ok_a & ok_b)


def write_trial_csv(path, data: TrialData) -> None:
    """Write `unit,crossover_time,y0,...,yT` rows."""
    n_times = data.n_times
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit", "crossover_time"] + [f"y{t}" for t in range(n_times + 1)])
        for i in range(data.n_units):
            writer.writerow(
                [int(data.units[i]), int(data.times.times[i])]
                + [repr(float(v)) for v in data.outcomes[i]]
            )


def read_trial_csv(path) -> TrialData:
    """Read a trial panel; schema violations raise DataFormatError with the line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 3:
            raise DataFormatError(f"{path}: line 1: expected header 'unit,crossover_time,y0,...'")
        head = [h.strip() for h in header]
        if head[:2] != ["unit", "crossover_time"]:
            raise DataFormatError(f"{path}: line 1: expected header to start 'unit,crossover_time'")
        expected_y = [f"y{t}" for t in range(len(head) - 2)]
        if head[2:] != expected_y:
            raise DataFormatError(
                f"{path}: line 1: outcome columns must be y0..y{len(head) - 3} in order"
            )
        n_times = len(head) - 3
        if n_times < 2:
            raise DataFormatError(f"{path}: line 1: need outcome columns y0..yT with T >= 2")
        # flat typed buffers hold 8 bytes per value, not a Python object
        units, times, outcomes = array("q"), array("q"), array("d")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(head):
                raise DataFormatError(
                    f"{path}: line {lineno}: expected {len(head)} columns, got {len(row)}"
                )
            try:
                units.append(int(row[0]))
                times.append(int(row[1]))
                outcomes.extend(map(float, row[2:]))
            except ValueError as exc:
                raise DataFormatError(f"{path}: line {lineno}: {exc}") from None
            except OverflowError:
                col = len(units) - len(times)  # 0 if the unit overflowed, 1 if the time did
                raise DataFormatError(
                    f"{path}: line {lineno}: {head[col]} {row[col].strip()} does not fit in a 64-bit integer"
                ) from None
    if not units:
        raise DataFormatError(f"{path}: no data rows")
    try:
        data = TrialData(
            np.frombuffer(units, dtype=np.int64),
            CrossoverTimes(np.frombuffer(times, dtype=np.int64), n_times),
            np.frombuffer(outcomes).reshape(len(units), n_times + 1),
        )
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    return data
