"""Multiple lagged randomization tests for stepped-wedge trials.

For a lag l, testable times are grouped into disjoint subsets that
stride by l+1; within a subset, the test at time k compares units
crossing over at k (outcome measured at k+l) against units of the same
subset crossing later.  Pooling only same-subset later times is what
makes the per-test conditioning sets nested, so the family of p-values
is jointly valid; pooling all later times (the tempting construction)
breaks that for l >= 1.

run_mcrts returns one LagFamily per (data, lag, TestConfig, group
builder), with every test's relabelings drawn once; the p-values at
zero shift and the confidence-interval search over shifted effects
both evaluate that one draw.
"""

from __future__ import annotations

import csv
import warnings
from array import array
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .design import (
    CrossoverTimes,
    DataFormatError,
    _header,
    _read_table,
    _undecodable,
    _write_table,
)
from .permtest import (
    DEFAULT_EXACT_THRESHOLD,
    STATISTICS,
    PermutationResult,
    TailPlan,
    TwoGroupSample,
    _ShiftIndex,
    _tail_plan,
)
from .rng import DEFAULT_SEED, seed_sequence

__all__ = [
    "LagTestGroup",
    "TrialData",
    "TestConfig",
    "McrtTest",
    "McrtSkip",
    "LagFamily",
    "build_schedule",
    "build_groups",
    "naive_groups",
    "run_mcrts",
    "read_trial_csv",
    "write_trial_csv",
]


def _check_lag(n_times: int, lag) -> int:
    """The lag as an int, if it is an integer in 0..n_times-2."""
    if isinstance(lag, bool) or not isinstance(lag, (int, np.integer)):
        raise ValueError(f"lag must be an integer, got {lag!r}")
    if not 0 <= lag <= n_times - 2:
        raise ValueError(f"lag must lie in [0, {n_times - 2}]")
    return int(lag)


def build_schedule(n_times: int, lag: int) -> tuple[tuple[int, ...], ...]:
    """Construct the lag-l test subsets, disjoint tuples of times.

    Subset j starts at time j and strides by lag+1, for an integer lag
    in 0..n_times-2, while the next time still fits in 1..n_times.
    There are min(lag+1, n_times-lag-1) subsets: a later start could
    never pair a tested unit with a later-crossing control.  Each time
    of a subset but its last, which has no controls, yields a test.
    """
    n_times = int(n_times)
    if n_times < 2:
        raise ValueError("need at least two crossover times")
    lag = _check_lag(n_times, lag)
    return tuple(
        tuple(range(j, n_times + 1, lag + 1)) for j in range(1, min(lag + 1, n_times - lag - 1) + 1)
    )


@dataclass(frozen=True)
class LagTestGroup:
    """Treated/control unit sets for the test at one crossover time."""

    test_time: int
    outcome_time: int
    treated_units: np.ndarray
    control_units: np.ndarray

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


def _times_array(times, n_times: int) -> np.ndarray:
    """Crossover times as an int array, checked by CrossoverTimes to be
    whole numbers in 1..n_times."""
    if isinstance(times, CrossoverTimes):
        times = times.times
    return CrossoverTimes(times, n_times).times


def _group(arr: np.ndarray, n_times: int, test_time: int, lag: int, control_times) -> LagTestGroup:
    """Units crossing at ``test_time`` against units crossing at ``control_times``."""
    is_control = np.zeros(n_times + 1, dtype=bool)  # a lookup over times 0..T
    is_control[list(control_times)] = True
    return LagTestGroup(
        test_time=test_time,
        outcome_time=test_time + lag,
        treated_units=np.flatnonzero(arr == test_time),
        control_units=np.flatnonzero(is_control[arr]),
    )


def _group_sample(outcomes: np.ndarray, g: LagTestGroup) -> TwoGroupSample:
    """The outcomes of ``g``'s treated and control units at its outcome
    time, scaled by the trial size (the panel's row count)."""
    y = outcomes[:, g.outcome_time]
    return TwoGroupSample(y[g.treated_units], y[g.control_units], outcomes.shape[0])


def build_groups(times, n_times: int, lag: int) -> tuple[LagTestGroup, ...]:
    """Treated/control groups for every test of build_schedule(n_times, lag).

    Controls for the test at time k are the units crossing at the later
    times of k's own subset; a subset's last element yields no test.
    Groups come in increasing test time; the lag is an integer in 0..T-2.
    """
    n_times, lag = int(n_times), _check_lag(n_times, lag)
    subsets = build_schedule(n_times, lag)
    arr = _times_array(times, n_times)
    groups = [
        _group(arr, n_times, k, lag, subset[pos + 1 :])
        for subset in subsets
        for pos, k in enumerate(subset[:-1])
    ]
    return tuple(sorted(groups, key=lambda g: g.test_time))


def naive_groups(times, n_times: int, lag: int) -> tuple[LagTestGroup, ...]:
    """The unconditional comparisons for an integer lag in 0..T-2: units
    crossing at each t in 1..T-lag-1 against all crossing after t + lag.

    These pools do not nest once lag >= 1, so the family is not jointly
    valid; run_mcrts over them is the Bonferroni baseline of the power
    study, and they are validate's broken construction.
    """
    lag = _check_lag(n_times, lag)
    arr = _times_array(times, n_times)
    return tuple(
        _group(arr, n_times, t, lag, range(t + lag + 1, n_times + 1))
        for t in range(1, n_times - lag)
    )


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
        ordered = np.sort(units)
        if (ordered[1:] == ordered[:-1]).any():
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


# a test needs at least this many units in each arm; smaller groups are skipped
MIN_ARM = 2


@dataclass(frozen=True)
class TestConfig:
    """Knobs shared by the per-test permutation engine.

    The per-test stream is derived from (seed, test time), so adding or
    removing one test never perturbs the others.  A statistic or budget
    the engine cannot run is rejected here, before any test is drawn.
    """

    budget: int = 499
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD
    statistic: str = "diff_in_means"
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.statistic not in STATISTICS:
            raise ValueError(f"unknown statistic {self.statistic!r}; choose from {STATISTICS}")
        if self.budget < 1:
            raise ValueError("resample budget must be at least 1")


@dataclass(frozen=True)
class McrtTest:
    """One completed test: its permutation result and its zero-shift
    draw, the TailPlan that invert_combined shifts.  Arm sizes are read
    from the plan's sample."""

    test_time: int
    outcome_time: int
    result: PermutationResult
    tail: TailPlan = field(compare=False, repr=False)

    @property
    def n_treated(self) -> int:
        return self.tail.sample.n_treated

    @property
    def n_control(self) -> int:
        return self.tail.sample.n_control


@dataclass(frozen=True)
class McrtSkip:
    test_time: int
    outcome_time: int
    n_treated: int
    n_control: int
    reason: str


@dataclass(frozen=True)
class LagFamily:
    """One lag's test family with every test's relabelings drawn once.

    ``tests`` hold each testable group's p-values at zero shift and its
    TailPlan, ordered by test time; per-test values, such as the weights
    of weights_from_result, line up with them by position.  ``skipped``
    lists the groups with an arm below MIN_ARM.  run_mcrts builds it;
    the combiners and invert_combined read it.  Every combiner keeps
    every test, so invert_combined shifts the tests through one index
    per family, built on first use, where a rank-sum family's selections
    are gathered.  Two families compare equal by all but their tests'
    tails and that index.
    """

    lag: int
    tests: tuple[McrtTest, ...]
    skipped: tuple[McrtSkip, ...]

    @cached_property
    def _shift_index(self) -> _ShiftIndex:
        return _ShiftIndex([t.tail for t in self.tests])


def run_mcrts(data: TrialData, lag: int, cfg: TestConfig = TestConfig(), groups=build_groups) -> LagFamily:
    """Run a lag-l test family on one trial, drawing each testable
    group's relabelings once; groups with an arm below MIN_ARM are
    skipped.  ``groups(times, n_times, lag)`` builds the comparisons:
    build_groups (nested) or naive_groups (the unconditional baseline)."""
    tests: list[McrtTest] = []
    skips: list[McrtSkip] = []
    for g in groups(data.times, data.n_times, lag):
        if min(g.n_treated, g.n_control) < MIN_ARM:
            reason = f"arm size below min_arm={MIN_ARM} (treated {g.n_treated}, control {g.n_control})"
            skips.append(McrtSkip(g.test_time, g.outcome_time, g.n_treated, g.n_control, reason))
            continue
        sample = _group_sample(data.outcomes, g)
        seed = seed_sequence(cfg.seed, g.test_time)
        tail = _tail_plan(sample, cfg.statistic, cfg.budget, cfg.exact_threshold, seed)
        tests.append(McrtTest(g.test_time, g.outcome_time, tail.result(), tail))
    return LagFamily(lag, tuple(tests), tuple(skips))


def write_trial_csv(path, data: TrialData) -> None:
    """Write `unit,crossover_time,y0,...,yT` rows."""
    _write_table(
        path,
        ["unit", "crossover_time"] + [f"y{t}" for t in range(data.n_times + 1)],
        (
            [int(data.units[i]), int(data.times.times[i])] + data.outcomes[i].tolist()
            for i in range(data.n_units)
        ),
    )


def _trial_columns(head: list[str]):
    """The row converter of a checked trial header: unit,
    crossover_time, then y0..yT with T >= 2."""
    if len(head) < 3:
        raise ValueError("expected header 'unit,crossover_time,y0,...'")
    if head[:2] != ["unit", "crossover_time"]:
        raise ValueError("expected header to start 'unit,crossover_time'")
    if head[2:] != [f"y{t}" for t in range(len(head) - 2)]:
        raise ValueError(f"outcome columns must be y0..y{len(head) - 3} in order")
    if len(head) - 3 < 2:
        raise ValueError("need outcome columns y0..yT with T >= 2")
    return _trial_row


def _trial_row(row: list[str]) -> tuple[int, int, list[float]]:
    """Unit, crossover time and outcomes of one row; each cell goes
    through int or float, and the integers must fit in int64."""
    ids = []
    for name, cell in zip(("unit", "crossover_time"), row):
        value = int(cell)
        if not -(2**63) <= value < 2**63:
            raise ValueError(f"{name} {cell.strip()} does not fit in a 64-bit integer")
        ids.append(value)
    return ids[0], ids[1], [float(cell) for cell in row[2:]]


def _trial_data(path, units, times, outcomes, n_times: int) -> TrialData:
    try:
        return TrialData(units, CrossoverTimes(times, n_times), outcomes)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def _read_rows(path) -> TrialData:
    """read_trial_csv row by row through the table codec, so a bad row
    raises DataFormatError naming its line."""
    # flat typed buffers hold 8 bytes per value, not a Python object
    units, times, outcomes = array("q"), array("q"), array("d")
    for unit, time, ys in _read_table(path, _trial_columns):
        units.append(unit)
        times.append(time)
        outcomes.extend(ys)
    if not units:
        raise DataFormatError(f"{path}: no data rows")
    width = len(outcomes) // len(units)
    return _trial_data(
        path,
        np.frombuffer(units, dtype=np.int64),
        np.frombuffer(times, dtype=np.int64),
        np.frombuffer(outcomes).reshape(len(units), width),
        width - 1,
    )


def read_trial_csv(path) -> TrialData:
    """Read a trial panel; schema violations raise DataFormatError with the line.

    Fields may be quoted, and blank rows are skipped.  The body is parsed
    in one call to NumPy's C reader.  A body that reader rejects or finds
    empty is re-read row by row (``_read_rows``): that path names the
    offending line, and it also accepts what the C reader does not, such
    as whitespace-only or all-empty rows, digit underscores and
    non-ASCII digits.  NumPy releases that still parse a non-integer
    int64 cell through a float (and truncate it) warn with a
    DeprecationWarning; that warning is made an error, which NumPy
    raises as ValueError, so such a cell is also left to the row loop.
    The file is read as UTF-8, after a byte-order mark if it starts with
    one, as spreadsheet programs write; a file that does not decode names
    its first line that does not.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            n_times = _header(path, csv.reader(fh), _trial_columns)[0] - 3
            dtype = [("unit", np.int64), ("time", np.int64), ("y", np.float64, (n_times + 1,))]
            try:
                with warnings.catch_warnings():
                    # an empty body gets the row loop's own message instead
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    # '1.7' or an overflowing int64 cell must not be truncated or wrapped
                    warnings.simplefilter("error", DeprecationWarning)
                    body = np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1)
            except ValueError:  # a UnicodeDecodeError too, which the row loop raises again
                body = None
        if body is None or body.size == 0:
            return _read_rows(path)
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None
    return _trial_data(path, body["unit"], body["time"], body["y"], n_times)
