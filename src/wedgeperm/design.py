"""Stepped-wedge assignment designs.

A design assigns each of N units a crossover time in 1..T; once crossed
over, a unit stays treated.  The randomization distribution is uniform
over all binary N x T matrices with one 1 per row and prescribed column
sums.  Treatment times are 1-based throughout the package; outcome
panels are 0-based (columns 0..T), so the outcome at treatment time t
lives in panel column t.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .rng import as_generator

__all__ = [
    "DesignSpec",
    "CrossoverTimes",
    "AssignmentMatrix",
    "AssignmentViolation",
    "DataFormatError",
    "space_size",
    "step_conditional_prob",
    "sample_assignment",
    "enumerate_crossover_vectors",
    "crossover_times",
    "matrix_from_times",
    "validate_assignment",
    "read_assignment_csv",
    "write_assignment_csv",
]


class DataFormatError(ValueError):
    """A structured text input (CSV, JSON) violates its documented schema."""


@dataclass(frozen=True)
class DesignSpec:
    """Unit count and the number of units crossing over at each time."""

    n_units: int
    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n_units", int(self.n_units))
        if len(counts) < 1:
            raise ValueError("a design needs at least one crossover time")
        if any(c < 1 for c in counts):
            raise ValueError("every crossover time must receive at least one unit")
        if sum(counts) != self.n_units:
            raise ValueError(
                f"crossover counts sum to {sum(counts)} but n_units is {self.n_units}"
            )

    @property
    def n_times(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class CrossoverTimes:
    """Per-unit crossover times, values in 1..n_times."""

    times: np.ndarray
    n_times: int

    def __post_init__(self):
        arr = np.array(self.times, dtype=np.int64, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("crossover times must be a non-empty 1-d array")
        n_times = int(self.n_times)
        if n_times < 1:
            raise ValueError("n_times must be at least 1")
        if arr.min() < 1 or arr.max() > n_times:
            raise ValueError(f"crossover times must lie in 1..{n_times}")
        arr.setflags(write=False)
        object.__setattr__(self, "times", arr)
        object.__setattr__(self, "n_times", n_times)

    @property
    def n_units(self) -> int:
        return int(self.times.size)

    def counts(self) -> tuple[int, ...]:
        return tuple(int(c) for c in np.bincount(self.times, minlength=self.n_times + 1)[1:])

    def to_spec(self) -> DesignSpec:
        return DesignSpec(self.n_units, self.counts())

    def to_matrix(self) -> "AssignmentMatrix":
        return matrix_from_times(self)


@dataclass(frozen=True)
class AssignmentMatrix:
    """Binary N x T assignment indicator: z[i, t-1] = 1 iff unit i crosses at t."""

    z: np.ndarray

    def __post_init__(self):
        z = np.array(self.z, dtype=np.int8, copy=True)
        if z.ndim != 2:
            raise ValueError("assignment matrix must be 2-d")
        if not np.isin(z, (0, 1)).all():
            raise ValueError("assignment matrix entries must be 0 or 1")
        if not (z.sum(axis=1) == 1).all():
            raise ValueError("every unit must cross over exactly once")
        z.setflags(write=False)
        object.__setattr__(self, "z", z)

    @property
    def n_units(self) -> int:
        return self.z.shape[0]

    @property
    def n_times(self) -> int:
        return self.z.shape[1]


def space_size(spec: DesignSpec) -> int:
    """Exact number of assignments: N! / (N_1! ... N_T!).  Arbitrary precision."""
    size = math.factorial(spec.n_units)
    for c in spec.counts:
        size //= math.factorial(c)
    return size


def step_conditional_prob(spec: DesignSpec, t: int) -> Fraction:
    """Exact probability of the time-t crossover set given times 1..t-1.

    Equals 1 / C(remaining units, count at t); the product over t
    telescopes to 1 / space_size(spec).
    """
    if not 1 <= t <= spec.n_times:
        raise ValueError(f"t must lie in 1..{spec.n_times}")
    filled = sum(spec.counts[: t - 1])
    remaining = spec.n_units - filled
    c_t = spec.counts[t - 1]
    return Fraction(
        math.factorial(c_t) * math.factorial(remaining - c_t), math.factorial(remaining)
    )


def sample_assignment(spec: DesignSpec, rng=None) -> AssignmentMatrix:
    """Uniform draw from the assignment space.

    Shuffles the multiset of column labels (N_t copies of each time t)
    with a Fisher-Yates pass; every distinct assignment corresponds to
    the same number of label orderings, so the draw is exactly uniform.
    """
    gen = as_generator(rng)
    labels = np.repeat(np.arange(1, spec.n_times + 1, dtype=np.int64), spec.counts)
    gen.shuffle(labels)
    return matrix_from_times(CrossoverTimes(labels, spec.n_times))


def enumerate_crossover_vectors(spec: DesignSpec, cap: int | None = 1_000_000) -> Iterator[tuple[int, ...]]:
    """Yield every assignment once, as a tuple of crossover times, in lex order.

    Raises if the space exceeds ``cap`` elements (pass None to disable).
    """
    if cap is not None:
        size = space_size(spec)
        if size > cap:
            raise ValueError(f"assignment space has {size} elements, above the cap of {cap}")
    remaining = list(spec.counts)
    prefix: list[int] = []

    def rec() -> Iterator[tuple[int, ...]]:
        if len(prefix) == spec.n_units:
            yield tuple(prefix)
            return
        for t in range(1, spec.n_times + 1):
            if remaining[t - 1] > 0:
                remaining[t - 1] -= 1
                prefix.append(t)
                yield from rec()
                prefix.pop()
                remaining[t - 1] += 1

    yield from rec()


def crossover_times(matrix: AssignmentMatrix) -> CrossoverTimes:
    """Extract 1-based crossover times from an assignment matrix."""
    return CrossoverTimes(np.argmax(matrix.z, axis=1) + 1, matrix.n_times)


def matrix_from_times(times: CrossoverTimes) -> AssignmentMatrix:
    z = np.zeros((times.n_units, times.n_times), dtype=np.int8)
    z[np.arange(times.n_units), times.times - 1] = 1
    return AssignmentMatrix(z)


@dataclass(frozen=True)
class AssignmentViolation:
    """One reason a raw matrix is not a valid assignment for a design."""

    kind: str  # "shape" | "values" | "row" | "column"
    index: int | None
    message: str


def validate_assignment(z, spec: DesignSpec) -> AssignmentViolation | None:
    """Check a raw array against a design; return a violation report or None.

    Never raises on bad content: the first problem found is described
    and returned so callers can surface it.
    """
    arr = np.asarray(z)
    if arr.ndim != 2 or arr.shape != (spec.n_units, spec.n_times):
        return AssignmentViolation(
            "shape", None, f"expected shape ({spec.n_units}, {spec.n_times}), got {arr.shape}"
        )
    if not np.isin(arr, (0, 1)).all():
        bad = np.argwhere(~np.isin(arr, (0, 1)))[0]
        return AssignmentViolation(
            "values", int(bad[0]), f"entry at unit {bad[0]}, time {bad[1] + 1} is not 0/1"
        )
    rows = arr.sum(axis=1)
    if not (rows == 1).all():
        i = int(np.flatnonzero(rows != 1)[0])
        return AssignmentViolation("row", i, f"unit {i} crosses over {rows[i]} times, expected 1")
    cols = arr.sum(axis=0)
    expected = np.asarray(spec.counts)
    if not (cols == expected).all():
        t = int(np.flatnonzero(cols != expected)[0])
        return AssignmentViolation(
            "column", t + 1, f"time {t + 1} has {cols[t]} crossovers, expected {expected[t]}"
        )
    return None


def write_assignment_csv(path, times: CrossoverTimes, units: Sequence[int] | None = None) -> None:
    """Write `unit,crossover_time` rows."""
    ids = range(times.n_units) if units is None else list(units)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit", "crossover_time"])
        for u, t in zip(ids, times.times):
            writer.writerow([u, int(t)])


def read_assignment_csv(path, n_times: int | None = None) -> tuple[np.ndarray, CrossoverTimes]:
    """Read `unit,crossover_time` rows; returns (unit ids, CrossoverTimes).

    When ``n_times`` is omitted it is inferred as the largest time seen.
    Schema violations raise DataFormatError naming the offending line.
    """
    head = ("unit", "crossover_time")
    units, times = array("q"), array("q")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header[:2]) != head:
            raise DataFormatError(f"{path}: line 1: expected header 'unit,crossover_time'")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < 2:
                raise DataFormatError(f"{path}: line {lineno}: expected 2 columns, got {len(row)}")
            try:
                units.append(int(row[0]))
                times.append(int(row[1]))
            except ValueError as exc:
                raise DataFormatError(f"{path}: line {lineno}: {exc}") from None
            except OverflowError:
                col = len(units) - len(times)  # 0 if the unit overflowed, 1 if the time did
                raise DataFormatError(
                    f"{path}: line {lineno}: {head[col]} {row[col].strip()} does not fit in a 64-bit integer"
                ) from None
    if not units:
        raise DataFormatError(f"{path}: no data rows")
    inferred = max(times) if n_times is None else int(n_times)
    try:
        ct = CrossoverTimes(np.frombuffer(times, dtype=np.int64), max(inferred, 2))
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    return np.array(units, dtype=np.int64), ct
