"""Stepped-wedge assignment designs.

A design assigns each of N units a crossover time in 1..T; once crossed
over, a unit stays treated.  An assignment is a CrossoverTimes vector,
and the randomization distribution is uniform over all crossover-time
vectors in which exactly N_t units cross over at each time t.
Treatment times are 1-based throughout the package; outcome panels are
0-based (columns 0..T), so the outcome at treatment time t lives in
panel column t.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

import numpy as np

from .rng import as_generator

__all__ = [
    "DesignSpec",
    "CrossoverTimes",
    "DataFormatError",
    "space_size",
    "step_conditional_prob",
    "sample_assignment",
    "enumerate_crossover_vectors",
]


class DataFormatError(ValueError):
    """A structured text input (CSV, JSON) violates its documented schema.

    The one error every reader in the package raises; it lives here,
    at the bottom of the import graph, so that each reader can import it,
    with the CSV table codec (_read_table, _write_table) and the JSON
    reader (_read_json) they share.
    """


def _write_table(path, header: list[str], rows: Iterable) -> None:
    """Write ``header`` and then ``rows`` as CSV, one row at a time, so
    that ``rows`` may be a generator; every row ends in CRLF, and floats
    are written with repr.  Every CSV the package writes goes through
    here."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _header(path, reader, columns: Callable[[list[str]], Callable]) -> tuple[int, Callable]:
    """The width and row converter of the table whose header ``reader``
    reads next: ``columns`` takes the stripped cells of line 1 (none for
    an empty file) and returns the converter; a ValueError it raises
    becomes a DataFormatError naming line 1."""
    head = [cell.strip() for cell in next(reader, [])]
    try:
        return len(head), columns(head)
    except ValueError as exc:
        raise DataFormatError(f"{path}: line 1: {exc}") from None


def _read_table(path, columns: Callable[[list[str]], Callable]) -> Iterator:
    """Yield each data row of the CSV file at ``path`` through the
    converter that ``columns`` returns for its header (see _header).

    The file is read as UTF-8, after a byte-order mark if it starts with
    one, as spreadsheet programs write; rows whose cells are all blank
    are skipped.  A row of the wrong width, a ValueError or
    OverflowError of the converter, and a byte that does not decode
    raise DataFormatError naming the line.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            width, convert = _header(path, reader, columns)
            start = reader.line_num + 1
            for row in reader:
                # a quoted cell may span lines; a row is named by its first
                lineno, start = start, reader.line_num + 1
                if all(not cell.strip() for cell in row):
                    continue
                if len(row) != width:
                    raise DataFormatError(f"{path}: line {lineno}: expected {width} columns, got {len(row)}")
                try:
                    value = convert(row)
                except (ValueError, OverflowError) as exc:
                    raise DataFormatError(f"{path}: line {lineno}: {exc}") from None
                yield value
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None


def _read_json(path):
    """The JSON document in ``path``, read as _read_table reads a CSV:
    UTF-8 with or without a byte-order mark; bad bytes or bad JSON raise
    DataFormatError naming the path."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not valid UTF-8: {exc}") from None
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: not valid JSON: {exc}") from None


def _undecodable(path, exc: UnicodeDecodeError) -> DataFormatError:
    """The error for a file that does not decode, naming its first line
    that does not; text is decoded in blocks, so only reading the file
    again as bytes, line by line, tells which line that is."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode(exc.encoding)
            except UnicodeDecodeError as line_exc:
                return DataFormatError(f"{path}: line {lineno}: {line_exc}")
    return DataFormatError(f"{path}: {exc}")


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
    """Per-unit crossover times, whole numbers in 1..n_times."""

    times: np.ndarray
    n_times: int

    def __post_init__(self):
        raw = np.asarray(self.times)
        with np.errstate(invalid="ignore"):  # NaN and inf fail the check below
            arr = raw.astype(np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("crossover times must be a non-empty 1-d array")
        if not np.array_equal(arr, raw):
            raise ValueError("crossover times must be whole numbers")
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


def sample_assignment(spec: DesignSpec, rng=None) -> CrossoverTimes:
    """Uniform draw from the assignment space.

    Shuffles the multiset of crossover times (N_t copies of each time t)
    with a Fisher-Yates pass; every distinct assignment corresponds to
    the same number of label orderings, so the draw is exactly uniform.
    """
    gen = as_generator(rng)
    labels = np.repeat(np.arange(1, spec.n_times + 1, dtype=np.int64), spec.counts)
    gen.shuffle(labels)
    return CrossoverTimes(labels, spec.n_times)


def enumerate_crossover_vectors(spec: DesignSpec, cap: int | None = 1_000_000) -> Iterator[tuple[int, ...]]:
    """Yield every assignment once, as a tuple of crossover times, in lex order.

    Steps from the sorted multiset of times to its next permutation in
    place, so the depth of the call stack does not grow with the unit
    count.  Raises if the space exceeds ``cap`` elements (pass None to
    disable).
    """
    if cap is not None:
        size = space_size(spec)
        if size > cap:
            raise ValueError(f"assignment space has {size} elements, above the cap of {cap}")
    vec = [t for t, c in enumerate(spec.counts, start=1) for _ in range(c)]
    while True:
        yield tuple(vec)
        # i: the rightmost unit followed by a larger time; with none, the
        # times descend, the last vector in lex order
        i = len(vec) - 2
        while i >= 0 and vec[i] >= vec[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(vec) - 1
        while vec[j] <= vec[i]:
            j -= 1
        vec[i], vec[j] = vec[j], vec[i]
        vec[i + 1 :] = reversed(vec[i + 1 :])
