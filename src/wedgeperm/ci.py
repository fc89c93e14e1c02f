"""Confidence intervals by inverting shifted permutation tests.

To test a constant lag-l effect delta, subtract delta from every
treated outcome and rerun the permutation test; the confidence set
collects the deltas whose shifted tails both stay above alpha/2, the
deltas that the two-sided test at alpha does not reject
(combine._tail_rejects).

The relabelings are drawn once per test, from a stream keyed by (seed,
test time) and never by delta, so the whole p-curve is evaluated
against one set of relabelings (Garthwaite 1996, Biometrics).  Under
those common relabelings each test's tail counts are step functions of
delta that change only at the test's candidate shifts, and every
combiner is monotone in its inputs.  The combined curve is therefore
constant between consecutive candidates of the union, and the
endpoints are exactly

- lower: the infimum of {delta : combined p_greater(delta) > alpha/2},
- upper: the supremum of {delta : combined p_less(delta) > alpha/2},

each a candidate shift.  A bisection on delta finds them, evaluating
the curve only on the open cells between candidates; no shifted
outcome is ever formed, so rounding at a tie never decides an
endpoint.  Each evaluation is one probe of a family lookup
(permtest._ShiftIndex), which holds the candidate shifts and is built
once per family, so every combiner of a family shares it.  For the
difference in means it merges the tests' candidates into their union,
so a probe is two binary searches for the whole family, and it
computes only the tail that the bisection step reads; the rank sum
re-sums each test's ranks at every probe, over the selections that the
lookup gathers once per test.  A side whose tail stays above alpha/2
beyond every candidate is unbounded (-inf or inf); when the lower
endpoint exceeds the upper one no delta is accepted and the set is
empty (both endpoints nan).  The combined interval inverts the
LagFamily that run_mcrts returns, the one that gives the analysis its
p-values, through the same tests and weights as the combined p-value
(combine), so its relabelings are never drawn again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .combine import _combiner, _tail_rejects
from .design import _read_table, _write_table
from .mcrt import LagFamily, TestConfig
from .permtest import TwoGroupSample, _ShiftIndex, _tail_plan
from .rng import seed_sequence

__all__ = [
    "ConfidenceInterval",
    "invert_single",
    "invert_combined",
    "read_ci_csv",
    "write_ci_csv",
]


def _check_unit(name: str, value: float) -> None:
    """Reject a level or an alpha outside the open interval (0, 1)."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value!r}")


@dataclass(frozen=True)
class ConfidenceInterval:
    """A level-``level`` confidence set for a constant effect.

    Endpoints are exact candidate shifts, -inf/inf for an unbounded
    side, or both nan when no shift is accepted (``empty``).
    ``n_grid`` counts the shifts at which the combined curve was
    evaluated (0 when read back from CSV).
    """

    lag: int | None
    method: str
    level: float
    lower: float
    upper: float
    n_grid: int

    def __post_init__(self):
        _check_unit("level", self.level)
        if math.isnan(self.lower) != math.isnan(self.upper):
            raise ValueError("an empty set needs both endpoints nan")
        if self.lower > self.upper:
            raise ValueError("interval endpoints are out of order")
        if self.empty:  # one nan object, so that equal empty sets compare and hash equal
            object.__setattr__(self, "lower", math.nan)
            object.__setattr__(self, "upper", math.nan)

    @property
    def empty(self) -> bool:
        """No shift is accepted."""
        return math.isnan(self.lower)

    @property
    def length(self) -> float:
        return 0.0 if self.empty else self.upper - self.lower


def _exact_interval(
    shifts: _ShiftIndex, combined: Callable[[np.ndarray], tuple[float, float]], alpha: float,
    lag: int | None, method: str,
) -> ConfidenceInterval:
    """The level 1-alpha set accepted by the combined test, reported
    under ``lag`` and ``method``, with its evaluation count as ``n_grid``.

    ``combined`` maps one tail's p-values, one per test of ``shifts``,
    to the combined (statistic, p-value), the p-value non-decreasing in
    each.  Lower is the smallest candidate c whose combined p_greater on
    the cell just above c is above alpha/2 (p_greater only grows with
    delta), upper the largest c whose combined p_less on the cell just
    below c is.
    """
    evaluations = 0

    def curve(v: float, side: str):
        nonlocal evaluations
        evaluations += 1
        return shifts.cell(v, side)

    def accepts(at, tail: str) -> bool:
        return not _tail_rejects(combined(shifts.tail(at, tail))[1], alpha)

    def endpoint(lo: float, hi: float, upper: bool) -> float:
        # invariant: the endpoint is a candidate in [lo, hi], and lo, hi
        # are candidates; each step drops at least one candidate and
        # halves the span
        side, tail = ("left", "less") if upper else ("right", "greater")
        while lo < hi:
            mid = 0.5 * lo + 0.5 * hi
            if not lo < mid < hi:  # no shift strictly between neighbours
                mid = hi if upper else lo
            at, below, above = curve(mid, side)
            if accepts(at, tail) == upper:  # the endpoint lies at or above the cell
                lo = above
            else:  # at or below it
                hi = below
        return lo

    first_at, _, first = curve(-math.inf, "right")
    last_at, last, _ = curve(math.inf, "left")
    lower = upper = math.nan  # the empty set unless some shift is accepted
    if accepts(last_at, "greater") and accepts(first_at, "less"):
        lo = -math.inf if accepts(first_at, "greater") else endpoint(first, last, upper=False)
        hi = math.inf if accepts(last_at, "less") else endpoint(first, last, upper=True)
        if lo <= hi:  # a candidate can be -0.0; adding 0.0 reports it as 0.0 and changes no other value
            lower, upper = lo + 0.0, hi + 0.0
    return ConfidenceInterval(lag, method, 1.0 - alpha, lower, upper, evaluations)


def invert_single(
    sample: TwoGroupSample, alpha: float = 0.10, cfg: TestConfig = TestConfig(), lag: int | None = None
) -> ConfidenceInterval:
    """Invert one two-group permutation test into a level 1-alpha set.

    The relabelings are drawn once, on the stream keyed by (seed, 0).
    """
    _check_unit("alpha", alpha)
    tail = _tail_plan(sample, cfg.statistic, cfg.budget, seed_sequence(cfg.seed, 0))
    return _exact_interval(_ShiftIndex([tail]), lambda p: (p[0], p[0]), alpha, lag, "single")


def invert_combined(family: LagFamily, alpha: float = 0.10, method: str = "weighted_z") -> ConfidenceInterval:
    """Invert a lag's whole test family through a combiner.

    Each test's treated outcomes are shifted by delta and tails are
    combined per tail over every test of the family (design weights
    depend on arm sizes alone, so one set serves every shift, as for
    the p-value); the set collects deltas where each combined tail stays
    above alpha/2.  Every delta is evaluated against the relabelings
    that run_mcrts drew for ``family``, through the family's one shift
    index.  A family with no completed test rejects no shift, and its
    set is the whole line, (-inf, inf).
    """
    _check_unit("alpha", alpha)
    combined = _combiner([t.tail for t in family.tests], method)
    if not family.tests:
        return ConfidenceInterval(family.lag, method, 1.0 - alpha, -math.inf, math.inf, 0)
    return _exact_interval(family._shift_index, combined, alpha, family.lag, method)


_CI_COLUMNS = ["lag", "method", "level", "delta_lo", "delta_hi"]


def write_ci_csv(path, intervals: Sequence[ConfidenceInterval]) -> None:
    """Write `lag,method,level,delta_lo,delta_hi` rows."""
    _write_table(
        path,
        _CI_COLUMNS,
        (
            ["" if ci.lag is None else ci.lag, ci.method, float(ci.level), float(ci.lower), float(ci.upper)]
            for ci in intervals
        ),
    )


def _ci_columns(head: list[str]):
    if head != _CI_COLUMNS:
        raise ValueError(f"unexpected header {head}")
    return _ci_row


def _ci_row(row: list[str]) -> ConfidenceInterval:
    return ConfidenceInterval(
        lag=None if row[0] == "" else int(row[0]),
        method=row[1],
        level=float(row[2]),
        lower=float(row[3]),
        upper=float(row[4]),
        n_grid=0,
    )


def read_ci_csv(path) -> list[ConfidenceInterval]:
    return list(_read_table(path, _ci_columns))
