"""Confidence intervals by inverting shifted permutation tests.

To test a constant lag-l effect delta, subtract delta from every
treated outcome and rerun the permutation test; the confidence set
collects the deltas whose shifted tails both stay at or above alpha/2.

The relabelings are drawn once per test, from a stream keyed by (seed,
test time) and never by delta, so the whole p-curve is evaluated
against one set of relabelings (Garthwaite 1996, Biometrics).  Under
those common relabelings each test's tail counts are step functions of
delta that change only at the test's candidate shifts (TailPlan), and
every combiner is monotone in its inputs.  The combined curve is
therefore constant between consecutive candidates of the union, and
the endpoints are exactly

- lower: the infimum of {delta : combined p_greater(delta) >= alpha/2},
- upper: the supremum of {delta : combined p_less(delta) >= alpha/2},

each a candidate shift.  A bisection on delta finds them, evaluating
the curve only on the open cells between candidates; no shifted
outcome is ever formed, so rounding at a tie never decides an
endpoint.  Each evaluation is one probe of a family lookup
(permtest._ShiftIndex) built once per family and kept set of tests, so
combiners that keep the same tests share it.  For the difference in
means it merges the tests' candidates into their union, so a probe is
two binary searches for the whole family, and it computes only the
tail that the bisection step reads; the rank sum re-sums each test's
ranks at every probe.  A side whose tail stays at or above alpha/2
beyond every candidate is unbounded (-inf or inf); when the lower
endpoint exceeds the upper one no delta is accepted and the set is
empty (both endpoints nan).  The combined interval inverts the
LagFamily that run_mcrts returns, the one that gives the analysis its
p-values, through the same kept tests and weights as the combined
p-value (combine), so its relabelings are never drawn again.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .combine import _combiner
from .design import DataFormatError
from .mcrt import LagFamily, TestConfig
from .permtest import TailPlan, TwoGroupSample, _ShiftIndex, relabel_plan
from .rng import seed_sequence

__all__ = [
    "ConfidenceInterval",
    "invert_single",
    "invert_combined",
    "read_ci_csv",
    "write_ci_csv",
]


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
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie in (0, 1)")
        if math.isnan(self.lower) != math.isnan(self.upper):
            raise ValueError("an empty set needs both endpoints nan")
        if self.lower > self.upper:
            raise ValueError("interval endpoints are out of order")

    @property
    def empty(self) -> bool:
        """No shift is accepted."""
        return math.isnan(self.lower)

    @property
    def length(self) -> float:
        return 0.0 if self.empty else self.upper - self.lower


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")


def _exact_interval(
    shifts: _ShiftIndex, combined: Callable[[np.ndarray], tuple[float, float]], alpha: float
) -> tuple[float, float, int]:
    """(lower, upper, evaluations) of the set accepted by the combined test.

    ``combined`` maps one tail's p-values, one per test of ``shifts``,
    to the combined (statistic, p-value), the p-value non-decreasing in
    each.  Lower is the smallest candidate c whose combined p_greater on
    the cell just above c reaches alpha/2 (p_greater only grows with
    delta), upper the largest c whose combined p_less on the cell just
    below c does.
    """
    thr = alpha / 2.0
    evaluations = 0

    def curve(v: float, side: str):
        nonlocal evaluations
        evaluations += 1
        return shifts.cell(v, side)

    def p_value(at, tail: str) -> float:
        return combined(shifts.tail(at, tail))[1]

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
            if (p_value(at, tail) >= thr) == upper:  # the endpoint lies at or above the cell
                lo = above
            else:  # at or below it
                hi = below
        return lo

    first_at, _, first = curve(-math.inf, "right")
    last_at, last, _ = curve(math.inf, "left")
    if p_value(last_at, "greater") < thr or p_value(first_at, "less") < thr:
        return math.nan, math.nan, evaluations
    lower = -math.inf if p_value(first_at, "greater") >= thr else endpoint(first, last, upper=False)
    upper = math.inf if p_value(last_at, "less") >= thr else endpoint(first, last, upper=True)
    if lower > upper:
        return math.nan, math.nan, evaluations
    # a candidate can be -0.0; adding 0.0 reports it as 0.0 and changes no other value
    return lower + 0.0, upper + 0.0, evaluations


def invert_single(
    sample: TwoGroupSample, alpha: float = 0.10, cfg: TestConfig = TestConfig(), lag: int | None = None
) -> ConfidenceInterval:
    """Invert one two-group permutation test into a level 1-alpha set.

    The relabelings are drawn once, on the stream keyed by (seed, 0).
    """
    _check_alpha(alpha)
    plan = relabel_plan(
        sample.n_treated + sample.n_control,
        sample.n_treated,
        budget=cfg.budget,
        exact_threshold=cfg.exact_threshold,
        seed=seed_sequence(cfg.seed, 0),
    )
    shifts = _ShiftIndex([TailPlan(sample, plan, cfg.statistic)])
    lower, upper, evaluations = _exact_interval(shifts, lambda p: (p[0], p[0]), alpha)
    return ConfidenceInterval(
        lag=lag,
        method="single",
        level=1.0 - alpha,
        lower=lower,
        upper=upper,
        n_grid=evaluations,
    )


def invert_combined(family: LagFamily, alpha: float = 0.10, method: str = "weighted_z") -> ConfidenceInterval:
    """Invert a lag's whole test family through a combiner.

    Each test's treated outcomes are shifted by delta and tails are
    combined per tail over the tests the combiner keeps (precision
    weights are shift-invariant, computed once, as for the p-value);
    the set collects deltas where each combined tail stays at or above
    alpha/2.  Every delta is evaluated against the relabelings that
    run_mcrts drew for ``family``.
    """
    _check_alpha(alpha)
    if not family.tests:
        raise ValueError(f"no testable groups at lag {family.lag} (all below min_arm)")
    kept, combined = _combiner(family.tests, family.n_units, method)
    # combiners that keep the same tests invert the same tails, so the
    # family keeps one lookup per kept set
    times = tuple(t.test_time for t in kept)
    shifts = family._shift_indexes.get(times)
    if shifts is None:
        tails = {t.test_time: tail for t, tail in zip(family.tests, family.tails)}
        shifts = family._shift_indexes[times] = _ShiftIndex([tails[t] for t in times])
    lower, upper, evaluations = _exact_interval(shifts, combined, alpha)
    return ConfidenceInterval(
        lag=family.lag,
        method=method,
        level=1.0 - alpha,
        lower=lower,
        upper=upper,
        n_grid=evaluations,
    )


def write_ci_csv(path, intervals: Sequence[ConfidenceInterval]) -> None:
    """Write `lag,method,level,delta_lo,delta_hi` rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lag", "method", "level", "delta_lo", "delta_hi"])
        for ci in intervals:
            writer.writerow(
                [
                    "" if ci.lag is None else int(ci.lag),
                    ci.method,
                    repr(float(ci.level)),
                    repr(float(ci.lower)),
                    repr(float(ci.upper)),
                ]
            )


def read_ci_csv(path) -> list[ConfidenceInterval]:
    out: list[ConfidenceInterval] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["lag", "method", "level", "delta_lo", "delta_hi"]:
            raise DataFormatError(f"{path}: line 1: unexpected header {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 5:
                raise DataFormatError(f"{path}: line {lineno}: expected 5 columns")
            try:
                out.append(
                    ConfidenceInterval(
                        lag=None if row[0] == "" else int(row[0]),
                        method=row[1],
                        level=float(row[2]),
                        lower=float(row[3]),
                        upper=float(row[4]),
                        n_grid=0,
                    )
                )
            except ValueError as exc:
                raise DataFormatError(f"{path}: line {lineno}: {exc}") from None
    return out
