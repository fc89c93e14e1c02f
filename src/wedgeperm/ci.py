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
the curve only on the open cells between candidates, so rounding at a
tie never decides an endpoint.  A side whose tail stays at or above
alpha/2 beyond every candidate is unbounded (-inf or inf); when the
lower endpoint exceeds the upper one no delta is accepted and the set
is empty (both endpoints nan).  The combined interval evaluates the
same LagFamily that gives the analysis its p-values, so a caller
holding one passes it in rather than drawing the relabelings again.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .combine import _tail_combiner, _weights_from_moments
from .design import DataFormatError
from .mcrt import LagFamily, TestConfig, TrialData, _family_for
from .permtest import TailPlan, TwoGroupSample, relabel_plan
from .rng import seed_sequence

__all__ = [
    "CIConfig",
    "ConfidenceInterval",
    "shift_outcomes",
    "tail_pvalues",
    "invert_single",
    "invert_combined",
    "read_ci_csv",
    "write_ci_csv",
]


@dataclass(frozen=True)
class CIConfig:
    """Inversion settings: alpha and the per-test engine knobs."""

    alpha: float = 0.10
    test: TestConfig = field(default_factory=TestConfig)

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")


@dataclass(frozen=True)
class ConfidenceInterval:
    """A level-``level`` confidence set for a constant effect.

    Endpoints are exact candidate shifts, -inf/inf for an unbounded
    side, or both nan when no shift is accepted (``empty``).
    ``resolution`` is 0.0 for an exact search (nan when read back from
    CSV); ``n_grid`` counts the shifts at which the combined curve was
    evaluated.
    """

    lag: int | None
    method: str
    level: float
    lower: float
    upper: float
    resolution: float
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


def shift_outcomes(sample: TwoGroupSample, delta: float) -> TwoGroupSample:
    """Subtract a hypothesized constant effect from the treated arm."""
    return TwoGroupSample(sample.treated - delta, sample.control, sample.scale_n)


def tail_pvalues(sample: TwoGroupSample, delta: float, cfg: CIConfig, seed=None) -> tuple[float, float]:
    """(p1, p2) for one delta: lower and upper tail of the shifted test.

    p1 is the probability of a relabeled statistic <= the observed one
    on the shifted data, p2 of >=.  Driving delta to +infinity sends the
    shifted treated mean down, so p1 -> small and p2 -> 1; p1 is
    non-increasing and p2 non-decreasing in delta.
    """
    p1, p2 = _tail_plan(sample, cfg, seed).tails(np.asarray([float(delta)]))
    return float(p1[0]), float(p2[0])


def _tail_plan(sample: TwoGroupSample, cfg: CIConfig, seed=None) -> TailPlan:
    t = cfg.test
    plan = relabel_plan(
        sample.n_treated + sample.n_control,
        sample.n_treated,
        budget=t.budget,
        exact_threshold=t.exact_threshold,
        seed=seed if seed is not None else seed_sequence(t.seed, 0),
    )
    return TailPlan(sample, plan, t.statistic)


def _exact_interval(
    plans: Sequence[TailPlan], combined: Callable[[np.ndarray], float], alpha: float
) -> tuple[float, float, int]:
    """(lower, upper, evaluations) of the set accepted by the combined test.

    ``combined`` maps one tail's p-values, one per plan, to the combined
    p-value; it is non-decreasing in each.  Lower is the smallest
    candidate c whose combined p_greater on the cell just above c
    reaches alpha/2 (p_greater only grows with delta), upper the
    largest c whose combined p_less on the cell just below c does.
    """
    thr = alpha / 2.0
    evaluations = 0

    def curve(v: float, side: str):
        nonlocal evaluations
        evaluations += 1
        cells = [plan.cell(v, side) for plan in plans]
        p_less = np.array([c[0] for c in cells])
        p_greater = np.array([c[1] for c in cells])
        return p_less, p_greater, max(c[2] for c in cells), min(c[3] for c in cells)

    def endpoint(lo: float, hi: float, upper: bool) -> float:
        # invariant: the endpoint is a candidate in [lo, hi], and lo, hi
        # are candidates; each step drops at least one candidate and
        # halves the span
        side = "left" if upper else "right"
        while lo < hi:
            mid = 0.5 * lo + 0.5 * hi
            if not lo < mid < hi:  # no shift strictly between neighbours
                mid = hi if upper else lo
            p_less, p_greater, below, above = curve(mid, side)
            accepted = combined(p_less if upper else p_greater) >= thr
            if accepted == upper:  # the endpoint lies at or above the cell
                lo = above
            else:  # at or below it
                hi = below
        return lo

    first_less, first_greater, _, first = curve(-math.inf, "right")
    last_less, last_greater, last, _ = curve(math.inf, "left")
    if combined(last_greater) < thr or combined(first_less) < thr:
        return math.nan, math.nan, evaluations
    lower = -math.inf if combined(first_greater) >= thr else endpoint(first, last, upper=False)
    upper = math.inf if combined(last_less) >= thr else endpoint(first, last, upper=True)
    if lower > upper:
        return math.nan, math.nan, evaluations
    return lower, upper, evaluations


def invert_single(sample: TwoGroupSample, cfg: CIConfig = CIConfig(), lag: int | None = None) -> ConfidenceInterval:
    """Invert one two-group permutation test into a level 1-alpha set."""
    lower, upper, evaluations = _exact_interval([_tail_plan(sample, cfg)], lambda p: float(p[0]), cfg.alpha)
    return ConfidenceInterval(
        lag=lag,
        method="single",
        level=1.0 - cfg.alpha,
        lower=lower,
        upper=upper,
        resolution=0.0,
        n_grid=evaluations,
    )


def invert_combined(
    data: TrialData,
    lag: int,
    cfg: CIConfig = CIConfig(),
    method: str = "weighted_z",
    family: LagFamily | None = None,
) -> ConfidenceInterval:
    """Invert the whole lag-l test family through a combiner.

    Each test's treated outcomes are shifted by delta and tails are
    combined per tail (precision weights are shift-invariant, computed
    once); the set collects deltas where each combined tail stays at or
    above alpha/2.  Relabeling streams are keyed by (seed, test time),
    matching the analysis run and shared across all deltas; a
    ``family`` from build_family(data, lag, cfg.test) supplies them
    already drawn.
    """
    family = _family_for(data, lag, cfg.test, family)
    if not family.tests:
        raise ValueError(f"no testable groups at lag {lag} (all below min_arm)")
    pairs = list(zip(family.tests, family.tails))
    weights = None
    if method == "weighted_z":
        weights = _weights_from_moments(family.tests, family.n_units)
        kept_times = set(weights.test_times)
        pairs = [(t, tail) for t, tail in pairs if t.test_time in kept_times]
    gran = np.asarray([tail.granularity for _, tail in pairs])
    combined = _tail_combiner(method, weights, gran)
    lower, upper, evaluations = _exact_interval([tail for _, tail in pairs], combined, cfg.alpha)
    return ConfidenceInterval(
        lag=lag,
        method=method,
        level=1.0 - cfg.alpha,
        lower=lower,
        upper=upper,
        resolution=0.0,
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
                        resolution=math.nan,
                        n_grid=0,
                    )
                )
            except ValueError as exc:
                raise DataFormatError(f"{path}: line {lineno}: {exc}") from None
    return out
