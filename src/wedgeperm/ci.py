"""Confidence intervals by inverting shifted permutation tests.

To test a constant lag-l effect delta, subtract delta from every
treated outcome and rerun the permutation test; the interval collects
the deltas whose shifted tails stay above alpha/2.  Both tail curves
are monotone in delta, so a grid search plus bisection refinement
recovers the endpoints.

Common random numbers: the relabelings are drawn once per test, from a
stream keyed by (seed, test time) and never by delta, so the whole
p-curve is evaluated against one set of relabelings and inherits exact
monotonicity for the difference-in-means statistic.  The combined
interval evaluates the same LagFamily that gives the analysis its
p-values, so a caller holding one passes it in rather than drawing the
relabelings again.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammaincc, ndtr, ndtri

from .combine import COMBINERS, _weights_from_moments
from .design import DataFormatError
from .mcrt import LagFamily, TestConfig, TrialData, _family_for
from .permtest import TailPlan, TwoGroupSample, relabel_plan
from .rng import seed_sequence

__all__ = [
    "CIConfig",
    "ConfidenceInterval",
    "GridBracketError",
    "shift_outcomes",
    "tail_pvalues",
    "invert_single",
    "invert_combined",
    "read_ci_csv",
    "write_ci_csv",
]

AUTO_GRID_POINTS = 121
AUTO_GRID_HALF_WIDTH = 6.0  # pooled standard errors on each side


class GridBracketError(ValueError):
    """The search grid does not bracket both interval endpoints.

    Carries the raw tail p-values at the grid boundaries so callers can
    see which side to widen.
    """

    def __init__(self, message: str, p1_lo: float, p1_hi: float, p2_lo: float, p2_hi: float):
        super().__init__(
            f"{message}: widen the grid "
            f"(p1 at grid lo/hi = {p1_lo:.4g}/{p1_hi:.4g}, p2 = {p2_lo:.4g}/{p2_hi:.4g})"
        )
        self.p1_lo, self.p1_hi = p1_lo, p1_hi
        self.p2_lo, self.p2_hi = p2_lo, p2_hi


@dataclass(frozen=True)
class CIConfig:
    """Inversion settings: alpha, search grid, refinement, engine knobs.

    ``grid`` is (lo, hi, step); None selects the default grid centered
    on the point estimate with AUTO_GRID_POINTS points spanning
    AUTO_GRID_HALF_WIDTH pooled standard errors each side.
    """

    alpha: float = 0.10
    grid: tuple[float, float, float] | None = None
    refine: bool = True
    refine_iters: int = 20
    test: TestConfig = field(default_factory=TestConfig)

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.grid is not None:
            lo, hi, step = self.grid
            if not (lo < hi and step > 0):
                raise ValueError("grid must satisfy lo < hi with a positive step")
        if self.refine_iters < 1:
            raise ValueError("refine_iters must be positive")


@dataclass(frozen=True)
class ConfidenceInterval:
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
        if self.lower > self.upper:
            raise ValueError("interval endpoints are out of order")

    @property
    def length(self) -> float:
        return self.upper - self.lower


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


def _auto_grid(estimate: float, se: float) -> np.ndarray:
    if not math.isfinite(se) or se <= 0:
        se = max(1.0, abs(estimate)) / AUTO_GRID_HALF_WIDTH
    half = AUTO_GRID_HALF_WIDTH * se
    return np.linspace(estimate - half, estimate + half, AUTO_GRID_POINTS)


def _grid_points(cfg: CIConfig, estimate: float, se: float) -> np.ndarray:
    if cfg.grid is None:
        return _auto_grid(estimate, se)
    lo, hi, step = cfg.grid
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(n)


def _isotonic_envelopes(p1: np.ndarray, p2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outward monotone cleanup: p1 becomes non-increasing, p2
    non-decreasing, never dropping below the raw curves, so any cleanup
    can only widen the interval."""
    p1_clean = np.maximum.accumulate(p1[::-1])[::-1]
    p2_clean = np.maximum.accumulate(p2)
    return p1_clean, p2_clean


def _invert_curves(
    deltas: np.ndarray,
    p1: np.ndarray,
    p2: np.ndarray,
    alpha: float,
    point_tails: Callable[[float], tuple[float, float]],
    refine: bool,
    refine_iters: int,
) -> tuple[float, float, float]:
    """Endpoint search shared by single and combined inversion.

    Grid points with a tail p-value >= alpha/2 qualify (ties resolved
    outward), the interval is [min qualifying by p2, max qualifying by
    p1], and bisection narrows each endpoint's bracket while always
    reporting the qualifying end.
    """
    thr = alpha / 2.0
    p1_clean, p2_clean = _isotonic_envelopes(p1, p2)
    lower_ok = p2_clean[0] < thr <= p2_clean[-1]
    upper_ok = p1_clean[-1] < thr <= p1_clean[0]
    if not (lower_ok and upper_ok):
        raise GridBracketError(
            "confidence bounds not bracketed by the search grid",
            float(p1[0]), float(p1[-1]), float(p2[0]), float(p2[-1]),
        )
    i_lo = int(np.argmax(p2_clean >= thr))
    i_hi = int(len(deltas) - 1 - np.argmax(p1_clean[::-1] >= thr))
    lower, upper = float(deltas[i_lo]), float(deltas[i_hi])
    step = float(deltas[1] - deltas[0]) if len(deltas) > 1 else 0.0
    resolution = step
    if refine and step > 0:
        bad, good = float(deltas[i_lo - 1]), lower
        for _ in range(refine_iters):
            mid = 0.5 * (bad + good)
            if point_tails(mid)[1] >= thr:
                good = mid
            else:
                bad = mid
        lower = good
        good, bad = upper, float(deltas[i_hi + 1])
        for _ in range(refine_iters):
            mid = 0.5 * (good + bad)
            if point_tails(mid)[0] >= thr:
                good = mid
            else:
                bad = mid
        upper = good
        resolution = step / 2.0**refine_iters
    if lower > upper:
        # degenerate interval narrower than the grid: both endpoint
        # searches converged onto the same point from opposite sides
        lower = upper = 0.5 * (lower + upper)
    return lower, upper, resolution


def invert_single(sample: TwoGroupSample, cfg: CIConfig = CIConfig(), lag: int | None = None) -> ConfidenceInterval:
    """Invert one two-group permutation test into a level 1-alpha interval."""
    plan = _tail_plan(sample, cfg)
    m, n = sample.n_treated, sample.n_control
    se = math.sqrt(
        (float(sample.treated.var(ddof=1)) / m if m > 1 else 0.0)
        + (float(sample.control.var(ddof=1)) / n if n > 1 else 0.0)
    )
    deltas = _grid_points(cfg, float(sample.treated.mean() - sample.control.mean()), se)
    p1, p2 = plan.tails(deltas)

    def point_tails(d: float) -> tuple[float, float]:
        a, b = plan.tails(np.asarray([d]))
        return float(a[0]), float(b[0])

    lower, upper, resolution = _invert_curves(
        deltas, p1, p2, cfg.alpha, point_tails, cfg.refine, cfg.refine_iters
    )
    return ConfidenceInterval(
        lag=lag,
        method="single",
        level=1.0 - cfg.alpha,
        lower=lower,
        upper=upper,
        resolution=resolution,
        n_grid=len(deltas),
    )


def _combine_tail_matrix(P: np.ndarray, method: str, weights=None, gran=None) -> np.ndarray:
    """Combine a (K, D) one-tail p-value matrix column by column."""
    if method == "weighted_z":
        capped = np.where(P >= 1.0, 1.0 - gran[:, None] / 2.0, P)
        return ndtr(weights @ ndtri(capped))
    if method == "fisher":
        stat = -2.0 * np.log(P).sum(axis=0)
        return np.maximum(gammaincc(P.shape[0], stat / 2.0), np.nextafter(0, 1))
    if method == "bonferroni":
        return np.minimum(1.0, P.shape[0] * P.min(axis=0))
    raise ValueError(f"unknown combiner {method!r}; choose from {COMBINERS}")


def invert_combined(
    data: TrialData,
    lag: int,
    cfg: CIConfig = CIConfig(),
    method: str = "weighted_z",
    family: LagFamily | None = None,
) -> ConfidenceInterval:
    """Invert the whole lag-l test family through a combiner.

    Each test's treated outcomes are shifted by delta, tails are
    combined per tail (precision weights are shift-invariant, computed
    once), and the interval collects deltas where each combined tail
    stays above alpha/2.  Relabeling streams are keyed by (seed, test
    time), matching the analysis run and shared across all deltas; a
    ``family`` from build_family(data, lag, cfg.test) supplies them
    already drawn.
    """
    family = _family_for(data, lag, cfg.test, family)
    if not family.tests:
        raise ValueError(f"no testable groups at lag {lag} (all below min_arm)")
    pairs = list(zip(family.tests, family.tails))
    weights = None
    if method == "weighted_z":
        wv = _weights_from_moments(family.tests, family.n_units)
        kept_times = set(wv.test_times)
        pairs = [(t, tail) for t, tail in pairs if t.test_time in kept_times]
        weights = wv.weights
    gran = np.asarray([tail.granularity for _, tail in pairs])

    # inverse-variance pooled point estimate for the default grid
    diffs = np.asarray([t.mean_treated - t.mean_control for t, _ in pairs])
    variances = np.asarray(
        [
            (t.var_treated / t.n_treated if t.n_treated > 1 else np.nan)
            + (t.var_control / t.n_control if t.n_control > 1 else np.nan)
            for t, _ in pairs
        ]
    )
    if np.isfinite(variances).all() and (variances > 0).all():
        precision = 1.0 / variances
        estimate = float((diffs * precision).sum() / precision.sum())
        se = float(math.sqrt(1.0 / precision.sum()))
    else:
        estimate = float(diffs.mean())
        se = float(diffs.std()) if len(diffs) > 1 else 0.0
    deltas = _grid_points(cfg, estimate, se)

    def curves(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        tails = [tail.tails(points) for _, tail in pairs]
        P1 = np.vstack([t[0] for t in tails])
        P2 = np.vstack([t[1] for t in tails])
        return (
            _combine_tail_matrix(P1, method, weights, gran),
            _combine_tail_matrix(P2, method, weights, gran),
        )

    p1, p2 = curves(deltas)

    def point_tails(d: float) -> tuple[float, float]:
        a, b = curves(np.asarray([d]))
        return float(a[0]), float(b[0])

    lower, upper, resolution = _invert_curves(
        deltas, p1, p2, cfg.alpha, point_tails, cfg.refine, cfg.refine_iters
    )
    return ConfidenceInterval(
        lag=lag,
        method=method,
        level=1.0 - cfg.alpha,
        lower=lower,
        upper=upper,
        resolution=resolution,
        n_grid=len(deltas),
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
