"""Combining dependent one-sided p-values.

Jointly valid p-value families stochastically dominate independent
uniforms, so classical combiners keep their level even though the tests
share data.  Three are provided: inverse-normal with weights fixed by
the design's arm sizes (the headline method), Fisher's product rule, and
Bonferroni.  A combiner keeps its level this way only if it is a fixed
monotone function of the p-values, so the weights must not depend on the
assignment: test k's squared weight is proportional to n1 * n0 /
(n1 + n0), which the period counts fix, and which equals its precision
weight when the arms share a variance.

Direction convention: a combiner consumes one-sided p-values from a
single tail.  The two-sided mode combines each tail separately and
reports twice the smaller combined p-value, capped at 1.

The normal and chi-square functions the combiners need are computed
here rather than imported, so the package does not load SciPy:

- the normal quantile is ``statistics.NormalDist().inv_cdf``, Wichura's
  Algorithm AS 241 (Applied Statistics, 1988), accurate to about 1e-16;
- the normal CDF takes ``0.5 + 0.5 * erf(x / sqrt 2)`` while
  ``|x / sqrt 2| < 1`` and ``0.5 * erfc(|x| / sqrt 2)`` (or its
  complement) beyond, the split SciPy's ``ndtr`` uses, so neither tail
  is formed by cancellation;
- Fisher's statistic has 2K degrees of freedom, always even, so its
  upper tail is the finite Poisson sum exp(-y) * sum_{i<K} y**i / i!
  at y = statistic / 2.  The sum is formed by Horner's rule and
  multiplied by exp(-y / 2) twice, so the tail stays normal wherever
  the true value does rather than underflowing with exp(-y) past
  y = 745.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

__all__ = [
    "CombinedPValue",
    "weights_from_result",
    "weighted_z_combine",
    "fisher_combine",
    "bonferroni_combine",
    "combined_from_mcrt",
    "COMBINERS",
]

COMBINERS = ("weighted_z", "fisher", "bonferroni")


@dataclass(frozen=True)
class CombinedPValue:
    method: str
    alternative: str  # "less" | "greater" | "two-sided"; "one-sided" from the public combiners
    statistic: float
    p_value: float
    n_tests: int

    def __post_init__(self):
        if not 0.0 < self.p_value <= 1.0:
            raise ValueError("combined p-value must lie in (0, 1]")


def _design_weights(tests) -> np.ndarray:
    """Squared weights proportional to each test's (or sample's) n1 * n0 /
    (n1 + n0), which the period counts fix under every assignment and shift."""
    if any(min(t.n_treated, t.n_control) < 1 for t in tests):
        raise ValueError("a test with an empty arm cannot be weighted")
    lam = np.asarray([t.n_treated * t.n_control / (t.n_treated + t.n_control) for t in tests])
    return np.sqrt(lam / lam.sum())


def weights_from_result(result) -> np.ndarray:
    """Design weights for a LagFamily: one per test of ``result.tests``,
    in order.

    Test k's squared weight is proportional to n1 * n0 / (n1 + n0) over
    its arm sizes: the precision weight of its difference in means when
    the arms share a variance.  Squared weights sum to one.
    """
    if not result.tests:
        raise ValueError("result contains no completed tests to weight")
    return _design_weights(result.tests)


def _validate_pvalues(pvalues) -> np.ndarray:
    p = np.asarray(pvalues, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("need a non-empty 1-d vector of p-values")
    if not np.isfinite(p).all():
        raise ValueError("p-values must be finite")
    if (p <= 0).any():
        raise ValueError("p-values must be strictly positive")
    if (p > 1).any():
        raise ValueError("p-values cannot exceed 1")
    return p


_norm_inv_cdf = NormalDist().inv_cdf
_SQRT1_2 = math.sqrt(0.5)


def _normal_scores(p: np.ndarray, granularity) -> list[float]:
    """Standard normal quantiles of p-values in (0, 1], capping p = 1 first.

    A p-value of 1 becomes 1 - granularity/2 so its quantile stays
    finite.  ``granularity`` is the smallest attainable p-value
    increment of each test (1/(B+1) for Monte Carlo, 1/M for exact);
    Monte-Carlo resolution rather than an infinity then sets the
    ceiling.
    """
    q = p.tolist()
    if max(q) >= 1.0:
        g = np.broadcast_to(granularity, p.shape).tolist()
        q = [1.0 - h / 2.0 if x >= 1.0 else x for x, h in zip(q, g)]
    # a granularity below 2**-52 caps to 1.0 again, whose quantile is inf
    return [_norm_inv_cdf(x) if x < 1.0 else math.inf for x in q]


def _norm_cdf(x: float) -> float:
    """Standard normal CDF, split between erf and erfc as SciPy's ndtr is."""
    z = x * _SQRT1_2
    if abs(z) < 1.0:
        return 0.5 + 0.5 * math.erf(z)
    tail = 0.5 * math.erfc(abs(z))
    return 1.0 - tail if z > 0 else tail


def _chi2_even_sf(k: int, y: float) -> float:
    """Upper tail of a chi-square with 2k degrees of freedom at 2y."""
    s = 1.0
    for i in range(k - 1, 0, -1):
        s = 1.0 + s * y / i
    if s == math.inf:
        # only past y = 709 with k over about a hundred: sum the terms
        # in log space, each with relative error about y * eps
        log_y = math.log(y)
        return math.fsum(math.exp(i * log_y - y - math.lgamma(i + 1)) for i in range(k))
    half = math.exp(-0.5 * y)
    return s * half * half


def _weighted_z(p: np.ndarray, w: np.ndarray, granularity) -> tuple[float, float]:
    stat = math.fsum(map(operator.mul, w.tolist(), _normal_scores(p, granularity)))
    return stat, _norm_cdf(stat)


def _fisher(p: np.ndarray) -> tuple[float, float]:
    stat = float(-2.0 * np.log(p).sum())
    # the tail's rounding can pass 1 when every p-value is near 1
    return stat, min(1.0, max(_chi2_even_sf(p.size, stat / 2.0), np.nextafter(0, 1)))


def _bonferroni(p: np.ndarray) -> tuple[float, float]:
    m = float(p.min())
    return m, min(1.0, p.size * m)


def weighted_z_combine(pvalues, weights, granularity=None) -> CombinedPValue:
    """Weighted inverse-normal combination.

    Computes sum_k w_k * Phi^{-1}(p_k) and maps it back through Phi.
    ``weights`` holds one weight per p-value, in the same order, as
    weights_from_result returns them: finite, positive, with squares
    summing to one.  Under joint validity the result again
    stochastically dominates Uniform(0, 1).  ``granularity``, the
    smallest p-value increment (one for all tests, or one per p-value;
    each in (0, 1]), caps a p-value of exactly 1, which needs it.
    """
    p = _validate_pvalues(pvalues)
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-d vector")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if (w <= 0).any():
        raise ValueError("weights must be strictly positive")
    if abs(float((w**2).sum()) - 1.0) > 1e-12:
        raise ValueError("squared weights must sum to 1 within 1e-12")
    if w.shape != p.shape:
        raise ValueError("weights and p-values must align")
    if granularity is not None:
        granularity = np.asarray(granularity, dtype=np.float64)
        if granularity.shape not in ((), p.shape):
            raise ValueError("granularity must be one value or one per p-value")
        if not ((granularity > 0.0) & (granularity <= 1.0)).all():  # a nan fails both
            raise ValueError("granularity values must lie in (0, 1]")
    elif p.max() >= 1.0:
        raise ValueError("a p-value of exactly 1 needs the test's resolution (granularity) to be capped")
    return CombinedPValue("weighted_z", "one-sided", *_weighted_z(p, w, granularity), p.size)


def fisher_combine(pvalues) -> CombinedPValue:
    """Fisher's product rule: -2 sum(log p) against a chi-square with 2K df."""
    p = _validate_pvalues(pvalues)
    return CombinedPValue("fisher", "one-sided", *_fisher(p), p.size)


def bonferroni_combine(pvalues) -> CombinedPValue:
    """min(1, K * min p); valid under arbitrary dependence."""
    p = _validate_pvalues(pvalues)
    return CombinedPValue("bonferroni", "one-sided", *_bonferroni(p), p.size)


def _no_evidence(p: np.ndarray) -> tuple[float, float]:
    return math.nan, 1.0


def _combiner(tails: Sequence, method: str):
    """The one-tail combination for ``method`` over a family's TailPlans.

    It maps the tests' p-values from one tail, in order, to (statistic,
    combined p-value) through the cores the public combiners use,
    without their per-call checks; weighted_z weighs the tests by their
    samples' design weights and caps a p-value of 1 by each tail's
    granularity, so partial tails serve too.  A combination over no test
    has no evidence: its statistic is nan, its p-value 1.
    """
    if method not in COMBINERS:
        raise ValueError(f"unknown combiner {method!r}; choose from {COMBINERS}")
    if not tails:
        return _no_evidence
    if method == "weighted_z":
        w = _design_weights([t.sample for t in tails])
        gran = np.asarray([t.granularity for t in tails])
        return lambda p: _weighted_z(p, w, gran)
    return _fisher if method == "fisher" else _bonferroni


def _tail_rejects(p: float, alpha: float) -> bool:
    """The one decision rule at two-sided level ``alpha``: a combined
    one-tail p-value rejects when twice it is at most alpha, so a family
    rejects exactly when its _two_sided p-value is at most alpha (for
    alpha below 1), and a shift is accepted only when each tail is above
    alpha/2.  Doubling is exact in binary floating point."""
    return 2.0 * p <= alpha


def _two_sided(combine, p_less: np.ndarray, p_greater: np.ndarray) -> tuple[float, float]:
    """(statistic, p-value) of the two-sided combination: the tail whose
    combined p-value is smaller (the less tail on a tie), with twice that
    p-value, capped at 1.  Every combiner rises with each p-value, and so
    does this p-value."""
    lo, hi = combine(p_less), combine(p_greater)
    statistic, p = lo if lo[1] <= hi[1] else hi
    return statistic, min(1.0, 2.0 * p)


def combined_from_mcrt(result, method: str, alternative: str = "greater") -> CombinedPValue:
    """Combine the p-values of a result's completed tests.

    ``result`` is a LagFamily from run_mcrts, or any object with
    ``tests``.  ``alternative`` is "greater" (treatment raises outcomes,
    the default), "less", or "two-sided" (both tails combined
    separately, then twice the smaller combined p, capped at 1).  Every
    combiner keeps every test; weighted_z weighs them as
    weights_from_result does.  With no test to combine, the p-value is
    1 and ``n_tests`` is 0.
    """
    tests = result.tests
    combine = _combiner([t.tail for t in tests], method)
    p_less = np.asarray([t.result.p_less for t in tests])
    p_greater = np.asarray([t.result.p_greater for t in tests])
    if alternative == "two-sided":
        combined = _two_sided(combine, p_less, p_greater)
    elif alternative in ("less", "greater"):
        combined = combine(p_less if alternative == "less" else p_greater)
    else:
        raise ValueError("alternative must be 'less', 'greater', or 'two-sided'")
    return CombinedPValue(method, alternative, *combined, len(tests))
