"""Shared fixtures and builders for the test suite."""

import concurrent.futures

import numpy as np
import pytest

from wedgeperm import CrossoverTimes, DesignSpec, TrialData, permtest, sample_assignment
from wedgeperm.rng import generator


def make_trial(
    n_units: int,
    counts,
    lag: int = 0,
    effect: float = 0.0,
    seed: int = 11,
    noise: float = 1.0,
) -> TrialData:
    """A synthetic trial: i.i.d. noise plus a constant lagged effect.

    The effect is added at each unit's crossover time plus ``lag`` (when
    that column exists), matching the analysis target.
    """
    spec = DesignSpec(n_units, tuple(counts))
    rng = generator(seed, 5)
    times = sample_assignment(spec, rng)
    T = spec.n_times
    y = rng.normal(0.0, noise, (n_units, T + 1)) if noise > 0 else np.zeros((n_units, T + 1))
    cols = times.times + lag
    ok = cols <= T
    y[np.flatnonzero(ok), cols[ok]] += effect
    return TrialData(np.arange(n_units), times, y)


def constant_baseline_trial(times: CrossoverTimes, lag: int, effect: float) -> TrialData:
    """Zero-noise panel whose only signal is the lagged effect."""
    n, T = times.n_units, times.n_times
    y = np.zeros((n, T + 1))
    cols = times.times + lag
    ok = cols <= T
    y[np.flatnonzero(ok), cols[ok]] += effect
    return TrialData(np.arange(n), times, y)


@pytest.fixture
def tiny_trial() -> TrialData:
    """Small effect-free trial reused across modules."""
    return make_trial(24, (8, 8, 8), seed=3)


@pytest.fixture
def thread_pools(monkeypatch) -> list:
    """The max_workers of every thread pool opened while the test runs."""
    opened = []

    class CountedPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            opened.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountedPool)
    return opened


@pytest.fixture
def exact_limit(monkeypatch):
    """Set the engine's exactness limit for the test: ``exact_limit(1)``
    draws even the smallest pool by Monte Carlo, a large limit
    enumerates pools the default would sample."""
    return lambda limit: monkeypatch.setattr(permtest, "_EXACT_LIMIT", limit)
