"""Deterministic random-stream derivation.

Every randomized routine in this package draws from a stream derived
from an explicit integer seed plus integer keys (test time, replicate
index, block index).  Deriving rather than sharing streams makes
results independent of evaluation order and thread count.
"""

from __future__ import annotations

import numpy as np

#: Default seed used by the command line and config defaults.  Fixed, not
#: time-based, so that bare invocations are reproducible.
DEFAULT_SEED = 12345


def _is_int(value) -> bool:
    """The package's one integer test: an int or NumPy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_seed(seed) -> None:
    """The seed rule: raise ValueError unless ``seed`` is a non-negative
    integer (not a bool) or a SeedSequence.  An integer seed passes
    without touching np.random, so a check made while the package is
    imported does not load it."""
    if not (_is_int(seed) and seed >= 0) and not isinstance(seed, np.random.SeedSequence):
        raise ValueError("seed must be a non-negative integer")


def seed_sequence(seed, *keys: int) -> np.random.SeedSequence:
    """Derive a child SeedSequence from ``seed`` and integer ``keys``.

    A seed is a non-negative integer (not a bool) or a SeedSequence;
    anything else, None included, raises ValueError.  Each key is a
    non-negative integer under the same rule, so 2.5, True and "3" are
    rejected, never read as 2, 1 and 3.  Equal (seed, keys) give equal
    streams, and distinct key tuples independent ones.

    Keys after a SeedSequence seed extend its spawn key, so
    seed_sequence(seed_sequence(s, *a), *b) is seed_sequence(s, *a, *b)
    when the integer seed s and keys a take at least four 32-bit words:
    NumPy zero-pads only shorter entropy before a spawn key.
    """
    _check_seed(seed)
    bad = [k for k in keys if not _is_int(k) or k < 0]
    if bad:
        raise ValueError(f"stream keys must be non-negative integers, got {bad}")
    keys = tuple(int(k) for k in keys)
    if _is_int(seed):
        return np.random.SeedSequence(entropy=[seed, *keys])
    if not keys:
        return seed
    return np.random.SeedSequence(entropy=seed.entropy, spawn_key=tuple(seed.spawn_key) + keys)


def generator(seed, *keys: int) -> np.random.Generator:
    """A fresh Generator on the stream derived from (seed, *keys)."""
    return np.random.default_rng(seed_sequence(seed, *keys))
