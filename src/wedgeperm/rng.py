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


def seed_sequence(seed, *keys: int) -> np.random.SeedSequence:
    """Derive a child SeedSequence from ``seed`` and integer ``keys``.

    The same (seed, keys) pair always yields the same stream; distinct
    key tuples yield statistically independent streams.

    Keys after a SeedSequence seed extend its spawn key, so
    seed_sequence(seed_sequence(s, *a), *b) is seed_sequence(s, *a, *b)
    when the integer seed s and keys a take at least four 32-bit words:
    NumPy zero-pads only shorter entropy before a spawn key.
    """
    if isinstance(seed, np.random.SeedSequence):
        if not keys:
            return seed
        return np.random.SeedSequence(
            entropy=seed.entropy, spawn_key=tuple(seed.spawn_key) + tuple(int(k) for k in keys)
        )
    if seed is None:
        return np.random.SeedSequence()
    seed = int(seed)
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    bad = [k for k in keys if int(k) < 0]
    if bad:
        raise ValueError(f"stream keys must be non-negative, got {bad}")
    return np.random.SeedSequence(entropy=[seed, *(int(k) for k in keys)])


def generator(seed, *keys: int) -> np.random.Generator:
    """A fresh Generator on the stream derived from (seed, *keys)."""
    return np.random.default_rng(seed_sequence(seed, *keys))


def as_generator(rng) -> np.random.Generator:
    """Coerce an int seed, SeedSequence, Generator, or None to a Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(seed_sequence(rng) if not isinstance(rng, np.random.SeedSequence) else rng)
