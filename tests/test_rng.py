"""The seed rule: every random stream starts from a non-negative integer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wedgeperm.rng import generator, seed_sequence

SEED_ERROR = "^seed must be a non-negative integer$"


@pytest.mark.parametrize("seed", [None, 3.7, "12", True, -1, [1]], ids=repr)
def test_a_value_that_is_not_a_non_negative_integer_raises(seed):
    with pytest.raises(ValueError, match=SEED_ERROR):
        seed_sequence(seed)
    with pytest.raises(ValueError, match=SEED_ERROR):
        generator(seed, 1)


def test_a_numpy_integer_seeds_the_stream_of_its_int():
    assert np.array_equal(seed_sequence(np.int64(7), 3).generate_state(4), seed_sequence(7, 3).generate_state(4))


@settings(max_examples=200, deadline=1000)
@given(st.none() | st.booleans() | st.floats() | st.text() | st.integers() | st.lists(st.integers()))
def test_a_seed_is_a_non_negative_int_or_raises(value):
    is_seed = type(value) is int and value >= 0
    try:
        root = seed_sequence(value)
    except ValueError as exc:
        assert str(exc) == "seed must be a non-negative integer"
        assert not is_seed
    else:
        assert is_seed
        assert root.entropy == [value]


@pytest.mark.parametrize("key", [2.5, 2.0, True, False, "3", None, -1], ids=repr)
def test_a_key_that_is_not_a_non_negative_integer_raises(key):
    for seed in (1, seed_sequence(1)):
        with pytest.raises(ValueError, match=r"^stream keys must be non-negative integers, got \["):
            seed_sequence(seed, 4, key)
        with pytest.raises(ValueError, match=r"^stream keys must be non-negative integers, got \["):
            generator(seed, key)


def test_a_numpy_integer_key_draws_the_stream_of_its_int():
    for key in (np.int64(2), np.uint8(2)):
        assert np.array_equal(generator(1, key).random(4), generator(1, 2).random(4))
