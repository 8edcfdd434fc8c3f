import numpy as np
import pytest

from hplab.rng import RngStream


def test_same_key_reproduces():
    a = RngStream(123).substream(4).random(10)
    b = RngStream(123).substream(4).random(10)
    assert np.array_equal(a, b)


def test_distinct_keys_differ():
    a = RngStream(123).substream(0).random(8)
    b = RngStream(123).substream(1).random(8)
    c = RngStream(124).substream(0).random(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_substream_deterministic_and_distinct():
    root = RngStream(9)
    s0 = root.substream(0).random(6)
    s1 = root.substream(1).random(6)
    again = RngStream(9).substream(0).random(6)
    assert np.array_equal(s0, again)
    assert not np.array_equal(s0, s1)


def test_substream_independent_of_parent_consumption():
    root = RngStream(9)
    root.random(1000)
    assert np.array_equal(root.substream(3).random(5), RngStream(9).substream(3).random(5))


def test_nested_substreams():
    a = RngStream(1).substream(2).substream(7).random(4)
    b = RngStream(1).substream(2).substream(7).random(4)
    assert np.array_equal(a, b)


def test_seed_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(2**64)
    with pytest.raises(ValueError):
        RngStream(0).substream(-1)


def test_standard_normal_shape():
    x = RngStream(5).standard_normal((3, 4))
    assert x.shape == (3, 4)
