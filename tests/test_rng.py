"""Named-stream RNG tests."""

import numpy as np

from cmvqa.numerics import Rng


def test_same_seed_same_stream():
    a = Rng(7).gen.standard_normal(10)
    b = Rng(7).gen.standard_normal(10)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = Rng(7).gen.standard_normal(10)
    b = Rng(8).gen.standard_normal(10)
    assert not np.array_equal(a, b)


def test_children_are_independent_of_draw_order():
    root = Rng(3)
    first = root.child("data").gen.standard_normal(5)
    # drawing from another child must not disturb the "data" stream
    root2 = Rng(3)
    root2.child("model").gen.standard_normal(100)
    second = root2.child("data").gen.standard_normal(5)
    assert np.array_equal(first, second)


def test_sibling_streams_differ():
    root = Rng(3)
    a = root.child("a").gen.standard_normal(5)
    b = root.child("b").gen.standard_normal(5)
    assert not np.array_equal(a, b)


def test_nested_children_deterministic():
    a = Rng(11).child("x").child("y").gen.integers(0, 1000, 8)
    b = Rng(11).child("x").child("y").gen.integers(0, 1000, 8)
    assert np.array_equal(a, b)


def test_child_stream_does_not_depend_on_reading_the_parent():
    """A node builds its generator on first read; reading the parent's first
    (and drawing from it) leaves every child's stream as it is."""
    untouched = Rng(5).child("a").child("b").gen.standard_normal(6)
    root = Rng(5)
    root.gen.standard_normal(50)
    middle = root.child("a")
    middle.gen.standard_normal(50)
    assert np.array_equal(middle.child("b").gen.standard_normal(6), untouched)
    assert root.gen is root.gen
