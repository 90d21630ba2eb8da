import numpy as np
import pytest

from chebykan import ndcore
from chebykan.ndcore import Rng, ShapeError


def test_rng_same_seed_and_stream_reproduces():
    a = Rng(7, "x").normal(0.0, 1.0, (4, 3))
    b = Rng(7, "x").normal(0.0, 1.0, (4, 3))
    np.testing.assert_array_equal(a, b)


def test_rng_streams_are_independent():
    a = Rng(7, "x").normal(0.0, 1.0, 100)
    b = Rng(7, "y").normal(0.0, 1.0, 100)
    assert not np.array_equal(a, b)


def test_rng_substream_differs_from_parent():
    root = Rng(7, "train")
    child = root.substream("shuffle")
    assert child.stream == "train/shuffle"
    a = Rng(7, "train").uniform(0, 1, 50)
    b = Rng(7, "train/shuffle").uniform(0, 1, 50)
    assert not np.array_equal(a, b)
    np.testing.assert_array_equal(child.uniform(0, 1, 50), b)


def test_rng_rejects_bad_params():
    r = Rng(0, "t")
    with pytest.raises(ValueError):
        r.uniform(2.0, 1.0, 3)
    with pytest.raises(ValueError):
        r.normal(0.0, -1.0, 3)


def test_permutation_covers_range():
    p = Rng(3, "perm").permutation(10)
    assert sorted(p.tolist()) == list(range(10))


def test_as_mat_rejects_wrong_rank():
    with pytest.raises(ShapeError):
        ndcore.as_mat(np.zeros((2, 2, 2)))
