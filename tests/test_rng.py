"""Counter-based stream discipline: same coordinates, same numbers."""

import numpy as np

from anisopriv import rng
from anisopriv.rng import derive_seed, step_normals, tagged_stream


def test_step_normals_reproducible():
    a = step_normals(123, 7, (4, 3))
    b = step_normals(123, 7, (4, 3))
    assert np.array_equal(a, b)


def test_step_normals_depend_on_seed_and_step():
    base = step_normals(1, 0, (8, 2))
    assert not np.array_equal(base, step_normals(2, 0, (8, 2)))
    assert not np.array_equal(base, step_normals(1, 1, (8, 2)))


def test_step_normals_prefix_stable():
    # growing the path count must not change existing (path, coord) values
    small = step_normals(9, 5, (5, 3))
    big = step_normals(9, 5, (50, 3))
    assert np.array_equal(big[:5], small)


def test_step_normals_shapes():
    assert step_normals(0, 0, (2, 4)).shape == (2, 4)
    assert step_normals(0, 10**6, (1, 1)).shape == (1, 1)


def test_tagged_stream_independent_per_tag():
    a = tagged_stream(5, 1).standard_normal(16)
    b = tagged_stream(5, 2).standard_normal(16)
    c = tagged_stream(5, 1).standard_normal(16)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)


def test_stream_tags_are_distinct():
    tags = {name: tag for name, tag in vars(rng).items() if name.endswith("_TAG")}
    assert len(tags) >= 5  # init, batch, noise, synth_blobs, adjacency
    assert len(set(tags.values())) == len(tags)


def test_derive_seed_deterministic_and_distinct():
    s = derive_seed(42, 0, 1)
    assert s == derive_seed(42, 0, 1)
    seen = {derive_seed(42, i, j) for i in range(6) for j in range(6)}
    assert len(seen) == 36
    assert all(0 <= v < 2**64 for v in seen)


def test_derive_seed_order_sensitive():
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
