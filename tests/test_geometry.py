import dataclasses
import pickle

import numpy as np
import pytest

from adaptive_em.geometry import Circle2D, Hyperplane, PointSet1D


def test_pointset_distance_examples():
    s = PointSet1D(points=(0.0, 1.0))
    assert s.distance(1.5) == 0.5
    assert s.distance(0.3) == pytest.approx(0.3)
    assert s.distance(-2.0) == 2.0
    assert s.distance(0.0) == 0.0


def test_pointset_cache_stays_out_of_eq_hash_repr_and_fields():
    s, t = PointSet1D(points=(0.0, 1.0)), PointSet1D(points=(0, 1))
    assert [f.name for f in dataclasses.fields(s)] == ["points"]
    assert repr(s) == "PointSet1D(points=(0.0, 1.0))"
    assert s == t and hash(s) == hash(t)
    for cache, p in zip(s._points_0d, s.points, strict=True):
        assert isinstance(cache, np.ndarray) and cache.shape == () and cache.dtype == np.float64
        assert cache == p
    # worker processes receive the surface by pickle
    clone = pickle.loads(pickle.dumps(s))
    assert clone == s and hash(clone) == hash(s) and repr(clone) == repr(s)
    x = np.linspace(-1.0, 2.0, 61)[:, None]
    np.testing.assert_array_equal(clone.distance(x), s.distance(x), strict=True)


def test_pointset_projection_and_normal():
    # the reach is half the smallest gap between points, infinite for one point
    s = PointSet1D(points=(0.0, 1.0))
    single = PointSet1D(points=(0.0,))
    assert single.reach == np.inf
    assert s.reach == 0.5


def test_pointset_requires_increasing_points():
    with pytest.raises(ValueError):
        PointSet1D(points=(1.0, 0.0))
    with pytest.raises(ValueError):
        PointSet1D(points=(0.0, 0.0))


def test_hyperplane_examples():
    s = Hyperplane(normal=(1.0, 0.0), offset=0.0)
    assert s.distance(np.array([-3.0, 7.0])) == 3.0
    assert s.reach == np.inf


def test_hyperplane_normal_must_be_unit():
    with pytest.raises(ValueError):
        Hyperplane(normal=(2.0, 0.0), offset=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_surfaces_reject_non_finite_geometry(bad):
    with pytest.raises(ValueError, match="normal must be a finite"):
        Hyperplane(normal=(bad, 0.0), offset=0.0)
    with pytest.raises(ValueError, match="center must be a finite"):
        Circle2D(center=(0.0, bad), radius=1.0)


def test_circle_examples():
    s = Circle2D(center=(0.0, 0.0), radius=1.0)
    assert s.distance(np.array([0.0, 0.0])) == 1.0
    assert s.reach == 1.0


def test_distance_is_one_lipschitz():
    rng = np.random.default_rng(7)
    surfaces = [
        PointSet1D(points=(-1.0, 0.5, 2.0)),
        Hyperplane(normal=(0.6, 0.8), offset=0.3),
        Circle2D(center=(0.2, -0.1), radius=1.3),
    ]
    for s in surfaces:
        d = 1 if isinstance(s, PointSet1D) else 2
        x = rng.normal(scale=3.0, size=(10_000, d))
        y = rng.normal(scale=3.0, size=(10_000, d))
        dx = np.array([s.distance(a if d > 1 else a[0]) for a in x])
        dy = np.array([s.distance(a if d > 1 else a[0]) for a in y])
        gap = np.linalg.norm(x - y, axis=1)
        assert np.all(np.abs(dx - dy) <= gap + 1e-12)


def test_projection_properties_inside_reach():
    # inside the reach the distance is the gap between radius and radial part
    rng = np.random.default_rng(11)
    s = Circle2D(center=(0.0, 0.0), radius=1.0)
    theta = rng.uniform(0.0, 2 * np.pi, size=500)
    r = rng.uniform(0.4, 1.6, size=500)
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    np.testing.assert_allclose(s.distance(pts), np.abs(r - 1.0), atol=1e-10)


def test_distance_rejects_dimension_mismatch():
    s = Circle2D(center=(0.0, 0.0), radius=1.0)
    with pytest.raises(ValueError):
        s.distance(np.array([1.0, 2.0, 3.0]))
