"""Property tests: the per-iteration functions against reference forms.

Each function that every lockstep iteration pays for is compared bit for
bit with a plainer formulation written out here: the step-size rule with
three masked passes, the piecewise drift through ``np.piecewise``, and the
point-set distance as a min-reduce over all points.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_em.cli import ExpressionFunction
from adaptive_em.geometry import PointSet1D
from adaptive_em.solver import StepSizeParams, step_size, step_size_from_distance
from adaptive_em.transform1d import PiecewiseDrift1D

# bitwise, and of the same shape and dtype
assert_equal = functools.partial(np.testing.assert_array_equal, strict=True)


def _step_size_reference(dist, p):
    dist = np.asarray(dist, dtype=float)
    ratio = dist / p.eps1
    ramp = p.delta * ratio * ratio
    h = np.minimum(p.delta, np.maximum(p.delta_sq, ramp))
    h = np.where(dist < p.eps2, p.delta_sq, h)
    h = np.where(dist == p.eps2, p.delta_sq, h)
    h = np.where(dist >= p.eps1, p.delta, h)
    return h


params_st = st.builds(
    StepSizeParams,
    delta=st.one_of(
        st.sampled_from([2.0**-k for k in range(1, 14)]),
        st.floats(1e-6, 0.99),
    ),
    eps0=st.just(1.0),
    sigma_sup=st.floats(0.05, 5.0),
)

# a distance is a plain value or one that sits on, or one ulp off, a band edge
_EDGES = ("eps2", "eps1")


def _distance(p, kind, value):
    if kind == "plain":
        return value
    edge, step = kind
    return np.nextafter(getattr(p, edge), step * math.inf) if step else getattr(p, edge)


distance_kind_st = st.one_of(
    st.just("plain"),
    st.tuples(st.sampled_from(_EDGES), st.sampled_from((-1, 0, 1))),
)
distance_value_st = st.one_of(
    st.floats(0.0, 20.0), st.just(math.inf), st.just(math.nan)
)


@settings(max_examples=200, deadline=None)
@given(p=params_st, cells=st.lists(st.tuples(distance_kind_st, distance_value_st), max_size=40))
def test_step_size_matches_reference(p, cells):
    dist = np.array([_distance(p, k, v) for k, v in cells], dtype=float)
    assert_equal(step_size_from_distance(dist, p), _step_size_reference(dist, p))


@settings(max_examples=200, deadline=None)
@given(p=params_st, kind=distance_kind_st, value=distance_value_st)
def test_step_size_scalar_matches_reference(p, kind, value):
    d = _distance(p, kind, value)
    h = step_size_from_distance(d, p)
    assert np.ndim(h) == 0
    assert_equal(h, _step_size_reference(d, p))
    if math.isfinite(d):
        # the scalar solver path reads a point's distance through the same rule
        surface = PointSet1D((0.0,))
        assert step_size(np.array([d]), p, surface) == float(_step_size_reference(d, p))


def _piecewise_reference(drift, x):
    x = np.asarray(x, dtype=float)
    bp = drift.breakpoints
    conds = [x < bp[0]]
    conds += [(a <= x) & (x < b) for a, b in zip(bp, bp[1:])]
    conds.append(x >= bp[-1])
    return np.piecewise(x, conds, list(drift.branches))


def _confined(lo, hi, f):
    """Branch that raises when asked about a point outside ``[lo, hi]``."""

    def branch(x):
        x = np.asarray(x, dtype=float)
        if np.any((x < lo) | (x > hi)):
            raise AssertionError(f"branch on [{lo}, {hi}] got {x}")
        return f(x)

    return branch


DRIFTS = {
    "linear": PiecewiseDrift1D(
        breakpoints=(-1.0, 0.5, 2.0),
        branches=(
            lambda x: 3.0 * x + 1.0,
            lambda x: -2.0 * x,
            lambda x: x * x,
            lambda x: 0.25 * x - 4.0,
        ),
    ),
    # config branches may be bare constants
    "constants": PiecewiseDrift1D(
        breakpoints=(0.0, 1.0),
        branches=(
            ExpressionFunction("1.0", ("x",)),
            ExpressionFunction("sin(x)", ("x",)),
            ExpressionFunction("-2", ("x",)),
        ),
    ),
    "confined": PiecewiseDrift1D(
        breakpoints=(0.0, 1.0),
        branches=(
            _confined(-math.inf, 0.0, lambda x: -2.0 * np.ones_like(x)),
            _confined(0.0, 1.0, lambda x: x * x),
            _confined(1.0, math.inf, lambda x: 2.0 / x - 3.0 / (x * x)),
        ),
    ),
}


def _points_st(drift):
    bp = drift.breakpoints
    return st.one_of(
        st.floats(-4.0, 4.0),
        st.sampled_from(bp),
        st.sampled_from([np.nextafter(b, s) for b in bp for s in (-math.inf, math.inf)]),
    )


@pytest.mark.parametrize("name", sorted(DRIFTS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_piecewise_drift_matches_np_piecewise(name, data):
    drift = DRIFTS[name]
    points = _points_st(drift)
    # one branch's interior, or points from anywhere
    if data.draw(st.booleans(), label="uniform"):
        lo, hi = data.draw(
            st.sampled_from(list(zip((-4.0,) + drift.breakpoints, drift.breakpoints + (4.0,))))
        )
        points = st.floats(lo, hi, exclude_max=True)
    xs = data.draw(st.lists(points, max_size=30), label="xs")
    x = np.array(xs, dtype=float)
    assert_equal(drift(x), _piecewise_reference(drift, x))
    if x.size % 2 == 0:
        grid = x.reshape(2, -1)
        assert_equal(drift(grid), _piecewise_reference(drift, grid))


@pytest.mark.parametrize("name", sorted(DRIFTS))
def test_piecewise_drift_edge_inputs(name):
    drift = DRIFTS[name]
    for x in [np.array(0.3), np.array(drift.breakpoints[0]), np.array(-7.5)]:
        assert_equal(drift(x), _piecewise_reference(drift, x))
    empty = np.zeros(0)
    assert_equal(drift(empty), _piecewise_reference(drift, empty))
    # NaN lies in no branch and reads 0, as with np.piecewise
    if name != "confined":
        x = np.array([np.nan, 0.5, np.nan])
        assert_equal(drift(x), _piecewise_reference(drift, x))
        assert_equal(drift(np.array([np.nan])), np.zeros(1))


def _distance_reference(surface, x):
    x = np.asarray(x, dtype=float)
    s = x[..., 0] if x.ndim and x.shape[-1] == 1 else x
    return np.min(np.abs(s[..., None] - np.asarray(surface.points)), axis=-1)


@settings(max_examples=200, deadline=None)
@given(
    points=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=5, unique=True),
    xs=st.lists(
        st.one_of(st.floats(-20.0, 20.0), st.just(math.inf), st.just(math.nan)),
        max_size=30,
    ),
)
def test_point_set_distance_matches_min_reduce(points, xs):
    surface = PointSet1D(tuple(sorted(points)))
    x = np.array(xs, dtype=float)
    for batch in (x, x[:, None]):
        assert_equal(surface.distance(batch), _distance_reference(surface, batch))
    for v in xs[:3]:
        assert_equal(surface.distance(v), _distance_reference(surface, v))
