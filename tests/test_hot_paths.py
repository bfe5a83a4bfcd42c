"""Property tests: the per-iteration functions against reference forms.

Each function that every lockstep iteration pays for is compared bit for
bit with a plainer formulation written out here: the step-size rule with
three masked passes, the piecewise drift through ``np.piecewise``, the
point-set distance as a min-reduce over all points, and the transformed
coefficients through the public inverse and derivatives of the transform.
The transform's round trip and monotonicity are checked as well.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_em.cli import ExpressionFunction, problem_from_config
from adaptive_em.geometry import PointSet1D
from adaptive_em.problems import get_example
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


_, _CONFIG_TRANSFORM = problem_from_config(
    {
        "dimension": 1,
        "surface": {"type": "points1d", "points": [-0.5, 0.25, 1.0]},
        "drift": {
            "breakpoints": [-0.5, 0.25, 1.0],
            "branches": ["1.0", "2*x", "-x*x", "sin(x) - 2"],
        },
        "diffusion": "1 + 0.25*sin(x)",
        "x0": [0.0],
        "horizon": 1.0,
        "eps0": 0.3,
        "sigma_sup": 1.25,
        "mu_sup": 3.0,
    }
)

TRANSFORMS = {
    "example1": get_example("example1").transform(),
    "example2": get_example("example2").transform(),
    "config": _CONFIG_TRANSFORM,
}


def _coeffs_reference(tr, z):
    x = tr.inverse(z)
    gp = tr.derivative(x)
    gs = tr.second_derivative(x)
    sg = np.asarray(tr.sigma(x), dtype=float)
    mu = np.asarray(tr.drift(x), dtype=float)
    return gp * mu + 0.5 * sg * sg * gs, gp * sg


def _assert_same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_equal(g, w)
        assert type(g) is type(w)
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def _transform_points_st(tr):
    # anywhere, inside one bump, on or one ulp off a bump edge or a
    # breakpoint, signed zeros and NaN
    c = tr.params.c
    bp = tr.drift.breakpoints
    marks = [m for b in bp for m in (b - c, b, b + c)]
    return st.one_of(
        st.floats(-4.0, 4.0),
        st.sampled_from((0.0, -0.0)),
        st.sampled_from(bp).flatmap(lambda b: st.floats(b - c, b + c)),
        st.sampled_from(marks),
        st.sampled_from([np.nextafter(m, s) for m in marks for s in (-math.inf, math.inf)]),
        st.just(math.nan),
    )


def _region_st(tr):
    # one bump interval, or one stretch between two bumps
    c = tr.params.c
    bp = tr.drift.breakpoints
    bumps = [(b - c, b + c) for b in bp]
    gaps = list(zip((-4.0,) + tuple(b + c for b in bp), tuple(b - c for b in bp) + (4.0,)))
    return st.sampled_from(bumps + gaps).flatmap(lambda ab: st.floats(*ab))


@pytest.mark.parametrize("name", sorted(TRANSFORMS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_transformed_coeffs_match_reference(name, data):
    tr = TRANSFORMS[name]
    points = _region_st(tr) if data.draw(st.booleans(), label="uniform") else _transform_points_st(tr)
    z = np.array(data.draw(st.lists(points, max_size=40), label="zs"), dtype=float)
    _assert_same_bits(tr.transformed_coeffs(z), _coeffs_reference(tr, z))
    if z.size % 2 == 0:
        grid = z.reshape(2, -1)
        _assert_same_bits(tr.transformed_coeffs(grid), _coeffs_reference(tr, grid))


@pytest.mark.parametrize("name", sorted(TRANSFORMS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_transformed_coeffs_scalar_match_reference(name, data):
    # the sequential reference run passes one float per step
    tr = TRANSFORMS[name]
    z = data.draw(_transform_points_st(tr), label="z")
    got = tr.transformed_coeffs(z)
    assert np.ndim(got[0]) == np.ndim(got[1]) == 0
    _assert_same_bits(got, _coeffs_reference(tr, z))


@pytest.mark.parametrize("name", sorted(TRANSFORMS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_transform_round_trip_and_monotone(name, data):
    tr = TRANSFORMS[name]
    points = _transform_points_st(tr).filter(math.isfinite)
    x = np.sort(np.array(data.draw(st.lists(points, min_size=1, max_size=40), label="xs")))
    z = tr.value(x)
    assert np.all(np.diff(z) >= 0.0)
    np.testing.assert_allclose(tr.inverse(z), x, rtol=0.0, atol=1e-10)
    assert float(tr.inverse(float(z[0]))) == pytest.approx(float(x[0]), abs=1e-10)
