"""Property tests: the per-iteration functions against reference forms.

Each function that every lockstep iteration pays for is compared bit for
bit with a plainer formulation written out here: the step-size rule with
three masked passes, the piecewise drift through ``np.piecewise``, the
point-set distance as a min-reduce over all points, the transformed
coefficients through the public inverse and derivatives of the transform,
the transform's Newton inversion through a frozen copy of an earlier form,
and the knot walker's brackets through a per-lane ``np.searchsorted``.
The transform's round trip and monotonicity are checked as well.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import CONFIG_TRANSFORM, FrozenInverse, step_size

from adaptive_em import _engine, transform1d
from adaptive_em.cli import ExpressionFunction
from adaptive_em.geometry import PointSet1D
from adaptive_em.problems import get_example
from adaptive_em.solver import StepSizeParams, step_size_from_distance
from adaptive_em.transform1d import PiecewiseDrift1D, Transform1D, _psi

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
    if not bp:
        # one branch on the whole line, which NaN is not on
        return np.piecewise(x, [~np.isnan(x)], list(drift.branches))
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
    # no breakpoint: one constant branch fills the line
    "unbroken": PiecewiseDrift1D(breakpoints=(), branches=(ExpressionFunction("1.5", ("x",)),)),
}


def _points_st(drift):
    bp = drift.breakpoints
    if not bp:
        return st.floats(-4.0, 4.0)
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
    for x in [np.array(0.3), np.array((drift.breakpoints or (0.0,))[0]), np.array(-7.5)]:
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


TRANSFORMS = {
    "example1": get_example("example1").transform(),
    "example2": get_example("example2").transform(),
    "config": CONFIG_TRANSFORM,
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
    c = tr.c
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
    c = tr.c
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


def _assert_matches_frozen(tr, frozen, z):
    _assert_same_bits((tr.inverse(z),), (frozen.inverse(z),))
    _assert_same_bits(tr.transformed_coeffs(z), frozen.transformed_coeffs(z))


@pytest.mark.parametrize("name", sorted(TRANSFORMS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_newton_matches_frozen_copy(name, data):
    # the reference above inverts through the same Newton; this one does not
    tr = TRANSFORMS[name]
    frozen = FrozenInverse(tr)
    points = _region_st(tr) if data.draw(st.booleans(), label="uniform") else _transform_points_st(tr)
    z = np.array(data.draw(st.lists(points, max_size=40), label="zs"), dtype=float)
    _assert_matches_frozen(tr, frozen, z)
    if z.size % 2 == 0:
        _assert_matches_frozen(tr, frozen, z.reshape(2, -1))
    _assert_matches_frozen(tr, frozen, data.draw(_transform_points_st(tr), label="z"))


def _unit_sigma(x):
    return np.ones_like(np.asarray(x, dtype=float))


def test_newton_bisection_matches_frozen_copy():
    # a jump of 100 bends the map so far that Newton steps leave the bracket
    steep = PiecewiseDrift1D(
        breakpoints=(0.0,), branches=(lambda x: 100.0 + 0.0 * x, lambda x: 0.0 * x)
    )
    tr = Transform1D(steep, _unit_sigma, eps0=1.0)
    frozen = FrozenInverse(tr)
    c = tr.c
    z = np.linspace(-c, c, 801)
    _assert_matches_frozen(tr, frozen, z)
    assert frozen.bisections > 0


def test_newton_stops_at_exactly_the_tolerance():
    # a jump strength chosen so that the first residual at z = 0 is _TOL to
    # the bit: the lane is done at once, and a strict test would step on
    xi = 2.0**-20
    s = np.array(-xi)
    p = _psi(s, np.abs(s), np.abs(s) / 0.5)
    a = transform1d._TOL / p
    drift = PiecewiseDrift1D(
        breakpoints=(xi,), branches=(lambda x: 2.0 * a + 0.0 * x, lambda x: 0.0 * x)
    )
    tr = Transform1D(drift, _unit_sigma, eps0=1.0)
    assert tr.c == 0.5
    assert abs(tr._alphas[0] * p) == transform1d._TOL
    z = np.array([0.0, -0.0, xi / 2.0])
    _assert_matches_frozen(tr, FrozenInverse(tr), z)
    assert tr.inverse(0.0) == 0.0


def _bracket_reference(kt, kw, t_node, w_node, t_next):
    # one lane's knots past knot 0: the last knot in (t_node, t_next] if
    # any, else the node, and the first knot past t_next, or +inf and the
    # last knot's value, which is not read, when there is none
    j = int(np.searchsorted(kt, t_next, side="right"))
    passed = j > int(np.searchsorted(kt, t_node, side="right"))
    g = min(j, kt.size - 1)
    return (
        kt[j - 1] if passed else t_node,
        kw[j - 1] if passed else w_node,
        kt[j] if j < kt.size else np.inf,
        kw[g],
        j < kt.size,
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_knot_walker_matches_searchsorted(data):
    # knots on a 1/16 grid, the horizon 1 among them and often more past it;
    # steps of 1/16 to 10/16 land on knots, pass none, one or several, and
    # run past the last knot; random lanes retire after every query
    n = data.draw(st.integers(1, 6), label="lanes")
    ticks = [
        sorted(data.draw(st.sets(st.integers(1, 40), max_size=12), label="knots") | {16})
        for _ in range(n)
    ]
    # the store in drawing order: entry i is lane i's knot 0 (round 0), and
    # round j holds the j-th knot of each lane that has one, linked from the
    # lane's knot of round j - 1
    ticks = [[0, *lane] for lane in ticks]
    order = sorted((j, i) for i in range(n) for j in range(len(ticks[i])))
    kt = np.array([ticks[i][j] for j, i in order]) / 16.0
    kw = np.stack([np.arange(kt.size) + 0.5, -kt], axis=1)
    kw[:n] = 0.0
    at = {key: a for a, key in enumerate(order)}
    nxt = np.array([at.get((j + 1, i), -1) for j, i in order])
    kc = np.array([len(lane) for lane in ticks], dtype=np.uint64)
    walker = _engine._KnotWalker({"kt": kt, "kw": kw, "nxt": nxt, "kc": kc})
    lane_at = [np.array([at[j, i] for j in range(1, len(ticks[i]))]) for i in range(n)]
    lanes = np.arange(n)
    t_node = np.zeros(n)
    w_node = np.zeros((n, 2))
    while lanes.size:
        ticks_ahead = data.draw(
            st.lists(st.integers(1, 10), min_size=lanes.size, max_size=lanes.size), label="steps"
        )
        t_next = t_node + np.array(ticks_ahead) / 16.0
        got = walker.bracket(t_node, w_node, t_next)
        rows = [
            _bracket_reference(kt[lane_at[i]], kw[lane_at[i]], t_node[j], w_node[j], t_next[j])
            for j, i in enumerate(lanes)
        ]
        want = [np.array(v) for v in zip(*rows)]
        has_right = want[4]
        # past the last knot only the right time, +inf, is part of the contract
        for k in (0, 1, 2, 4):
            assert_equal(got[k], want[k])
        assert_equal(got[3][has_right], want[3][has_right])
        keep = np.array(
            data.draw(st.lists(st.booleans(), min_size=lanes.size, max_size=lanes.size), label="keep")
        )
        keep &= t_next < 3.0  # every lane retires once past all knots
        walker.keep(keep)
        lanes, t_node = lanes[keep], t_next[keep]
        w_node = np.stack([t_node, -2.0 * t_node], axis=1)


def _bridged_reference(pt, pw, u_t, u_w, has_right, t_next, counters, dim):
    # every lane through the same masks: the bridge where a right knot
    # exists, a free increment where none does, the left value on a knot
    drew = pt != t_next
    frac = (t_next - pt) / np.where(has_right, u_t - pt, 1.0)
    mean = np.where(has_right[:, None], pw + frac[:, None] * (u_w - pw), pw)
    var = np.where(has_right, frac * (u_t - t_next), frac)
    z = counters.normals(t_next, dim, drew)
    return np.where(drew[:, None], mean + np.sqrt(var)[:, None] * z, pw)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_bridged_values_match_masked_reference(data):
    # lanes on a knot or off it, with a right knot or past the last one, in
    # any mix; left values include signed zeros, which a lane on a knot keeps
    n = data.draw(st.integers(1, 8), label="lanes")
    dim = data.draw(st.sampled_from((1, 2)), label="dim")
    flags = st.lists(st.booleans(), min_size=n, max_size=n)
    on_knot = np.array(data.draw(flags, label="on_knot"))
    has_right = np.array(data.draw(flags, label="has_right"))
    pt = np.array(data.draw(st.lists(st.integers(0, 16), min_size=n, max_size=n))) / 16.0
    ahead = np.array(data.draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))) / 32.0
    t_next = np.where(on_knot, pt, pt + ahead)
    u_t = np.where(has_right, t_next + ahead, pt)
    values = st.one_of(st.floats(-3.0, 3.0), st.sampled_from((0.0, -0.0)))
    pw = np.array(data.draw(st.lists(values, min_size=n * dim, max_size=n * dim))).reshape(n, dim)
    u_w = np.array(data.draw(st.lists(values, min_size=n * dim, max_size=n * dim))).reshape(n, dim)
    keys = np.arange(1, n + 1, dtype=np.uint64)
    kc = np.array(data.draw(st.lists(st.integers(1, 50), min_size=n, max_size=n)), dtype=np.uint64)
    got_c, want_c = _engine._Counters(keys, kc), _engine._Counters(keys, kc)
    got = _engine._bridged_values(pt, pw, u_t, u_w, has_right, t_next, got_c, dim)
    want = _bridged_reference(pt, pw, u_t, u_w, has_right, t_next, want_c, dim)
    assert got.tobytes() == want.tobytes()
    assert_equal(got_c.idx, want_c.idx)
