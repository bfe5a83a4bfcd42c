import hashlib
import math

import numpy as np
import pytest
from oracles import CONFIG_TRANSFORM

from adaptive_em import transform1d
from adaptive_em.problems import get_example
from adaptive_em.transform1d import (
    DegenerateDiffusionError,
    PiecewiseDrift1D,
    RootFindError,
    Transform1D,
    _bump,
)

EX1 = get_example("example1")
EX2 = get_example("example2")


def _unit_sigma(x):
    return np.ones_like(np.asarray(x, dtype=float))


def test_piecewise_drift_right_continuous_values():
    mu = EX1.problem.drift.f
    assert mu(-0.5) == -2.0
    assert mu(0.0) == 0.0  # square branch owns the breakpoint
    assert mu(0.5) == 0.25
    assert mu(1.0) == -1.0  # 2/x - 3/x^2 branch owns the breakpoint
    assert mu(2.0) == pytest.approx(0.25)
    mu2 = EX2.problem.drift.f
    assert mu2(-1.5) == -1.0
    assert mu2(-1.0) == 1.0
    assert mu2(2.0) == -4.0


def test_piecewise_drift_vectorized_matches_scalar():
    mu = EX1.problem.drift.f
    xs = np.array([-1.0, -0.5, 0.0, 0.3, 0.999, 1.0, 1.7])
    np.testing.assert_array_equal(mu(xs), [float(mu(x)) for x in xs])


def test_piecewise_drift_validation():
    with pytest.raises(ValueError):
        PiecewiseDrift1D(breakpoints=(1.0, 0.0), branches=(abs, abs, abs))
    with pytest.raises(ValueError):
        PiecewiseDrift1D(breakpoints=(0.0,), branches=(abs,))
    # a branch that itself jumps at the breakpoint: its value there is not
    # its limit from the left
    with pytest.raises(ValueError, match="left limit"):
        PiecewiseDrift1D(
            breakpoints=(0.0,),
            branches=(lambda x: np.where(x < 0, 5.0, 0.0), lambda x: x),
        )


@pytest.mark.parametrize("slope", [150.0, 1e4])
def test_steep_continuous_branches_are_accepted(slope):
    # the cross-check just off a breakpoint allows for the branch's own slope
    for sign in (1.0, -1.0):
        mu = PiecewiseDrift1D(
            breakpoints=(0.0,),
            branches=(lambda x: 1.0 + sign * slope * x, lambda x: -1.0 - sign * slope * x),
        )
        assert (mu.left_limits, mu.right_limits) == ((1.0,), (-1.0,))
    smooth = PiecewiseDrift1D(
        breakpoints=(0.5,), branches=(lambda x: slope * x, lambda x: slope * x)
    )
    assert smooth.left_limits == smooth.right_limits == (slope * 0.5,)


def test_piecewise_drift_without_breakpoints():
    mu = PiecewiseDrift1D(breakpoints=(), branches=(np.sin,))
    assert mu(0.3) == np.sin(0.3)


def test_alpha_examples():
    np.testing.assert_allclose(EX1.transform()._alphas, [-1.0, 16.0 / 9.0])
    np.testing.assert_allclose(EX2.transform()._alphas, [-1.0, 2.5])


def test_alpha_zero_for_continuous_drift():
    mu = PiecewiseDrift1D(breakpoints=(0.0,), branches=(lambda x: x, lambda x: x))
    assert Transform1D(mu, _unit_sigma, eps0=1.0)._alphas.tolist() == [0.0]


def test_alpha_rejects_zero_diffusion():
    with pytest.raises(DegenerateDiffusionError, match="breakpoint 0.0"):
        Transform1D(EX1.problem.drift.f, lambda x: 0.0, eps0=0.4)


def test_alpha_rejects_diffusion_whose_square_underflows():
    # 1e-200 squared is 0.0, which the jump strength would divide by
    with pytest.raises(DegenerateDiffusionError, match="breakpoint 0.0"):
        Transform1D(EX1.problem.drift.f, lambda x: 1e-200, eps0=0.4)


def test_bump_values():
    assert _bump(0.0) == 1.0
    assert _bump(0.5) == 0.31640625
    assert _bump(1.0) == 0.0
    assert _bump(1.5) == 0.0
    # quartic contact at the support edge
    assert _bump(1.0 - 1e-3) < 2e-11


def test_transform_default_radius_and_fixed_points():
    tr = EX1.transform()
    assert 0.0 < tr.c <= 0.2
    for xi in (0.0, 1.0):
        assert tr.value(xi) == xi
        assert tr.derivative(xi) == 1.0
    # identity away from every bump interval
    far = np.array([-1.5, 0.5, 2.5])
    np.testing.assert_array_equal(tr.value(far), far)
    np.testing.assert_array_equal(tr.inverse(far), far)
    np.testing.assert_array_equal(tr.derivative(far), np.ones(3))
    np.testing.assert_array_equal(tr.second_derivative(far), np.zeros(3))


def test_transform_monotone_with_positive_slope():
    for entry in (EX1, EX2):
        tr = entry.transform()
        z = np.linspace(-3.0, 4.0, 20001)
        vals = tr.value(z)
        assert np.all(np.diff(vals) > 0.0)
        assert tr.derivative(z).min() >= 0.1


def test_transform_roundtrip():
    rng = np.random.default_rng(4)
    for entry in (EX1, EX2):
        tr = entry.transform()
        x = rng.uniform(-2.5, 3.5, 10_000)
        z = tr.value(x)
        np.testing.assert_allclose(tr.inverse(z), x, atol=1e-10)
    tr = EX1.transform()
    assert float(tr.inverse(tr.value(0.05))) == pytest.approx(0.05, abs=1e-10)


def test_transform_derivatives_match_finite_differences():
    tr = EX1.transform()
    h = 1e-6
    # stay away from breakpoints and bump edges, where branches switch
    edges = [b + s * tr.c for b in (0.0, 1.0) for s in (-1.0, 0.0, 1.0)]
    x = np.linspace(-0.6, 1.6, 1501)
    keep = np.ones(x.shape, dtype=bool)
    for e in edges:
        keep &= np.abs(x - e) > 1e-3
    x = x[keep]
    d1 = (tr.value(x + h) - tr.value(x - h)) / (2.0 * h)
    np.testing.assert_allclose(tr.derivative(x), d1, atol=1e-5)
    d2 = (tr.derivative(x + h) - tr.derivative(x - h)) / (2.0 * h)
    np.testing.assert_allclose(tr.second_derivative(x), d2, atol=1e-4)


def test_transformed_drift_is_continuous_at_breakpoints():
    h = 1e-6
    for entry in (EX1, EX2):
        tr = entry.transform()
        for xi in entry.problem.drift.f.breakpoints:
            mu_l, sg_l = tr.transformed_coeffs(xi - h)
            mu_r, sg_r = tr.transformed_coeffs(xi + h)
            assert float(mu_l) == pytest.approx(float(mu_r), abs=1e-4)
            assert float(sg_l) == pytest.approx(float(sg_r), abs=1e-4)


def test_transformed_coeffs_have_bounded_slopes():
    z = np.linspace(-2.5, 3.5, 120_001)
    for entry in (EX1, EX2):
        tr = entry.transform()
        mu, sg = tr.transformed_coeffs(z)
        assert np.all(np.isfinite(mu)) and np.all(np.isfinite(sg))
        assert np.abs(np.diff(mu) / np.diff(z)).max() < 150.0
        assert np.abs(np.diff(sg) / np.diff(z)).max() < 20.0


def test_transformed_drift_value_at_zero():
    # at 0+ the original drift vanishes, so only the Ito term is left:
    # 0.5 * sigma(0)^2 * alpha * psi''(0+) = 0.5 * 1 * (-1) * 2 = -1
    tr = EX1.transform()
    mu, sg = tr.transformed_coeffs(0.0)
    assert float(mu) == pytest.approx(-1.0)
    assert float(sg) == pytest.approx(1.0)


def test_auto_radius_shrinks_until_slope_floor_holds():
    steep = PiecewiseDrift1D(
        breakpoints=(0.0,),
        branches=(lambda x: 100.0 + 0.0 * x, lambda x: 0.0 * x),
    )
    tr = Transform1D(steep, _unit_sigma, eps0=1.0)
    assert tr.c < 0.5
    z = np.linspace(-1.0, 1.0, 4001)
    assert tr.derivative(z).min() >= 0.1
    np.testing.assert_allclose(tr.inverse(tr.value(z)), z, atol=1e-10)


def test_degenerate_diffusion_rejected_at_construction():
    mu = PiecewiseDrift1D(
        breakpoints=(0.0,), branches=(lambda x: 1.0 + 0.0 * x, lambda x: 0.0 * x)
    )
    with pytest.raises(DegenerateDiffusionError):
        Transform1D(mu, lambda x: 0.0 * np.asarray(x), eps0=1.0)


def test_inverse_iteration_cap(monkeypatch):
    tr = EX1.transform()
    monkeypatch.setattr(transform1d, "_MAX_ITER", 1)
    with pytest.raises(RootFindError):
        tr.inverse(0.1)


def test_identity_transform_without_breakpoints():
    mu = PiecewiseDrift1D(breakpoints=(), branches=(np.cos,))
    tr = Transform1D(mu, _unit_sigma, eps0=1.0)
    z = np.linspace(-2.0, 2.0, 101)
    np.testing.assert_array_equal(tr.value(z), z)
    np.testing.assert_array_equal(tr.inverse(z), z)
    mu_g, sg_g = tr.transformed_coeffs(z)
    np.testing.assert_allclose(mu_g, np.cos(z))
    np.testing.assert_allclose(sg_g, np.ones_like(z))


# sha256 prefixes of each public method's outputs at the edge inputs below:
# the type, dtype, shape and bytes of every output, in input order
_EDGE_DIGESTS = {
    "example1": {
        "value": "6ba947304bc5f206",
        "derivative": "6f5573c3fcebe42a",
        "second_derivative": "072995530867aef4",
        "inverse": "4dba445d627cec0f",
        "transformed_coeffs": "ebfa54bc4281fc7b",
    },
    "example2": {
        "value": "182f20b8e7139a48",
        "derivative": "6654873b5f7cc1ad",
        "second_derivative": "d0ba2692368d7a41",
        "inverse": "14c2dff6dc85c959",
        "transformed_coeffs": "49ef5c5e9c5b0df1",
    },
    "config": {
        "value": "5c42526fc4b4fb63",
        "derivative": "dd0416239cac7b3e",
        "second_derivative": "26c55c2521c87d86",
        "inverse": "bd54163041ec9142",
        "transformed_coeffs": "cbfb1734993180f1",
    },
}


def _edge_inputs(tr):
    # both zeros (offsets +0.0 and -0.0 at a breakpoint at 0), NaN and both
    # infinities; per breakpoint b a point inside its bump, and b, fl(b - c)
    # and fl(b + c) with one ulp either side.  Each point alone as a float,
    # then the first as a 0-d array, all of them as a 1-D array, as a 2-D
    # array and as that array's transpose, which is not C-contiguous
    c = tr.c
    pts = [0.0, -0.0, math.nan, math.inf, -math.inf]
    for b in tr.drift.breakpoints:
        pts.append(b + 0.5 * c)
        for m in (b, b - c, b + c):
            pts += [m, float(np.nextafter(m, -math.inf)), float(np.nextafter(m, math.inf))]
    grid = np.array(pts).reshape(-1, 5)
    return [*pts, np.array(pts[0]), np.array(pts), grid, grid.T]


def _digest(outs):
    h = hashlib.sha256()
    for out in outs:
        for v in out if isinstance(out, tuple) else (out,):
            a = np.asarray(v)
            h.update(f"{type(v).__name__} {a.dtype.str} {a.shape} ".encode())
            h.update(a.tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(_EDGE_DIGESTS))
def test_public_outputs_at_edge_inputs_are_pinned(name):
    tr = {
        "example1": EX1.transform(),
        "example2": EX2.transform(),
        "config": CONFIG_TRANSFORM,
    }[name]
    zs = _edge_inputs(tr)
    # the branches overflow or meet inf - inf at the infinities
    with np.errstate(over="ignore", invalid="ignore"):
        got = {m: _digest([getattr(tr, m)(z) for z in zs]) for m in _EDGE_DIGESTS[name]}
    assert got == _EDGE_DIGESTS[name]
