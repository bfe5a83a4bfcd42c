import dataclasses
import pickle

import numpy as np
import pytest

from adaptive_em.cli import problem_from_config
from adaptive_em.geometry import Circle2D, PointSet1D
from adaptive_em.problems import (
    _EX1_DRIFT,
    _EX2_DRIFT,
    EXAMPLES,
    ExampleEntry,
    _Lift1D,
    _LiftDiffusion1D,
    _ex1_sigma,
    _ex2_sigma,
    example_names,
    get_example,
)
from adaptive_em.solver import SdeProblem
from adaptive_em.transform1d import PiecewiseDrift1D, Transform1D


def test_registry_names():
    assert example_names() == ["example1", "example2", "example3"]
    with pytest.raises(KeyError, match="unknown example"):
        get_example("example9")


def test_example1_fields():
    p = get_example("example1").problem
    assert p.dimension == 1
    assert isinstance(p.surface, PointSet1D)
    assert p.surface.points == (0.0, 1.0)
    np.testing.assert_array_equal(p.x0, [1.5])
    assert (p.horizon, p.eps0, p.sigma_sup) == (1.0, 0.4, 1.0)


def test_example1_coefficients():
    p = get_example("example1").problem
    x = np.array([[-0.5], [0.0], [0.5], [1.0], [2.0]])
    mu = p.drift(x)
    np.testing.assert_allclose(mu[:, 0], [-2.0, 0.0, 0.25, -1.0, 0.25])
    sig = p.diffusion(np.array([[0.0], [1.0], [1.5]]))
    assert sig.shape == (3, 1, 1)
    np.testing.assert_allclose(sig[:, 0, 0], [1.0, 0.75, 0.5 * (1.0 + 1.0 / 3.25)])


def test_example2_fields_and_coefficients():
    p = get_example("example2").problem
    assert isinstance(p.surface, PointSet1D)
    assert p.surface.points == (-1.0, 2.0)
    np.testing.assert_array_equal(p.x0, [0.0])
    assert (p.eps0, p.sigma_sup) == (1.0, 1.0)
    x = np.array([[-2.0], [-1.0], [0.0], [2.0], [3.0]])
    np.testing.assert_allclose(p.drift(x)[:, 0], [-1.0, 1.0, 1.0, -4.0, -6.0])
    np.testing.assert_allclose(p.diffusion(x)[:, 0, 0], np.ones(5))


def test_example3_fields_and_coefficients():
    p = get_example("example3").problem
    assert p.dimension == 2
    assert isinstance(p.surface, Circle2D)
    np.testing.assert_array_equal(p.x0, [0.5, 0.5])
    assert (p.eps0, p.sigma_sup) == (0.5, 0.75)
    inside = np.array([0.3, -0.4])
    np.testing.assert_allclose(p.drift(inside), [-0.3, -0.4])
    on = np.array([1.0, 0.0])  # the circle itself takes the outside branch
    np.testing.assert_allclose(p.drift(on), [1.0, 1.0])
    outside = np.array([1.5, 1.5])
    np.testing.assert_allclose(p.drift(outside), [1.0, 1.0])
    sig = p.diffusion(np.array([0.8, -0.6]))
    np.testing.assert_allclose(sig, [[0.4, 0.0], [-0.3, 0.0]])
    # rank-one diffusion with Frobenius norm 0.5 |x|
    assert np.linalg.matrix_rank(sig) == 1
    assert np.linalg.norm(sig) == pytest.approx(0.5)


def test_example3_drift_batched():
    p = get_example("example3").problem
    x = np.array([[0.3, -0.4], [1.0, 0.0], [1.5, 1.5]])
    mu = p.drift(x)
    np.testing.assert_allclose(mu, [[-0.3, -0.4], [1.0, 1.0], [1.0, 1.0]])
    sig = p.diffusion(x)
    assert sig.shape == (3, 2, 2)
    np.testing.assert_allclose(sig[0], [[0.15, 0.0], [-0.2, 0.0]])


def test_transform_only_for_scalar_examples():
    assert get_example("example1").transform() is not None
    assert get_example("example2").transform() is not None
    with pytest.raises(ValueError, match="not scalar"):
        get_example("example3").transform()


def test_example_entry_is_a_name_and_a_problem():
    # the problem is the one copy of its coefficients: a new field is a
    # deliberate change to this list
    assert [f.name for f in dataclasses.fields(ExampleEntry)] == ["name", "problem"]


@pytest.mark.parametrize("name, drift, sigma, eps0", [
    ("example1", _EX1_DRIFT, _ex1_sigma, 0.4),
    ("example2", _EX2_DRIFT, _ex2_sigma, 1.0),
])
def test_transform_is_read_off_the_problem(name, drift, sigma, eps0):
    tr = get_example(name).transform()
    direct = Transform1D(drift, sigma, eps0=eps0)
    assert tr.drift is drift and tr.sigma is sigma
    assert tr.c == direct.c
    np.testing.assert_array_equal(tr._alphas, direct._alphas)


_EXPRESSION_DRIFT_1D = {
    "dimension": 1,
    "surface": {"type": "points1d", "points": [0.5]},
    "drift": "where(x < 0.5, 1.0, -1.0)",
    "diffusion": "1.0",
    "x0": [0.0],
    "horizon": 1.0,
    "eps0": 0.2,
    "sigma_sup": 1.0,
}


@pytest.mark.parametrize("entry", [
    get_example("example3"),
    ExampleEntry("config", problem_from_config(_EXPRESSION_DRIFT_1D)[0]),
], ids=["example3", "expression-drift"])
def test_transform_needs_a_scalar_piecewise_drift(entry):
    for words in ("not scalar", "one-dimensional", "piecewise"):
        with pytest.raises(ValueError, match=words):
            entry.transform()


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_scalar_surfaces_are_the_drift_breakpoints(name):
    problem = get_example(name).problem
    assert problem.surface == PointSet1D(problem.drift.f.breakpoints)


def test_problems_are_picklable():
    for name in example_names():
        entry = EXAMPLES[name]
        clone = pickle.loads(pickle.dumps(entry.problem))
        np.testing.assert_array_equal(clone.x0, entry.problem.x0)
        x = np.broadcast_to(entry.problem.x0, (4, entry.problem.dimension)).copy()
        np.testing.assert_array_equal(clone.drift(x), entry.problem.drift(x))
        np.testing.assert_array_equal(clone.diffusion(x), entry.problem.diffusion(x))
        assert clone.surface.distance(entry.problem.x0) == entry.problem.surface.distance(
            entry.problem.x0
        )


def _problem_jumping_at_half(left, right, surface):
    drift = PiecewiseDrift1D((0.5,), (lambda x: np.full(np.shape(x), left),
                                      lambda x: np.full(np.shape(x), right)))
    return SdeProblem(
        dimension=1,
        drift=_Lift1D(drift),
        diffusion=_LiftDiffusion1D(lambda x: np.ones(np.shape(x))),
        surface=surface,
        x0=np.array([0.0]),
        horizon=1.0,
        eps0=0.2,
        sigma_sup=1.0,
    )


def test_problem_built_in_python_may_not_jump_off_its_surface():
    # the scheme would refine around -0.7 and step over the jump at 0.5
    with pytest.raises(ValueError, match="jumps at breakpoint 0.5"):
        _problem_jumping_at_half(1.0, -1.0, PointSet1D((-0.7,)))
    # a jump on the surface, and a breakpoint without one anywhere, are fine
    assert _problem_jumping_at_half(1.0, -1.0, PointSet1D((0.5,))).surface.points == (0.5,)
    assert _problem_jumping_at_half(1.0, 1.0, PointSet1D((-0.7,))).surface.points == (-0.7,)


def test_every_registered_and_config_problem_passes_the_jump_rule():
    # replace() runs __post_init__, and so the rule, again
    from oracles import CONFIG_PROBLEM

    problems = [get_example(name).problem for name in example_names()] + [CONFIG_PROBLEM]
    for problem in problems:
        assert dataclasses.replace(problem).surface == problem.surface
