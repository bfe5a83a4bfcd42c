import dataclasses
import io
import logging
import math
import pickle

import numpy as np
import pytest

import oracles
from adaptive_em import _engine
from adaptive_em.geometry import PointSet1D
from adaptive_em.montecarlo import (
    occupation_values,
    run_experiment,
    verify_transform,
)
from adaptive_em.problems import get_example
from adaptive_em.solver import (
    RunawaySimulationError,
    SdeProblem,
    StepSizeParams,
    _step_budget,
    step_size_from_distance,
)
from oracles import BrownianPath, em_step, interpolate, simulate_adaptive, step_size

DELTA16 = 2.0 ** -4


def _sequential(problem, params, master_seed, index):
    traj = simulate_adaptive(problem, params, BrownianPath(problem.dimension, master_seed, index))
    return traj.times, traj.states, traj.step_count


def _lockstep(problem, params, master_seed, index):
    # the one-lane forward pass that --dump-trajectories writes out, for any sample
    times, states = [0.0], [problem.x0]

    def record(act, tc, wc, x, mu, sig, dist, dist_end, t_next, xn):
        times.append(t_next[0])
        states.append(xn[0])

    labels, keys, rung, _ = _engine.ladder_lanes([index], 1, master_seed)
    out = _engine.forward_pass(problem, (params,), rung, keys, labels, observe=record)
    return np.array(times), np.array(states), int(out["n"][0])


# the sequential oracle and the engine's one-lane lockstep: each returns
# (grid times, states, step count) of one sample path
RUNNERS = (_sequential, _lockstep)


def _params(delta=DELTA16, eps0=3.0, sigma_sup=1.0):
    return StepSizeParams(delta=delta, eps0=eps0, sigma_sup=sigma_sup)


def _constant_problem(x0, mu=0.0, eps0=0.05):
    """1-D problem with constant drift, zero noise and the surface at 0."""
    return SdeProblem(
        dimension=1,
        drift=lambda x: np.full(np.shape(x), mu, dtype=float),
        diffusion=lambda x: np.zeros(np.shape(x) + (1,)),
        surface=PointSet1D(points=(0.0,)),
        x0=np.array([x0]),
        horizon=1.0,
        eps0=eps0,
        sigma_sup=1.0,
    )


def test_band_widths():
    p = _params()
    assert p.eps1 == pytest.approx(math.log(16.0) * 0.25)
    assert p.eps2 == pytest.approx(math.log(16.0) * 0.0625)
    assert p.delta_sq == DELTA16 ** 2
    assert p.framework_valid


def test_step_size_examples():
    p = _params()
    assert step_size_from_distance(0.1, p) == DELTA16 ** 2
    mid = step_size_from_distance(0.5, p)
    assert mid == pytest.approx((0.5 / math.log(16.0)) ** 2, rel=1e-12)
    assert mid == pytest.approx(0.0325214, rel=1e-4)
    assert step_size_from_distance(2.0, p) == DELTA16


def test_step_size_band_edges_are_pinned():
    p = _params()
    assert step_size_from_distance(p.eps2, p) == p.delta_sq
    assert step_size_from_distance(p.eps1, p) == p.delta
    # continuous just above the inner edge: the ramp takes over at delta**2
    just_above = step_size_from_distance(p.eps2 * (1.0 + 1e-12), p)
    assert just_above == pytest.approx(p.delta_sq, rel=1e-10)
    just_below = step_size_from_distance(p.eps1 * (1.0 - 1e-12), p)
    assert just_below == pytest.approx(p.delta, rel=1e-10)


def test_step_size_monotone_and_bounded():
    p = _params()
    rng = np.random.default_rng(51)
    d = np.sort(rng.uniform(0.0, 2.0, size=100_000))
    h = step_size_from_distance(d, p)
    assert np.all(np.diff(h) >= 0.0)
    assert np.all(h >= p.delta_sq)
    assert np.all(h <= p.delta)


def test_step_size_vectorization_matches_scalars():
    p = _params()
    d = np.array([0.0, 0.05, p.eps2, 0.3, 0.5, p.eps1, 1.7])
    batch = step_size_from_distance(d, p)
    singles = [step_size_from_distance(v, p) for v in d]
    np.testing.assert_array_equal(batch, singles)


def test_step_size_uses_surface_distance():
    p = _params()
    s = PointSet1D(points=(0.0,))
    h = step_size(np.array([0.4]), p, s)
    assert isinstance(h, float)
    assert h == step_size_from_distance(0.4, p)
    with pytest.raises(ValueError):
        step_size(np.array([np.nan]), p, s)


def test_params_validation():
    with pytest.raises(ValueError):
        StepSizeParams(delta=0.0, eps0=1.0, sigma_sup=1.0)
    with pytest.raises(ValueError):
        StepSizeParams(delta=1.0, eps0=1.0, sigma_sup=1.0)
    with pytest.raises(ValueError):
        StepSizeParams(delta=0.25, eps0=-1.0, sigma_sup=1.0)
    with pytest.raises(ValueError):
        StepSizeParams(delta=0.25, eps0=1.0, sigma_sup=0.0)


def test_band_warning_emitted_once(caplog):
    def regime_warnings(call):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="adaptive_em"):
            call()
        hits = [r.getMessage() for r in caplog.records if "analyzed regime" in r.getMessage()]
        return sorted(m.rsplit("delta=", 1)[1].split(";")[0] for m in hits)

    with caplog.at_level(logging.WARNING, logger="adaptive_em"):
        assert not StepSizeParams(delta=0.043, eps0=0.017, sigma_sup=1.0).framework_valid
        assert _params().framework_valid
    assert not caplog.records
    # two batches, so workers=2 runs a fresh pool for every delta
    prob = get_example("example1").problem
    for workers in (1, 2):
        for _ in range(2):
            hits = regime_warnings(lambda: run_experiment(prob, (0.25, 0.125), 600, 0, workers))
            assert hits == ["0.125", "0.25", "0.5"]
    for _ in range(2):
        hits = regime_warnings(lambda: occupation_values(prob, 0.125, (0.05,), 600, 0, workers=2))
        assert hits == ["0.125"]
    entry = get_example("example2")
    for _ in range(2):
        hits = regime_warnings(
            lambda: verify_transform(entry.problem, (0.25, 0.125), 8, 0)
        )
        assert hits == ["0.125", "0.25"]


def test_for_problem_reads_problem_constants():
    prob = get_example("example1").problem
    p = StepSizeParams.for_problem(prob, DELTA16)
    assert p == StepSizeParams(delta=DELTA16, eps0=prob.eps0, sigma_sup=prob.sigma_sup)


def test_em_step_examples():
    # pure noise
    out = em_step(np.zeros(2), np.zeros(2), np.eye(2), 0.5, np.array([1.0, -2.0]))
    np.testing.assert_array_equal(out, [1.0, -2.0])
    # pure drift
    out = em_step(np.array([1.0]), np.array([3.0]), np.zeros((1, 1)), 0.25, np.zeros(1))
    np.testing.assert_array_equal(out, [1.75])
    # rectangular mixing through a full matrix
    sig = 0.5 * np.array([[1.0, 0.0], [1.0, 0.0]])
    out = em_step(np.ones(2), np.ones(2), sig, 0.25, np.array([2.0, 5.0]))
    np.testing.assert_allclose(out, [2.25, 2.25])


def test_em_step_rejects_non_finite():
    with pytest.raises(ValueError):
        em_step(np.array([np.inf]), np.zeros(1), np.zeros((1, 1)), 0.1, np.zeros(1))
    with pytest.raises(ValueError):
        em_step(np.zeros(1), np.zeros(1), np.zeros((1, 1)), 0.1, np.array([np.nan]))


def test_problem_validation():
    good = _constant_problem(0.7)
    assert good.x0.shape == (1,)
    with pytest.raises(ValueError):
        SdeProblem(
            dimension=2,
            drift=lambda x: np.zeros(2),
            diffusion=lambda x: np.zeros((2, 2)),
            surface=PointSet1D(points=(0.0,)),
            x0=np.zeros(2),
            horizon=1.0,
            eps0=0.1,
            sigma_sup=1.0,
        )
    with pytest.raises(ValueError):
        _constant_problem(0.7, eps0=-0.5)
    # eps0 must stay below the reach of the surface
    with pytest.raises(ValueError):
        SdeProblem(
            dimension=1,
            drift=lambda x: np.zeros(1),
            diffusion=lambda x: np.zeros((1, 1)),
            surface=PointSet1D(points=(0.0, 1.0)),
            x0=np.array([0.2]),
            horizon=1.0,
            eps0=0.6,
            sigma_sup=1.0,
        )


def test_constant_path_far_from_surface_uses_coarse_steps():
    prob = _constant_problem(10.0)
    params = StepSizeParams.for_problem(prob, DELTA16)
    for run in RUNNERS:
        times, states, step_count = run(prob, params, 7, 0)
        assert step_count == 16
        assert times[0] == 0.0
        assert times[-1] == 1.0
        np.testing.assert_array_equal(np.diff(times), np.full(16, DELTA16))
        np.testing.assert_array_equal(states, np.full((17, 1), 10.0))


def test_constant_path_on_surface_uses_fine_steps():
    prob = _constant_problem(0.0)
    delta = 2.0 ** -3
    params = StepSizeParams.for_problem(prob, delta)
    for run in RUNNERS:
        times, states, step_count = run(prob, params, 7, 1)
        assert step_count == 64  # horizon / delta**2
        np.testing.assert_array_equal(np.diff(times), np.full(64, delta ** 2))
        np.testing.assert_array_equal(states, np.zeros((65, 1)))


def test_final_step_overshoots_horizon():
    prob = _constant_problem(10.0)
    params = StepSizeParams.for_problem(prob, 0.3)
    for run in RUNNERS:
        times, _, _ = run(prob, params, 7, 2)
        assert times[-1] >= prob.horizon
        assert times[-2] < prob.horizon
        assert times[-1] == pytest.approx(1.2)


def test_trajectory_invariants_example1():
    prob = get_example("example1").problem
    params = StepSizeParams.for_problem(prob, DELTA16)
    for run in RUNNERS:
        times, states, step_count = run(prob, params, 11, 4)
        steps = np.diff(times)
        assert times[0] == 0.0
        assert np.all(steps > 0.0)
        assert np.all(steps >= params.delta_sq * (1.0 - 1e-9))
        assert np.all(steps <= params.delta * (1.0 + 1e-9))
        assert times[-1] >= prob.horizon > times[-2]
        assert step_count == len(times) - 1 == len(states) - 1
        np.testing.assert_array_equal(states[0], prob.x0)


def test_adaptive_rerun_is_bit_identical():
    prob = get_example("example1").problem
    params = StepSizeParams.for_problem(prob, DELTA16)
    runs = [run(prob, params, 314, 9) for run in RUNNERS for _ in range(2)]
    # the lockstep reproduces the sequential path as well as a rerun does
    for a, b in zip(runs, runs[1:]):
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        assert a[2] == b[2]


def test_step_budget_guard(monkeypatch):
    prob = get_example("example1").problem
    params = StepSizeParams.for_problem(prob, DELTA16)
    monkeypatch.setattr(oracles, "_step_budget", lambda p, s: 2)
    monkeypatch.setattr(_engine, "_step_budget", lambda p, s: 2)
    for run in RUNNERS:
        with pytest.raises(RunawaySimulationError, match="exceeded"):
            run(prob, params, 5, 0)


def test_step_budget_rejects_a_step_below_half_an_ulp_of_the_horizon():
    prob = get_example("example1").problem
    # at horizon 1 half an ulp is 2^-53: 2^-26 squares to 2^-52 and runs
    assert _step_budget(prob, StepSizeParams.for_problem(prob, 2.0**-26)) == 10 * 2**52 + 1
    for delta in (1e-9, 1e-153):
        with pytest.raises(ValueError, match=f"delta {delta!r} is too small for horizon 1.0: a step"):
            StepSizeParams.for_problem(prob, delta)
    # the bound itself: half an ulp of 2^49 is 2^-4, the square of 2^-2; below
    # 2^49 half an ulp is 2^-5, and the largest time below it still advances
    params = StepSizeParams.for_problem(prob, 0.25)
    with pytest.raises(ValueError, match="is too small for horizon 562949953421312.0"):
        _step_budget(dataclasses.replace(prob, horizon=2.0**49), params)
    below = math.nextafter(2.0**49, 0.0)
    assert _step_budget(dataclasses.replace(prob, horizon=below), params) > 0
    assert math.nextafter(below, 0.0) + params.delta_sq > math.nextafter(below, 0.0)


def test_step_params_caches_stay_out_of_eq_hash_repr_and_fields():
    p, q = _params(), _params()
    assert [f.name for f in dataclasses.fields(p)] == [
        "delta", "eps0", "sigma_sup", "eps1", "eps2", "delta_sq", "framework_valid"
    ]
    assert "_0d" not in repr(p)
    assert p == q and hash(p) == hash(q)
    for name in ("delta", "eps1", "eps2", "delta_sq"):
        cache = getattr(p, f"_{name}_0d")
        assert isinstance(cache, np.ndarray) and cache.shape == () and cache.dtype == np.float64
        assert cache == getattr(p, name)
    # worker processes receive the parameters by pickle
    clone = pickle.loads(pickle.dumps(p))
    assert clone == p and hash(clone) == hash(p) and repr(clone) == repr(p)
    dist = np.linspace(0.0, 3.0 * p.eps1, 97)
    np.testing.assert_array_equal(
        step_size_from_distance(dist, clone), step_size_from_distance(dist, p), strict=True
    )


def test_path_dimension_must_match():
    prob = _constant_problem(10.0)
    params = StepSizeParams.for_problem(prob, DELTA16)
    with pytest.raises(ValueError):
        simulate_adaptive(prob, params, BrownianPath(2, 1, 0))


def test_interpolate_at_grid_nodes_returns_stored_states():
    prob = get_example("example1").problem
    params = StepSizeParams.for_problem(prob, DELTA16)
    path = BrownianPath(1, 23, 0)
    traj = simulate_adaptive(prob, params, path)
    for k in (0, 3, traj.step_count):
        np.testing.assert_array_equal(
            interpolate(traj, prob, path, traj.times[k]), traj.states[k]
        )


def test_interpolate_is_linear_for_deterministic_motion():
    prob = _constant_problem(10.0, mu=2.0)
    params = StepSizeParams.for_problem(prob, DELTA16)
    path = BrownianPath(1, 23, 1)
    traj = simulate_adaptive(prob, params, path)
    for t in (0.0, 0.17, 0.33, 0.5, 0.99):
        val = interpolate(traj, prob, path, t)
        assert val[0] == pytest.approx(10.0 + 2.0 * t, rel=1e-12)


def test_interpolate_at_horizon_freezes_last_node_before_it():
    prob = get_example("example1").problem
    params = StepSizeParams.for_problem(prob, DELTA16)
    path = BrownianPath(1, 23, 2)
    traj = simulate_adaptive(prob, params, path)
    t = prob.horizon
    k = np.searchsorted(traj.times, t, side="right") - 1
    x = traj.states[k]
    dw = path.query(t) - path.query(traj.times[k])
    manual = em_step(x, prob.drift(x), prob.diffusion(x), t - traj.times[k], dw)
    np.testing.assert_array_equal(interpolate(traj, prob, path, t), manual)


def test_interpolate_range_checks():
    prob = _constant_problem(10.0)
    params = StepSizeParams.for_problem(prob, DELTA16)
    path = BrownianPath(1, 23, 3)
    traj = simulate_adaptive(prob, params, path)
    with pytest.raises(ValueError):
        interpolate(traj, prob, path, -0.1)
    with pytest.raises(ValueError):
        interpolate(traj, prob, path, traj.times[-1] + 0.1)


def test_increment_moments_scale_with_time_gap():
    prob = get_example("example1").problem
    s, t, m_paths = 0.25, 0.5, 250
    estimates = []
    for delta in (2.0 ** -3, 2.0 ** -4):
        params = StepSizeParams.for_problem(prob, delta)
        acc = 0.0
        for m in range(m_paths):
            path = BrownianPath(1, 909, m)
            traj = simulate_adaptive(prob, params, path)
            xs = interpolate(traj, prob, path, s)
            xt = interpolate(traj, prob, path, t)
            acc += float(np.sum((xt - xs) ** 2))
        estimates.append(acc / m_paths)
    ratio = estimates[0] / estimates[1]
    assert 0.5 < ratio < 2.0
    mu_sup = 2.0  # |drift| of example1 never exceeds 2
    bound = 3.0 * (t - s) * 2.0 * (mu_sup ** 2 * prob.horizon + prob.sigma_sup ** 2)
    assert estimates[1] < bound


def test_mean_cost_level_example1():
    # mean step count at delta = 2^-6 sits between half and twice the
    # fitted level 456 for this problem
    prob = get_example("example1").problem
    params = StepSizeParams.for_problem(prob, 2.0 ** -6)
    costs = [
        simulate_adaptive(prob, params, BrownianPath(1, 8712, m)).step_count
        for m in range(150)
    ]
    mean = float(np.mean(costs))
    assert 228.0 < mean < 684.0
    assert min(costs) >= prob.horizon / params.delta - 1


def test_trajectory_csv_roundtrip():
    prob = _constant_problem(10.0, mu=0.5)
    params = StepSizeParams.for_problem(prob, 0.25)
    traj = simulate_adaptive(prob, params, BrownianPath(1, 3, 0))
    buf = io.StringIO()
    traj.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "k,tau_k,x1"
    assert len(lines) == len(traj.times) + 1
    parsed = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    np.testing.assert_array_equal(parsed[:, 1], traj.times)
    np.testing.assert_array_equal(parsed[:, 2:], traj.states)
