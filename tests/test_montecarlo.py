import dataclasses
import io
import json
import logging
import math
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

from adaptive_em import _engine, brownian, montecarlo
from adaptive_em.geometry import PointSet1D
from adaptive_em.montecarlo import (
    _coupled_job,
    _occupation_job,
    _verify_job,
    equidistant_steps,
    occupation_values,
    run_experiment,
    verify_transform,
)
from adaptive_em.problems import get_example
from adaptive_em.solver import RunawaySimulationError, SdeProblem, StepSizeParams
from oracles import (
    BrownianPath,
    CONFIG_PROBLEM,
    CONFIG_TRANSFORM,
    coupled_difference_sample,
    interpolate,
    occupation_sample,
    simulate_adaptive,
    verify_transform_sample,
)

EX1 = get_example("example1").problem
EX2 = get_example("example2").problem
EX3 = get_example("example3").problem


def _constant_problem(x0, eps0=0.05):
    return SdeProblem(
        dimension=1,
        drift=lambda x: np.zeros(np.shape(x)),
        diffusion=lambda x: np.zeros(np.shape(x) + (1,)),
        surface=PointSet1D(points=(0.0,)),
        x0=np.array([x0]),
        horizon=1.0,
        eps0=eps0,
        sigma_sup=1.0,
    )


def _pure_bm_problem():
    return SdeProblem(
        dimension=1,
        drift=lambda x: np.zeros(np.shape(x)),
        diffusion=lambda x: np.ones(np.shape(x) + (1,)),
        surface=PointSet1D(points=(100.0,)),
        x0=np.array([0.0]),
        horizon=1.0,
        eps0=1.0,
        sigma_sup=1.0,
    )


def _gbm_problem(mu=1.0, sigma=0.8):
    return SdeProblem(
        dimension=1,
        drift=lambda x: mu * np.asarray(x, dtype=float),
        diffusion=lambda x: (sigma * np.asarray(x, dtype=float))[..., None],
        surface=PointSet1D(points=(1e6,)),
        x0=np.array([1.0]),
        horizon=1.0,
        eps0=1.0,
        sigma_sup=1.0,
    )


def test_config_validation(no_batch_jobs, caplog):
    for deltas, rule in (
        ((), "need at least one delta"),
        ((0.5,), r"delta 0.5 outside \(0, 0.5\)"),
        ((0.125, 0.25), "strictly decreasing"),
    ):
        _rejected_before_running(caplog, lambda: run_experiment(EX1, deltas, 2, 0), rule)
    _rejected_before_running(
        caplog, lambda: run_experiment(EX1, (0.25,), 1, 0), "need at least 2 samples"
    )
    # occupation_values' (0, eps0/2) rule; example1 has eps0 = 0.4
    for eps in (-0.1, 0.2, 5.0):
        _rejected_before_running(
            caplog,
            lambda: run_experiment(EX1, (0.25,), 2, 0, occupation_epsilons=(eps,)),
            r"outside \(0, eps0/2\)",
        )


def test_batched_coupled_matches_sequential():
    # one pooled job over the whole ladder; every rung of every sample
    deltas = (0.25, 0.125, 0.0625)
    for prob, count in ((EX1, 12), (EX3, 6)):
        sq, n_fine, n_coarse = _coupled_job((prob, deltas, 77), 0, count)
        assert sq.shape == n_fine.shape == n_coarse.shape == (count, len(deltas))
        for r, delta in enumerate(deltas):
            for i in range(count):
                s_sq, s_f, s_c = coupled_difference_sample(prob, delta, i, 77)
                assert sq[i, r] == s_sq
                assert n_fine[i, r] == s_f
                assert n_coarse[i, r] == s_c


def _lane_knots(prior, lane):
    """Store indices of one lane's knots past knot 0, from nxt[lane] to -1."""
    at, walked = prior["nxt"][lane], []
    while at >= 0:
        walked.append(at)
        at = prior["nxt"][at]
    return np.array(walked, dtype=np.int64)


def test_forward_pass_ragged_knots_match_the_path():
    # two rungs pooled, rung-major; each lane's linked knots are the
    # sequential path's knots after the coarse run and the horizon query
    deltas = (0.25, 0.0625)
    count = 5
    for prob in (EX1, EX3):
        idx = np.tile(np.arange(count, dtype=np.uint64), len(deltas))
        rung = np.repeat(np.arange(len(deltas)), count)
        params = tuple(StepSizeParams.for_problem(prob, d) for d in deltas)
        keys = _engine.path_key(13, idx)
        prior = _engine.forward_pass(prob, params, rung, keys, labels=idx)
        lanes = [_lane_knots(prior, lane) for lane in range(idx.size)]
        # lane i's knot 0 is entry i, and every later knot belongs to exactly one lane
        np.testing.assert_array_equal(
            np.sort(np.concatenate(lanes)), np.arange(idx.size, prior["kt"].size)
        )
        assert prior["nxt"].shape == prior["kt"].shape
        assert prior["kw"].shape == (prior["kt"].size, prob.dimension)
        for lane, at in enumerate(lanes):
            assert prior["kt"][lane] == 0.0
            assert np.all(prior["kw"][lane] == 0.0)
            assert prior["kc"][lane] == 1 + at.size
            kt = prior["kt"][at]
            kw = prior["kw"][at]
            assert np.all(np.diff(kt) > 0.0)
            assert np.count_nonzero(kt == prob.horizon) == 1
            path = BrownianPath(prob.dimension, 13, int(idx[lane]))
            traj = simulate_adaptive(prob, params[rung[lane]], path)
            interpolate(traj, prob, path, prob.horizon)
            assert prior["n"][lane] == traj.step_count
            # the bridged and fixed-grid passes continue from this counter
            assert prior["kc"][lane] == len(path.knot_times)
            times = np.array(path.knot_times[1:])
            assert kt.tobytes() == times.tobytes()
            assert kw.tobytes() == np.array([path.query(t) for t in times]).tobytes()


def test_forward_pass_store_gives_counter_and_horizon_value():
    # kc and w_T are read off the knot store: one draw per knot past time 0,
    # one knot at the horizon, and none inserted when a step lands on it
    deltas = (0.25, 0.0625)
    count = 6
    far = _constant_problem(5.0)  # steps of 2^-4 land exactly on the horizon
    cases = [(prob, deltas) for prob in (EX1, EX3)] + [(far, (2.0 ** -4,))]
    for prob, ladder in cases:
        labels, keys, rung, _ = _engine.ladder_lanes(np.arange(count), len(ladder), 21)
        params = tuple(StepSizeParams.for_problem(prob, d) for d in ladder)
        prior = _engine.forward_pass(prob, params, rung, keys, labels=labels)
        assert prior["kc"].dtype == np.uint64
        lanes = [_lane_knots(prior, lane) for lane in range(labels.size)]
        np.testing.assert_array_equal(prior["kc"], [1 + at.size for at in lanes])
        for lane, at in enumerate(lanes):
            kt = prior["kt"][at]
            kw = prior["kw"][at]
            (h,) = np.flatnonzero(kt == prob.horizon)
            assert prior["w_T"][lane].tobytes() == kw[h].tobytes()
            # one knot per step, and one inserted only before an overshoot
            overshoot = kt[-1] > prob.horizon
            assert kt.size == prior["n"][lane] + overshoot
            assert h == kt.size - 1 - overshoot
            if prob is far:
                assert not overshoot and prior["n"][lane] == 16


def test_first_step_past_the_horizon_splices_the_horizon_knot_after_knot_0():
    # with horizon 0.3 each coarse lane of rung 0.25 takes one step of 0.5,
    # so its horizon knot is spliced in between knot 0 and its first knot
    prob = dataclasses.replace(EX1, horizon=0.3)
    tr = get_example("example1").transform()
    deltas = (0.25, 0.125)
    count = 6
    labels, keys, rung, _ = _engine.ladder_lanes(np.arange(count), len(deltas), 9)
    coarse, _ = _engine.coupled_ladders(prob, deltas)
    prior = _engine.forward_pass(prob, coarse, rung, keys, labels=labels)
    for lane in range(count):
        at = np.concatenate([[lane], _lane_knots(prior, lane)])
        assert prior["kt"][at].tolist() == [0.0, 0.3, 0.5]
        assert prior["kw"][at[1]].tobytes() == prior["w_T"][lane].tobytes()
    sq, n_fine, n_coarse = _coupled_job((prob, deltas, 9), 0, count)
    (vals,) = _verify_job((prob, tr, deltas, 9), 0, count)
    assert np.all(n_coarse[:, 0] == 1)
    for r, delta in enumerate(deltas):
        for i in range(count):
            assert (sq[i, r], n_fine[i, r], n_coarse[i, r]) == coupled_difference_sample(
                prob, delta, i, 9
            )
            assert vals[i, r] == verify_transform_sample(prob, tr, delta, i, 9)


def test_forward_pass_peak_memory_per_knot():
    # the ladder-ex1 benchmark's coarse pass: the knot store, grown in place
    # by an eighth, is the only array that grows with the knots, so its
    # 20 bytes per knot (two float64 and an int32 link) plus an eighth of
    # slack, 22.5 bytes, bound the peak
    deltas = tuple(2.0 ** -k for k in range(2, 9))
    labels, keys, rung, _ = _engine.ladder_lanes(np.arange(256), len(deltas), 1000)
    coarse, _ = _engine.coupled_ladders(EX1, deltas)
    brownian.load_ndtri()  # the first draw's import is not the pass's memory
    tracemalloc.start()
    try:
        prior = _engine.forward_pass(EX1, coarse, rung, keys, labels=labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    knots = prior["kt"].size
    assert prior["kt"].nbytes + prior["kw"].nbytes + prior["nxt"].nbytes == 20 * knots
    assert peak <= 23 * knots, f"{peak / knots:.1f} bytes per knot"


def test_links_widen_to_int64_past_the_link_limit(monkeypatch):
    # a limit above the lane count but below the knot count widens the
    # links partway through the pass; the store and every output stay
    deltas = (0.25, 0.125, 0.0625)
    count = 8
    labels, keys, rung, _ = _engine.ladder_lanes(np.arange(count), len(deltas), 31)
    params = tuple(StepSizeParams.for_problem(EX1, d) for d in deltas)
    tr = get_example("example1").transform()
    limit = 64
    narrow = _engine.forward_pass(EX1, params, rung, keys, labels=labels)
    assert narrow["nxt"].dtype == np.int32
    assert labels.size < limit < narrow["kt"].size
    jobs = (_coupled_job((EX1, deltas, 31), 0, count), _verify_job((EX1, tr, deltas, 31), 0, count))

    monkeypatch.setattr(_engine, "_LINK_LIMIT", limit)
    passes = []
    forward_pass = _engine.forward_pass

    def recording(*args, **kwargs):
        passes.append(forward_pass(*args, **kwargs))
        return passes[-1]

    monkeypatch.setattr(_engine, "forward_pass", recording)
    wide = recording(EX1, params, rung, keys, labels=labels)
    assert wide["nxt"].dtype == np.int64
    for lane in range(labels.size):
        np.testing.assert_array_equal(_lane_knots(wide, lane), _lane_knots(narrow, lane))
    for name in ("kt", "kw", "w_T", "kc", "n", "x_T"):
        assert wide[name].tobytes() == narrow[name].tobytes()
    widened = (_coupled_job((EX1, deltas, 31), 0, count), _verify_job((EX1, tr, deltas, 31), 0, count))
    # the coupled job's coarse pass and the verify job's pass both widened
    assert len(passes) == 3
    assert all(p["nxt"].dtype == np.int64 and p["kt"].size > limit for p in passes)
    for want, got in zip(jobs, widened):
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_batched_occupation_matches_sequential():
    # one pooled job over three rungs and two tube half-widths
    params = tuple(StepSizeParams.for_problem(EX1, d) for d in (0.25, 0.125, 2.0 ** -4))
    epsilons = (0.1, 0.05)
    (vals,) = _occupation_job((EX1, params, epsilons, 55), 0, 10)
    assert vals.shape == (10, len(params), len(epsilons))
    for r, p in enumerate(params):
        for e, eps in enumerate(epsilons):
            for i in range(10):
                assert vals[i, r, e] == occupation_sample(EX1, p, eps, i, 55)


def test_batched_verify_matches_sequential():
    # one pooled job; the deltas are not in decreasing order, so the rung
    # with the longest grid is not the last one, and 0.143 has a 49-step
    # grid whose last node 49 * (1/49) falls short of the horizon
    deltas = (0.125, 2.0 ** -4, 0.143, 0.25)
    ex1, ex2 = get_example("example1"), get_example("example2")
    cases = (
        (ex1.problem, ex1.transform(), 4),
        (ex2.problem, ex2.transform(), 6),
        (CONFIG_PROBLEM, CONFIG_TRANSFORM, 6),
    )
    for problem, tr, count in cases:
        (vals,) = _verify_job((problem, tr, deltas, 31), 0, count)
        assert vals.shape == (count, len(deltas))
        for r, delta in enumerate(deltas):
            for i in range(count):
                assert vals[i, r] == verify_transform_sample(problem, tr, delta, i, 31)


def test_batched_budget_guard_names_the_sample(monkeypatch):
    monkeypatch.setattr(_engine, "_step_budget", lambda p, s: 2)
    params = StepSizeParams.for_problem(EX1, 0.125)
    with pytest.raises(RunawaySimulationError, match=r"^sample 700 exceeded 2 steps"):
        _coupled_job((EX1, (0.125,), 3), 700, 710)
    with pytest.raises(RunawaySimulationError, match=r"^sample 700 exceeded 2 steps"):
        _occupation_job((EX1, (params,), (0.1,), 3), 700, 710)


def test_pooled_budget_guard_names_the_rung(monkeypatch):
    # only the finest fine pass runs out; at step 40 rung 1 still has
    # sample 703 live ahead of the finest rung's slice, so the message must
    # come from that slice and name its own delta
    monkeypatch.setattr(
        _engine, "_step_budget", lambda p, s: 40 if s.delta == 0.0625 else 10**6
    )
    with pytest.raises(
        RunawaySimulationError, match=r"^sample 700 exceeded 40 steps at delta=0.0625$"
    ):
        _coupled_job((EX1, (0.25, 0.125, 0.0625), 3), 700, 710)


def test_batched_finite_guard_names_the_sample():
    # deterministic drift that turns infinite once the state passes 0.5
    prob = SdeProblem(
        dimension=1,
        drift=lambda x: np.where(x > 0.5, np.inf, 1.0),
        diffusion=lambda x: np.zeros(np.shape(x) + (1,)),
        surface=PointSet1D(points=(10.0,)),
        x0=np.array([0.0]),
        horizon=1.0,
        eps0=1.0,
        sigma_sup=1.0,
    )
    params = StepSizeParams.for_problem(prob, 0.125)
    message = r"^non-finite state during simulation in sample 300$"
    with pytest.raises(RunawaySimulationError, match=message):
        _coupled_job((prob, (0.125,), 3), 300, 305)
    with pytest.raises(RunawaySimulationError, match=message):
        _occupation_job((prob, (params,), (0.1,), 3), 300, 305)


def test_frozen_problem_gives_zero_difference_and_fixed_cost():
    report = run_experiment(_constant_problem(10.0), (0.125,), 4, 0)
    row = report.rows[0]
    assert row["msq"] == 0.0
    assert row["msq_stderr"] == 0.0
    assert row["cost_mean"] == 8.0
    assert row["cost_stderr"] == 0.0


def test_additive_noise_far_from_surface_couples_exactly():
    # constant unit diffusion: fine and coarse runs both telescope to
    # x0 + W(T), so the gap is pure floating-point noise
    rows = run_experiment(_pure_bm_problem(), (0.25, 0.125), 32, 0).rows
    for r in rows:
        assert r["msq"] < 1e-25


def test_smooth_problem_coupled_rate_is_order_one():
    rows = run_experiment(_gbm_problem(), (0.25, 0.125, 0.0625, 0.03125), 512, 5).rows
    # pairwise slopes instead of the 3-parameter fit: over this short range
    # the log-correction exponent and the power trade off too freely
    slopes = np.diff(np.log2([r["msq"] for r in rows])) / np.diff(
        np.log2([r["delta"] for r in rows])
    )
    assert 0.6 < float(np.mean(slopes)) < 1.6


def test_cost_grows_as_delta_shrinks():
    rows = run_experiment(EX1, (0.125, 0.0625, 0.03125), 2000, 0).rows
    for a, b in zip(rows, rows[1:]):
        assert b["cost_mean"] - a["cost_mean"] > 2.0 * (a["cost_stderr"] + b["cost_stderr"])
    for r in rows:
        assert r["cost_mean"] >= EX1.horizon / r["delta"] - 1e-9


def test_stderr_shrinks_like_root_samples():
    stderrs = []
    for m in (800, 3200, 12800):
        stderrs.append(run_experiment(_gbm_problem(), (0.125,), m, 3).rows[0]["msq_stderr"])
    assert 1.4 < stderrs[0] / stderrs[1] < 2.8
    assert 1.4 < stderrs[1] / stderrs[2] < 2.8


def test_workers_do_not_change_results():
    # three batches of the pooled three-rung job
    args = (EX1, (0.25, 0.125, 0.0625), 1100, 99)
    solo = run_experiment(*args, workers=1).rows
    pooled = run_experiment(*args, workers=2).rows
    assert len(solo) == len(pooled) == 3
    for a, b in zip(solo, pooled):
        for key in ("delta", "msq", "msq_stderr", "cost_mean", "cost_stderr"):
            assert a[key] == b[key]


def test_each_command_starts_one_pool_per_job(monkeypatch):
    # a pool per _map_batches call: the coupled rows and the occupation rows
    # of a run are one job each, and a verification is one job over all deltas
    starts = []

    class CountingPool(montecarlo.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            starts.append(1)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
    rows = run_experiment(
        EX1, (0.25, 0.125), 600, 0, workers=2, occupation_epsilons=(0.1, 0.05)
    ).rows
    assert [len(r["occupation"]) for r in rows] == [2, 2]
    assert len(starts) == 2
    entry = get_example("example2")
    verify_transform(entry.problem, (0.25, 0.125, 0.0625), 600, 4, workers=2)
    assert len(starts) == 3


def test_pool_starts_no_more_workers_than_batches(monkeypatch):
    # a fork pool starts all of its max_workers processes at the first submit
    seen = []

    class InlinePool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    args = (EX2, (0.25, 0.125), 600, 0)
    solo = run_experiment(*args, workers=1).rows
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InlinePool)
    assert run_experiment(*args, workers=8).rows == solo
    assert seen == [2]


def test_rerun_is_bit_identical():
    a = run_experiment(EX2, (0.25, 0.125), 64, 0).rows
    b = run_experiment(EX2, (0.25, 0.125), 64, 0).rows
    assert a == b


def test_equidistant_steps_matches_finest_resolution():
    assert equidistant_steps(EX1, StepSizeParams.for_problem(EX1, 0.125)) == 64
    assert equidistant_steps(EX1, StepSizeParams.for_problem(EX1, 0.3)) == 12


def test_occupation_zero_far_from_surface():
    prob = _constant_problem(10.0)
    assert np.mean(occupation_values(prob, 0.125, (0.02,), 8, 1)) == 0.0


def test_occupation_covers_horizon_on_surface():
    prob = _constant_problem(0.0)
    occ = occupation_values(prob, 0.125, (0.02,), 8, 1)
    np.testing.assert_array_equal(occ, np.ones((1, 8)))


def test_occupation_epsilon_precondition():
    with pytest.raises(ValueError):
        occupation_values(EX1, 0.125, (0.2,), 8, 1)  # eps0/2 for example1
    with pytest.raises(ValueError):
        occupation_values(EX1, 0.125, (0.0,), 8, 1)
    with pytest.raises(ValueError):
        occupation_values(EX1, 0.125, (0.1, 0.2), 8, 1)


def test_occupation_values_takes_a_sequence_of_epsilons():
    # one row per epsilon, each the values of a one-epsilon call
    rows = occupation_values(EX1, 0.125, (0.1, 0.05, 0.15), 40, 3)
    assert rows.shape == (3, 40)
    for eps, row in zip((0.1, 0.05, 0.15), rows):
        (alone,) = occupation_values(EX1, 0.125, (eps,), 40, 3)
        assert row.tobytes() == alone.tobytes()


def test_occupation_grows_with_tube_width():
    wide = np.mean(occupation_values(EX1, 2.0 ** -4, (0.1,), 1500, 12))
    narrow = np.mean(occupation_values(EX1, 2.0 ** -4, (0.05,), 1500, 12))
    assert 0.0 < narrow < wide < EX1.horizon


def test_run_experiment_occupation_rows():
    row = run_experiment(EX1, (0.125,), 64, 0, occupation_epsilons=(0.05, 0.1)).rows[0]
    occ = row["occupation"]
    assert [e["epsilon"] for e in occ] == [0.05, 0.1]
    for entry in occ:
        assert entry["mean"] >= 0.0 and entry["stderr"] >= 0.0


def test_verify_transform_rows_shrink_for_scalar_example():
    entry = get_example("example2")
    rows = verify_transform(entry.problem, (0.25, 0.125), 256, 21)
    assert [r["delta"] for r in rows] == [0.25, 0.125]
    assert rows[0]["mean_sq"] > rows[1]["mean_sq"] > 0.0
    for r in rows:
        assert r["stderr"] < r["mean_sq"]


def test_verify_transform_requires_scalar_problem():
    with pytest.raises(ValueError):
        verify_transform(EX3, (0.25,), 8, 1)
    with pytest.raises(ValueError):
        verify_transform_sample(EX3, get_example("example1").transform(), 0.25, 0, 1)


@pytest.fixture
def no_batch_jobs(monkeypatch):
    def no_job(*args):
        raise AssertionError("a batch job ran")

    for job in ("_coupled_job", "_occupation_job", "_verify_job"):
        monkeypatch.setattr(montecarlo, job, no_job)


def _rejected_before_running(caplog, call, rule):
    # delta = 1/4 is outside the analyzed regime of examples 1 and 2, so a
    # call that got as far as the regime check would log a warning
    with caplog.at_level(logging.WARNING, logger="adaptive_em"):
        with pytest.raises(ValueError, match=rule):
            call()
    assert not [r for r in caplog.records if "analyzed regime" in r.getMessage()]


@pytest.mark.parametrize("samples", [0, 1])
def test_estimators_reject_too_few_samples_before_running(no_batch_jobs, caplog, samples):
    rule = "need at least 2 samples"
    _rejected_before_running(
        caplog, lambda: occupation_values(EX1, 0.25, (0.1,), samples, 1), rule
    )
    _rejected_before_running(caplog, lambda: verify_transform(EX2, (0.25,), samples, 1), rule)
    _rejected_before_running(caplog, lambda: run_experiment(EX1, (0.25,), samples, 0), rule)


@pytest.mark.parametrize("workers", [0, -1])
def test_estimators_reject_fewer_than_one_worker_before_running(no_batch_jobs, caplog, workers):
    rule = "need at least 1 worker"
    _rejected_before_running(
        caplog, lambda: occupation_values(EX1, 0.25, (0.1,), 8, 1, workers), rule
    )
    _rejected_before_running(caplog, lambda: verify_transform(EX2, (0.25,), 8, 1, workers), rule)
    _rejected_before_running(caplog, lambda: run_experiment(EX1, (0.25,), 8, 0, workers), rule)


def test_estimators_reject_empty_sequences_before_running(no_batch_jobs, caplog):
    _rejected_before_running(
        caplog, lambda: occupation_values(EX1, 0.25, (), 8, 1), "need at least one epsilon"
    )
    _rejected_before_running(
        caplog, lambda: verify_transform(EX2, (), 8, 1), "need at least one delta"
    )


@pytest.mark.parametrize("samples", [2.5, 8.0])
def test_estimators_reject_non_integer_samples_before_running(no_batch_jobs, caplog, samples):
    rule = "samples must be an integer"
    _rejected_before_running(
        caplog, lambda: occupation_values(EX1, 0.25, (0.1,), samples, 1), rule
    )
    _rejected_before_running(caplog, lambda: verify_transform(EX2, (0.25,), samples, 1), rule)
    _rejected_before_running(caplog, lambda: run_experiment(EX1, (0.25,), samples, 0), rule)


@pytest.mark.parametrize("workers", [1.5, 2.0])
def test_estimators_reject_non_integer_workers_before_running(no_batch_jobs, caplog, workers):
    rule = "workers must be an integer"
    _rejected_before_running(
        caplog, lambda: occupation_values(EX1, 0.25, (0.1,), 8, 1, workers), rule
    )
    _rejected_before_running(caplog, lambda: verify_transform(EX2, (0.25,), 8, 1, workers), rule)
    _rejected_before_running(caplog, lambda: run_experiment(EX1, (0.25,), 8, 0, workers), rule)


def test_estimators_accept_numpy_integer_counts():
    assert (run_experiment(EX2, (0.25,), np.int64(8), 0, np.int32(1)).rows
            == run_experiment(EX2, (0.25,), 8, 0, 1).rows)
    np.testing.assert_array_equal(
        occupation_values(EX2, 0.25, (0.1,), np.int64(8), 1, np.int64(1)),
        occupation_values(EX2, 0.25, (0.1,), 8, 1, 1),
    )


def test_estimators_accept_numpy_integer_seeds():
    report = run_experiment(EX2, (0.25,), 4, np.int64(3))
    assert type(report.master_seed) is int
    assert report.rows == run_experiment(EX2, (0.25,), 4, 3).rows
    assert json.loads(json.dumps(report.to_json_dict()))["master_seed"] == 3
    np.testing.assert_array_equal(
        occupation_values(EX2, 0.25, (0.1,), 4, np.uint64(3)),
        occupation_values(EX2, 0.25, (0.1,), 4, 3),
    )
    assert verify_transform(EX2, (0.25,), 4, np.int32(3)) == verify_transform(EX2, (0.25,), 4, 3)


def test_seeds_key_paths_modulo_two_to_the_64():
    def rows(seed):
        return run_experiment(EX2, (0.25,), 4, seed).rows

    assert rows(-1) == rows(2 ** 64 - 1)
    assert rows(2 ** 64 + 3) == rows(3) != rows(-1)


@pytest.mark.parametrize("seed", [1.5, 3.0, "3"])
def test_estimators_reject_non_integer_seeds_before_running(no_batch_jobs, caplog, seed):
    rule = "master_seed must be an integer"
    _rejected_before_running(caplog, lambda: occupation_values(EX1, 0.25, (0.1,), 8, seed), rule)
    _rejected_before_running(caplog, lambda: verify_transform(EX2, (0.25,), 8, seed), rule)
    _rejected_before_running(caplog, lambda: run_experiment(EX1, (0.25,), 8, seed), rule)


def test_occupation_checks_the_step_budget_before_running(no_batch_jobs, caplog):
    # delta**2 = 1e-18 is below half an ulp of example1's horizon 1
    rule = "too small for horizon"
    _rejected_before_running(caplog, lambda: occupation_values(EX1, 1e-9, (0.1,), 8, 1), rule)


def test_verify_transform_needs_a_transform_before_running(no_batch_jobs, caplog):
    # delta = 1/4 is outside example3's analyzed regime as well
    _rejected_before_running(caplog, lambda: verify_transform(EX3, (0.25,), 8, 1), "not scalar")


def test_batch_spans_are_made_as_the_batches_run(monkeypatch):
    # a list of the spans of 10**12 samples would take about 250 GB before
    # the first batch; made one at a time, the first batch fails at once
    def first_batch_fails(*args):
        raise RuntimeError("first batch")

    monkeypatch.setattr(montecarlo, "_coupled_job", first_batch_fails)
    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError, match="first batch"):
            run_experiment(EX1, (0.25,), 10**12, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _batch_fails(payload, start, stop):
    # module level, so a pool worker can unpickle it
    raise RuntimeError(f"batch at {start}")


def test_pool_submits_a_bounded_window_of_batches(monkeypatch):
    # a future per batch of 10**12 samples would take about 8 PB before the
    # first result is read; with a window of a few batches per worker, the
    # first failing batch stops the run at once
    sizes = []

    class SizedPool(montecarlo.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", SizedPool)
    monkeypatch.setattr(montecarlo, "_coupled_job", _batch_fails)
    brownian.load_ndtri()  # the first draw's import is not the window's memory
    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError, match="batch at 0"):
            run_experiment(EX1, (0.25,), 10**12, 0, workers=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == [2]
    assert peak < 2**20


def test_numpy_integer_samples_give_a_json_report():
    report = run_experiment(EX2, (0.25,), np.int64(8), 0)
    assert type(report.samples) is int
    assert json.loads(json.dumps(report.to_json_dict()))["samples"] == 8


def test_engine_cost_levels_match_fitted_bands():
    # at delta = 2^-6 the fitted mean costs are about 217 for the scalar
    # double-well and 350 for the planar problem; stay within factor 2
    cost2 = run_experiment(EX2, (2.0 ** -6,), 400, 0).rows[0]["cost_mean"]
    assert 108.0 < cost2 < 435.0
    cost3 = run_experiment(EX3, (2.0 ** -6,), 400, 0).rows[0]["cost_mean"]
    assert 175.0 < cost3 < 700.0


def test_report_csv_and_json():
    report = run_experiment(EX2, (0.25, 0.125), 64, 0)
    buf = io.StringIO()
    report.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "delta,msq,msq_stderr,cost_mean,cost_stderr"
    assert len(lines) == 3
    parsed = [float(c) for c in lines[1].split(",")]
    row = report.rows[0]
    assert parsed == [
        row["delta"], row["msq"], row["msq_stderr"],
        row["cost_mean"], row["cost_stderr"],
    ]
    blob = report.to_json_dict()
    assert blob["samples"] == 64
    assert blob["rows"] == report.rows
    assert blob["wall_time"] >= 0.0


def test_report_rows_give_band_radii_of_the_fine_and_the_coarse_run():
    # eps1 is 0.520 at 2^-6 and 0.613 at 2^-5, so eps0 / 4 = 0.55 puts the
    # fine run inside the regime and the coarse run outside it
    problem = _constant_problem(10.0, eps0=2.2)
    report = run_experiment(problem, (2.0**-5, 2.0**-6), 4, 0)
    for row in report.rows:
        for run, delta in (("fine", row["delta"]), ("coarse", 2.0 * row["delta"])):
            p = StepSizeParams.for_problem(problem, delta)
            # far from the surface every step is delta, so each sample takes 1 / delta
            assert row[run] == {
                "eps1": p.eps1, "eps2": p.eps2, "framework_valid": p.framework_valid,
                "steps_total": 4 * round(1.0 / delta), "steps_max": round(1.0 / delta),
            }
    assert report.rows[1]["fine"]["framework_valid"] is True
    assert report.rows[1]["coarse"]["framework_valid"] is False
    # JSON only: the CSV rows hold the five pinned columns
    buf = io.StringIO()
    report.to_csv(buf)
    assert [len(line.split(",")) for line in buf.getvalue().splitlines()] == [5, 5, 5]
    assert json.loads(json.dumps(report.to_json_dict()))["rows"] == report.rows


def test_report_rows_give_log_factor_and_top_sample_shares():
    deltas, samples = (0.25, 0.125), 32
    report = run_experiment(EX1, deltas, samples, 9)
    for row, delta in zip(report.rows, deltas):
        draws = [coupled_difference_sample(EX1, delta, i, 9) for i in range(samples)]
        sq = np.array([d[0] for d in draws])
        cost = np.mean([float(d[1]) for d in draws])
        top = np.sort(sq)[::-1]
        assert row["log_factor"] == pytest.approx(cost * delta / np.log(1.0 / delta), rel=1e-12)
        assert row["msq_top1_share"] == pytest.approx(top[0] / sq.sum(), rel=1e-12)
        assert row["msq_top10_share"] == pytest.approx(top[:10].sum() / sq.sum(), rel=1e-12)
        assert 0.0 < row["msq_top1_share"] < row["msq_top10_share"] < 1.0
    # every gap is 0: no sample carries a share of the sum
    (row,) = run_experiment(_constant_problem(10.0), (0.125,), 4, 0).rows
    assert row["log_factor"] == 8.0 * 0.125 / math.log(8.0)
    assert row["msq_top1_share"] is None and row["msq_top10_share"] is None
    assert json.loads(json.dumps(row))["msq_top10_share"] is None


@pytest.mark.parametrize("workers", [1, 2])
def test_report_rows_give_step_totals_and_maxima(workers, monkeypatch):
    # batches of 8, so two workers share three batches
    monkeypatch.setattr(montecarlo, "_BATCH", 8)
    deltas, samples = (0.25, 0.125, 0.0625), 20
    report = run_experiment(EX1, deltas, samples, 5, workers=workers)
    _, n_fine, n_coarse = _engine.coupled_pair(EX1, deltas, np.arange(samples), 5)
    for r, row in enumerate(report.rows):
        for run, steps in (("fine", n_fine[:, r]), ("coarse", n_coarse[:, r])):
            assert row[run]["steps_total"] == int(steps.sum())
            assert row[run]["steps_max"] == int(steps.max())
            assert type(row[run]["steps_total"]) is int and type(row[run]["steps_max"]) is int
        assert row["fine"]["steps_total"] / samples == row["cost_mean"]
    assert json.loads(json.dumps(report.to_json_dict()))["rows"] == report.rows


def test_mean_and_stderr_against_direct_formula():
    row = run_experiment(EX2, (0.25,), 48, 9).rows[0]
    sq = np.array([coupled_difference_sample(EX2, 0.25, i, 9)[0] for i in range(48)])
    assert row["msq"] == pytest.approx(float(np.mean(sq)), rel=1e-12)
    assert row["msq_stderr"] == pytest.approx(
        float(np.std(sq, ddof=1) / math.sqrt(48)), rel=1e-12
    )
