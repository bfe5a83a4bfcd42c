"""Acceptance suite: ten pinned criteria, one reported line each.

Criteria 2 to 5 read convergence and cost orders on the registry examples
over delta = 2^-2 .. 2^-8 with 10^4 coupled samples per delta, so this
module is the slow one; run it with ``-s`` to see the per-criterion
summary lines as they complete.

The paper states the strong order of the adaptive scheme relative to the
average computational cost: order 1/2 up to logarithmic terms, so the
coupled msq should fall like cost_mean^-1.  Criteria 2 and 5 read that
order directly, as minus the slope of a least-squares line through
(log cost_mean, log msq).  The three-coefficient fit in delta is printed
beside it for information only: every rung of this ladder has
eps1 >= eps0/4, outside the regime the paper analyses, and on these
pre-asymptotic rungs the free log exponent absorbs the curvature and
leaves the delta exponent undetermined.  The cost orders (3 and 5) keep
the delta fit, whose exponent is well determined on this ladder (standard
error about 0.04 for example1 and 0.01 for example3), and so does
criterion 4.
"""

import math
import time

import numpy as np
import pytest
from click.testing import CliRunner
from oracles import BrownianPath

from adaptive_em.cli import main
from adaptive_em.montecarlo import (
    occupation_values,
    run_experiment,
    verify_transform,
)
from adaptive_em.problems import get_example
from adaptive_em.regression import fit_rate
from adaptive_em.solver import StepSizeParams, step_size_from_distance

pytestmark = pytest.mark.slow

_LADDER = tuple(2.0**-k for k in range(2, 9))
_SAMPLES = 10_000
_SEED = 0
_EX1_MSQ_BAND = (0.85, 1.35)
_EX3_MSQ_BAND = (0.8, 1.35)


def _criterion(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def _ladder_report(example_name):
    return run_experiment(get_example(example_name).problem, _LADDER, _SAMPLES, _SEED)


@pytest.fixture(scope="module")
def example1_report():
    return _ladder_report("example1")


@pytest.fixture(scope="module")
def example2_report():
    return _ladder_report("example2")


@pytest.fixture(scope="module")
def example3_report():
    return _ladder_report("example3")


def _fit_column(report, column):
    return fit_rate(
        [row["delta"] for row in report.rows], [row[column] for row in report.rows]
    )


def _ladder_detail(report, column):
    return ", ".join(f"{row['delta']:.4g}:{row[column]:.3e}" for row in report.rows)


def _in_band(value, band):
    return band[0] <= value <= band[1]


def _log_cost_msq(rows):
    log_cost = np.log([row["cost_mean"] for row in rows])
    log_msq = np.log([row["msq"] for row in rows])
    return log_cost, log_msq


def _msq_cost_order(rows):
    """Order p in msq ~ cost_mean^-p, by least squares in log-log space."""
    log_cost, log_msq = _log_cost_msq(rows)
    return -float(np.polyfit(log_cost, log_msq, 1)[0])


def _msq_order_detail(report, problem, p, band):
    """The msq-order verdict and the evidence it rests on, for one ladder."""
    rows = report.rows
    log_cost, log_msq = _log_cost_msq(rows)
    local = -np.diff(log_msq) / np.diff(log_cost)
    rel_se = [row["msq_stderr"] / row["msq"] for row in rows]
    free = _fit_column(report, "msq")
    outside = sum(
        not StepSizeParams.for_problem(problem, row["delta"]).framework_valid
        for row in rows
    )
    return (
        f"msq ~ cost_mean^-p with p={p:.4f}, target [{band[0]}, {band[1]}]; "
        f"local slopes against cost {', '.join(f'{s:.2f}' for s in local)}; "
        f"relative msq stderr {', '.join(f'{r:.0%}' for r in rel_se)}; "
        f"free delta fit c2={free.c2:.3f} c3={free.c3:.4f} (information only); "
        f"{outside} of {len(rows)} rungs have eps1 >= eps0/4; "
        f"msq ladder {_ladder_detail(report, 'msq')}"
    )


def test_criterion_01_step_size_algebra():
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(100):
        delta = float(rng.uniform(2.0**-10, 0.4))
        scale = float(rng.uniform(0.2, 3.0))
        params = StepSizeParams(delta=delta, eps0=1e9, sigma_sup=scale)
        x = rng.normal(scale=3.0 * params.eps1, size=998)
        dist = np.sort(np.abs(x))
        h = step_size_from_distance(dist, params)
        assert step_size_from_distance(np.array([params.eps1]), params)[0] == params.delta
        assert step_size_from_distance(np.array([params.eps2]), params)[0] == params.delta_sq
        assert np.all(h >= params.delta_sq)
        assert np.all(h <= params.delta)
        assert np.all(np.diff(h) >= 0.0)
        checked += dist.size + 2
    elapsed = time.perf_counter() - t0
    ok = checked >= 100_000 and elapsed < 1.0
    _criterion(
        1,
        "step-size algebra",
        ok,
        f"{checked} evaluations in {elapsed:.2f}s: exact band endpoints, "
        f"delta^2 <= h <= delta, nondecreasing in distance",
    )


def test_criterion_02_example1_msq_order(example1_report):
    p = _msq_cost_order(example1_report.rows)
    problem = get_example("example1").problem
    _criterion(
        2,
        "example1 msq order",
        _in_band(p, _EX1_MSQ_BAND),
        _msq_order_detail(example1_report, problem, p, _EX1_MSQ_BAND),
    )


def test_criterion_03_example1_cost_order(example1_report):
    fit = _fit_column(example1_report, "cost_mean")
    ok = -1.35 <= fit.c3 <= -0.90
    _criterion(
        3,
        "example1 cost order",
        ok,
        f"fitted c3={fit.c3:.4f}, target [-1.35, -0.90]; "
        f"cost ladder {_ladder_detail(example1_report, 'cost_mean')}",
    )


def test_criterion_04_example2_msq_order(example2_report):
    fit = _fit_column(example2_report, "msq")
    ok = fit.c3 >= 1.2
    _criterion(
        4,
        "example2 msq order",
        ok,
        f"fitted c3={fit.c3:.4f}, target >= 1.2; "
        f"msq ladder {_ladder_detail(example2_report, 'msq')}",
    )


def test_criterion_05_example3_orders(example3_report):
    p = _msq_cost_order(example3_report.rows)
    cost_fit = _fit_column(example3_report, "cost_mean")
    msq_ok = _in_band(p, _EX3_MSQ_BAND)
    cost_ok = -1.3 <= cost_fit.c3 <= -0.85
    problem = get_example("example3").problem
    _criterion(
        5,
        "example3 msq and cost orders",
        msq_ok and cost_ok,
        f"msq {'ok' if msq_ok else 'out of band'}, "
        f"cost c3={cost_fit.c3:.4f} target [-1.3, -0.85] "
        f"({'ok' if cost_ok else 'out of band'}); "
        f"{_msq_order_detail(example3_report, problem, p, _EX3_MSQ_BAND)}",
    )


def test_msq_cost_order_read_rejects_wrong_orders():
    costs = [4.0 / d * math.log(1.0 / d) ** 0.5 for d in _LADDER]

    def read(msq_of_cost):
        return _msq_cost_order(
            [{"cost_mean": c, "msq": msq_of_cost(c)} for c in costs]
        )

    order_one = read(lambda c: 0.3 / c)
    order_half = read(lambda c: 0.3 / math.sqrt(c))
    flat = read(lambda c: 1e-3)
    assert abs(order_one - 1.0) < 1e-12
    for band in (_EX1_MSQ_BAND, _EX3_MSQ_BAND):
        assert _in_band(order_one, band)
        assert not _in_band(order_half, band)
        assert not _in_band(flat, band)


def test_criterion_06_occupation_linearity():
    problem = get_example("example1").problem
    wide = occupation_values(problem, 2.0**-6, (0.1,), _SAMPLES, _SEED)
    narrow = occupation_values(problem, 2.0**-6, (0.05,), _SAMPLES, _SEED)
    ratio = float(np.mean(wide) / np.mean(narrow))
    ok = 1.4 <= ratio <= 2.6
    _criterion(
        6,
        "occupation-time linearity",
        ok,
        f"occupation(0.1)/occupation(0.05)={ratio:.3f}, target [1.4, 2.6]",
    )


def test_criterion_07_transform_oracle():
    entry = get_example("example2")
    transform = entry.transform()
    rng = np.random.default_rng(777)
    x = rng.uniform(-4.0, 5.0, size=10_000)
    round_trip = float(np.max(np.abs(transform.inverse(transform.value(x)) - x)))
    jump_gap = 0.0
    for xi in (-1.0, 2.0):
        sides = transform.value(np.array([xi - 1e-9, xi + 1e-9]))
        mu_g, _ = transform.transformed_coeffs(sides)
        jump_gap = max(jump_gap, abs(float(mu_g[1] - mu_g[0])))
    rows = verify_transform(entry.problem, (2.0**-3, 2.0**-5, 2.0**-7), 4000, _SEED)
    gaps = [row["mean_sq"] for row in rows]
    decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
    ok = round_trip < 1e-10 and jump_gap < 1e-6 and decreasing
    _criterion(
        7,
        "transform oracle",
        ok,
        f"round_trip={round_trip:.2e} (tol 1e-10), "
        f"drift jump residual={jump_gap:.2e} (tol 1e-6), "
        f"benchmark gaps {', '.join(f'{g:.3e}' for g in gaps)} "
        f"({'strictly decreasing' if decreasing else 'not decreasing'})",
    )


def test_criterion_08_brownian_bridge_statistics():
    m = 100_000
    end_first = np.empty((m, 2))
    for i in range(m):
        path = BrownianPath(1, 101, i)
        w_end = path.query(1.0)[0]
        end_first[i] = (path.query(0.5)[0], w_end)
    resid = end_first[:, 0] - 0.5 * end_first[:, 1]
    mean_err = abs(float(np.mean(resid)))
    mean_tol = 3.0 * math.sqrt(0.25 / m)
    var = float(np.var(resid, ddof=1))
    var_tol = 3.0 * 0.25 * math.sqrt(2.0 / (m - 1))
    cov_bridge = float(np.mean(end_first[:, 0] * end_first[:, 1]))
    mid_first = np.empty((m, 2))
    for i in range(m):
        path = BrownianPath(1, 202, i)
        w_mid = path.query(0.5)[0]
        mid_first[i] = (w_mid, path.query(1.0)[0])
    cov_forward = float(np.mean(mid_first[:, 0] * mid_first[:, 1]))
    cov_tol = 3.0 * math.sqrt(0.75 / m)
    ok = (
        mean_err <= mean_tol
        and abs(var - 0.25) <= var_tol
        and abs(cov_bridge - 0.5) <= cov_tol
        and abs(cov_forward - 0.5) <= cov_tol
    )
    _criterion(
        8,
        "brownian bridge statistics",
        ok,
        f"bridged midpoint mean err {mean_err:.2e} (tol {mean_tol:.2e}), "
        f"variance {var:.4f} (0.25 +- {var_tol:.4f}), "
        f"cov(W(0.5),W(1)) {cov_bridge:.4f}/{cov_forward:.4f} by query order "
        f"(0.5 +- {cov_tol:.4f})",
    )


def test_criterion_09_regression_exactness():
    deltas = tuple(2.0**-k for k in range(2, 10))
    c1, c2, c3 = 0.7, 1.3, 1.05
    values = [c1 * math.log(1.0 / d) ** c2 * d**c3 for d in deltas]
    fit = fit_rate(deltas, values)
    errs = (abs(fit.c1 - c1), abs(fit.c2 - c2), abs(fit.c3 - c3))
    scaled = fit_rate(deltas, [3.5 * v for v in values])
    equivariance = (
        abs(scaled.c1 - 3.5 * fit.c1),
        abs(scaled.c2 - fit.c2),
        abs(scaled.c3 - fit.c3),
    )
    ok = max(errs) < 1e-8 and max(equivariance) < 1e-10
    _criterion(
        9,
        "regression exactness",
        ok,
        f"coefficient errors {', '.join(f'{e:.2e}' for e in errs)} (tol 1e-8); "
        f"scale-equivariance gaps {', '.join(f'{e:.2e}' for e in equivariance)} (tol 1e-10)",
    )


def test_criterion_10_cli_reproducibility(tmp_path):
    runner = CliRunner()
    args = ["run", "example3", "--deltas", "2^-3,2^-4", "--samples", "600", "--seed", "11"]
    outputs = []
    for workers in (1, 3):
        out = tmp_path / f"workers{workers}"
        result = runner.invoke(main, args + ["--workers", str(workers), "--out", str(out)])
        assert result.exit_code == 0, result.output
        outputs.append((out / "report.csv").read_bytes())
    ok = outputs[0] == outputs[1]
    _criterion(
        10,
        "reproducibility across workers",
        ok,
        "report.csv byte-identical for --workers 1 and 3"
        if ok
        else "report.csv differs between --workers 1 and 3",
    )
