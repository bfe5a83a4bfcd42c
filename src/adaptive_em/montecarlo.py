"""Monte Carlo estimators for the adaptive scheme.

The quantities of interest are per-step-size rows of coupled mean-square
differences (the scheme at delta against the scheme at 2*delta on the same
Brownian path, compared at the horizon), expected step counts, and optional
occupation times near the discontinuity surface.  The three estimators take
``(problem, ..., samples, master_seed, workers=1)`` with plain numbers between,
and check every input before any batch runs or any warning is logged.

Samples are simulated in fixed-size batches by the vectorized kernels in
``_engine``; because every Gaussian draw is keyed by (sample index, knot
counter, time bits), results do not depend on how samples are split across
batches or worker processes.  Reductions always run over arrays ordered by
sample index, so repeated runs with the same seed are bit-identical.  The
sequential single-sample references the batched kernels are tested against
live in ``tests/oracles.py``.
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _engine, brownian
from .problems import transform_of
from .solver import StepSizeParams

_BATCH = 512
_AHEAD = 4  # batches submitted ahead per pool worker

logger = logging.getLogger(__name__)


def _check_occupation_epsilons(problem, epsilons) -> None:
    # keeps the tube well inside the region the problem's bounds hold on
    for epsilon in epsilons:
        if not 0.0 < epsilon < 0.5 * problem.eps0:
            raise ValueError(f"epsilon {epsilon} outside (0, eps0/2)")


def _check_counts(samples, master_seed, workers) -> tuple:
    """Check the three integers; return ``samples`` and ``master_seed`` as Python ints.

    A Python int keys the paths at any width and sign, and the report serializes it.
    """
    for value, name in ((samples, "samples"), (workers, "workers"), (master_seed, "master_seed")):
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, not {value!r}")
    if samples < 2:
        raise ValueError("need at least 2 samples for standard errors")
    if workers < 1:
        raise ValueError("need at least 1 worker")
    return int(samples), int(master_seed)


def _nonempty_floats(values, what) -> tuple:
    values = tuple(float(v) for v in values)
    if not values:
        raise ValueError(f"need at least one {what}")
    return values


def _write_csv(stream, header, rows) -> None:
    """Write a CSV of ints and repr floats, which read back exactly."""
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(str(v) if isinstance(v, int) else repr(float(v)) for v in row) + "\n")


@dataclass
class MonteCarloReport:
    """Per-delta estimate rows plus run metadata."""

    rows: list = field(default_factory=list)
    samples: int = 0
    master_seed: int = 0
    wall_time: float = 0.0

    _CSV_COLUMNS = ("delta", "msq", "msq_stderr", "cost_mean", "cost_stderr")

    def to_csv(self, stream) -> None:
        """Write the pinned estimate columns; floats use repr for exactness."""
        cols = self._CSV_COLUMNS
        _write_csv(stream, cols, ([float(row[c]) for c in cols] for row in self.rows))

    def to_json_dict(self) -> dict:
        return {
            "samples": self.samples,
            "master_seed": self.master_seed,
            "wall_time": self.wall_time,
            "rows": self.rows,
        }


def equidistant_steps(problem, params) -> int:
    """Grid length matching the finest adaptive resolution, ceil(T/delta^2)."""
    return int(math.ceil(problem.horizon / params.delta_sq))


def _coupled_job(payload, start, stop):
    problem, deltas, master_seed = payload
    return _engine.coupled_pair(problem, deltas, np.arange(start, stop), master_seed)


def _occupation_job(payload, start, stop):
    problem, params, epsilons, master_seed = payload
    labels, keys, rung, by_sample = _engine.ladder_lanes(
        np.arange(start, stop), len(params), master_seed
    )
    occ = _engine.occupation_pass(problem, params, rung, epsilons, keys, labels)
    return (by_sample(occ),)


def _verify_job(payload, start, stop):
    problem, transform, deltas, master_seed = payload
    labels, keys, rung, by_sample = _engine.ladder_lanes(
        np.arange(start, stop), len(deltas), master_seed
    )
    params = tuple(StepSizeParams.for_problem(problem, d) for d in deltas)
    prior = _engine.forward_pass(problem, params, rung, keys, labels=labels)
    z0 = float(transform.value(problem.x0[0]))
    n_steps = [equidistant_steps(problem, p) for p in params]
    z_T = _engine.equidistant_transformed_pass(
        transform, z0, problem.horizon, n_steps, rung, keys, prior, labels
    )
    diff = prior["x_T"][:, 0] - transform.inverse(z_T)
    return (by_sample(diff * diff),)


def _in_order(pool, job, payload, spans, ahead):
    """Yield the job's result for each span in order, at most ``ahead`` submitted unread.

    A bounded window keeps memory flat in the number of batches, and a job
    that fails stops the run after no more than ``ahead`` batches.
    """
    pending = deque()
    try:
        for a, b in spans:
            pending.append(pool.submit(job, payload, a, b))
            if len(pending) == ahead:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def _map_batches(job, payload, samples, workers):
    """Run a batch job over [0, samples) and concatenate in index order.

    Each output has its sample axis moved last and is made contiguous, so
    a (samples, rungs) column comes back as one row of samples per rung.
    """
    t0 = time.perf_counter()
    starts = range(0, samples, _BATCH)
    spans = ((a, min(a + _BATCH, samples)) for a in starts)  # made as the batches run
    batches = -(-samples // _BATCH)
    # the pool starts all its processes at once: no more than there are batches
    workers = min(workers, batches)
    if workers > 1:
        # loaded before the fork, so the workers inherit it
        brownian.load_ndtri()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(_in_order(pool, job, payload, spans, _AHEAD * workers))
    else:
        parts = [job(payload, a, b) for a, b in spans]
    logger.info("%s: %d samples in %d batches on %d worker(s), %.3f s", job.__name__,
                samples, batches, workers, time.perf_counter() - t0)
    return [np.ascontiguousarray(np.moveaxis(np.concatenate(c), 0, -1)) for c in zip(*parts)]


def _mean_stderr(values):
    m = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(values.size))
    return m, se


def _run_summary(params, steps) -> dict:
    """One run's band radii, whether it is inside the analysed regime, and its step counts.

    ``steps`` holds the run's step count per sample; the mean is
    ``steps_total / samples``.
    """
    return {"eps1": params.eps1, "eps2": params.eps2, "framework_valid": params.framework_valid,
            "steps_total": int(np.sum(steps)), "steps_max": int(np.max(steps))}


def _top_shares(sq) -> dict:
    """Shares of the summed squared gaps carried by the 1 and the 10 largest samples."""
    total = float(np.sum(sq))
    if total == 0.0:
        return {"msq_top1_share": None, "msq_top10_share": None}
    top = np.sort(sq)[::-1]
    return {"msq_top1_share": float(top[0]) / total,
            "msq_top10_share": float(np.sum(top[:10])) / total}


def _warn_outside_regime(params):
    """Warn once per distinct step-size parameter set outside the analyzed regime.

    Called in the parent process, so worker processes and repeated pools
    add no warnings of their own.
    """
    for p in dict.fromkeys(params):
        if not p.framework_valid:
            logger.warning(
                "outer band eps1=%.4g exceeds eps0/4=%.4g at delta=%.4g; "
                "proceeding outside the analyzed regime",
                p.eps1, p.eps0 / 4.0, p.delta,
            )


def run_experiment(
    problem, deltas, samples, master_seed, workers=1, occupation_epsilons=()
) -> MonteCarloReport:
    """Coupled-difference and cost estimates for every delta.

    ``deltas`` are strictly decreasing, each in (0, 0.5) so the coarse run at
    twice the value stays admissible; ``occupation_epsilons``, the tube
    half-widths of optional occupation rows, each lie in (0, eps0/2).  The
    same inputs give bit-identical rows regardless of ``workers``.
    """
    deltas = _nonempty_floats(deltas, "delta")
    for d in deltas:
        if not 0.0 < d < 0.5:
            raise ValueError(f"delta {d} outside (0, 0.5)")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be strictly decreasing")
    samples, master_seed = _check_counts(samples, master_seed, workers)
    occupation_epsilons = tuple(float(e) for e in occupation_epsilons)
    _check_occupation_epsilons(problem, occupation_epsilons)
    coarse, fine = _engine.coupled_ladders(problem, deltas)
    _warn_outside_regime(p for pair in zip(coarse, fine) for p in pair)
    t0 = time.perf_counter()
    sq, n_fine, n_coarse = _map_batches(
        _coupled_job, (problem, deltas, master_seed), samples, workers
    )
    if occupation_epsilons:
        payload = (problem, fine, occupation_epsilons, master_seed)
        (occ,) = _map_batches(_occupation_job, payload, samples, workers)
    rows = []
    for r, delta in enumerate(deltas):
        # the pinned CSV columns, in order
        stats = (delta, *_mean_stderr(sq[r]), *_mean_stderr(n_fine[r].astype(float)))
        row = dict(zip(MonteCarloReport._CSV_COLUMNS, stats))
        # JSON only: the CSV keeps its pinned columns
        row["fine"] = _run_summary(fine[r], n_fine[r])
        row["coarse"] = _run_summary(coarse[r], n_coarse[r])
        row["log_factor"] = row["cost_mean"] * delta / math.log(1.0 / delta)
        row.update(_top_shares(sq[r]))
        if occupation_epsilons:
            row["occupation"] = [
                {"epsilon": eps, "mean": mean, "stderr": se}
                for eps, (mean, se) in zip(occupation_epsilons, map(_mean_stderr, occ[r]))
            ]
        rows.append(row)
    return MonteCarloReport(
        rows=rows,
        samples=samples,
        master_seed=master_seed,
        wall_time=time.perf_counter() - t0,
    )


def occupation_values(problem, delta, epsilons, samples, master_seed, workers=1):
    """Per-sample occupation times near the surface at ``delta``, in index order.

    ``epsilons`` is a non-empty sequence of tube half-widths, each in
    (0, eps0/2); the result has one row per epsilon, shape
    (len(epsilons), samples), from one pooled job.
    """
    params = StepSizeParams.for_problem(problem, float(delta))
    samples, master_seed = _check_counts(samples, master_seed, workers)
    epsilons = _nonempty_floats(epsilons, "epsilon")
    _check_occupation_epsilons(problem, epsilons)
    _warn_outside_regime([params])
    (vals,) = _map_batches(
        _occupation_job, (problem, (params,), epsilons, master_seed), samples, workers
    )
    return vals[0]


def verify_transform(problem, deltas, samples, master_seed, workers=1):
    """Mean squared benchmark gap per delta.

    For each delta, compares the adaptive scheme against an equidistant
    Euler run of the problem's ``transform_of``, mapped back to original
    coordinates; every delta runs in one pooled job.  Returns a list of dict
    rows with keys ``delta``, ``mean_sq`` and ``stderr``.
    """
    samples, master_seed = _check_counts(samples, master_seed, workers)
    deltas = _nonempty_floats(deltas, "delta")
    params = [StepSizeParams.for_problem(problem, d) for d in deltas]
    transform = transform_of(problem)
    _warn_outside_regime(params)
    (vals,) = _map_batches(
        _verify_job, (problem, transform, deltas, master_seed), samples, workers
    )
    return [
        {"delta": delta, "mean_sq": mean, "stderr": se}
        for delta, (mean, se) in zip(deltas, map(_mean_stderr, vals))
    ]
