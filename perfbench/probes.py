"""Per-call cost of the parts every lockstep iteration pays for.

Each probe times one public function of a layer on a batch of 64, 512 or
4096 inputs drawn from the benchmark's seed and reports nanoseconds per
item (draw, lane or point).  A probe first computes a reference result
untimed; every timed block must reproduce its sha256, so a probe never
times a call whose result differs from the real one.
"""

from __future__ import annotations

import hashlib
import statistics
from time import perf_counter

import numpy as np

from adaptive_em.brownian import keyed_normals, time_bits
from adaptive_em.geometry import Hyperplane
from adaptive_em.problems import get_example
from adaptive_em.solver import StepSizeParams, step_size_from_distance

BATCHES = (64, 512, 4096)
_BLOCK_S = 0.02
_BLOCKS = 5


def _digest(result):
    parts = result if isinstance(result, tuple) else (result,)
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _ns_per_item(fn, items):
    """Median time per item over a few blocks, and whether results matched."""
    t0 = perf_counter()
    reference = _digest(fn())
    calls = max(1, int(_BLOCK_S / max(perf_counter() - t0, 1e-7)))
    per_call = []
    ok = True
    for _ in range(_BLOCKS):
        t0 = perf_counter()
        for _ in range(calls):
            out = fn()
        per_call.append((perf_counter() - t0) / calls)
        ok = ok and _digest(out) == reference
    return 1e9 * statistics.median(per_call) / items, ok


def _cases(rng, b):
    """(metric name, callable, items per call) for batch size ``b``."""
    ex1, ex2, ex3 = (get_example(f"example{i}") for i in (1, 2, 3))
    keys = rng.integers(0, 2**64, b, dtype=np.uint64)
    counters = rng.integers(1, 4096, b, dtype=np.uint64)
    tbits = time_bits(rng.uniform(0.0, 1.0, b))
    for d in (1, 2):
        yield (f"brownian.keyed_normals.ns_per_draw.d{d}.b{b}",
               lambda d=d: keyed_normals(keys, counters, tbits, d), b * d)

    params = StepSizeParams.for_problem(ex1.problem, 2.0**-8)
    dist = rng.uniform(0.0, 2.0 * params.eps1, b)  # spans all three bands
    yield (f"solver.step_size_from_distance.ns_per_lane.b{b}",
           lambda: step_size_from_distance(dist, params), b)

    x1 = rng.uniform(-1.0, 2.5, (b, 1))
    x2 = rng.normal(0.0, 0.8, (b, 2))
    surfaces = (
        ("PointSet1D", ex1.problem.surface, x1),
        ("Hyperplane", Hyperplane((0.6, 0.8), 0.3), x2),
        ("Circle2D", ex3.problem.surface, x2),
    )
    for label, surface, x in surfaces:
        yield (f"geometry.distance.{label}.ns_per_point.b{b}",
               lambda s=surface, x=x: s.distance(x), b)

    states = (
        ("example1", ex1.problem, x1),
        ("example2", ex2.problem, rng.uniform(-2.0, 3.0, (b, 1))),
        ("example3", ex3.problem, x2),
    )
    for label, problem, x in states:
        yield (f"problems.coeffs.{label}.ns_per_point.b{b}",
               lambda p=problem, x=x: (p.drift(x), p.diffusion(x)), b)

    transform = ex2.transform()
    z = rng.uniform(-1.5, 2.5, b)  # both bump intervals and the flat parts
    yield (f"transform1d.transformed_coeffs.ns_per_point.b{b}",
           lambda: transform.transformed_coeffs(z), b)


def run_probes(seed):
    """All probe metrics (ns per item) and the names of probes that failed."""
    rng = np.random.default_rng(seed)
    metrics, failed = {}, []
    for b in BATCHES:
        for name, fn, items in _cases(rng, b):
            metrics[name], ok = _ns_per_item(fn, items)
            if not ok:
                failed.append(name)
    return metrics, failed
