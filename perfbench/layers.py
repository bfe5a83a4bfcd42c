"""Span tracing of the package's layers, applied from outside the package.

A :class:`Tracer` replaces the names that callers look up (module globals
such as ``_engine.keyed_normals`` and class attributes such as
``Circle2D.distance``) with wrappers that record a span per call: name,
start, end, parent span and batch id.  Spans stay in memory; the layer
metrics are computed from them when the run ends.  Every replaced
attribute is put back by :meth:`Tracer.restore`, so a traced run cannot
leak into an untraced one.

Counts (iterations, lane-steps, draws, band fractions) are taken from the
arguments and results the wrappers see, so they repeat exactly for a given
seed.  The time an observer spends computing a count is charged to no layer.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

import numpy as np

from adaptive_em import _engine, cli, geometry, montecarlo, transform1d

PASSES = (
    "forward_pass",
    "bridged_pass",
    "occupation_pass",
    "equidistant_transformed_pass",
)
_JOBS = ("_coupled_job", "_occupation_job", "_verify_job")
_SURFACES = (geometry.PointSet1D, geometry.Hyperplane, geometry.Circle2D)


class PoolMeter:
    """Counts process pool starts.

    While installed, ``montecarlo.ProcessPoolExecutor`` is a subclass that
    counts its instances.  The benchmark's workloads run with one worker and
    should start none; the count is the check.
    """

    def __init__(self):
        self.starts = 0
        self._original = None

    def install(self):
        meter = self

        class MeteredPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                meter.starts += 1

        self._original = montecarlo.ProcessPoolExecutor
        montecarlo.ProcessPoolExecutor = MeteredPool
        return self

    def restore(self):
        montecarlo.ProcessPoolExecutor = self._original

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()


class _Pass:
    """Lane accounting of one lockstep kernel call."""

    __slots__ = ("lanes", "iterations", "lane_steps")

    def __init__(self, lanes):
        self.lanes = lanes
        self.iterations = 0
        self.lane_steps = 0


class Tracer:
    """Records spans and counts around the package's layer entry points."""

    def __init__(self):
        self.ids = {}  # span name -> name id
        self.names = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.batch = array("l")
        self.covered = array("d")  # time of each span covered by child spans
        self.counts = defaultdict(int)
        self.bands = defaultdict(lambda: [0, 0, 0])  # delta -> delta_sq, ramp, delta
        self.passes = []
        self.knot_buffer_bytes = 0
        self._stack = []
        self._batch = -1
        self._n_batches = 0
        self._pass = None
        self._patches = []

    # spans

    def open(self, name):
        idx = len(self.names)
        self.names.append(self.ids.setdefault(name, len(self.ids)))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.batch.append(self._batch)
        self.covered.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx):
        t = perf_counter()
        self.end[idx] = t
        self._stack.pop()
        p = self.parent[idx]
        if p >= 0:
            self.covered[p] += t - self.start[idx]

    def _charge_to_trace(self, t0):
        # observer time is not part of any layer: hide it from the parent
        if self._stack:
            self.covered[self._stack[-1]] += perf_counter() - t0

    # patching

    def wrap(self, owner, attr, name, observe=None, lanes_arg=None, batch=False):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``observe(args, kwargs, result)`` updates counts after the call;
        ``lanes_arg`` names the keys argument of a lockstep kernel, whose
        size is the batch width; ``batch`` starts a new batch id.
        """
        original = vars(owner)[attr] if attr in vars(owner) else getattr(owner, attr)
        signature = inspect.signature(original) if lanes_arg else None
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            outer_batch, outer_pass = tracer._batch, tracer._pass
            if batch:
                tracer._batch = tracer._n_batches
                tracer._n_batches += 1
            if lanes_arg:
                keys = signature.bind(*args, **kwargs).arguments[lanes_arg]
                tracer._pass = _Pass(int(np.size(keys)))
            idx = tracer.open(name)
            try:
                out = original(*args, **kwargs)
            finally:
                tracer.close(idx)
                if lanes_arg:
                    tracer.passes.append(tracer._pass)
                tracer._batch, tracer._pass = outer_batch, outer_pass
            if observe is not None:
                t0 = perf_counter()
                observe(args, kwargs, out)
                tracer._charge_to_trace(t0)
            return out

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self):
        """Patch every traced layer; see the module docstring."""
        for p in PASSES:
            observe = self._observe_knots if p == "forward_pass" else None
            self.wrap(_engine, p, f"_engine.{p}", observe=observe, lanes_arg="keys")
        self.wrap(_engine._KnotWalker, "bracket", "_engine.bracket")
        self.wrap(_engine, "coupled_pair", "_engine.coupled_pair")
        self.wrap(_engine, "keyed_normals", "brownian.keyed_normals", observe=self._observe_draws)
        self.wrap(
            _engine,
            "step_size_from_distance",
            "solver.step_size_from_distance",
            observe=self._observe_steps,
        )
        self.wrap(_engine, "_drift", "problems.drift")
        self.wrap(_engine, "_diffusion", "problems.diffusion")
        for cls in _SURFACES:
            self.wrap(cls, "distance", "geometry.distance", observe=self._observe_points)
        self.wrap(transform1d.Transform1D, "inverse", "transform1d.inverse")
        self.wrap(
            transform1d.Transform1D,
            "transformed_coeffs",
            "transform1d.transformed_coeffs",
            observe=self._observe_fixed_grid,
        )
        for job in _JOBS:
            self.wrap(montecarlo, job, "montecarlo.batch", batch=True)
        self.wrap(montecarlo, "_map_batches", "montecarlo.map_batches")
        self.wrap(montecarlo, "_mean_stderr", "montecarlo.mean_stderr")
        self.wrap(cli, "run_experiment", "montecarlo.run_experiment")
        self.wrap(cli, "verify_transform", "montecarlo.verify_transform")
        self.wrap(cli, "fit_rate", "regression.fit_rate")
        return self

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    # observers

    def _observe_knots(self, args, kwargs, out):
        size = out["kt"].nbytes + out["kw"].nbytes
        self.knot_buffer_bytes = max(self.knot_buffer_bytes, size)

    def _observe_draws(self, args, kwargs, out):
        self.counts["draws"] += int(out.size)

    def _observe_steps(self, args, kwargs, out):
        dist, params = args
        lanes = int(np.size(dist))
        if self._pass is not None:
            self._pass.iterations += 1
            self._pass.lane_steps += lanes
        inner = int(np.count_nonzero(dist <= params.eps2))
        outer = int(np.count_nonzero(dist >= params.eps1))
        band = self.bands[params.delta]
        band[0] += inner
        band[1] += lanes - inner - outer
        band[2] += outer

    def _observe_points(self, args, kwargs, out):
        self.counts["points"] += int(np.size(out))

    def _observe_fixed_grid(self, args, kwargs, out):
        # one transformed_coeffs call per iteration of the fixed-grid pass
        if self._pass is not None:
            self._pass.iterations += 1
            self._pass.lane_steps += int(np.size(args[1]))

    # results

    def summary(self):
        """Per-name call count, summed duration and self time, and durations."""
        ids = np.asarray(self.names)
        dur = np.asarray(self.end) - np.asarray(self.start)
        own = dur - np.asarray(self.covered)
        k = len(self.ids)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        selfs = np.bincount(ids, weights=own, minlength=k)
        return {
            name: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(selfs[i]),
                "durations": dur[ids == i],
            }
            for name, i in self.ids.items()
        }

    def coarse_spans(self):
        """Spans above the per-iteration calls, as (name, start, end, parent, batch)."""
        keep = ("cli.", "montecarlo.", "regression.", "_engine.coupled_pair") + tuple(
            f"_engine.{p}" for p in PASSES
        )
        names = {i: n for n, i in self.ids.items()}
        return [
            (names[nid], self.start[i], self.end[i], self.parent[i], self.batch[i])
            for i, nid in enumerate(self.names)
            if names[nid].startswith(keep)
        ]

    def band_record(self):
        """Fraction of step-size evaluations in each band, per delta."""
        rec = {}
        for delta, (sq, ramp, full) in sorted(self.bands.items(), reverse=True):
            total = sq + ramp + full
            rec[repr(delta)] = {
                "delta_sq": sq / total,
                "ramp": ramp / total,
                "delta": full / total,
            }
        return rec

    def layer_metrics(self):
        """Per-layer metrics (values only) from the recorded spans and counts."""
        s = self.summary()
        empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": np.zeros(0)}

        def get(name):
            return s.get(name, empty)

        m = {}
        for p in PASSES:
            m[f"engine.{p}.self_s"] = get(f"_engine.{p}")["self_s"]
        iterations = sum(ps.iterations for ps in self.passes)
        lane_steps = sum(ps.lane_steps for ps in self.passes)
        capacity = sum(ps.iterations * ps.lanes for ps in self.passes)
        m["engine.lockstep_iterations"] = iterations
        m["engine.lane_steps"] = lane_steps
        m["engine.lane_utilization"] = lane_steps / capacity if capacity else 0.0
        m["engine.straggler_ratio"] = max(
            (ps.iterations * ps.lanes / ps.lane_steps for ps in self.passes if ps.lane_steps),
            default=0.0,
        )
        m["engine.bracket.calls"] = get("_engine.bracket")["calls"]
        m["engine.bracket.self_s"] = get("_engine.bracket")["self_s"]
        pass_self = sum(m[f"engine.{p}.self_s"] for p in PASSES)
        m["engine.overhead_us_per_iter"] = 1e6 * pass_self / iterations if iterations else 0.0
        m["engine.knot_buffer_mb"] = self.knot_buffer_bytes / 2**20

        kn = get("brownian.keyed_normals")
        m["brownian.keyed_normals.calls"] = kn["calls"]
        m["brownian.keyed_normals.draws"] = self.counts["draws"]
        m["brownian.keyed_normals.self_s"] = kn["self_s"]

        m["solver.step_size_from_distance.self_s"] = get("solver.step_size_from_distance")["self_s"]
        totals = np.sum(list(self.bands.values()) or [[0, 0, 0]], axis=0)
        n_bands = max(int(totals.sum()), 1)
        for key, count in zip(("delta_sq", "ramp", "delta"), totals):
            m[f"solver.band_frac.{key}"] = int(count) / n_bands

        dist = get("geometry.distance")
        m["geometry.distance.calls"] = dist["calls"]
        m["geometry.distance.points"] = self.counts["points"]
        m["geometry.distance.self_s"] = dist["self_s"]

        for f in ("drift", "diffusion"):
            m[f"problems.{f}.calls"] = get(f"problems.{f}")["calls"]
            m[f"problems.{f}.self_s"] = get(f"problems.{f}")["self_s"]

        for f in ("inverse", "transformed_coeffs"):
            m[f"transform1d.{f}.calls"] = get(f"transform1d.{f}")["calls"]
            m[f"transform1d.{f}.self_s"] = get(f"transform1d.{f}")["self_s"]

        batches = get("montecarlo.batch")["durations"]
        m["montecarlo.batches"] = int(batches.size)
        m["montecarlo.batch_s.mean"] = float(batches.mean()) if batches.size else 0.0
        m["montecarlo.batch_s.max"] = float(batches.max()) if batches.size else 0.0
        m["montecarlo.reduce_s"] = (
            get("montecarlo.map_batches")["self_s"] + get("montecarlo.mean_stderr")["total_s"]
        )

        inside = get("montecarlo.run_experiment")["total_s"] + get("montecarlo.verify_transform")["total_s"]
        m["cli.overhead_s"] = get("cli.command")["total_s"] - inside
        m["regression.fit_rate.self_s"] = get("regression.fit_rate")["self_s"]
        return m
