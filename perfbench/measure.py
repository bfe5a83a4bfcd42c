"""Untraced (end-to-end) and traced (per-layer) measurement of one workload.

The load is a closed loop: one client runs the workload's commands, one
repetition at a time.  Repetition ``i`` of a run with seed ``s`` uses the
package seed ``1000 * s + i``, so a run averages over several sample sets
and the same seed always gives the same inputs.  In an untraced run each
repetition runs in a fresh interpreter (``child.py``), which makes its
set-up and peak memory its own.

Times that gate a change are CPU seconds (user plus system) at the
reference speed of ``reference.py``.  CPU time leaves out stretches in which
other processes, or the host of a virtual machine, hold the core; the
reference speed corrects for stretches in which the core runs slower because
neighbours load it.  Raw CPU and wall time are printed as well, and the
traced run reports them.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import layers
import probes
import reference
from adaptive_em.solver import StepSizeParams
from workloads import SCRATCH, WORKLOADS, run_repetition

HERE = Path(__file__).resolve().parent
END_TO_END = ("norm_cpu_s", "steps_per_norm_cpu_s", "setup_s", "peak_rss_mb")
DEFAULT_SEED = 0
MIN_REPS = 3


def rep_seed(seed, i):
    """Package seed of repetition ``i``; repetition 0 of seed 0 is pinned."""
    return 1000 * seed + i


def unit_of(name):
    """Unit of a reported metric, from its name."""
    if ".ns_per_" in name:
        return "ns"
    if name.endswith("_us_per_iter"):
        return "us"
    if name.endswith("_mb"):
        return "MB"
    if name.startswith("steps_per_"):
        return "1/s"
    if "_frac" in name or name.endswith(("lane_utilization", "straggler_ratio")):
        return "ratio"
    if name.endswith("_s") or ".batch_s." in name:
        return "s"
    return "count"


def _metrics(values):
    return {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}


def _note(label, payload):
    print(f"# {label} {json.dumps(payload)}")


def machine_record():
    """Versions, cores, start method and the time of the reference block."""
    blocks = []
    for _ in range(6):
        t0 = perf_counter()
        reference.block()
        blocks.append(perf_counter() - t0)
    blocks = blocks[1:]  # the first block also pays for waking the CPU up
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.machine(),
        "start_method": multiprocessing.get_start_method(),
        "calibration_ms": 1e3 * statistics.median(blocks),
    }


def regime_record(wl):
    """Band radii and the paper's regime flag eps1 < eps0/4 per delta."""
    problem = wl.resolve()[0]
    rec = []
    for d in wl.delta_values():
        p = StepSizeParams.for_problem(problem, d)
        rec.append({"delta": d, "eps1": p.eps1, "eps2": p.eps2, "framework_valid": p.framework_valid})
    return rec


def run_child(wl, seed):
    """Wall seconds of a fresh interpreter running one repetition, and its result."""
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(asdict(wl)), str(seed)]
    t0 = perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=False)
    wall = perf_counter() - t0
    if proc.returncode:
        raise RuntimeError(f"{wl.name} child exited with code {proc.returncode}")
    return wall, json.loads(proc.stdout)


class Gate:
    """Counts output rows that are missing or differ from a reference.

    Rows differ when a repeated run of the same seed disagrees, or, at the
    default seed, when they do not match ``pins.json``.
    """

    def __init__(self, wl):
        self.expected = wl.row_ids()
        self.pins = json.loads((HERE / "pins.json").read_text()).get(wl.name)
        self.attempted = 0
        self.failures = []

    def check(self, label, seed, digests, errors=(), reference=None, differ=()):
        for err in errors:
            print(f"# error {label}: {err}")
        pins = self.pins if seed == rep_seed(DEFAULT_SEED, 0) else None
        for rid in self.expected:
            got = digests.get(rid)
            self.attempted += 1
            if (
                got is None
                or rid in differ
                or (reference is not None and got != reference.get(rid))
                or (pins is not None and got != pins.get(rid))
            ):
                self.failures.append(f"{label} {rid}")

    def result(self, metrics):
        for f in self.failures:
            print(f"# failed row {f}")
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": _metrics(metrics),
        }


def _time_to_rse10(wl, table, wall):
    """Seconds to reach a 10 % relative standard error at the finest delta."""
    return wall * (wl.finest_rse(table) / 0.1) ** 2 if table else 0.0


def _print_metrics(values, samples=None):
    for key, value in values.items():
        line = f"# {key} {value:.6g} {unit_of(key)}"
        if samples and key in samples:
            line += f" (of {len(samples[key])} samples, max {max(samples[key]):.6g})"
        print(line)


def _more(elapsed, reps, seconds):
    """Whether another repetition brings the run closer to ``seconds``."""
    if reps < MIN_REPS:
        return True
    return elapsed + 0.5 * elapsed / reps < seconds


def untraced(name, seed, seconds, wl=None):
    """End-to-end metrics from repetitions filling about ``seconds``.

    Times and throughput are medians over repetitions; memory is the mean
    (see below).  A child's set-up is scaled by the reference speed of the
    repetition it runs next: set-up is too short for the reference thread to
    time on its own.
    """
    wl = wl or WORKLOADS[name]
    SCRATCH.mkdir(exist_ok=True)
    _note("machine", machine_record())
    _note("regime", regime_record(wl))
    gate = Gate(wl)
    reps, elapsed = [], 0.0
    with reference.SpeedReference() as speed:
        while _more(elapsed, len(reps), seconds):
            s = rep_seed(seed, len(reps))
            wall, rep = run_child(wl, s)
            elapsed += wall
            gate.check(f"seed{s}", s, rep["digests"], rep["errors"], differ=rep["differ"])
            reps.append(rep)
    scale = [speed.scale(*r["span"]) for r in reps]
    steps = [wl.lane_steps(r["table"]) if r["table"] else 0.0 for r in reps]
    norm = [r["cpu_s"] * k for r, k in zip(reps, scale)]
    samples = {
        "norm_cpu_s": norm,
        "steps_per_norm_cpu_s": [n / c for n, c in zip(steps, norm)],
        "setup_s": [r["setup_s"] * k for r, k in zip(reps, scale)],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "cpu_s": [r["cpu_s"] for r in reps],
        "wall_s": [r["wall_s"] for r in reps],
        "steps_per_s": [n / r["wall_s"] for n, r in zip(steps, reps)],
        "time_to_rse10_s": [_time_to_rse10(wl, r["table"], r["wall_s"]) for r in reps],
    }
    values = {k: statistics.median(v) for k, v in samples.items()}
    # knot buffers grow by doubling, so one repetition's peak sits on one of
    # a few levels set by its slowest lane: the mean over sample sets moves
    # by a fraction of a level where a median would jump a whole one
    values["peak_rss_mb"] = statistics.fmean(samples["peak_rss_mb"])
    values["failed_frac"] = len(gate.failures) / gate.attempted
    _note("rows", reps[0]["digests"])
    _note("samples", {**samples, "speed_scale": scale, "pool_starts": [r["pool_starts"] for r in reps]})
    _print_metrics(values, samples)
    return gate.result({k: values[k] for k in END_TO_END})


def traced(name, seed, wl=None):
    """Per-layer metrics from one traced repetition, plus probes.

    An untraced repetition of the same seed runs first; the traced one must
    reproduce its rows, and it is the base of the tracing overhead.
    """
    wl = wl or WORKLOADS[name]
    SCRATCH.mkdir(exist_ok=True)
    _note("machine", machine_record())
    _note("regime", regime_record(wl))
    s = rep_seed(seed, 0)
    run_repetition(wl.coarse(), s, SCRATCH)  # warm-up
    gate = Gate(wl)
    with layers.PoolMeter() as pools:
        base = run_repetition(wl, s, SCRATCH)
    gate.check("untraced", s, base.digests, base.errors)
    with layers.Tracer() as tracer:
        rep = run_repetition(wl, s, SCRATCH, tracer=tracer)
    gate.check("traced", s, rep.digests, rep.errors, base.digests)
    metrics = tracer.layer_metrics()
    metrics["montecarlo.pool_starts"] = pools.starts
    metrics["trace.overhead_frac"] = rep.wall_s / base.wall_s - 1.0
    metrics["cpu_s"] = base.cpu_s
    metrics["wall_s"] = base.wall_s
    metrics["steps_per_s"] = wl.lane_steps(base.table) / base.wall_s if base.table else 0.0
    metrics["time_to_rse10_s"] = _time_to_rse10(wl, base.table, base.wall_s)
    probe_metrics, probe_failures = probes.run_probes(seed)
    metrics.update(probe_metrics)
    gate.attempted += len(probe_metrics)
    gate.failures += [f"probe {p}" for p in probe_failures]
    metrics["failed_frac"] = len(gate.failures) / gate.attempted
    _note("bands", tracer.band_record())
    spans = tracer.coarse_spans()
    (SCRATCH / f"spans-{wl.name}-seed{seed}.json").write_text(json.dumps(spans))
    _print_metrics(metrics)
    return gate.result(metrics)
