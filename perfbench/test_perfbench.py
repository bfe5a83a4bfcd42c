"""Self-tests of the benchmark; run with ``python3 -m pytest perfbench -q``.

They run the benchmark's own code paths on workloads scaled down to a few
samples and rungs, so they take seconds, not minutes.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pytest  # noqa: E402

import layers  # noqa: E402
import measure  # noqa: E402
from adaptive_em import _engine, cli, geometry, montecarlo, transform1d  # noqa: E402
from workloads import WORKLOADS, run_repetition  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
# metric names: [A-Za-z0-9_.-]+, and BENCHMARK.json also needs a leading
# letter or digit and at most 64 characters
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Every metric the benchmark's specification names, by layer.
REQUIRED_END_TO_END = list(measure.END_TO_END)
UNBOUNDED = ["cpu_s", "wall_s", "steps_per_s", "time_to_rse10_s", "failed_frac"]
REQUIRED_PRINTED = REQUIRED_END_TO_END + UNBOUNDED
_PROBE_BATCHES = ("b64", "b512", "b4096")
REQUIRED_PER_LAYER = (
    [f"engine.{p}.self_s" for p in layers.PASSES]
    + [f"engine.{m}" for m in (
        "lockstep_iterations", "lane_steps", "lane_utilization", "straggler_ratio",
        "bracket.calls", "bracket.self_s", "overhead_us_per_iter", "knot_buffer_mb")]
    + [f"brownian.keyed_normals.{m}" for m in ("calls", "draws", "self_s")]
    + ["solver.step_size_from_distance.self_s"]
    + [f"solver.band_frac.{b}" for b in ("delta_sq", "ramp", "delta")]
    + [f"geometry.distance.{m}" for m in ("calls", "points", "self_s")]
    + [f"problems.{f}.{m}" for f in ("drift", "diffusion") for m in ("calls", "self_s")]
    + [f"transform1d.{f}.{m}" for f in ("inverse", "transformed_coeffs") for m in ("calls", "self_s")]
    + [f"montecarlo.{m}" for m in (
        "batches", "batch_s.mean", "batch_s.max", "pool_starts", "reduce_s")]
    + ["cli.overhead_s", "regression.fit_rate.self_s", "trace.overhead_frac"]
    + UNBOUNDED
    + [f"brownian.keyed_normals.ns_per_draw.{d}.{b}" for d in ("d1", "d2") for b in _PROBE_BATCHES]
    + [f"solver.step_size_from_distance.ns_per_lane.{b}" for b in _PROBE_BATCHES]
    + [f"geometry.distance.{s}.ns_per_point.{b}"
       for s in ("PointSet1D", "Hyperplane", "Circle2D") for b in _PROBE_BATCHES]
    + [f"problems.coeffs.example{i}.ns_per_point.{b}" for i in (1, 2, 3) for b in _PROBE_BATCHES]
    + [f"transform1d.transformed_coeffs.ns_per_point.{b}" for b in _PROBE_BATCHES]
)

# Smallest sizes that still run every command (fits need three rungs).
TINY = {
    "ladder-ex1": (32, "2^-2..2^-4"),
    "transform-ex2": (16, "2^-3,2^-4,2^-5"),
}


def tiny(name, **changes):
    samples, deltas = TINY[name]
    return dataclasses.replace(WORKLOADS[name], **{"samples": samples, "deltas": deltas, **changes})


def _contract_names(section):
    return [m["name"] for m in CONTRACT[section]]


def test_workload_names_agree():
    names = [w["name"] for w in CONTRACT["workloads"]]
    assert names == list(WORKLOADS)


def test_contract_names_metrics_of_the_specification():
    for section in ("end_to_end", "per_layer"):
        for m in CONTRACT[section]:
            assert NAME.fullmatch(m["name"]), m["name"]
            assert m["unit"] == measure.unit_of(m["name"]), m["name"]
    assert set(REQUIRED_END_TO_END) == set(_contract_names("end_to_end"))
    assert set(REQUIRED_PER_LAYER) <= set(_contract_names("per_layer"))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name, capsys):
    result = measure.untraced(name, 1, 0.0, wl=tiny(name))
    printed = {
        line.split()[1]
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("# ") and len(line.split()) >= 4
    }
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == _contract_names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert set(REQUIRED_PRINTED) <= printed


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name, capsys):
    result = measure.traced(name, 1, wl=tiny(name))
    capsys.readouterr()
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == _contract_names("per_layer")
    for key, m in result["metrics"].items():
        assert m["unit"] == measure.unit_of(key)


def test_pins_cover_every_row_and_the_gate_uses_them():
    pins = json.loads((HERE / "pins.json").read_text())
    for name, wl in WORKLOADS.items():
        assert list(pins[name]) == wl.row_ids()
    wl = WORKLOADS["ladder-ex1"]
    good = dict(pins[wl.name])
    bad = {**good, "report.csv:0.25": "0" * 64}
    seed = measure.rep_seed(measure.DEFAULT_SEED, 0)
    gate = measure.Gate(wl)
    gate.check("good", seed, good)
    assert gate.failures == []
    gate.check("bad", seed, bad)
    gate.check("repeat", seed + 1, good, reference=bad)
    assert gate.failures == ["bad report.csv:0.25", "repeat report.csv:0.25"]


def _traced_counts(wl):
    with layers.Tracer() as tracer:
        run_repetition(wl, 3, measure.SCRATCH, tracer=tracer)
    return {
        k: v
        for k, v in tracer.layer_metrics().items()
        if measure.unit_of(k) == "count" or ".band_frac." in k
        or k.endswith(("lane_utilization", "straggler_ratio"))
    }


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    measure.SCRATCH.mkdir(exist_ok=True)
    wl = tiny(name, samples=64)
    first, second = _traced_counts(wl), _traced_counts(wl)
    assert first["engine.lockstep_iterations"] > 0
    assert first == second


def _snapshot():
    owners = (_engine, _engine._KnotWalker, cli, montecarlo, transform1d.Transform1D,
              geometry.PointSet1D, geometry.Hyperplane, geometry.Circle2D)
    return {owner: dict(vars(owner)) for owner in owners}


def _assert_same(before, after):
    for owner, attrs in before.items():
        now = after[owner]
        assert now.keys() == attrs.keys(), owner
        changed = [k for k in attrs if now[k] is not attrs[k]]
        assert not changed, (owner, changed)


def test_wrappers_restore_every_patched_attribute():
    measure.SCRATCH.mkdir(exist_ok=True)
    before = _snapshot()
    with layers.PoolMeter():
        with layers.Tracer() as tracer:
            assert _engine.keyed_normals is not before[_engine]["keyed_normals"]
            run_repetition(tiny("ladder-ex1"), 1, measure.SCRATCH, tracer=tracer)
    _assert_same(before, _snapshot())
    with pytest.raises(RuntimeError):
        with layers.Tracer():
            raise RuntimeError("a failing traced run")
    _assert_same(before, _snapshot())


def test_refuses_to_run_without_package_source():
    measure.SCRATCH.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=measure.SCRATCH))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py",
             *"--workload ladder-ex1 --seed 1 --seconds 1 --trace 0".split()],
            cwd=bare, capture_output=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == b""
