"""``scripts/bench_record.py`` on synthetic benchmark outputs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

METRICS = [
    {"name": "norm_cpu_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "steps_per_norm_cpu_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def _result(cpu, steps, correct=True, failed=0):
    metrics = {"norm_cpu_s": {"value": cpu}, "steps_per_norm_cpu_s": {"value": steps}}
    return {"correct": correct, "attempted": 3, "failed": failed, "metrics": metrics}


def _write(run_dir, side, workload, seed, result):
    text = f"# {side} {workload} seed {seed}\n# more progress\n{json.dumps(result)}\n"
    (run_dir / f"{side}-{workload}-{seed}.out").write_text(text)


def test_summarize_medians_quartiles_and_wins(tmp_path):
    parent = [4.0, 2.0, 3.0, 5.0, 1.0]
    change = [3.0, 2.5, 2.0, 4.0, 1.0]
    for seed, (p, c) in enumerate(zip(parent, change), start=11):
        _write(tmp_path, "parent", "ladder-ex1", seed, _result(p, 10.0 / p))
        _write(tmp_path, "change", "ladder-ex1", seed, _result(c, 10.0 / c, failed=seed % 2))
    # an unpaired run and a file of another name are ignored
    _write(tmp_path, "parent", "ladder-ex1", 99, _result(100.0, 0.1))
    (tmp_path / "notes.txt").write_text("not a run\n")
    runs = bench_record.load_runs(tmp_path)
    assert len(runs) == 11
    assert runs["change", "ladder-ex1", 13] == _result(2.0, 5.0, failed=1)
    entry = bench_record.summarize(runs, METRICS)["ladder-ex1"]
    assert entry["seeds"] == [11, 12, 13, 14, 15]
    assert entry["parent"] == {"correct": True, "failed": 0, "attempted": 15}
    assert entry["change"] == {"correct": True, "failed": 3, "attempted": 15}
    cpu = entry["metrics"]["norm_cpu_s"]
    assert cpu["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert cpu["change"] == {"median": 2.5, "q1": 2.0, "q3": 3.0}
    assert cpu["rel_change"] == pytest.approx(-1.0 / 6.0)
    # lower is better: pairs 11, 13 and 14 win, 12 loses, 15 ties
    assert cpu["change_wins"] == 3
    assert (cpu["unit"], cpu["better"], cpu["bound"]) == ("s", "lower", 0.25)
    steps = entry["metrics"]["steps_per_norm_cpu_s"]
    assert steps["parent"]["median"] == pytest.approx(10.0 / 3.0)
    assert steps["change_wins"] == 3


def test_summarize_flags_an_incorrect_side(tmp_path):
    _write(tmp_path, "parent", "transform-ex2", 1, _result(2.0, 1.0))
    _write(tmp_path, "change", "transform-ex2", 1, _result(1.0, 2.0, correct=False))
    entry = bench_record.summarize(bench_record.load_runs(tmp_path), METRICS)["transform-ex2"]
    assert entry["parent"]["correct"] is True
    assert entry["change"]["correct"] is False


def test_summarize_needs_a_complete_pair(tmp_path):
    _write(tmp_path, "parent", "ladder-ex1", 1, _result(2.0, 1.0))
    _write(tmp_path, "change", "ladder-ex1", 2, _result(2.0, 1.0))
    with pytest.raises(ValueError, match="no complete parent/change pair for ladder-ex1"):
        bench_record.summarize(bench_record.load_runs(tmp_path), METRICS)


@pytest.mark.parametrize("text", ["", "# started\n# still running\n"])
def test_load_runs_rejects_an_output_without_a_result(tmp_path, text):
    _write(tmp_path, "parent", "ladder-ex1", 1, _result(2.0, 1.0))
    (tmp_path / "change-ladder-ex1-1.out").write_text(text)
    with pytest.raises(ValueError, match="does not end in a result line"):
        bench_record.load_runs(tmp_path)
