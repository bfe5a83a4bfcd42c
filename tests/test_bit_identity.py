"""``scripts/bit_identity.py`` on this tree, on a copy with one output perturbed,
and on a tree without the package."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bit_identity", ROOT / "scripts" / "bit_identity.py")
bit_identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bit_identity)

# the first squared gap of the batch job, moved up by 1
_PERTURB = '''

def _perturbed(job):
    def run(payload, start, stop):
        out = job(payload, start, stop)
        out[0][0, 0] += 1.0
        return out

    return run


_coupled_job = _perturbed(_coupled_job)
'''


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(bit_identity, "COMMANDS", {
        "run-example1": [
            ["run", "example1", "--deltas", "2^-2", "--samples", "4", "--out", "{out}"],
        ],
    })


def test_same_tree_twice_is_identical(tiny, capsys):
    assert bit_identity.main([str(ROOT)]) == 0
    out = capsys.readouterr().out
    # report.json differs in wall_time, which the comparison drops
    for name in ("report.csv", "report.json"):
        assert f"identical  run-example1/{name}" in out
    assert "every file identical" in out


def test_perturbed_output_differs(tiny, tmp_path, capsys):
    pkg = tmp_path / "src" / "adaptive_em"
    shutil.copytree(ROOT / "src" / "adaptive_em", pkg, ignore=shutil.ignore_patterns("__pycache__"))
    with open(pkg / "montecarlo.py", "a") as f:
        f.write(_PERTURB)
    assert bit_identity.main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "DIFFERENT  run-example1/report.csv" in out
    assert "the trees' outputs differ" in out


def test_tree_without_the_package_fails(tiny, tmp_path, capsys):
    assert bit_identity.main([str(tmp_path)]) == 1
    assert "the commands failed" in capsys.readouterr().err
