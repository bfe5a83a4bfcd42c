"""``scripts/ab_jobs.py`` on this tree and on a copy with one output perturbed."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_jobs", ROOT / "scripts" / "ab_jobs.py")
ab_jobs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_jobs)

# the first output of either batch job, one ulp up in its first row
_PERTURB = '''

def _perturbed(job):
    def run(payload, start, stop):
        out = job(payload, start, stop)
        out[0][0, 0] = np.nextafter(out[0][0, 0], np.inf)
        return out

    return run


_coupled_job = _perturbed(_coupled_job)
_verify_job = _perturbed(_verify_job)
'''


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(
        ab_jobs,
        "WORKLOADS",
        {"ladder-ex1": ("example1", (0.25, 0.125), 6), "transform-ex2": ("example2", (0.25,), 6)},
    )


@pytest.mark.parametrize("workload", ["ladder-ex1", "transform-ex2"])
def test_same_tree_twice_passes(small, workload, capsys):
    assert ab_jobs.main([str(ROOT), str(ROOT), "--workload", workload, "--pairs", "2"]) == 0
    out = capsys.readouterr().out
    # one traced peak per load, before the timed pairs
    peaks = [line.split() for line in out.splitlines() if " traced peak " in line]
    assert [p[0] for p in peaks] == ["A", "B", "A'"]
    assert all(p[4] == "MB" and float(p[3]) > 0.0 for p in peaks)
    assert out.index("A' traced peak") < out.index("pair 0:")
    assert "outputs identical over 2 pairs" in out
    assert "median B/A" in out
    assert "median A'/A, the A/A read" in out


@pytest.mark.parametrize("workload", ["ladder-ex1", "transform-ex2"])
def test_perturbed_output_fails(small, workload, tmp_path, capsys):
    pkg = tmp_path / "src" / "adaptive_em"
    shutil.copytree(ROOT / "src" / "adaptive_em", pkg, ignore=shutil.ignore_patterns("__pycache__"))
    with open(pkg / "montecarlo.py", "a") as f:
        f.write(_PERTURB)
    assert ab_jobs.main([str(ROOT), str(tmp_path), "--workload", workload, "--pairs", "2"]) == 1
    assert "the outputs differ" in capsys.readouterr().err


def test_trees_a_loads_twice_after_b():
    a, b, a2 = ab_jobs.load_trees(ROOT, ROOT, "_ab_test_")
    assert [pkg.__name__ for pkg in (a, b, a2)] == ["_ab_test_0", "_ab_test_1", "_ab_test_2"]
    assert a.montecarlo is not a2.montecarlo


def test_alternate_reverses_the_order_in_odd_pairs(capsys):
    calls = []

    def run(name, seconds):
        def call():
            calls.append(name)
            return seconds, b"same"

        return call

    runs = [run("A", 1.0), run("B", 1.1), run("A'", 1.0)]
    assert ab_jobs.alternate(runs, 4, lambda s: f"{s:.1f} s", "header") == 0
    assert calls == ["A", "B", "A'", "A'", "B", "A"] * 2
    out = capsys.readouterr().out
    assert "median B/A 1.1000 [quartiles 1.1000, 1.1000]" in out
    assert "median A'/A, the A/A read 1.0000 [quartiles 1.0000, 1.0000]" in out


def test_alternate_fails_when_the_second_load_of_a_differs(capsys):
    runs = [lambda: (1.0, b"a"), lambda: (1.0, b"a"), lambda: (1.0, b"other")]
    assert ab_jobs.alternate(runs, 2, str, "header") == 1
    assert "pair 0: the outputs differ" in capsys.readouterr().err
