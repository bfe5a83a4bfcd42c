"""``scripts/ab_kernel.py`` on this tree and on a copy with one output perturbed."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_kernel", ROOT / "scripts" / "ab_kernel.py")
ab_kernel = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_kernel)

# the drift of every transformed_coeffs call, one ulp up at its first point
_PERTURB = '''

def _perturbed(kernel):
    def run(self, z):
        mu, sg = kernel(self, z)
        mu = np.array(mu)
        mu.reshape(-1)[0] = np.nextafter(mu.reshape(-1)[0], np.inf)
        return mu, sg

    return run


Transform1D.transformed_coeffs = _perturbed(Transform1D.transformed_coeffs)
'''


@pytest.fixture
def small(monkeypatch):
    # 6 samples on one rung of 16 fixed-grid steps
    monkeypatch.setattr(
        ab_kernel.ab_jobs, "WORKLOADS", {"transform-ex2": ("example2", (0.25,), 6)}
    )


def test_capture_records_every_fixed_grid_step(small):
    tree = ab_kernel.ab_jobs.load_tree(ROOT, "_ab_kernel_capture")
    inputs = ab_kernel.capture(tree)
    assert len(inputs) == 16
    assert all(z.shape == (6,) for z in inputs)
    # the kernel is restored after the capture
    assert "recording" not in tree.Transform1D.transformed_coeffs.__qualname__


def test_same_tree_twice_passes(small, capsys):
    assert ab_kernel.main([str(ROOT), str(ROOT), "--pairs", "2", "--calls", "5"]) == 0
    out = capsys.readouterr().out
    assert "outputs identical over 5 calls and 2 pairs" in out
    assert "median B/A" in out
    assert "median A'/A, the A/A read" in out
    # one line per pair, each with the three loads' times per call
    pairs = [line for line in out.splitlines() if line.startswith("pair ")]
    assert len(pairs) == 2
    assert all(line.count(" us") == 3 for line in pairs)


def test_perturbed_output_fails(small, tmp_path, capsys):
    pkg = tmp_path / "src" / "adaptive_em"
    shutil.copytree(ROOT / "src" / "adaptive_em", pkg, ignore=shutil.ignore_patterns("__pycache__"))
    with open(pkg / "transform1d.py", "a") as f:
        f.write(_PERTURB)
    assert ab_kernel.main([str(ROOT), str(tmp_path), "--pairs", "2"]) == 1
    assert "the outputs differ" in capsys.readouterr().err
