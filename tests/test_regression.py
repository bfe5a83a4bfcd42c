import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import adaptive_em
from adaptive_em.regression import RegressionFit, SingularFitError, fit_rate


def _curve(c1, c2, c3, deltas):
    d = np.asarray(deltas, dtype=float)
    return c1 * np.log(1.0 / d) ** c2 * d ** c3


def test_exact_recovery():
    deltas = 2.0 ** -np.arange(2, 9)
    values = _curve(2.0, -1.0, 1.0, deltas)
    fit = fit_rate(deltas, values)
    assert fit.c1 == pytest.approx(2.0, abs=1e-8)
    assert fit.c2 == pytest.approx(-1.0, abs=1e-8)
    assert fit.c3 == pytest.approx(1.0, abs=1e-8)
    assert fit.residual_logspace < 1e-14
    assert fit.residual_rawspace < 1e-12
    np.testing.assert_allclose(fit.evaluate(deltas), values, rtol=1e-10)


def test_constant_data_recovers_flat_curve():
    deltas = [0.25, 0.125, 0.0625, 0.03125]
    fit = fit_rate(deltas, [3.5] * 4)
    assert fit.c1 == pytest.approx(3.5, abs=1e-9)
    assert fit.c2 == pytest.approx(0.0, abs=1e-9)
    assert fit.c3 == pytest.approx(0.0, abs=1e-9)


def test_scale_equivariance():
    deltas = 2.0 ** -np.arange(2, 8)
    rng = np.random.default_rng(6)
    values = _curve(1.3, 0.7, 1.9, deltas) * np.exp(rng.normal(0.0, 0.05, deltas.size))
    base = fit_rate(deltas, values)
    scaled = fit_rate(deltas, 10.0 * values)
    assert scaled.c1 == pytest.approx(10.0 * base.c1, rel=1e-10)
    assert scaled.c2 == pytest.approx(base.c2, abs=1e-10)
    assert scaled.c3 == pytest.approx(base.c3, abs=1e-10)


def test_permutation_gives_bit_identical_fit():
    deltas = 2.0 ** -np.arange(2, 9)
    rng = np.random.default_rng(7)
    values = _curve(0.8, 1.1, 1.4, deltas) * np.exp(rng.normal(0.0, 0.1, deltas.size))
    base = fit_rate(deltas, values)
    perm = rng.permutation(deltas.size)
    shuffled = fit_rate(deltas[perm], values[perm])
    assert (base.c1, base.c2, base.c3) == (shuffled.c1, shuffled.c2, shuffled.c3)
    assert base.residual_logspace == shuffled.residual_logspace


def test_noisy_rate_recovered_within_tolerance():
    deltas = 2.0 ** -np.arange(2, 11)
    rng = np.random.default_rng(8)
    values = _curve(1.0, 1.0, 2.0, deltas) * np.exp(rng.normal(0.0, 0.03, deltas.size))
    fit = fit_rate(deltas, values)
    assert fit.c3 == pytest.approx(2.0, abs=0.1)
    assert fit.residual_logspace < 0.05


def test_input_validation():
    good = [0.25, 0.125, 0.0625]
    with pytest.raises(ValueError):
        fit_rate(good, [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_rate([0.25, 0.125, 1.5], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        fit_rate(good, [1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        fit_rate(good, [1.0, np.nan, 1.0])


def test_too_few_distinct_deltas_is_singular():
    with pytest.raises(SingularFitError):
        fit_rate([0.25, 0.125], [1.0, 2.0])
    with pytest.raises(SingularFitError):
        fit_rate([0.25, 0.25, 0.125, 0.125], [1.0, 1.1, 2.0, 2.1])


def test_evaluate_matches_formula():
    fit = RegressionFit(c1=2.0, c2=1.5, c3=-1.0, residual_logspace=0.0,
                        residual_rawspace=0.0)
    d = 0.125
    expected = 2.0 * np.log(8.0) ** 1.5 * d ** -1.0
    assert fit.evaluate(d) == pytest.approx(expected, rel=1e-12)
    np.testing.assert_allclose(
        fit.evaluate([0.25, 0.125]),
        [2.0 * np.log(4.0) ** 1.5 / 0.25, expected],
        rtol=1e-12,
    )


_LAZY_SCIPY_LINALG = """
import sys
import adaptive_em.cli
from adaptive_em.montecarlo import verify_transform
from adaptive_em.problems import get_example
entry = get_example("example2")
verify_transform(entry.problem, [0.25], 2, 0)
assert "scipy.linalg" not in sys.modules, "scipy.linalg loaded before any fit"
from adaptive_em.regression import fit_rate
fit = fit_rate([0.25, 0.125, 0.0625], [1.0, 0.5, 0.25])
assert abs(fit.c3 - 1.0) < 1e-9, fit
"""


def test_scipy_linalg_is_loaded_only_by_a_fit():
    # a fresh interpreter, since this one may have loaded scipy.linalg already
    src = Path(adaptive_em.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_SCIPY_LINALG], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
