"""Rate fits of the form c1 * log(1/delta)^c2 * delta^c3.

Convergence and cost curves of the adaptive scheme follow a power law in
delta with a logarithmic correction.  Taking logarithms makes the model
linear in (log c1, c2, c3), so the fit is ordinary least squares on the
regressors (1, log log(1/delta), log delta), solved through an explicit
QR factorization.  Rows are brought into a canonical order first, so any
permutation of the same data produces bit-identical coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SingularFitError(ValueError):
    """Raised when the regression system does not determine the coefficients."""


@dataclass(frozen=True)
class RegressionFit:
    """Fitted curve c1 * log(1/delta)^c2 * delta^c3.

    ``residual_logspace`` is the root-mean-square misfit of the linear
    system in log coordinates; ``residual_rawspace`` is the RMS gap
    between the fitted curve and the data values themselves.
    """

    c1: float
    c2: float
    c3: float
    residual_logspace: float
    residual_rawspace: float

    def evaluate(self, delta):
        d = np.asarray(delta, dtype=float)
        log_inv = np.log(1.0 / d)
        return self.c1 * log_inv**self.c2 * d**self.c3


def fit_rate(deltas, values) -> RegressionFit:
    """Least-squares fit of c1 * log(1/delta)^c2 * delta^c3 to the data.

    Args:
        deltas: step-size parameters, each in (0, 1).
        values: positive observations, one per delta.

    Raises:
        SingularFitError: fewer than 3 distinct deltas, or a numerically
            rank-deficient system.
        ValueError: mismatched lengths, deltas outside (0, 1), or
            non-positive values.
    """
    # scipy.linalg costs about 7 MB of RSS; only a fit needs it
    from scipy.linalg import solve_triangular

    d = np.asarray(deltas, dtype=float).ravel()
    v = np.asarray(values, dtype=float).ravel()
    if d.size != v.size:
        raise ValueError("deltas and values differ in length")
    if not np.all(np.isfinite(d)) or np.any(d <= 0.0) or np.any(d >= 1.0):
        raise ValueError("deltas must be finite and in (0, 1)")
    if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
        raise ValueError("values must be finite and positive")
    if np.unique(d).size < 3:
        raise SingularFitError("need at least 3 distinct deltas")
    order = np.lexsort((-v, -d))
    d = d[order]
    v = v[order]
    log_inv = np.log(1.0 / d)
    design = np.column_stack([np.ones(d.size), np.log(log_inv), np.log(d)])
    rhs = np.log(v)
    q, r = np.linalg.qr(design)
    diag = np.abs(np.diag(r))
    if diag.min() <= 1e-12 * max(diag.max(), 1.0):
        raise SingularFitError("rank-deficient regression system")
    coef = solve_triangular(r, q.T @ rhs)
    c1 = float(np.exp(coef[0]))
    c2 = float(coef[1])
    c3 = float(coef[2])
    raw = c1 * log_inv**c2 * d**c3
    return RegressionFit(
        c1=c1,
        c2=c2,
        c3=c3,
        residual_logspace=float(np.sqrt(np.mean((design @ coef - rhs) ** 2))),
        residual_rawspace=float(np.sqrt(np.mean((raw - v) ** 2))),
    )
