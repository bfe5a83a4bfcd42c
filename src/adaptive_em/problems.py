"""Bundled example problems for the solver and the Monte Carlo harness.

Three problems with drift jumps: two scalar equations with breakpoint sets
on the line and one planar equation whose drift switches on the unit circle
and whose diffusion is rank one, so the noise can degenerate away from the
discontinuity.  All coefficient functions are module level and vectorized,
which keeps problems picklable for worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Circle2D, PointSet1D
from .solver import SdeProblem
from .transform1d import PiecewiseDrift1D, Transform1D


def _lift(f, x):
    # f on the scalar states; a constant result is broadcast to their shape
    s = x[..., 0]
    out = np.asarray(f(s), dtype=float)
    if out.shape != s.shape:
        out = np.broadcast_to(out, s.shape)
    return out


@dataclass(frozen=True)
class _Lift1D:
    """Scalar field reshaped to the (..., 1) state convention.

    Broadcasts constant fields up to the batch shape.
    """

    f: object

    def __call__(self, x):
        return _lift(self.f, x)[..., None]


@dataclass(frozen=True)
class _LiftDiffusion1D:
    f: object

    def __call__(self, x):
        return _lift(self.f, x)[..., None, None]


def _ex1_branch_low(x):
    return -2.0 * np.ones_like(x)


def _ex1_branch_mid(x):
    return x * x


def _ex1_branch_high(x):
    return 2.0 / x - 3.0 / (x * x)


def _ex1_sigma(x):
    return 0.5 * (1.0 + 1.0 / (1.0 + x * x))


def _ex2_branch_low(x):
    return -1.0 * np.ones_like(x)


def _ex2_branch_mid(x):
    return np.ones_like(x)


def _ex2_branch_high(x):
    return -2.0 * x


def _ex2_sigma(x):
    return np.ones_like(x)


def _ex3_drift(x):
    # switches from a rotationless pull (-x1, x2) inside the unit circle
    # to the constant (1, 1) on and outside it
    inside = x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1] < 1.0
    out = np.empty_like(np.asarray(x, dtype=float))
    out[..., 0] = np.where(inside, -x[..., 0], 1.0)
    out[..., 1] = np.where(inside, x[..., 1], 1.0)
    return out


def _ex3_diffusion(x):
    x = np.asarray(x, dtype=float)
    sig = np.zeros(x.shape + (2,))
    sig[..., 0, 0] = 0.5 * x[..., 0]
    sig[..., 1, 0] = 0.5 * x[..., 1]
    return sig


_EX1_DRIFT = PiecewiseDrift1D(
    breakpoints=(0.0, 1.0),
    branches=(_ex1_branch_low, _ex1_branch_mid, _ex1_branch_high),
)

_EX2_DRIFT = PiecewiseDrift1D(
    breakpoints=(-1.0, 2.0),
    branches=(_ex2_branch_low, _ex2_branch_mid, _ex2_branch_high),
)


@dataclass(frozen=True)
class ExampleEntry:
    """Registry record: the problem plus what the transform needs, if scalar."""

    name: str
    problem: SdeProblem
    piecewise_drift: PiecewiseDrift1D = None
    scalar_sigma: object = None

    def transform(self) -> Transform1D:
        if self.piecewise_drift is None:
            raise ValueError(f"{self.name} is not scalar; no transform available")
        return Transform1D(
            self.piecewise_drift, self.scalar_sigma, eps0=self.problem.eps0
        )


def _build_registry():
    ex1 = SdeProblem(
        dimension=1,
        drift=_Lift1D(_EX1_DRIFT),
        diffusion=_LiftDiffusion1D(_ex1_sigma),
        surface=PointSet1D((0.0, 1.0)),
        x0=np.array([1.5]),
        horizon=1.0,
        eps0=0.4,
        sigma_sup=1.0,
        mu_sup=2.0,
    )
    ex2 = SdeProblem(
        dimension=1,
        drift=_Lift1D(_EX2_DRIFT),
        diffusion=_LiftDiffusion1D(_ex2_sigma),
        surface=PointSet1D((-1.0, 2.0)),
        x0=np.array([0.0]),
        horizon=1.0,
        eps0=1.0,
        sigma_sup=1.0,
        mu_sup=6.0,
    )
    ex3 = SdeProblem(
        dimension=2,
        drift=_ex3_drift,
        diffusion=_ex3_diffusion,
        surface=Circle2D((0.0, 0.0), 1.0),
        x0=np.array([0.5, 0.5]),
        horizon=1.0,
        eps0=0.5,
        sigma_sup=0.75,
        mu_sup=1.5,
    )
    return {
        "example1": ExampleEntry(
            "example1", ex1, piecewise_drift=_EX1_DRIFT, scalar_sigma=_ex1_sigma
        ),
        "example2": ExampleEntry(
            "example2", ex2, piecewise_drift=_EX2_DRIFT, scalar_sigma=_ex2_sigma
        ),
        "example3": ExampleEntry("example3", ex3),
    }


EXAMPLES = _build_registry()


def example_names():
    return sorted(EXAMPLES)


def get_example(name: str) -> ExampleEntry:
    try:
        return EXAMPLES[name]
    except KeyError:
        raise KeyError(
            f"unknown example {name!r}; available: {', '.join(example_names())}"
        ) from None
