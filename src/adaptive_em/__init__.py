"""Adaptive Euler-Maruyama integration for SDEs whose drift jumps across a hypersurface.

The step size shrinks from delta to delta^2 as the state approaches the
discontinuity surface, which restores close-to-classical strong convergence.
The package bundles the step-size rule, keyed Gaussian draws, the batched
lockstep solver behind the coupled Monte Carlo estimators for
convergence rate and cost, a jump-removing transform for scalar problems,
rate regression, and a CLI around three registered example problems.
"""

from .geometry import Circle2D, Hyperplane, Hypersurface, PointSet1D
from .montecarlo import MonteCarloReport, occupation_values, run_experiment, verify_transform
from .problems import example_names, get_example
from .regression import RegressionFit, SingularFitError, fit_rate
from .solver import RunawaySimulationError, SdeProblem
from .transform1d import DegenerateDiffusionError, PiecewiseDrift1D, RootFindError, Transform1D

__all__ = [
    "Circle2D",
    "DegenerateDiffusionError",
    "Hyperplane",
    "Hypersurface",
    "MonteCarloReport",
    "PiecewiseDrift1D",
    "PointSet1D",
    "RegressionFit",
    "RootFindError",
    "RunawaySimulationError",
    "SdeProblem",
    "SingularFitError",
    "Transform1D",
    "example_names",
    "fit_rate",
    "get_example",
    "occupation_values",
    "run_experiment",
    "verify_transform",
]
