"""Adaptive Euler-Maruyama integration for SDEs whose drift jumps across a hypersurface.

The step size shrinks from delta to delta^2 as the state approaches the
discontinuity surface, which restores close-to-classical strong convergence.
The package bundles the step-size rule, lazily refined Brownian paths, the
batched lockstep solver behind the coupled Monte Carlo estimators for
convergence rate and cost, a jump-removing transform for scalar problems,
rate regression, and a CLI around three registered example problems.
"""

from .brownian import BrownianPath, keyed_normals, path_key
from .geometry import (
    Circle2D,
    Hyperplane,
    Hypersurface,
    PointSet1D,
    surface_from_config,
)
from .montecarlo import (
    ExperimentConfig,
    MonteCarloReport,
    occupation_values,
    run_experiment,
    verify_transform,
)
from .problems import EXAMPLES, example_names, get_example
from .regression import RegressionFit, SingularFitError, fit_rate
from .solver import RunawaySimulationError, SdeProblem, StepSizeParams
from .transform1d import (
    DegenerateDiffusionError,
    PiecewiseDrift1D,
    RootFindError,
    Transform1D,
    TransformParams,
    alpha,
    bump,
)

__all__ = [
    "BrownianPath",
    "Circle2D",
    "DegenerateDiffusionError",
    "EXAMPLES",
    "ExperimentConfig",
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
    "StepSizeParams",
    "Transform1D",
    "TransformParams",
    "alpha",
    "bump",
    "example_names",
    "fit_rate",
    "get_example",
    "keyed_normals",
    "occupation_values",
    "path_key",
    "run_experiment",
    "surface_from_config",
    "verify_transform",
]
