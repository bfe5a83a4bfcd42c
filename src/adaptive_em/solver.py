"""Step-size rule and problem definition of the adaptive Euler-Maruyama scheme.

The step size shrinks from delta far away from the discontinuity set to
delta squared inside a narrow band around it, with a continuous quadratic
ramp between the two bands.  Band widths scale with ``sigma_sup * log(1/delta)``
where ``sigma_sup`` bounds the Frobenius norm of the diffusion near the
surface.  The stepping itself, with the step budget set here, the horizon
crossing and the value at the horizon, lives in the lockstep driver of
``_engine``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import Hypersurface
from .transform1d import PiecewiseDrift1D


class RunawaySimulationError(RuntimeError):
    """A lane ran away: its state turned non-finite, or it used up its step budget."""


@dataclass(frozen=True)
class StepSizeParams:
    """Resolution parameter and derived band widths of the step-size rule.

    ``eps1`` and ``eps2`` are the outer and inner band radii around the
    discontinuity set.  ``framework_valid`` records whether the outer band
    fits into a quarter of the tube radius ``eps0``; when it does not the
    scheme still runs, it just leaves the regime the error analysis assumes,
    which is routine for the coarsest resolutions.
    """

    delta: float
    eps0: float
    sigma_sup: float
    eps1: float = field(init=False)
    eps2: float = field(init=False)
    delta_sq: float = field(init=False)
    framework_valid: bool = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.delta * self.delta == 0.0:
            raise ValueError(f"delta {self.delta!r} is so small that delta**2 underflows to 0")
        if not (math.isfinite(self.eps0) and self.eps0 > 0):
            raise ValueError("eps0 must be positive")
        if not (math.isfinite(self.sigma_sup) and self.sigma_sup > 0):
            raise ValueError("sigma_sup must be positive")
        scale = self.sigma_sup * math.log(1.0 / self.delta)
        object.__setattr__(self, "eps1", scale * math.sqrt(self.delta))
        object.__setattr__(self, "eps2", scale * self.delta)
        object.__setattr__(self, "delta_sq", self.delta * self.delta)
        object.__setattr__(self, "framework_valid", self.eps1 < self.eps0 / 4.0)
        # 0-d copies for step_size_from_distance: numpy converts a Python float
        # operand on every call, a 0-d array it takes as it is.  Plain
        # attributes, not fields, so eq, hash and repr ignore them
        for name in ("delta", "eps1", "eps2", "delta_sq"):
            object.__setattr__(self, f"_{name}_0d", np.array(getattr(self, name)))

    @classmethod
    def for_problem(cls, problem: "SdeProblem", delta: float) -> "StepSizeParams":
        """Parameters for ``problem``; a ValueError if its step budget overflows."""
        params = cls(delta=delta, eps0=problem.eps0, sigma_sup=problem.sigma_sup)
        _step_budget(problem, params)
        return params


def step_size_from_distance(dist, params: StepSizeParams):
    """Step size as a function of the distance to the discontinuity set.

    Vectorized over ``dist``.  The ramp is anchored at ``eps1`` so that its
    value is exactly ``delta`` there, and the band edges are pinned so the
    piecewise map is continuous to the last bit: ``delta**2`` at ``eps2``
    and ``delta`` from ``eps1`` on.
    """
    dist = np.asarray(dist, dtype=float)
    # squared via multiplication: scalar ** 2 can round differently from the
    # array ufunc, and the batched kernels must reproduce scalar runs bit for bit
    ratio = dist / params._eps1_0d
    ramp = params._delta_0d * ratio * ratio
    # from eps1 on the ratio rounds to at least 1, so the ramp is capped at delta
    h = np.minimum(params._delta_0d, np.maximum(params._delta_sq_0d, ramp))
    return np.where(dist <= params._eps2_0d, params._delta_sq_0d, h)


@dataclass(frozen=True, eq=False)
class SdeProblem:
    """SDE with drift discontinuous on ``surface``, plus scheme constants.

    ``drift`` maps states of shape (..., d) to values of the same shape and
    ``diffusion`` maps them to matrices of shape (..., d, d); both must accept
    batched input.  ``sigma_sup`` bounds the Frobenius norm of the diffusion
    on the eps0-tube around the surface; it is supplied by the problem
    definition, not estimated.  No bound on the drift enters the scheme.  The
    scheme refines its step only near the surface, so the drift may jump
    only on it; this is checked for a scalar ``PiecewiseDrift1D`` drift.  The
    jumps of any other drift, such as one numpy expression with ``where`` or
    ``sign``, cannot be read off it: such a drift must be continuous off the
    surface, and a scalar drift that jumps is given as a ``PiecewiseDrift1D``.
    """

    dimension: int
    drift: Callable
    diffusion: Callable
    surface: Hypersurface
    x0: np.ndarray
    horizon: float
    eps0: float
    sigma_sup: float

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        if self.surface.dimension != self.dimension:
            raise ValueError("surface dimension does not match the problem")
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if x0.shape != (self.dimension,) or not np.all(np.isfinite(x0)):
            raise ValueError("x0 must be a finite vector of length dimension")
        object.__setattr__(self, "x0", x0)
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be positive")
        if not (math.isfinite(self.eps0) and self.eps0 > 0):
            raise ValueError("eps0 must be positive")
        if not self.eps0 < self.surface.reach:
            raise ValueError("eps0 must be smaller than the reach of the surface")
        if not (math.isfinite(self.sigma_sup) and self.sigma_sup > 0):
            raise ValueError("sigma_sup must be positive")
        mu0 = np.asarray(self.drift(x0), dtype=float)
        sig0 = np.asarray(self.diffusion(x0), dtype=float)
        if mu0.shape != (self.dimension,) or not np.all(np.isfinite(mu0)):
            raise ValueError("drift(x0) must return a finite (d,) vector")
        if sig0.shape != (self.dimension,) * 2 or not np.all(np.isfinite(sig0)):
            raise ValueError("diffusion(x0) must return a finite (d, d) matrix")
        # the step shrinks only near the surface, so the scheme would step
        # over a jump off it at full size; a breakpoint without a jump may
        # lie anywhere
        pw = getattr(self.drift, "f", None)
        if isinstance(pw, PiecewiseDrift1D):
            for b, left, right in zip(pw.breakpoints, pw.left_limits, pw.right_limits):
                if left != right and float(self.surface.distance(np.array([b]))) != 0.0:
                    raise ValueError(
                        f"the drift jumps at breakpoint {b}, which is not on the surface"
                    )


def _step_budget(problem: SdeProblem, params: StepSizeParams) -> int:
    """Most steps a lane may take: ten times the horizon over ``delta**2``, plus one.

    Raises ValueError naming ``delta`` when that number is not finite, or
    when ``delta**2`` is at most half an ulp of the horizon.  Above that
    bound ``t + delta**2 > t`` at every time ``t`` below the horizon.  Well
    below it, ``t + delta**2`` rounds back to ``t`` near the horizon, and a
    lane that keeps the inner band's step stalls there until its budget
    runs out; at a power-of-two horizon the bound is a factor of two stricter
    than needed.
    """
    horizon = problem.horizon
    budget = 10.0 * horizon / params.delta_sq
    if not math.isfinite(budget):
        raise ValueError(
            f"delta {params.delta!r} is too small for horizon {horizon!r}: "
            "the step budget 10 * horizon / delta**2 overflows"
        )
    if params.delta_sq <= math.ulp(horizon) / 2.0:
        raise ValueError(
            f"delta {params.delta!r} is too small for horizon {horizon!r}: "
            "a step of delta**2 is at most half an ulp of the horizon, "
            "so a lane's time may stop advancing"
        )
    return int(budget) + 1
