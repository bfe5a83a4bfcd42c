"""Adaptive Euler-Maruyama scheme for drift discontinuous on a hypersurface.

The step size shrinks from delta far away from the discontinuity set to
delta squared inside a narrow band around it, with a continuous quadratic
ramp between the two bands.  Band widths scale with ``sigma_sup * log(1/delta)``
where ``sigma_sup`` bounds the Frobenius norm of the diffusion near the
surface.  Between grid points the scheme is extended by freezing the
coefficients at the left node, which is also how the value at the time
horizon is recovered from the final overshooting step.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .brownian import BrownianPath
from .geometry import Hypersurface


class RunawaySimulationError(RuntimeError):
    """A trajectory exceeded its step budget before reaching the horizon."""


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
    log_inv_delta: float = field(init=False)
    eps1: float = field(init=False)
    eps2: float = field(init=False)
    delta_sq: float = field(init=False)
    framework_valid: bool = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not (math.isfinite(self.eps0) and self.eps0 > 0):
            raise ValueError("eps0 must be positive")
        if not (math.isfinite(self.sigma_sup) and self.sigma_sup > 0):
            raise ValueError("sigma_sup must be positive")
        log_inv = math.log(1.0 / self.delta)
        scale = self.sigma_sup * log_inv
        object.__setattr__(self, "log_inv_delta", log_inv)
        object.__setattr__(self, "eps1", scale * math.sqrt(self.delta))
        object.__setattr__(self, "eps2", scale * self.delta)
        object.__setattr__(self, "delta_sq", self.delta * self.delta)
        object.__setattr__(self, "framework_valid", self.eps1 < self.eps0 / 4.0)

    @classmethod
    def for_problem(cls, problem: "SdeProblem", delta: float) -> "StepSizeParams":
        return cls(delta=delta, eps0=problem.eps0, sigma_sup=problem.sigma_sup)


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
    ratio = dist / params.eps1
    ramp = params.delta * ratio * ratio
    # from eps1 on the ratio rounds to at least 1, so the ramp is capped at delta
    h = np.minimum(params.delta, np.maximum(params.delta_sq, ramp))
    return np.where(dist <= params.eps2, params.delta_sq, h)


def step_size(x, params: StepSizeParams, surface: Hypersurface):
    """Adaptive step size at state ``x``; scalar for a single point."""
    d = surface.distance(x)
    if not np.all(np.isfinite(d)):
        raise ValueError("non-finite distance to the surface")
    h = step_size_from_distance(d, params)
    return float(h) if np.ndim(d) == 0 else h


def em_step(state, drift_value, diffusion_value, h, dw):
    """One Euler-Maruyama update with frozen coefficients.

    Args:
        state: current state, shape (d,).
        drift_value: drift evaluated at ``state``, shape (d,).
        diffusion_value: diffusion matrix at ``state``, shape (d, d).
        h: time increment.
        dw: Brownian increment over the step, shape (d,).
    """
    state = np.asarray(state, dtype=float)
    mu = np.asarray(drift_value, dtype=float)
    sig = np.asarray(diffusion_value, dtype=float)
    ok = (
        np.all(np.isfinite(state)) and np.all(np.isfinite(mu))
        and np.all(np.isfinite(sig)) and math.isfinite(h)
        and np.all(np.isfinite(dw))
    )
    if not ok:
        raise ValueError("non-finite input to the Euler step")
    return state + mu * h + np.einsum("ij,j->i", sig, dw)


@dataclass(frozen=True, eq=False)
class SdeProblem:
    """SDE with drift discontinuous on ``surface``, plus scheme constants.

    ``drift`` maps states of shape (..., d) to values of the same shape and
    ``diffusion`` maps them to matrices of shape (..., d, d); both must accept
    batched input.  ``sigma_sup`` bounds the Frobenius norm of the diffusion
    on the eps0-tube around the surface and ``mu_sup`` bounds the drift norm
    there; both are supplied by the problem definition, not estimated.
    """

    dimension: int
    drift: Callable
    diffusion: Callable
    surface: Hypersurface
    x0: np.ndarray
    horizon: float
    eps0: float
    sigma_sup: float
    mu_sup: float

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
        if not (math.isfinite(self.mu_sup) and self.mu_sup > 0):
            raise ValueError("mu_sup must be positive")
        mu0 = np.asarray(self.drift(x0), dtype=float)
        sig0 = np.asarray(self.diffusion(x0), dtype=float)
        if mu0.shape != (self.dimension,) or not np.all(np.isfinite(mu0)):
            raise ValueError("drift(x0) must return a finite (d,) vector")
        if sig0.shape != (self.dimension,) * 2 or not np.all(np.isfinite(sig0)):
            raise ValueError("diffusion(x0) must return a finite (d, d) matrix")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Grid times and states of one simulated path."""

    times: np.ndarray
    states: np.ndarray
    step_count: int

    def to_csv(self, stream) -> None:
        """Write rows ``k, tau_k, x1..xd`` with full float precision."""
        d = self.states.shape[1]
        stream.write("k,tau_k," + ",".join(f"x{j + 1}" for j in range(d)) + "\n")
        for k in range(len(self.times)):
            cells = [str(k), repr(float(self.times[k]))]
            cells += [repr(float(v)) for v in self.states[k]]
            stream.write(",".join(cells) + "\n")


def _step_budget(problem: SdeProblem, params: StepSizeParams) -> int:
    return int(10.0 * problem.horizon / params.delta_sq) + 1


def simulate_adaptive(
    problem: SdeProblem, params: StepSizeParams, path: BrownianPath
) -> Trajectory:
    """Run the adaptive scheme until the first grid time at or past the horizon.

    The final step is taken at full length, so the last grid time generally
    overshoots the horizon; use :func:`interpolate` to read off the value at
    the horizon itself.
    """
    if path.dimension != problem.dimension:
        raise ValueError("path dimension does not match the problem")
    budget = _step_budget(problem, params)
    t = 0.0
    x = problem.x0.copy()
    times = [t]
    states = [x]
    while t < problem.horizon:
        if len(states) > budget:
            raise RunawaySimulationError(
                f"exceeded {budget} steps at t={t:.6g} (delta={params.delta:.4g}, "
                f"|x|={float(np.linalg.norm(x)):.4g}); check the problem bounds "
                f"mu_sup={problem.mu_sup:.4g}, sigma_sup={problem.sigma_sup:.4g}"
            )
        h = step_size(x, params, problem.surface)
        t_next = t + h
        dw = path.query(t_next) - path.query(t)
        x = em_step(x, problem.drift(x), problem.diffusion(x), h, dw)
        t = t_next
        times.append(t)
        states.append(x)
    return Trajectory(
        times=np.asarray(times), states=np.asarray(states), step_count=len(times) - 1
    )


def interpolate(
    trajectory: Trajectory, problem: SdeProblem, path: BrownianPath, t
) -> np.ndarray:
    """Evaluate the time-continuous extension of a trajectory at time ``t``.

    Freezes the coefficients at the last grid node not past ``t`` and adds
    the drift and Brownian increments up to ``t``.  Valid for ``t`` between
    0 and the final grid time.
    """
    t = float(t)
    times = trajectory.times
    if not 0.0 <= t <= times[-1]:
        raise ValueError("t must lie within the simulated time range")
    k = bisect_right(times, t) - 1
    x = trajectory.states[k]
    tk = float(times[k])
    dw = path.query(t) - path.query(tk)
    return em_step(x, problem.drift(x), problem.diffusion(x), t - tk, dw)
