"""Scalar jump-removal transform for piecewise Lipschitz drifts.

Around each drift breakpoint the state is bent by a localized quartic bump
whose strength is chosen so that, after the change of variables, the Ito
correction cancels the drift jump exactly.  The transformed equation then
has Lipschitz coefficients and classical Euler-Maruyama theory applies to
it, which is what makes the transform useful as an accuracy reference for
the adaptive scheme on the original equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


class DegenerateDiffusionError(ValueError):
    """The diffusion vanishes at a breakpoint, so no jump strength exists."""


class RootFindError(RuntimeError):
    """Inverting the transform did not converge."""


# residual tolerance and iteration cap of the inverse
_TOL = 1e-12
_MAX_ITER = 200


@dataclass(frozen=True)
class PiecewiseDrift1D:
    """Drift given by Lipschitz branches between increasing breakpoints.

    ``branches`` holds one callable more than ``breakpoints``; branch ``i``
    applies on ``[breakpoints[i-1], breakpoints[i])``, so the drift is
    right-continuous at every breakpoint.  One-sided limits default to the
    adjacent branch evaluated at the breakpoint and are cross-checked
    against evaluations just off it.
    """

    breakpoints: tuple
    branches: tuple
    left_limits: Optional[tuple] = None
    right_limits: Optional[tuple] = None
    _bp: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        if any(not math.isfinite(b) for b in bp):
            raise ValueError("breakpoints must be finite")
        if any(b <= a for a, b in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if len(self.branches) != len(bp) + 1:
            raise ValueError("need exactly one branch more than breakpoints")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "branches", tuple(self.branches))
        left = self.left_limits
        right = self.right_limits
        if left is None:
            left = tuple(float(self.branches[i](b)) for i, b in enumerate(bp))
        if right is None:
            right = tuple(float(self.branches[i + 1](b)) for i, b in enumerate(bp))
        left, right = tuple(map(float, left)), tuple(map(float, right))
        if len(left) != len(bp) or len(right) != len(bp):
            raise ValueError("one-sided limits must match the breakpoints")
        for i, b in enumerate(bp):
            if abs(float(self.branches[i](b - 1e-8)) - left[i]) > 1e-6:
                raise ValueError(f"left limit at breakpoint {b} is inconsistent")
            if abs(float(self.branches[i + 1](b + 1e-8)) - right[i]) > 1e-6:
                raise ValueError(f"right limit at breakpoint {b} is inconsistent")
        object.__setattr__(self, "left_limits", left)
        object.__setattr__(self, "right_limits", right)
        object.__setattr__(self, "_bp", np.asarray(bp))

    def __call__(self, x):
        """Evaluate each branch on its own points; same result as ``np.piecewise``.

        The output has the shape of ``x``.  A point that is in no branch
        (NaN) reads 0, and a branch returning a constant fills its points.
        """
        x = np.asarray(x, dtype=float)
        bp = self.breakpoints
        if not bp:
            return self.branches[0](x)
        out = np.zeros(x.shape)
        idx = np.searchsorted(self._bp, x, side="right")
        for i, branch in enumerate(self.branches):
            # NaN sorts past the last breakpoint but belongs to no branch
            own = idx == i if i < len(bp) else x >= bp[-1]
            vals = x[own]
            if vals.size:
                out[own] = branch(vals)
        return out


def alpha(drift: PiecewiseDrift1D, sigma: Callable, xi) -> float:
    """Jump strength at breakpoint ``xi`` for unit upward normal.

    Half the drift jump (left limit minus right limit) divided by the squared
    diffusion at the breakpoint.
    """
    xi = float(xi)
    try:
        i = drift.breakpoints.index(xi)
    except ValueError:
        raise ValueError(f"{xi} is not a breakpoint of the drift") from None
    sig = float(sigma(xi))
    if sig == 0.0:
        raise DegenerateDiffusionError(f"diffusion vanishes at breakpoint {xi}")
    return (drift.left_limits[i] - drift.right_limits[i]) / (2.0 * sig * sig)


def bump(u):
    """Quartic bump ``(1+u)^4 (1-u)^4`` on [-1, 1], zero outside.

    Has three vanishing derivatives at the support edges.
    """
    u = np.asarray(u, dtype=float)
    inside = np.abs(u) <= 1.0
    # powers spelled out as products so scalar and batched evaluations agree
    q = (1.0 + u) * (1.0 - u)
    q2 = q * q
    return np.where(inside, q2 * q2, 0.0)


def _psi(s, r, c):
    # s |s| bump(|s|/c), the odd profile multiplying the jump strength; r = |s|
    return s * r * bump(r / c)


def _psi_prime(s, r, c):
    q = s / c
    v = q * q
    w = 1.0 - v
    inside = v < 1.0
    val = 2.0 * r * (w * w * w) * (1.0 - 5.0 * v)
    return np.where(inside, val, 0.0)


def _psi_second(s, c):
    # odd in s; the convention at s = 0 is the right-hand branch
    q = s / c
    v = q * q
    w = 1.0 - v
    inside = v < 1.0
    sign = np.where(np.asarray(s, dtype=float) >= 0.0, 1.0, -1.0)
    val = sign * 2.0 * (w * w) * (1.0 - 22.0 * v + 45.0 * v * v)
    return np.where(inside, val, 0.0)


@dataclass(frozen=True)
class TransformParams:
    """Bump radius of the transform."""

    c: float

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError("bump radius must be positive")


class Transform1D:
    """Bijective change of variables removing the drift jumps.

    Args:
        drift: piecewise drift whose jumps are to be removed.
        sigma: scalar diffusion coefficient, vectorized over states.
        eps0: tube radius of the underlying problem; the bump radius stays
            strictly below it.
        params: optional explicit bump radius.  When omitted the radius
            starts at half of ``min(eps0, half minimum gap)`` and is halved
            until the derivative stays above 0.1 on a 2001-point grid per
            bump interval.
    """

    def __init__(
        self,
        drift: PiecewiseDrift1D,
        sigma: Callable,
        eps0: float,
        params: Optional[TransformParams] = None,
    ):
        if not (math.isfinite(eps0) and eps0 > 0):
            raise ValueError("eps0 must be positive")
        self.drift = drift
        self.sigma = sigma
        self.eps0 = float(eps0)
        self._bp = np.asarray(drift.breakpoints, dtype=float)
        self._alphas = np.asarray(
            [alpha(drift, sigma, b) for b in drift.breakpoints], dtype=float
        )
        gaps = np.diff(self._bp)
        half_gap = float(gaps.min()) / 2.0 if gaps.size else math.inf
        if params is None:
            c = min(self.eps0, half_gap) / 2.0
            for _ in range(80):
                if self._derivative_floor_ok(c):
                    break
                c /= 2.0
            else:
                raise ValueError("could not find a bump radius with positive slope")
            params = TransformParams(c=c)
        else:
            if params.c >= self.eps0:
                raise ValueError("bump radius must be strictly less than eps0")
            if params.c > half_gap:
                raise ValueError("bump radius exceeds half the minimum gap")
            if not self._derivative_floor_ok(params.c):
                raise ValueError("transform derivative drops below 0.1")
        self.params = params

    def _derivative_floor_ok(self, c: float) -> bool:
        if self._bp.size == 0:
            return True
        s = np.linspace(-c, c, 2001)
        slopes = 1.0 + self._alphas[:, None] * _psi_prime(s, np.abs(s), c)[None, :]
        return bool(slopes.min() >= 0.1)

    def _split(self, x):
        # nearest breakpoint index and signed offset from it
        x = np.asarray(x, dtype=float)
        i = np.searchsorted(self._bp, x)
        lo = np.maximum(i - 1, 0)
        hi = np.minimum(i, self._bp.size - 1)
        use_hi = np.abs(x - self._bp[hi]) < np.abs(x - self._bp[lo])
        pick = np.where(use_hi, hi, lo)
        return pick, x - self._bp[pick]

    def _bend(self, pick, s):
        # first and second derivative at offset s from breakpoint pick
        c = self.params.c
        r = np.abs(s)
        inside = r < c
        a = self._alphas[pick]
        gp = 1.0 + np.where(inside, a * _psi_prime(s, r, c), 0.0)
        gs = np.where(inside, a * _psi_second(s, c), 0.0)
        return gp, gs

    def value(self, x):
        """Forward map; the identity outside the bump intervals."""
        x = np.asarray(x, dtype=float)
        if self._bp.size == 0:
            return x + 0.0
        pick, s = self._split(x)
        c = self.params.c
        r = np.abs(s)
        return x + np.where(r < c, self._alphas[pick] * _psi(s, r, c), 0.0)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        if self._bp.size == 0:
            return np.ones_like(x)
        return self._bend(*self._split(x))[0]

    def second_derivative(self, x):
        """Piecewise second derivative; right-hand branch at breakpoints."""
        x = np.asarray(x, dtype=float)
        if self._bp.size == 0:
            return np.zeros_like(x)
        return self._bend(*self._split(x))[1]

    def _newton(self, z, pick, tol, max_iter):
        # safeguarded Newton for in-bump points z of the bumps pick; a lane
        # keeps its iterate once its residual meets tol
        c = self.params.c
        xi = self._bp[pick]
        a = self._alphas[pick]
        lo = xi - c
        hi = xi + c
        x = z
        for _ in range(max_iter):
            s = x - xi
            r = np.abs(s)
            resid = x + a * _psi(s, r, c) - z
            done = np.abs(resid) <= tol
            if done.all():
                return x
            # monotone map: the residual sign tells the bracket side
            hi = np.where(resid > 0.0, np.minimum(hi, x), hi)
            lo = np.where(resid < 0.0, np.maximum(lo, x), lo)
            slope = 1.0 + a * _psi_prime(s, r, c)
            cand = x - resid / slope
            bad = ~np.isfinite(cand) | (cand <= lo) | (cand >= hi)
            cand = np.where(bad, 0.5 * (lo + hi), cand)
            x = np.where(done, x, cand)
        raise RootFindError("transform inversion did not converge")

    def _invert(self, z, tol, max_iter):
        # the inverse of z, with the flat indices of the points inside a
        # bump interval, the breakpoint index of their bump and their inverses
        z = np.asarray(z, dtype=float)
        x = z.copy()
        lanes = pick = np.zeros(0, dtype=np.intp)
        if self._bp.size:
            near, s = self._split(z)
            lanes = np.flatnonzero(np.abs(s) < self.params.c)
            pick = np.take(near, lanes)
        xb = np.take(z, lanes)
        if lanes.size:
            xb = self._newton(xb, pick, tol, max_iter)
            np.put(x, lanes, xb)
        return x, lanes, pick, xb

    def inverse(self, z, tol: float = _TOL, max_iter: int = _MAX_ITER):
        """Invert the forward map to residual ``tol`` by safeguarded Newton.

        Each bump interval maps onto itself, so points outside all bump
        intervals come back unchanged.
        """
        return self._invert(z, tol, max_iter)[0]

    def transformed_coeffs(self, z):
        """Drift and diffusion of the transformed equation at ``z``.

        Returns the pair (drift value, diffusion value), both shaped like
        ``z``.  The drift picks up the Ito correction through the second
        derivative, which is what cancels the jumps.  Only the points inside
        a bump interval are inverted and bent; the others are fixed points
        with unit slope.  Each bump interval maps onto itself and ``c`` is
        at most half the smallest gap, so the inverse of a point keeps the
        breakpoint of the point itself.
        """
        x, lanes, pick, xb = self._invert(z, _TOL, _MAX_ITER)
        gp = np.ones(x.shape)
        gs = np.zeros(x.shape)
        gp_b, gs_b = self._bend(pick, xb - self._bp[pick])
        np.put(gp, lanes, gp_b)
        np.put(gs, lanes, gs_b)
        sg = np.asarray(self.sigma(x), dtype=float)
        mu = np.asarray(self.drift(x), dtype=float)
        return gp * mu + 0.5 * sg * sg * gs, gp * sg
