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
from typing import Callable

import numpy as np


class DegenerateDiffusionError(ValueError):
    """The diffusion vanishes at a breakpoint, so no jump strength exists."""


class RootFindError(RuntimeError):
    """Inverting the transform did not converge."""


# residual tolerance and iteration cap of the inverse
_TOL = 1e-12
_MAX_ITER = 200

# 0-d operands of the per-step kernels: numpy converts a Python float on
# every call, a 0-d array it takes as it is, and the values are the same
_ZERO = np.array(0.0)
_HALF = np.array(0.5)
_ONE = np.array(1.0)
_TWO = np.array(2.0)
_FIVE = np.array(5.0)
_TWENTY_TWO = np.array(22.0)
_FORTY_FIVE = np.array(45.0)
_TOL_0D = np.array(_TOL)


def _continuous_at(branch, b, limit, h) -> bool:
    # the step from b to b + h may be at most 1e-6 plus twice the next step
    # out, from b + h to b + 2h: a steep branch passes, and a branch that
    # itself jumps at b does not
    near, far = float(branch(b + h)), float(branch(b + 2.0 * h))
    return abs(near - limit) <= 1e-6 + 2.0 * abs(far - near)


@dataclass(frozen=True)
class PiecewiseDrift1D:
    """Drift given by Lipschitz branches between increasing breakpoints.

    ``branches`` holds one callable more than ``breakpoints``; branch ``i``
    applies on ``[breakpoints[i-1], breakpoints[i])``, so the drift is
    right-continuous at every breakpoint.  The one-sided limits are the
    adjacent branches evaluated at the breakpoint, cross-checked against
    evaluations just off it.
    """

    breakpoints: tuple
    branches: tuple
    left_limits: tuple = field(init=False)
    right_limits: tuple = field(init=False)
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
        left = tuple(float(self.branches[i](b)) for i, b in enumerate(bp))
        right = tuple(float(self.branches[i + 1](b)) for i, b in enumerate(bp))
        for i, b in enumerate(bp):
            if not _continuous_at(self.branches[i], b, left[i], -1e-8):
                raise ValueError(f"left limit at breakpoint {b} is inconsistent")
            if not _continuous_at(self.branches[i + 1], b, right[i], 1e-8):
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
        # the last branch starts at the last breakpoint, or covers the line
        last = bp[-1] if bp else -math.inf
        out = np.zeros(x.shape)
        idx = self._bp.searchsorted(x, side="right")
        for i, branch in enumerate(self.branches):
            # NaN sorts past the last breakpoint but belongs to no branch
            own = idx == i if i < len(bp) else x >= last
            vals = x[own]
            if vals.size:
                out[own] = branch(vals)
        return out


def _zero_where(val, mask):
    # val with +0.0 where mask holds: in place on an array, by np.where on a
    # numpy scalar, which cannot be written to
    if isinstance(val, np.ndarray):
        np.copyto(val, _ZERO, where=mask)
        return val
    return np.where(mask, _ZERO, val)


def _bump(u):
    # the quartic bump (1+u)^4 (1-u)^4 at u >= 0, zero past 1 (a NaN u stays
    # NaN); powers spelled out as products so scalar and batched evaluations
    # agree.  On arrays the products are taken in place; a scalar u just
    # rebinds q
    q = _ONE + u
    q *= _ONE - u
    q *= q
    q *= q
    return _zero_where(q, u > _ONE)


def _psi(s, r, u):
    # s |s| bump(|s|/c), the odd profile multiplying the jump strength.  It and
    # its derivatives take r = |s| and u = r/c: fl(r/c) = |fl(s/c)|, so u * u
    # is (s/c)**2 to the bit
    return s * r * _bump(u)


def _powers(u):
    # v = u^2, w = 1 - v and w^2, which both derivatives of the profile take.
    # For r < c, u = fl(r/c) <= 1 - 2^-53 and v < 1; for r >= c, u and v are
    # at least 1: so v < 1 is the bump's support r < c, and false at NaN
    v = u * u
    w = _ONE - v
    return v, w, w * w


def _psi_prime(r, v, w, ww):
    # the profile's first derivative on the support v < 1; callers zero it
    # past the support
    return _TWO * r * (ww * w) * (_ONE - _FIVE * v)


def _psi_second(s, v, ww):
    # the second derivative on the support, odd in s; the convention at s = 0
    # is the right-hand branch: s + 0 is +0 at both zeros, so copysign gives
    # +2 there.  Callers zero it past the support
    sign2 = np.copysign(_TWO, s + _ZERO)
    return sign2 * ww * (_ONE - _TWENTY_TWO * v + _FORTY_FIVE * v * v)


class Transform1D:
    """Bijective change of variables removing the drift jumps.

    Args:
        drift: piecewise drift whose jumps are to be removed.
        sigma: scalar diffusion coefficient, vectorized over states.
        eps0: tube radius of the underlying problem.  The bump radius
            ``c`` starts at half of ``min(eps0, half minimum gap)`` and is
            halved until the derivative stays above 0.1 on a 2001-point grid
            per bump interval.

    The jump strength at each breakpoint, for unit upward normal, is half
    the drift jump (left limit minus right limit) divided by the squared
    diffusion there; a diffusion that vanishes at a breakpoint, or whose
    square underflows to 0 there, raises ``DegenerateDiffusionError``.
    """

    def __init__(self, drift: PiecewiseDrift1D, sigma: Callable, eps0: float):
        if not (math.isfinite(eps0) and eps0 > 0):
            raise ValueError("eps0 must be positive")
        self.drift = drift
        self.sigma = sigma
        self._bp = np.asarray(drift.breakpoints, dtype=float)
        alphas = []
        for b, left, right in zip(drift.breakpoints, drift.left_limits, drift.right_limits):
            sig = float(sigma(b))
            if sig * sig == 0.0:
                raise DegenerateDiffusionError(f"diffusion vanishes at breakpoint {b}")
            alphas.append((left - right) / (2.0 * sig * sig))
        self._alphas = np.asarray(alphas, dtype=float)
        gaps = np.diff(self._bp)
        half_gap = float(gaps.min()) / 2.0 if gaps.size else math.inf
        # the midpoints between breakpoints split the line by nearest breakpoint
        self._mid = 0.5 * (self._bp[:-1] + self._bp[1:])
        c = min(float(eps0), half_gap) / 2.0
        for _ in range(80):
            if self._derivative_floor_ok(c):
                break
            c /= 2.0
        else:
            raise ValueError("could not find a bump radius with positive slope")
        self.c = c

    def _derivative_floor_ok(self, c: float) -> bool:
        if self._bp.size == 0:
            return True
        r = np.abs(np.linspace(-c, c, 2001))
        v, w, ww = _powers(r / c)
        pp = _zero_where(_psi_prime(r, v, w, ww), v >= _ONE)
        slopes = 1.0 + self._alphas[:, None] * pp[None, :]
        return bool(slopes.min() >= 0.1)

    def _split(self, x):
        # nearest breakpoint index and signed offset from it.  c is at most a
        # quarter of the smallest gap, so every point within c of a
        # breakpoint picks that breakpoint; the callers read pick only there
        x = np.asarray(x, dtype=float)
        pick = self._mid.searchsorted(x)
        return pick, x - self._bp[pick]

    def _local(self, x):
        # offset s from the nearest breakpoint, r = |s|, u = r/c and the jump
        # strength a of that breakpoint
        pick, s = self._split(x)
        r = np.abs(s)
        return s, r, r / self.c, self._alphas[pick]

    def _bend(self, s, r, u, a):
        # first and second derivative at local coordinates (s, r, u, a): 1 and
        # +0 past the bump, where v < 1 fails (NaN among them)
        v, w, ww = _powers(u)
        outside = ~(v < _ONE)
        gp = _ONE + _zero_where(a * _psi_prime(r, v, w, ww), outside)
        gs = _zero_where(a * _psi_second(s, v, ww), outside)
        return gp, gs

    def value(self, x):
        """Forward map; the identity outside the bump intervals."""
        x = np.asarray(x, dtype=float)
        if self._bp.size == 0:
            return x + 0.0
        s, r, u, a = self._local(x)
        return x + np.where(r < self.c, a * _psi(s, r, u), 0.0)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        if self._bp.size == 0:
            return np.ones_like(x)
        return self._bend(*self._local(x))[0]

    def second_derivative(self, x):
        """Piecewise second derivative; right-hand branch at breakpoints."""
        x = np.asarray(x, dtype=float)
        if self._bp.size == 0:
            return np.zeros_like(x)
        return self._bend(*self._local(x))[1]

    def _newton(self, z, pick, s, r):
        # safeguarded Newton for in-bump points z of the bumps pick, at offset
        # s from their breakpoints and r = |s|; a lane keeps its iterate once
        # its residual meets _TOL.  Returns the roots and their local
        # coordinates (s, r, u, a), as _local gives them.
        # Every iterate x lies in [lo, hi]: z does, since fl(z - xi) < c puts
        # z at or below fl(xi + c) (a z above it is at least xi + c, so
        # fl(z - xi) >= c), and at or above fl(xi - c) likewise; a Newton
        # candidate is kept only strictly inside the bracket, and fl(lo + hi)/2
        # lies in [lo, hi].  So a lane that moves a bracket end moves it to x,
        # and no iterate is NaN.
        # lo, hi and each pass's temporaries are fresh arrays, updated in place.
        c = np.array(self.c)
        xi = self._bp[pick]
        a = self._alphas[pick]
        lo = xi - c
        hi = xi + c
        x = z
        u = r / c
        for _ in range(_MAX_ITER):
            resid = a * _psi(s, r, u)
            resid += x
            resid -= z
            done = np.abs(resid) <= _TOL_0D
            n_done = np.count_nonzero(done)
            if n_done == done.size:
                return x, s, r, u, a
            # monotone map: the residual sign tells the bracket side
            np.copyto(hi, x, where=resid > _ZERO)
            np.copyto(lo, x, where=resid < _ZERO)
            v, w, ww = _powers(u)
            slope = _zero_where(a * _psi_prime(r, v, w, ww), v >= _ONE)
            slope += _ONE
            resid /= slope
            cand = x - resid
            # a NaN or infinite step fails both tests and takes the bracket's midpoint
            ok = (cand > lo) & (cand < hi)
            if np.count_nonzero(ok) < ok.size:
                cand = np.where(ok, cand, _HALF * (lo + hi))
            if n_done:
                np.copyto(cand, x, where=done)
            x = cand
            s = x - xi
            r = np.abs(s)
            u = r / c
        raise RootFindError("transform inversion did not converge")

    def _invert(self, z):
        # the inverse of z, with the flat indices of the points inside a
        # bump interval and the local coordinates of their inverses (None
        # when there are none)
        z = np.asarray(z, dtype=float)
        x = z.copy()
        if self._bp.size:
            # a view of the fresh copy, in the flat order of z
            flat = x.reshape(-1)
            near, s = self._split(flat)
            r = np.abs(s)
            lanes = (r < self.c).nonzero()[0]
            if lanes.size:
                xb, *local = self._newton(flat[lanes], near[lanes], s[lanes], r[lanes])
                flat[lanes] = xb
                return x, lanes, local
        return x, None, None

    def inverse(self, z):
        """Invert the forward map to residual ``_TOL`` by safeguarded Newton.

        Each bump interval maps onto itself, so points outside all bump
        intervals come back unchanged.
        """
        return self._invert(z)[0]

    def transformed_coeffs(self, z):
        """Drift and diffusion of the transformed equation at ``z``.

        Returns the pair (drift value, diffusion value), both shaped like
        ``z``.  The drift picks up the Ito correction through the second
        derivative, which is what cancels the jumps.  Only the points inside
        a bump interval are inverted and bent; the others are fixed points
        with unit slope.  Each bump interval maps onto itself and ``c`` is
        at most a quarter of the smallest gap, so the inverse of a point
        keeps the breakpoint of the point itself.
        """
        x, lanes, local = self._invert(z)
        gp = np.empty(x.shape)
        gp.fill(1.0)
        gs = np.zeros(x.shape)
        if lanes is not None:
            gp.reshape(-1)[lanes], gs.reshape(-1)[lanes] = self._bend(*local)
        sg = np.asarray(self.sigma(x), dtype=float)
        mu = np.asarray(self.drift(x), dtype=float)
        return gp * mu + _HALF * sg * sg * gs, gp * sg
