"""Geometry of the drift-discontinuity set.

A surface here is the closed set where the drift jumps.  Three variants are
supported: a finite set of points on the line, an affine hyperplane, and a
circle in the plane.  Each one exposes only the distance field, which the
step-size control reads, and its reach, the width of the tubular neighbourhood
in which nearest surface points are unique; ``SdeProblem`` checks that its
tube radius ``eps0`` stays below it.

Array convention: ``x`` has shape ``(..., dimension)``.  For 1-d surfaces a
bare scalar or an array without the trailing length-1 axis is also accepted
and handled elementwise.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np


class Hypersurface(ABC):
    """Closed discontinuity set with positive reach."""

    dimension: int

    @property
    @abstractmethod
    def reach(self) -> float:
        """Radius below which every point has a unique nearest surface point."""

    @abstractmethod
    def distance(self, x):
        """Euclidean distance from ``x`` to the surface, shape ``(...,)``."""


def _scalar_input(x):
    # map (..., 1) or scalar input onto plain elementwise values
    x = np.asarray(x, dtype=float)
    if x.ndim and x.shape[-1] == 1:
        return x[..., 0]
    return x


@dataclass(frozen=True)
class PointSet1D(Hypersurface):
    """Finite set of breakpoints on the real line, strictly increasing."""

    points: tuple

    dimension = 1

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        if not pts:
            raise ValueError("need at least one point")
        if any(not math.isfinite(p) for p in pts):
            raise ValueError("points must be finite")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("points must be strictly increasing")
        object.__setattr__(self, "points", pts)
        # 0-d copies for distance: numpy takes a 0-d operand as it is, where it
        # converts a Python float on every call.  Not a field, so eq, hash and
        # repr ignore it
        object.__setattr__(self, "_points_0d", tuple(np.array(p) for p in pts))

    @property
    def reach(self) -> float:
        if len(self.points) == 1:
            return math.inf
        gaps = np.diff(self.points)
        return float(gaps.min()) / 2.0

    def distance(self, x):
        s = _scalar_input(x)
        pts = self._points_0d
        d = np.abs(s - pts[0])
        for p in pts[1:]:
            d = np.minimum(d, np.abs(s - p))
        return d


@dataclass(frozen=True)
class Hyperplane(Hypersurface):
    """Affine hyperplane ``{x : n . x = offset}`` with unit normal ``n``."""

    normal: tuple
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        if n.ndim != 1 or n.size == 0 or not np.all(np.isfinite(n)):
            raise ValueError("normal must be a finite nonempty vector")
        if abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise ValueError("normal must have unit length")
        if not math.isfinite(self.offset):
            raise ValueError("offset must be finite")
        object.__setattr__(self, "normal", tuple(float(v) for v in n))
        object.__setattr__(self, "offset", float(self.offset))
        object.__setattr__(self, "dimension", n.size)

    @property
    def reach(self) -> float:
        return math.inf

    def _signed(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dimension,):
            raise ValueError(
                f"expected trailing axis of length {self.dimension}"
            )
        return x @ np.asarray(self.normal) - self.offset

    def distance(self, x):
        return np.abs(self._signed(x))


@dataclass(frozen=True)
class Circle2D(Hypersurface):
    """Circle of given center and radius in the plane."""

    center: tuple
    radius: float

    dimension = 2

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        if c.shape != (2,) or not np.all(np.isfinite(c)):
            raise ValueError("center must be a finite 2-vector")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError("radius must be positive")
        object.__setattr__(self, "center", (float(c[0]), float(c[1])))
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def reach(self) -> float:
        # nearest points stop being unique only at the center
        return self.radius

    def _radial(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (2,):
            raise ValueError("expected trailing axis of length 2")
        return np.linalg.norm(x - np.asarray(self.center), axis=-1)

    def distance(self, x):
        return np.abs(self._radial(x) - self.radius)

