"""Geometry of the drift-discontinuity set.

A surface here is the closed set where the drift jumps.  Three variants are
supported: a finite set of points on the line, an affine hyperplane, and a
circle in the plane.  Each one exposes the distance field (the only quantity
the step-size control needs), the metric projection, the outward unit normal,
and its reach, which bounds how wide a tubular neighbourhood around the
surface still has unique projections.

Array convention: ``x`` has shape ``(..., dimension)``.  For 1-d surfaces a
bare scalar or an array without the trailing length-1 axis is also accepted
and handled elementwise.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np


class NoUniqueProjectionError(ValueError):
    """The metric projection onto the surface is not a single point."""


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

    @abstractmethod
    def project(self, x):
        """Nearest surface point; requires ``distance(x) < reach``."""

    @abstractmethod
    def unit_normal(self, xi):
        """Unit normal at a point ``xi`` lying on the surface."""

    @abstractmethod
    def to_config(self) -> dict:
        """JSON-serializable description of the surface."""


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

    @property
    def reach(self) -> float:
        if len(self.points) == 1:
            return math.inf
        gaps = np.diff(self.points)
        return float(gaps.min()) / 2.0

    def distance(self, x):
        s = _scalar_input(x)
        pts = self.points
        d = np.abs(s - pts[0])
        for p in pts[1:]:
            d = np.minimum(d, np.abs(s - p))
        return d

    def project(self, x):
        s = _scalar_input(x)
        d = self.distance(s)
        if np.any(d >= self.reach):
            raise NoUniqueProjectionError(
                "point is at least reach away from the surface"
            )
        pts = np.asarray(self.points)
        idx = np.argmin(np.abs(s[..., None] - pts), axis=-1)
        return pts[idx]

    def unit_normal(self, xi):
        # orientation convention on the line: the normal always points up
        s = float(_scalar_input(xi))
        if min(abs(s - p) for p in self.points) > 1e-9:
            raise ValueError("xi does not lie on the surface")
        return np.array([1.0])

    def to_config(self) -> dict:
        return {"type": "points1d", "points": list(self.points)}


@dataclass(frozen=True)
class Hyperplane(Hypersurface):
    """Affine hyperplane ``{x : n . x = offset}`` with unit normal ``n``."""

    normal: tuple
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        if n.ndim != 1 or n.size == 0:
            raise ValueError("normal must be a nonempty vector")
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

    def project(self, x):
        x = np.asarray(x, dtype=float)
        s = self._signed(x)
        return x - s[..., None] * np.asarray(self.normal)

    def unit_normal(self, xi):
        if np.any(self.distance(xi) > 1e-9):
            raise ValueError("xi does not lie on the surface")
        return np.asarray(self.normal, dtype=float)

    def to_config(self) -> dict:
        return {
            "type": "hyperplane",
            "normal": list(self.normal),
            "offset": self.offset,
        }


@dataclass(frozen=True)
class Circle2D(Hypersurface):
    """Circle of given center and radius in the plane."""

    center: tuple
    radius: float

    dimension = 2

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        if c.shape != (2,):
            raise ValueError("center must be a 2-vector")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError("radius must be positive")
        object.__setattr__(self, "center", (float(c[0]), float(c[1])))
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def reach(self) -> float:
        # unique projections fail only at the center
        return self.radius

    def _radial(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (2,):
            raise ValueError("expected trailing axis of length 2")
        return np.linalg.norm(x - np.asarray(self.center), axis=-1)

    def distance(self, x):
        return np.abs(self._radial(x) - self.radius)

    def project(self, x):
        x = np.asarray(x, dtype=float)
        r = self._radial(x)
        if np.any(r == 0.0):
            raise NoUniqueProjectionError("center has no unique projection")
        if np.any(self.distance(x) >= self.reach):
            raise NoUniqueProjectionError(
                "point is at least reach away from the surface"
            )
        c = np.asarray(self.center)
        return c + self.radius * (x - c) / r[..., None]

    def unit_normal(self, xi):
        xi = np.asarray(xi, dtype=float)
        if np.any(self.distance(xi) > 1e-9):
            raise ValueError("xi does not lie on the surface")
        c = np.asarray(self.center)
        return (xi - c) / self.radius

    def to_config(self) -> dict:
        return {
            "type": "circle",
            "center": list(self.center),
            "radius": self.radius,
        }


def surface_from_config(config: dict) -> Hypersurface:
    """Rebuild a surface from its ``to_config`` dictionary."""
    kind = config.get("type")
    if kind == "points1d":
        return PointSet1D(points=tuple(config["points"]))
    if kind == "hyperplane":
        return Hyperplane(normal=tuple(config["normal"]), offset=config["offset"])
    if kind == "circle":
        return Circle2D(center=tuple(config["center"]), radius=config["radius"])
    raise ValueError(f"unknown surface type: {kind!r}")
