"""Lazily refined Brownian paths with reproducible bridge sampling.

A path stores the knots sampled so far and answers point queries exactly:
already-known times return the stored value, times beyond the last knot
extend the path with an independent Gaussian increment, and times between
knots are filled in by conditional Brownian-bridge sampling against the two
nearest knots.

Every Gaussian draw is produced by a counter-based generator keyed on
``(path key, number of existing knots, bit pattern of the queried time)``.
The path key itself is a hash of ``(master seed, sample index)``.  This makes
the sampled values a pure function of the query sequence, so independent
per-sample streams need no shared state and batched lockstep simulation of
many paths reproduces the sequential values bit for bit.  Uniform words are
produced by chained splitmix64 finalizer rounds and mapped to normals through
the inverse CDF (scipy's ndtri), one fixed method on every platform.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np
from scipy.special import ndtri

_MASK = (1 << 64) - 1


def _u64(v):
    # 0-d arrays, not numpy scalars: an array operand skips the scalar
    # conversion that numpy pays on every operation with a numpy scalar
    return np.array(v, dtype=np.uint64)


_M1 = _u64(0xBF58476D1CE4E5B9)
_M2 = _u64(0x94D049BB133111EB)
_GOLD = _u64(0x9E3779B97F4A7C15)
_SALT_PATH = _u64(0x8C6E1D2F5A7B3C49)
_SALT_LANE = _u64(0xD1342543DE82EF95)
_S30 = _u64(30)
_S27 = _u64(27)
_S31 = _u64(31)
_S11 = _u64(11)


def _mix64(z):
    # splitmix64 finalizer; bijective on uint64 with full avalanche.
    # Mixes the uint64 array ``z`` in place: callers pass a fresh temporary.
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
    return z


def path_key(master_seed: int, sample_index) -> np.uint64:
    """Derive per-path stream keys from the master seed and sample indices.

    ``sample_index`` may be a nonnegative int or an array of them; the
    result has matching shape.
    """
    s = np.asarray([master_seed & _MASK], dtype=np.uint64)
    i = np.asarray(sample_index, dtype=np.uint64)
    keys = _mix64(_mix64(s ^ _SALT_PATH) ^ (np.atleast_1d(i) * _GOLD))
    return keys[0] if i.ndim == 0 else keys


def time_bits(t) -> np.uint64:
    """IEEE-754 bit pattern of a float64 time, used as a draw counter."""
    return np.asarray(t, dtype=np.float64).view(np.uint64)


def keyed_normals(key, knot_index, t_bits, dim: int):
    """Standard normal draw for one knot insertion per lane.

    Args:
        key: uint64 scalar or shape (n,) array of path keys.
        knot_index: number of knots already on the path, per lane.
        t_bits: bit pattern of the inserted time, per lane.
        dim: number of components per draw.

    Returns:
        Array of shape (n, dim), or (dim,) for scalar inputs.
    """
    key_a = np.atleast_1d(np.asarray(key, dtype=np.uint64))
    idx = np.atleast_1d(np.asarray(knot_index, dtype=np.uint64))
    tb = np.atleast_1d(np.asarray(t_bits, dtype=np.uint64))
    h = _mix64(key_a ^ (idx * _GOLD))
    h = _mix64(h ^ tb)
    if dim == 1:
        # lane 0's salt is 0, so its word is h itself
        z = _mix64(h[..., None])
    else:
        z = _mix64(h[..., None] ^ (np.arange(dim, dtype=np.uint64) * _SALT_LANE))
    z >>= _S11
    u = z.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    out = ndtri(u)
    if np.ndim(key) == 0 and np.ndim(knot_index) == 0:
        return out[0]
    return out


class BrownianPath:
    """One d-dimensional Brownian path, refined on demand.

    Args:
        dimension: number of independent components.
        master_seed: experiment-level seed.
        sample_index: index of this path within the experiment.
    """

    def __init__(self, dimension: int, master_seed: int, sample_index: int = 0):
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        self.dimension = int(dimension)
        self.key = path_key(master_seed, sample_index)
        self._times = [0.0]
        self._values = [np.zeros(self.dimension)]

    @property
    def knot_times(self):
        return tuple(self._times)

    def query(self, t) -> np.ndarray:
        """Value of the path at time ``t >= 0``, sampling a new knot if needed."""
        t = float(t)
        if t < 0.0:
            raise ValueError("time must be nonnegative")
        if t == 0.0:
            t = 0.0  # normalize negative zero
        i = bisect_left(self._times, t)
        if i < len(self._times) and self._times[i] == t:
            return self._values[i].copy()
        z = keyed_normals(self.key, len(self._times), time_bits(t), self.dimension)
        if i == len(self._times):
            s = self._times[-1]
            val = self._values[-1] + np.sqrt(t - s) * z
        else:
            s, ws = self._times[i - 1], self._values[i - 1]
            u, wu = self._times[i], self._values[i]
            frac = (t - s) / (u - s)
            val = ws + frac * (wu - ws) + np.sqrt(frac * (u - t)) * z
        self._times.insert(i, t)
        self._values.insert(i, val)
        return val.copy()

    def increment(self, s, t) -> np.ndarray:
        """Increment ``W(t) - W(s)`` for ``0 <= s <= t``."""
        s, t = float(s), float(t)
        if not 0.0 <= s <= t:
            raise ValueError("need 0 <= s <= t")
        ws = self.query(s)
        return self.query(t) - ws
