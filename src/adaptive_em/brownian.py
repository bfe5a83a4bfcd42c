"""Keyed Gaussian draws for reproducible Brownian paths.

Every Gaussian draw is produced by a counter-based generator keyed on
``(path key, number of existing knots, bit pattern of the queried time)``.
The path key itself is a hash of ``(master seed, sample index)``.  This makes
a path's values a pure function of the sequence of times it is queried at,
so independent per-sample streams need no shared state and batched lockstep
simulation of many paths reproduces the sequential values bit for bit.
Uniform words are produced by chained splitmix64 finalizer rounds and mapped
to normals through the inverse CDF (scipy's ndtri), one fixed method on every
platform.  ``ndtri`` is imported at the first draw, not with this module:
its import costs more than the rest of the package's start-up together.
"""

from __future__ import annotations

import numpy as np

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
_S10 = _u64(10)
_ONE = _u64(1)
_HALF_ULP = np.array(2.0**-54)
_U_MAX = np.array(1.0 - 2.0**-53)  # the largest float64 below 1


def load_ndtri():
    """Import scipy's ``ndtri`` and bind it as ``_ndtri``; return it.

    A process pool calls this before it forks, so its workers inherit the
    loaded module rather than each importing it at its first draw.
    """
    global _ndtri
    from scipy.special import ndtri

    _ndtri = ndtri
    return ndtri


def _ndtri(u):
    # the first draw's stand-in: later calls reach the ufunc directly
    return load_ndtri()(u)


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
    idx = np.asarray(knot_index, dtype=np.uint64)
    h = _mix64(np.asarray(key, dtype=np.uint64) ^ (idx * _GOLD))
    h = _mix64(h ^ np.asarray(t_bits, dtype=np.uint64))
    if dim == 1:
        # lane 0's salt is 0, so its word is h itself
        z = _mix64(h[..., None])
    else:
        z = _mix64(h[..., None] ^ (np.arange(dim, dtype=np.uint64) * _SALT_LANE))
    # the top 53 bits k map to (k + 1/2) 2^-53, formed as (2k + 1) 2^-54:
    # scaling by 2 commutes with rounding, so the bits agree.  The top word
    # rounds to 1, where ndtri is infinite; it alone is moved below 1
    z >>= _S10
    z |= _ONE
    u = z.astype(np.float64)
    u *= _HALF_ULP
    np.minimum(u, _U_MAX, out=u)
    return _ndtri(u)
