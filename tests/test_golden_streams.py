"""Golden digests of the random stream and of small end-to-end outputs.

The bit-identity tests elsewhere compare batched runs with sequential ones,
and both sides draw through ``keyed_normals``; a change to the stream itself
passes them.  These digests were recorded from the implementation before
the lockstep hot path was rewritten, and the transform digests from the
one before ``transformed_coeffs`` was made to invert only in-bump points,
so any change to a draw, to the order of draws or to a floating-point
expression of the scheme or of the transform fails here.  A deliberate
change to the stream must re-record them and say so.
"""

import hashlib
import io

import numpy as np
import pytest

from adaptive_em.brownian import keyed_normals, path_key, time_bits
from adaptive_em.montecarlo import (
    occupation_values,
    run_experiment,
    verify_transform,
)
from adaptive_em.problems import get_example


def _digest(values):
    a = np.ascontiguousarray(values, dtype="<f8")
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


def _stream(dim):
    n = 64
    keys = path_key(20190101, np.arange(n, dtype=np.uint64))
    counters = np.arange(1, n + 1, dtype=np.uint64)
    tb = time_bits(np.linspace(0.0, 1.0, n) ** 2)
    return keyed_normals(keys, counters, tb, dim)


KEYED_NORMALS = {
    1: "bd3c35b76c786e224378430aea4bc0079218eb967f2a2355243e5989e0756c03",
    2: "fd416f6781a3801523f318590ec12056f46a2c453283758b3347312110f31e7d",
    3: "2abafd66c944948965042a430f6e2d76a5174b610a122815d2abe86de089e311",
}


@pytest.mark.parametrize("dim", sorted(KEYED_NORMALS))
def test_keyed_normals_golden(dim):
    z = _stream(dim)
    assert z.shape == (64, dim)
    assert _digest(z) == KEYED_NORMALS[dim]


def test_keyed_normals_dim1_is_first_component():
    np.testing.assert_array_equal(_stream(1)[:, 0], _stream(3)[:, 0])


def test_run_experiment_report_golden():
    problem = get_example("example1").problem
    buf = io.StringIO()
    run_experiment(problem, (2.0**-2, 2.0**-3, 2.0**-4, 2.0**-5), 64, 0).to_csv(buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
        "4006633a72141c3e27611f273c1fd6ed50f0d6b07106e2c1ec19b9fe5092a5ac"
    )


def test_occupation_values_golden():
    problem = get_example("example3").problem
    vals = occupation_values(problem, 2.0**-4, (0.1,), 64, 3)[0]
    assert _digest(vals) == (
        "fdef9e44f5e474d8a8ec4ed05e8bbd9f5b3ad9f1c092a1ef8432fcaf5e49d08b"
    )


def test_verify_transform_golden():
    entry = get_example("example2")
    (row,) = verify_transform(entry.problem, [2.0**-4], 64, 5)
    assert _digest([row["delta"], row["mean_sq"], row["stderr"]]) == (
        "ad747abb32096dbb8679941a983b698eb4d7c3d9fc4d135a39d5df061148cfb7"
    )


def _transform_grid(tr):
    # every bump interval, each edge xi +- c with one ulp either side, the
    # breakpoints themselves, far points and NaN
    c = tr.c
    parts = []
    for xi in tr.drift.breakpoints:
        parts.append(np.linspace(xi - c, xi + c, 257))
        for edge in (xi - c, xi + c):
            parts.append([np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)])
        parts.append([xi])
    parts.append([-50.0, -3.0, 0.5, 1.5, 5.0, 50.0, np.nan])
    return np.concatenate(parts)


# (transformed drift, transformed diffusion, inverse) on the grid, then the
# three at one 0-d point
TRANSFORM_COEFFS = {
    "example1": (
        "0fde866bfc17d39d21175a9e8aacd8edba280297ccc82d731d47b6231df2f40b",
        "1913e25da7568601159ba4d66e8ca39c650fa027e2219b89560c58179e04bce3",
        "27f1844f62fd3e8c101dfc1b205d8d77b751fbe9eca446d8d1ddebd1432b978e",
        "48530dc14b8d200c0b4387a00e6e150a66fd2df8ee1ec1d12efe4d82c115ad5b",
    ),
    "example2": (
        "7f5b66c47b3338b1b4b05e173e2315049938614fab1173aeae1e79b0838b3cda",
        "dbf5f06a3a29dfe23b33a932223c94b8848d0cd61ce887731472e567cb2856f8",
        "5be06b72b3abc0a63bea89c7bb76f805fafdec99712489c96835370d132ae6ff",
        "e47262da6966479919e5610381ed0f1fffe3e7c715a3fe236099420e4fe75670",
    ),
}


@pytest.mark.parametrize("name", sorted(TRANSFORM_COEFFS))
def test_transform_golden(name):
    tr = get_example(name).transform()
    z = _transform_grid(tr)
    mu, sg = tr.transformed_coeffs(z)
    mu0, sg0 = tr.transformed_coeffs(tr.drift.breakpoints[-1] + 0.3 * tr.c)
    x0 = tr.inverse(tr.drift.breakpoints[0] - 0.6 * tr.c)
    assert (_digest(mu), _digest(sg), _digest(tr.inverse(z))) == TRANSFORM_COEFFS[name][:3]
    assert np.ndim(mu0) == np.ndim(sg0) == np.ndim(x0) == 0
    assert _digest([mu0, sg0, x0]) == TRANSFORM_COEFFS[name][3]
