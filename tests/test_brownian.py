import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import BrownianPath
from scipy.special import ndtri

import adaptive_em
from adaptive_em.brownian import (
    _GOLD,
    _M1,
    _M2,
    _SALT_LANE,
    _mix64,
    keyed_normals,
    path_key,
    time_bits,
)


def test_starts_at_zero():
    p = BrownianPath(3, 1)
    np.testing.assert_array_equal(p.query(0.0), np.zeros(3))
    assert p.knot_times == (0.0,)


def test_negative_time_rejected():
    p = BrownianPath(1, 1)
    with pytest.raises(ValueError):
        p.query(-0.5)
    np.testing.assert_array_equal(p.query(-0.0), np.zeros(1))


def test_requery_is_bit_identical_and_non_mutating():
    p = BrownianPath(2, 99, 3)
    first = p.query(0.7)
    knots = p.knot_times
    again = p.query(0.7)
    np.testing.assert_array_equal(first, again)
    assert p.knot_times == knots
    # returned arrays are copies, not views into the knot store
    again[0] = 123.0
    np.testing.assert_array_equal(p.query(0.7), first)


def test_same_seed_same_queries_bit_identical():
    times = [0.3, 0.1, 0.9, 0.45, 0.1]
    a = BrownianPath(2, 2024, 17)
    b = BrownianPath(2, 2024, 17)
    for t in times:
        np.testing.assert_array_equal(a.query(t), b.query(t))
    assert a.knot_times == b.knot_times


# query times: signed zeros, a few fixed knots that later queries repeat,
# and arbitrary nonnegative floats, down to subnormals
_query_times = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]),
        st.floats(min_value=0.0, max_value=4.0, allow_subnormal=True),
    ),
    min_size=1,
    max_size=40,
)


@given(times=_query_times, dim=st.integers(1, 3), index=st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_query_in_any_order_is_stable_and_keeps_knots_sorted(times, dim, index):
    p = BrownianPath(dim, 2718, index)
    first = {}
    for t in times + times[::-1]:
        val = p.query(t).tobytes()
        # -0.0 == 0.0, so the signed zeros share one entry
        assert first.setdefault(t, val) == val
    for t, val in first.items():
        assert p.query(t).tobytes() == val
    kt = p.knot_times
    assert kt[0] == 0.0 and math.copysign(1.0, kt[0]) == 1.0
    assert all(a < b for a, b in zip(kt, kt[1:]))
    assert set(kt) == set(first) | {0.0}


def test_refinement_never_moves_existing_knots():
    p = BrownianPath(1, 5)
    w1 = p.query(1.0)
    w05 = p.query(0.5)
    w025 = p.query(0.25)
    np.testing.assert_array_equal(p.query(1.0), w1)
    np.testing.assert_array_equal(p.query(0.5), w05)
    np.testing.assert_array_equal(p.query(0.25), w025)
    assert p.knot_times == (0.0, 0.25, 0.5, 1.0)


@pytest.mark.slow
def test_marginal_variance_at_one():
    # empirical Var of W(1) over fresh paths close to 1 per coordinate
    n = 100_000
    keys = path_key(314, np.arange(n, dtype=np.uint64))
    z = keyed_normals(keys, np.ones(n, dtype=np.uint64), np.full(n, time_bits(1.0)), 2)
    var = z.var(axis=0, ddof=1)
    se = np.sqrt(2.0 / n)
    assert np.all(np.abs(var - 1.0) < 3 * se)
    assert np.all(np.abs(z.mean(axis=0)) < 3 / np.sqrt(n))


@pytest.mark.slow
def test_increment_variance():
    n = 100_000
    rng_lanes = np.arange(n)
    vals = np.empty(n)
    for i in rng_lanes:
        p = BrownianPath(1, 77, int(i))
        # the earlier time first, so both values are forward increments, not a bridge
        w_s = p.query(0.25)
        vals[i] = (p.query(0.75) - w_s)[0]
    v = vals.var(ddof=1)
    se = 0.5 * np.sqrt(2.0 / n)
    assert abs(v - 0.5) < 3 * se


@pytest.mark.slow
def test_bridge_midpoint_statistics():
    # knots {0, 1}; the 0.5 bridge has mean w/2 and variance 0.25
    n = 100_000
    mids = np.empty(n)
    ends = np.empty(n)
    for i in range(n):
        p = BrownianPath(1, 555, i)
        ends[i] = p.query(1.0)[0]
        mids[i] = p.query(0.5)[0]
    resid = mids - 0.5 * ends
    assert abs(resid.mean()) < 3 * np.sqrt(0.25 / n)
    assert abs(resid.var(ddof=1) - 0.25) < 3 * 0.25 * np.sqrt(2.0 / n)


@pytest.mark.slow
def test_query_order_leaves_joint_law_unchanged():
    # covariance of (W(0.25), W(0.5)) is [[0.25, 0.25], [0.25, 0.5]]
    # whichever time is asked first
    n = 100_000

    def sample(order, seed):
        out = np.empty((n, 2))
        for i in range(n):
            p = BrownianPath(1, seed, i)
            vals = {t: p.query(t)[0] for t in order}
            out[i] = (vals[0.25], vals[0.5])
        return out

    for seed, order in ((901, (0.25, 0.5)), (902, (0.5, 0.25))):
        x = sample(order, seed)
        cov = np.cov(x.T)
        target = np.array([[0.25, 0.25], [0.25, 0.5]])
        se = np.sqrt(2.0 / n) * np.array([[0.25, 0.35], [0.35, 0.5]])
        assert np.all(np.abs(cov - target) < 3 * se), (order, cov)


def test_path_key_vectorizes():
    idx = np.arange(5, dtype=np.uint64)
    keys = path_key(42, idx)
    assert keys.shape == (5,)
    for i in range(5):
        assert keys[i] == path_key(42, i)
    assert len(np.unique(keys)) == 5


def test_keyed_normals_scalar_and_batch_agree():
    keys = path_key(7, np.arange(4, dtype=np.uint64))
    kc = np.array([1, 2, 3, 4], dtype=np.uint64)
    tb = time_bits(np.array([0.1, 0.2, 0.3, 0.4]))
    batch = keyed_normals(keys, kc, tb, 3)
    assert batch.shape == (4, 3)
    for i in range(4):
        np.testing.assert_array_equal(
            batch[i], keyed_normals(keys[i], kc[i], tb[i], 3)
        )


def _uniform_reference(k):
    # the top 53 bits k of a word, mapped to (k + 1/2) 2^-53
    u = k.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return u


@pytest.mark.parametrize("seed", [0, 1])
def test_uniform_mapping_identity(seed):
    # keyed_normals forms (2k + 1) 2^-54 from the word shifted by 10 with its
    # last bit set: scaling by 2 commutes with rounding, so the bits agree
    edges = np.array([0, 2**52 - 1, 2**52, 2**53 - 1], dtype=np.uint64)
    rand = np.random.default_rng(seed).integers(0, 2**53, size=4096, dtype=np.uint64)
    k = np.concatenate([edges, rand])
    u = ((k << np.uint64(1)) | np.uint64(1)).astype(np.float64) * 2.0**-54
    np.testing.assert_array_equal(u.view(np.uint64), _uniform_reference(k).view(np.uint64))
    # k + 1/2 is exact below 2^52; from there both forms round half to even,
    # so the top word maps to 1 in both
    assert list(u[:4]) == [2.0**-54, 0.5 - 2.0**-54, 0.5, 1.0]


def test_keyed_normals_match_the_uniform_reference():
    # the same draw through the words' top 53 bits and (k + 1/2) 2^-53
    keys = path_key(11, np.arange(64, dtype=np.uint64))
    kc = np.arange(1, 65, dtype=np.uint64)
    tb = time_bits(np.linspace(0.01, 1.0, 64))
    for dim in (1, 2):
        z = _mix64(_mix64(keys ^ (kc * _GOLD)) ^ tb)[:, None]
        if dim > 1:
            z = z ^ (np.arange(dim, dtype=np.uint64) * _SALT_LANE)
        k = _mix64(z.copy()) >> np.uint64(11)
        np.testing.assert_array_equal(
            keyed_normals(keys, kc, tb, dim), ndtri(_uniform_reference(k)), strict=True
        )


def _unmix64(z):
    # the inverse of the splitmix64 finalizer, on a Python int
    def unshift(y, s):
        x = y
        for _ in range(3):
            x = y ^ (x >> s)
        return x

    z = unshift(z, 31)
    z = z * pow(int(_M2), -1, 2**64) % 2**64
    z = unshift(z, 27)
    z = z * pow(int(_M1), -1, 2**64) % 2**64
    return unshift(z, 30)


def test_top_word_draws_a_finite_normal():
    # at knot index 0 and time bits 0 a dim-1 draw mixes the key three times;
    # the key whose mixed word is all ones hits the top k = 2^53 - 1, whose
    # uniform rounds to 1 and would give ndtri(1) = inf
    top = 2**64 - 1
    key = _unmix64(_unmix64(_unmix64(top)))
    word = np.array([key], dtype=np.uint64)
    for _ in range(3):
        word = _mix64(word)
    assert int(word[0]) == top
    z = keyed_normals(np.uint64(key), np.uint64(0), np.uint64(0), 1)
    assert np.isfinite(z).all()
    assert z[0] == ndtri(1.0 - 2.0**-53)
    assert z[0] == pytest.approx(8.21, abs=0.01)


def test_distinct_paths_are_uncorrelated():
    n = 50_000
    keys = path_key(12, np.arange(2 * n, dtype=np.uint64))
    kc = np.ones(2 * n, dtype=np.uint64)
    tb = np.full(2 * n, time_bits(0.5))
    z = keyed_normals(keys, kc, tb, 1)[:, 0]
    corr = np.corrcoef(z[:n], z[n:])[0, 1]
    assert abs(corr) < 3 / np.sqrt(n)


_LAZY_SCIPY_SPECIAL = """
import sys
import numpy as np
import adaptive_em.cli
from adaptive_em.brownian import _mix64, keyed_normals, path_key, time_bits
from adaptive_em.problems import example_names, get_example
from adaptive_em.regression import fit_rate
for name in example_names():
    try:
        get_example(name).transform()
    except ValueError:
        pass  # example3 is planar and has none
fit = fit_rate([0.25, 0.125, 0.0625], [1.0, 0.5, 0.25])
assert abs(fit.c3 - 1.0) < 1e-9, fit
assert "scipy.special" not in sys.modules, "scipy.special loaded before a draw"
keys = path_key(11, np.arange(64))
kc = np.arange(1, 65, dtype=np.uint64)
tb = time_bits(np.linspace(0.01, 1.0, 64))
z = keyed_normals(keys, kc, tb, 1)
assert "scipy.special" in sys.modules
from scipy.special import ndtri
k = _mix64(_mix64(_mix64(keys ^ (kc * np.uint64(0x9E3779B97F4A7C15))) ^ tb)) >> np.uint64(11)
u = (k.astype(np.float64) + 0.5) * 2.0**-53
np.testing.assert_array_equal(z[:, 0], ndtri(u), strict=True)
"""

_POOL_INHERITS_SCIPY_SPECIAL = """
import sys
from adaptive_em import montecarlo
from adaptive_em.problems import get_example
loaded = []

class Pool(montecarlo.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        loaded.append("scipy.special" in sys.modules)
        super().__init__(*args, **kwargs)

montecarlo.ProcessPoolExecutor = Pool
montecarlo.run_experiment(get_example("example2").problem, [0.25], 1024, 0, workers=2)
assert loaded == [True], loaded
"""


def _run_fresh(script):
    # a fresh interpreter, since this one has loaded scipy.special already
    src = Path(adaptive_em.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_scipy_special_is_loaded_only_by_a_draw():
    _run_fresh(_LAZY_SCIPY_SPECIAL)


def test_pool_loads_scipy_special_before_its_workers_start():
    # two batches on two workers, which inherit the parent's module
    _run_fresh(_POOL_INHERITS_SCIPY_SPECIAL)
