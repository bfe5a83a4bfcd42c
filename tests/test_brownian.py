import numpy as np
import pytest

from adaptive_em.brownian import BrownianPath, keyed_normals, path_key, time_bits


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


def test_refinement_never_moves_existing_knots():
    p = BrownianPath(1, 5)
    w1 = p.query(1.0)
    w05 = p.query(0.5)
    w025 = p.query(0.25)
    np.testing.assert_array_equal(p.query(1.0), w1)
    np.testing.assert_array_equal(p.query(0.5), w05)
    np.testing.assert_array_equal(p.query(0.25), w025)
    assert p.knot_times == (0.0, 0.25, 0.5, 1.0)


def test_increment_edge_cases():
    p = BrownianPath(2, 8)
    np.testing.assert_array_equal(p.increment(1.0, 1.0), np.zeros(2))
    np.testing.assert_array_equal(p.increment(0.0, 0.6), p.query(0.6))
    with pytest.raises(ValueError):
        p.increment(0.7, 0.2)


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
        vals[i] = p.increment(0.25, 0.75)[0]
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


def test_distinct_paths_are_uncorrelated():
    n = 50_000
    keys = path_key(12, np.arange(2 * n, dtype=np.uint64))
    kc = np.ones(2 * n, dtype=np.uint64)
    tb = np.full(2 * n, time_bits(0.5))
    z = keyed_normals(keys, kc, tb, 1)[:, 0]
    corr = np.corrcoef(z[:n], z[n:])[0, 1]
    assert abs(corr) < 3 / np.sqrt(n)
