"""Vectorized lockstep kernels behind the Monte Carlo estimators.

One driver, :func:`_adaptive_lockstep`, advances a batch of independent
paths through the adaptive scheme in lockstep, retiring lanes as they reach
the horizon.  It holds the only copy of the step: the step budget, the step
size from the distance to the surface, the Euler update, the finiteness
check, the horizon crossing and the update of the live lanes.  Each pass
supplies three parts:

- a Brownian source for the path value at the next grid time: a fresh
  increment, recorded as a knot by :func:`forward_pass` and followed by a
  midpoint draw in :func:`occupation_pass`, or a bridge against the knots
  of an earlier forward pass in :func:`bridged_pass`;
- the path value at the horizon for lanes whose last step overshoots it:
  a bridge draw inserted as a knot, the recorded value, or a bridge from
  the step's midpoint;
- an optional observer of each step, which accumulates the trapezoidal
  occupation time.

:func:`equidistant_transformed_pass` keeps its own fixed-grid loop in
transformed coordinates and shares the knot walker and the bridge rule.

All Gaussian draws go through the same keyed counters as the sequential
classes (BrownianPath, simulate_adaptive, interpolate), and every
floating-point expression mirrors the sequential code, so a batched run
reproduces the per-sample results bit for bit.  In particular Brownian
increments are always formed as a difference of materialized knot values,
never as the raw scaled normal.
"""

from __future__ import annotations

import numpy as np

from .brownian import keyed_normals, path_key, time_bits
from .solver import (
    RunawaySimulationError,
    StepSizeParams,
    _step_budget,
    step_size_from_distance,
)

def _drift(problem, x):
    return np.asarray(problem.drift(x), dtype=float)


def _diffusion(problem, x):
    return np.asarray(problem.diffusion(x), dtype=float)


def _euler(x, mu, sig, dt, dw):
    return x + mu * dt[:, None] + np.einsum("bij,bj->bi", sig, dw)


def _sample_name(labels, lane):
    return f"sample {labels[lane]}" if labels is not None else f"lane {lane}"


def _check_finite(x, act=None, labels=None):
    ok = np.isfinite(x)
    if ok.all():
        return
    if x.ndim > 1:
        ok = ok.all(axis=tuple(range(1, x.ndim)))
    lane = int(np.flatnonzero(~ok)[0])
    if act is not None:
        lane = int(act[lane])
    raise ValueError(f"non-finite state during simulation in {_sample_name(labels, lane)}")


def _raise_budget(labels, act, budget, params):
    lane = int(act[0])
    raise RunawaySimulationError(
        f"{_sample_name(labels, lane)} exceeded {budget} steps at delta={params.delta:.4g}"
    )


def _adaptive_lockstep(problem, params, keys, labels, draw, horizon_value, observe=None):
    """Run the adaptive scheme on every lane until it reaches the horizon.

    The callables see arrays aligned with the active lanes ``act``:
    ``draw(act, tc, wc, h, t_next)`` returns the path values at the next
    grid time; ``horizon_value(act, sel, tc, wc, t_next, wn)`` returns the
    path values at the horizon of the lanes ``act[sel]``, whose step
    overshoots it; ``observe(act, tc, wc, x, mu, sig, dist, dist_end)`` sees
    each step with the distances to the surface at its start and at its end,
    the end being cut at the horizon under the frozen coefficients.  The
    arrays they see are the driver's own state, so they must not write to
    them.

    Returns per-lane step counts and the state and path value at the horizon.
    """
    n = keys.size
    d = problem.dimension
    horizon = problem.horizon
    budget = _step_budget(problem, params)
    steps = np.empty(n, dtype=np.int64)
    x_T = np.empty((n, d))
    w_T = np.empty((n, d))
    # state of the live lanes act only, compacted when a lane retires
    act = np.arange(n)
    t = np.zeros(n)
    x = np.tile(problem.x0, (n, 1))
    w = np.zeros((n, d))
    dist = np.asarray(problem.surface.distance(x), dtype=float)
    # live lanes start together and step once per iteration, so they all
    # have taken k steps
    k = 0
    while act.size:
        if k >= budget:
            _raise_budget(labels, act, budget, params)
        k += 1
        h = step_size_from_distance(dist, params)
        t_next = t + h
        wn = draw(act, t, w, h, t_next)
        mu = _drift(problem, x)
        sig = _diffusion(problem, x)
        xn = _euler(x, mu, sig, h, wn - w)
        _check_finite(xn, act, labels)
        x_end = xn
        crossed = t_next >= horizon
        retire = crossed.any()
        if retire:
            sel = np.flatnonzero(crossed)
            lanes = act[sel]
            exact = t_next[sel] == horizon
            w_hor = wn[sel]
            if not exact.all():
                w_hor[~exact] = horizon_value(act, sel[~exact], t, w, t_next, wn)
            x_end = xn.copy()
            x_end[sel] = _euler(x[sel], mu[sel], sig[sel], horizon - t[sel], w_hor - w[sel])
            # an exact hit keeps the grid value: horizon - tc can differ from h
            x_T[lanes] = np.where(exact[:, None], xn[sel], x_end[sel])
            w_T[lanes] = w_hor
            steps[lanes] = k
        dist_end = np.asarray(problem.surface.distance(x_end), dtype=float)
        if observe is not None:
            observe(act, t, w, x, mu, sig, dist, dist_end)
        t, x, w, dist = t_next, xn, wn, dist_end
        if retire:
            live = ~crossed
            act, t, x, w, dist = act[live], t[live], x[live], w[live], dist[live]
    return steps, x_T, w_T


def _normals(act, t, keys, kc, dim):
    """Keyed normals inserting time ``t`` on lanes ``act``; advances their counters."""
    idx = kc[act]
    z = keyed_normals(keys[act], idx, time_bits(t), dim)
    kc[act] = idx + 1
    return z


def _fresh(act, tc, wc, t, keys, kc, dim):
    """Path values at ``t`` past the last known values ``wc`` at ``tc``."""
    return wc + np.sqrt(t - tc)[:, None] * _normals(act, t, keys, kc, dim)


def _bridge(act, pt, pw, u_t, u_w, t, keys, kc, dim):
    """Path values at ``t`` between the known values at ``pt`` and ``u_t``."""
    frac = (t - pt) / (u_t - pt)
    z = _normals(act, t, keys, kc, dim)
    return pw + frac[:, None] * (u_w - pw) + np.sqrt(frac * (u_t - t))[:, None] * z


def _bridged_values(act, pt, pw, u_t, u_w, has_right, t_next, keys, kc, dim):
    """Sample path values at ``t_next`` given brackets; no draw on exact hits.

    Lanes without a right bracket draw a free increment.
    """
    frac = (t_next - pt) / np.where(has_right, u_t - pt, 1.0)
    # without a right bracket frac is t_next - pt, the free variance
    mean = np.where(has_right[:, None], pw + frac[:, None] * (u_w - pw), pw)
    var = np.where(has_right, frac * (u_t - t_next), frac)
    wn = pw.copy()
    drew = (pt != t_next).nonzero()[0]
    if drew.size:
        z = _normals(act[drew], t_next[drew], keys, kc, dim)
        wn[drew] = mean[drew] + np.sqrt(var[drew])[:, None] * z
    return wn


def _grown(buf):
    """``buf`` with its knot axis doubled; fresh pages of the new half stay unwritten."""
    out = np.zeros((buf.shape[0], 2 * buf.shape[1]) + buf.shape[2:])
    out[:, : buf.shape[1]] = buf
    return out


def forward_pass(problem, params: StepSizeParams, keys, labels=None):
    """Adaptive scheme on fresh paths, recording every knot.

    Returns a dict with per-lane step counts ``n``, the interpolated state
    and path value at the horizon (``x_T``, ``w_T``), the knot arrays
    ``kt``/``kw`` with row lengths ``length``, and the continued draw
    counter ``kc``.
    """
    n = keys.size
    d = problem.dimension
    horizon = problem.horizon
    kc = np.ones(n, dtype=np.uint64)
    length = np.ones(n, dtype=np.int64)
    kt = np.zeros((n, 256))
    kw = np.zeros((n, 256, d))

    def draw(act, tc, wc, h, t_next):
        nonlocal kt, kw
        wn = _fresh(act, tc, wc, t_next, keys, kc, d)
        # room for this knot and a horizon knot slotted in before it
        pos = length[act]
        if int(pos.max()) + 2 >= kt.shape[1]:
            kt = _grown(kt)
            kw = _grown(kw)
        kt[act, pos] = t_next
        kw[act, pos] = wn
        length[act] = pos + 1
        return wn

    def bridge_to_horizon(act, sel, tc, wc, t_next, wn):
        lanes = act[sel]
        wt = _bridge(
            lanes, tc[sel], wc[sel], t_next[sel], wn[sel],
            np.full(sel.size, horizon), keys, kc, d,
        )
        # shift the overshooting knot right and slot the horizon in
        p = length[lanes]
        kt[lanes, p] = kt[lanes, p - 1]
        kw[lanes, p] = kw[lanes, p - 1]
        kt[lanes, p - 1] = horizon
        kw[lanes, p - 1] = wt
        length[lanes] += 1
        return wt

    steps, x_T, w_T = _adaptive_lockstep(
        problem, params, keys, labels, draw, bridge_to_horizon
    )
    return {
        "n": steps,
        "x_T": x_T,
        "w_T": w_T,
        "kt": kt,
        "kw": kw,
        "length": length,
        "kc": kc,
    }


class _KnotWalker:
    """Forward walk over recorded knots for strictly increasing queries.

    Maintains, per lane, the latest known knot at or before the running
    query time and the index of the next recorded knot after it.  A query
    returns the bracketing data and flags exact hits on existing knots.
    """

    def __init__(self, kt, kw, length):
        self.kt = kt
        self.kw = kw
        self.last = length - 1
        self.ptr = np.ones(kt.shape[0], dtype=np.int64)

    def bracket(self, act, t_node, w_node, t_next):
        """Bracket data for querying ``t_next`` from nodes at ``t_node``.

        Returns (left time, left value, right time, right value, has_right)
        where the left side accounts for any recorded knots passed during
        this step.  Arrays are aligned with ``act``; the left side may be
        ``t_node`` and ``w_node`` themselves, so callers must not write to it.
        """
        pt, pw = t_node, w_node
        ptr = self.ptr[act]
        last = self.last[act]
        g = np.minimum(ptr, last)
        u_t = self.kt[act, g]
        has_right = ptr <= last
        can = has_right & (u_t <= t_next)
        while can.any():
            # lanes in can pass their next knot: it becomes the left side
            pt = np.where(can, u_t, pt)
            pw = np.where(can[:, None], self.kw[act, g], pw)
            ptr += can
            g = np.minimum(ptr, last)
            u_t = self.kt[act, g]
            has_right = ptr <= last
            can = has_right & (u_t <= t_next)
        self.ptr[act] = ptr
        return pt, pw, u_t, self.kw[act, g], has_right


def bridged_pass(problem, params: StepSizeParams, keys, prior, labels=None):
    """Adaptive scheme on paths conditioned on previously recorded knots.

    ``prior`` is the dict returned by :func:`forward_pass` for the same
    keys; its knots (which include the horizon) pin the path, and new times
    are bridged against them.  Returns per-lane step counts and the state
    at the horizon.
    """
    kc = prior["kc"].copy()
    walker = _KnotWalker(prior["kt"], prior["kw"], prior["length"])

    def draw(act, tc, wc, h, t_next):
        bracket = walker.bracket(act, tc, wc, t_next)
        return _bridged_values(act, *bracket, t_next, keys, kc, problem.dimension)

    def recorded(act, sel, *_):
        return prior["w_T"][act[sel]]

    steps, x_T, _ = _adaptive_lockstep(problem, params, keys, labels, draw, recorded)
    return {"n": steps, "x_T": x_T}


def coupled_pair(problem, delta, indices, master_seed):
    """Coarse (2 delta) then fine (delta) adaptive runs on shared paths.

    Returns (squared differences at the horizon, fine step counts, coarse
    step counts) for the given sample indices.
    """
    idx = np.asarray(indices, dtype=np.uint64)
    keys = path_key(master_seed, idx)
    coarse = StepSizeParams.for_problem(problem, 2.0 * delta)
    fine = StepSizeParams.for_problem(problem, delta)
    prior = forward_pass(problem, coarse, keys, labels=idx)
    out = bridged_pass(problem, fine, keys, prior, labels=idx)
    diff = out["x_T"] - prior["x_T"]
    sq = np.einsum("bj,bj->b", diff, diff)
    return sq, out["n"], prior["n"]


def occupation_pass(problem, params: StepSizeParams, epsilon, keys, labels=None):
    """Time spent by the interpolated scheme within ``epsilon`` of the surface.

    Each step contributes trapezoidal occupancy from its endpoints and
    midpoint; the final step is truncated at the horizon.  Returns the
    per-lane occupation times.
    """
    n = keys.size
    d = problem.dimension
    horizon = problem.horizon
    kc = np.ones(n, dtype=np.uint64)
    occ = np.zeros(n)
    h_cut = t_mid = w_mid = None

    # the midpoint is drawn with the step: a horizon value bridges from it
    def draw(act, tc, wc, h, t_next):
        nonlocal h_cut, t_mid, w_mid
        wn = _fresh(act, tc, wc, t_next, keys, kc, d)
        h_cut = np.where(t_next >= horizon, horizon - tc, h)
        t_mid = tc + 0.5 * h_cut
        w_mid = _bridge(act, tc, wc, t_next, wn, t_mid, keys, kc, d)
        return wn

    def bridge_from_midpoint(act, sel, tc, wc, t_next, wn):
        return _bridge(
            act[sel], t_mid[sel], w_mid[sel], t_next[sel], wn[sel],
            np.full(sel.size, horizon), keys, kc, d,
        )

    def trapezoid(act, tc, wc, x, mu, sig, dist, dist_end):
        xm = _euler(x, mu, sig, t_mid - tc, w_mid - wc)
        in_m = np.asarray(problem.surface.distance(xm)) < epsilon
        occ[act] += h_cut * ((dist < epsilon) + 2.0 * in_m + (dist_end < epsilon)) * 0.25

    _adaptive_lockstep(
        problem, params, keys, labels, draw, bridge_from_midpoint, trapezoid
    )
    return occ


def equidistant_transformed_pass(transform, z0, horizon, n_steps, keys, prior, labels=None):
    """Uniform-grid Euler run of the transformed scalar equation.

    Starts from the transformed initial value ``z0``, shares the Brownian
    paths recorded in ``prior`` (whose knots include the horizon), and
    returns the transformed state at the horizon for every lane.
    """
    n = keys.size
    kc = prior["kc"].copy()
    walker = _KnotWalker(prior["kt"], prior["kw"], prior["length"])
    act = np.arange(n)
    dt = horizon / n_steps
    t = np.zeros(n)
    w_cur = np.zeros((n, 1))
    z_cur = np.full(n, z0)
    for k in range(n_steps):
        tk1 = horizon if k == n_steps - 1 else (k + 1) * dt
        t_next = np.full(n, tk1)
        bracket = walker.bracket(act, t, w_cur, t_next)
        wn = _bridged_values(act, *bracket, t_next, keys, kc, 1)
        mu_g, sig_g = transform.transformed_coeffs(z_cur)
        h = t_next - t
        dw = wn[:, 0] - w_cur[:, 0]
        z_cur = z_cur + mu_g * h + sig_g * dw
        _check_finite(z_cur, None, labels)
        t = t_next
        w_cur = wn
    return z_cur
