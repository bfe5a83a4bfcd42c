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

_U1 = np.uint64(1)


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
    the end being cut at the horizon under the frozen coefficients.

    Returns per-lane step counts and the state and path value at the horizon.
    """
    n = keys.size
    d = problem.dimension
    horizon = problem.horizon
    budget = _step_budget(problem, params)
    t = np.zeros(n)
    x_cur = np.tile(problem.x0, (n, 1))
    w_cur = np.zeros((n, d))
    steps = np.zeros(n, dtype=np.int64)
    x_T = np.empty((n, d))
    w_T = np.empty((n, d))
    alive = np.ones(n, dtype=bool)
    dist = np.asarray(problem.surface.distance(x_cur), dtype=float)
    while True:
        act = np.flatnonzero(alive)
        if act.size == 0:
            break
        if int(steps[act].max()) + 1 > budget:
            _raise_budget(labels, act, budget, params)
        x = x_cur[act]
        tc = t[act]
        wc = w_cur[act]
        dist_act = dist[act]
        h = step_size_from_distance(dist_act, params)
        t_next = tc + h
        wn = draw(act, tc, wc, h, t_next)
        mu = _drift(problem, x)
        sig = _diffusion(problem, x)
        xn = _euler(x, mu, sig, h, wn - wc)
        _check_finite(xn, act, labels)
        steps[act] += 1
        x_end = xn
        crossed = t_next >= horizon
        if crossed.any():
            sel = np.flatnonzero(crossed)
            lanes = act[sel]
            exact = t_next[sel] == horizon
            w_hor = wn[sel]
            if not exact.all():
                w_hor[~exact] = horizon_value(act, sel[~exact], tc, wc, t_next, wn)
            x_end = xn.copy()
            x_end[sel] = _euler(x[sel], mu[sel], sig[sel], horizon - tc[sel], w_hor - wc[sel])
            # an exact hit keeps the grid value: horizon - tc can differ from h
            x_T[lanes] = np.where(exact[:, None], xn[sel], x_end[sel])
            w_T[lanes] = w_hor
            alive[lanes] = False
        dist_end = np.asarray(problem.surface.distance(x_end), dtype=float)
        if observe is not None:
            observe(act, tc, wc, x, mu, sig, dist_act, dist_end)
        # finished lanes are written too; nothing reads them again
        t[act] = t_next
        x_cur[act] = xn
        w_cur[act] = wn
        dist[act] = dist_end
    return steps, x_T, w_T


def _normals(act, t, keys, kc, dim):
    """Keyed normals inserting time ``t`` on lanes ``act``; advances their counters."""
    z = keyed_normals(keys[act], kc[act], time_bits(t), dim)
    kc[act] += _U1
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
    exact = pt == t_next
    drew = ~exact
    denom = np.where(has_right, u_t - pt, 1.0)
    frac = (t_next - pt) / denom
    mean = np.where(
        has_right[:, None], pw + frac[:, None] * (u_w - pw), pw
    )
    var = np.where(has_right, frac * (u_t - t_next), t_next - pt)
    wn = pw.copy()
    if drew.any():
        z = _normals(act[drew], t_next[drew], keys, kc, dim)
        wn[drew] = mean[drew] + np.sqrt(var[drew])[:, None] * z
    return wn


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
        if int(length[act].max()) + 2 >= kt.shape[1]:
            kt = np.concatenate([kt, np.zeros(kt.shape)], axis=1)
            kw = np.concatenate([kw, np.zeros(kw.shape)], axis=1)
        kt[act, length[act]] = t_next
        kw[act, length[act]] = wn
        length[act] += 1
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
        self.length = length
        self.ptr = np.ones(kt.shape[0], dtype=np.int64)

    def bracket(self, act, t_node, w_node, t_next):
        """Bracket data for querying ``t_next`` from nodes at ``t_node``.

        Returns (left time, left value, right time, right value, has_right)
        where the left side accounts for any recorded knots passed during
        this step.  Arrays are aligned with ``act``.
        """
        pt = t_node.copy()
        pw = w_node.copy()
        ptr = self.ptr
        length = self.length
        guard = np.minimum(ptr[act], length[act] - 1)
        can = (ptr[act] < length[act]) & (self.kt[act, guard] <= t_next)
        while can.any():
            ii = np.flatnonzero(can)
            lanes = act[ii]
            pt[ii] = self.kt[lanes, ptr[lanes]]
            pw[ii] = self.kw[lanes, ptr[lanes]]
            ptr[lanes] += 1
            guard = np.minimum(ptr[lanes], length[lanes] - 1)
            can[ii] = (ptr[lanes] < length[lanes]) & (
                self.kt[lanes, guard] <= t_next[ii]
            )
        guard = np.minimum(ptr[act], length[act] - 1)
        u_t = self.kt[act, guard]
        u_w = self.kw[act, guard]
        has_right = ptr[act] < length[act]
        return pt, pw, u_t, u_w, has_right


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
