"""Vectorized lockstep kernels behind the Monte Carlo estimators.

One driver, :func:`_adaptive_lockstep`, advances a batch of independent
paths through the adaptive scheme in lockstep, retiring lanes as they reach
the horizon.  It holds the only copy of the step: the step budget, the step
size from the distance to the surface, the Euler update, the finiteness
check, the horizon crossing and the step cut there, and the update of the
live lanes.  A batch pools every rung of a ladder, laid out rung by rung
by :func:`ladder_lanes`, each rung with its own step-size parameters, so a
pass costs as many iterations as its slowest lane, not the sum over rungs.
Each pass supplies three parts:

- a Brownian source for the path value at the next grid time: a fresh
  increment (:func:`_fresh`), recorded as a knot by :func:`forward_pass`
  (in a linked store written in drawing order) and followed by a
  midpoint draw in :func:`occupation_pass`, or in :func:`bridged_pass` a
  bridge (:func:`_bridge`) against the knots of an earlier forward pass,
  or a fresh increment past the last knot;
- the path value at the horizon for lanes whose last step overshoots it:
  a bridge draw inserted as a knot, the recorded value, or a bridge from
  the step's midpoint;
- an optional observer of each step, which accumulates the trapezoidal
  occupation time or records the grid nodes of one path.

The knot store is the one record of a forward path: it starts with each
lane's knot 0 at time 0, which takes no draw, and each later knot took one
draw, so the next draw counter is the lane's number of knots, and the one
knot at the horizon holds the path value there.  The forward pass writes
each iteration's knots once, as slices at the end of flat time, value and
link arrays, and links each lane's new knot from its previous one; the
horizon knot of an overshooting step is appended and spliced in before the
overshoot knot.  The links are int32, and become int64 once if the store
grows past ``_LINK_LIMIT`` knots.  The arrays grow in place by an eighth
and are trimmed at the end, so the pass peaks at the store's 4 (3 + 2 d)
bytes per knot (20 for ``d = 1``) plus at most an eighth of slack.  The
walker of a later pass follows the links of each lane.

:func:`equidistant_transformed_pass` keeps its own fixed-grid loop in
transformed coordinates and shares the knot walker and the bridge rule.
It stays separate because the two loops differ in the grid, the
coefficients, the distance, the budget and the horizon crossing, so one
driver for both would need a hook for each.

All Gaussian draws go through the same keyed counters as the sequential
``BrownianPath`` of ``tests/oracles.py``, and every floating-point
expression mirrors a one-sample run on such a path, so a batched run
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

# the most knots a forward pass links in int32; a larger store links in int64
_LINK_LIMIT = np.iinfo(np.int32).max


def _drift(problem, x):
    return np.asarray(problem.drift(x), dtype=float)


def _diffusion(problem, x):
    return np.asarray(problem.diffusion(x), dtype=float)


def _euler(x, mu, sig, dt, dw):
    return x + mu * dt[:, None] + np.einsum("bij,bj->bi", sig, dw)


def _check_finite(x, act, labels):
    ok = np.isfinite(x)
    if np.count_nonzero(ok) == ok.size:
        return
    if x.ndim > 1:
        ok = ok.all(axis=tuple(range(1, x.ndim)))
    raise RunawaySimulationError(f"non-finite state during simulation in sample {labels[act[~ok][0]]}")


def _live_spans(rung_live, n_rungs):
    """(rung, start, stop) of each rung with live lanes; ``rung_live`` is sorted."""
    bounds = np.searchsorted(rung_live, np.arange(n_rungs + 1)).tolist()
    return [(r, a, b) for r, (a, b) in enumerate(zip(bounds, bounds[1:])) if b > a]


def _adaptive_lockstep(problem, params, rung, labels, carried, draw, horizon_value, observe=None):
    """Run the adaptive scheme on every lane until it reaches the horizon.

    ``params`` holds one StepSizeParams per rung and ``rung`` the
    non-decreasing rung index of each lane, so the live lanes of a rung
    always form one contiguous slice; each slice takes its step sizes and
    its step budget from its own rung.  ``carried`` holds the per-lane
    state of the callables (draw counters, knot walkers); each is
    compacted by ``keep(live)`` together with the live lanes.

    The callables see arrays aligned with the active lanes ``act``:
    ``draw(act, tc, wc, h, t_next)`` returns the path values at the next
    grid time ``t_next``, where ``h`` is the step cut at the horizon;
    ``horizon_value(act, sel, tc, wc, t_next, wn)`` returns the path values
    at the horizon of the lanes ``act[sel]``, whose step overshoots it;
    ``observe(act, tc, wc, x, mu, sig, dist, dist_end,
    t_next, xn)`` sees each step with the distances to the surface at its
    start and at its end, the end being cut at the horizon under the frozen
    coefficients, and with the step's full end node ``(t_next, xn)``.  The
    arrays they see, ``t_next`` and the returned path values among them, are
    never written to in place, so they may keep references to them.

    Returns per-lane step counts and the state at the horizon.
    """
    n = labels.size
    d = problem.dimension
    # 0-d, so the per-iteration comparisons and differences convert nothing
    horizon = np.array(problem.horizon)
    budgets = [_step_budget(problem, p) for p in params]
    steps = np.empty(n, dtype=np.int64)
    x_T = np.empty((n, d))
    # state of the live lanes act only, compacted in order when a lane retires
    act = np.arange(n)
    t = np.zeros(n)
    x = np.tile(problem.x0, (n, 1))
    w = np.zeros((n, d))
    dist = np.asarray(problem.surface.distance(x), dtype=float)
    spans = _live_spans(rung, len(params))
    # live lanes start together and step once per iteration, so they all
    # have taken k steps
    k = 0
    while act.size:
        h = []
        for r, a, b in spans:
            if k >= budgets[r]:
                raise RunawaySimulationError(
                    f"sample {labels[act[a]]} exceeded {budgets[r]} steps "
                    f"at delta={params[r].delta:.4g}"
                )
            h.append(step_size_from_distance(dist[a:b], params[r]))
        k += 1
        h = h[0] if len(h) == 1 else np.concatenate(h)
        t_next = t + h
        crossed = t_next >= horizon
        retire = np.count_nonzero(crossed)
        h_cut = np.where(crossed, horizon - t, h) if retire else h
        wn = draw(act, t, w, h_cut, t_next)
        mu = _drift(problem, x)
        sig = _diffusion(problem, x)
        xn = _euler(x, mu, sig, h, wn - w)
        _check_finite(xn, act, labels)
        x_end = xn
        if retire:
            sel = np.flatnonzero(crossed)
            lanes = act[sel]
            exact = t_next[sel] == horizon
            w_hor = wn[sel]
            if not exact.all():
                w_hor[~exact] = horizon_value(act, sel[~exact], t, w, t_next, wn)
            x_end = xn.copy()
            x_end[sel] = _euler(x[sel], mu[sel], sig[sel], h_cut[sel], w_hor - w[sel])
            # an exact hit keeps the grid value: horizon - tc can differ from h
            x_T[lanes] = np.where(exact[:, None], xn[sel], x_end[sel])
            steps[lanes] = k
        dist_end = np.asarray(problem.surface.distance(x_end), dtype=float)
        if observe is not None:
            observe(act, t, w, x, mu, sig, dist, dist_end, t_next, xn)
        t, x, w, dist = t_next, xn, wn, dist_end
        if retire:
            live = ~crossed
            act, t, x, w, dist = act[live], t[live], x[live], w[live], dist[live]
            for c in carried:
                c.keep(live)
            spans = _live_spans(rung[act], len(params))
    return steps, x_T


class _Counters:
    """Path keys and next draw counters ``idx``, from ``kc``, of the live lanes."""

    def __init__(self, keys, kc):
        self.keys = keys
        self.idx = kc.copy()

    def normals(self, t, dim, used=True):
        """Keyed normals at time ``t`` on every live lane; ``used`` ones advance."""
        z = keyed_normals(self.keys, self.idx, time_bits(t), dim)
        self.idx += used
        return z

    def normals_of(self, sel, t, dim):
        """Keyed normals inserting time ``t`` on the live lanes ``sel``."""
        idx = self.idx[sel]
        self.idx[sel] = idx + 1
        return keyed_normals(self.keys[sel], idx, time_bits(t), dim)

    def keep(self, live):
        self.keys, self.idx = self.keys[live], self.idx[live]


def _fresh(tc, wc, t, z):
    """Path values at ``t`` past the last known values ``wc`` at ``tc``."""
    return wc + np.sqrt(t - tc)[:, None] * z


def _bridge(pt, pw, u_t, u_w, t, z):
    """Path values at ``t`` between the known values at ``pt`` and ``u_t``."""
    frac = (t - pt) / (u_t - pt)
    return pw + frac[:, None] * (u_w - pw) + np.sqrt(frac * (u_t - t))[:, None] * z


def _bridged_values(pt, pw, u_t, u_w, has_right, t_next, counters, dim):
    """Sample path values at ``t_next`` given brackets; no draw on exact hits.

    Lanes without a right bracket draw a free increment.  Every lane gets a
    normal, but only the lanes off a knot use it and advance their counter.
    """
    drew = pt != t_next
    n_drew = np.count_nonzero(drew)
    if not n_drew:
        return pw
    z = counters.normals(t_next, dim, drew)
    if np.count_nonzero(has_right) == has_right.size:
        w = _bridge(pt, pw, u_t, u_w, t_next, z)
    else:
        w = _fresh(pt, pw, t_next, z)
        r = np.flatnonzero(has_right)
        w[r] = _bridge(pt[r], pw[r], u_t[r], u_w[r], t_next[r], z[r])
    return w if n_drew == drew.size else np.where(drew[:, None], w, pw)


def forward_pass(problem, params, rung, keys, labels, observe=None):
    """Adaptive scheme on fresh paths, recording every knot.

    ``params``, ``rung`` and ``observe`` are as in :func:`_adaptive_lockstep`.
    Returns a dict with per-lane step counts ``n``, the state at the horizon
    ``x_T``, and the knots in a linked store, which gives the path value at
    the horizon ``w_T`` and the next draw counter ``kc``.  The store holds
    the knot times ``kt`` and path values ``kw`` in drawing order; entry
    ``i`` is lane ``i``'s knot 0 (time 0, value 0), and each knot links to
    the lane's next one by ``nxt``, -1 after the last, in strictly
    increasing times with the horizon once among them.  A lane's knot count
    ``kc`` is one for knot 0, plus its step count, plus one for the horizon
    knot when its last step overshoots.  ``nxt`` is
    int32, or int64 once the store has more than ``_LINK_LIMIT`` knots: the
    links are widened once, by the append that passes that count.
    """
    n = keys.size
    d = problem.dimension
    horizon = problem.horizon
    counters = _Counters(keys, np.ones(n, dtype=np.uint64))
    # written once, in drawing order, and grown in place by an eighth;
    # lane i's knot 0 (time 0, value 0, no draw) is entry i
    kt, kw, nxt = np.zeros(n), np.zeros((n, d)), np.empty(n, dtype=np.int32)
    size = n
    last = np.arange(n)
    # the live lanes' knots before this iteration's, set by each draw
    prev = None
    # the horizon knot spliced in before a lane's overshoot knot, else -1
    spliced = np.full(n, -1, dtype=np.int64)

    def append(t, w):
        nonlocal size, nxt
        stop = size + w.shape[0]
        if stop > _LINK_LIMIT and nxt.dtype != np.int64:
            nxt = nxt.astype(np.int64)
        if stop > kt.size:
            cap = max(stop, kt.size + kt.size // 8)
            # a realloc: the store is never viewed, so no copy stays behind
            for a in (kt, kw, nxt):
                a.resize((cap, *a.shape[1:]), refcheck=False)
        kt[size:stop] = t
        kw[size:stop] = w
        new = np.arange(size, stop)
        size = stop
        return new

    def draw(act, tc, wc, h, t_next):
        nonlocal prev
        wn = _fresh(tc, wc, t_next, counters.normals(t_next, d))
        new = append(t_next, wn)
        prev = last[act]
        nxt[prev] = new
        last[act] = new
        return wn

    def bridge_to_horizon(act, sel, tc, wc, t_next, wn):
        z = counters.normals_of(sel, horizon, d)
        wt = _bridge(tc[sel], wc[sel], t_next[sel], wn[sel], horizon, z)
        lanes = act[sel]
        at = append(horizon, wt)
        # between the lane's previous knot and this iteration's overshoot knot
        nxt[at] = last[lanes]
        nxt[prev[sel]] = at
        spliced[lanes] = at
        return wt

    steps, x_T = _adaptive_lockstep(
        problem, params, rung, labels, (counters,), draw, bridge_to_horizon, observe
    )
    nxt[last] = -1
    for a in (kt, kw, nxt):
        a.resize((size, *a.shape[1:]), refcheck=False)
    over = spliced >= 0
    return {
        "n": steps,
        "x_T": x_T,
        "w_T": kw[np.where(over, spliced, last)],
        "kt": kt,
        "kw": kw,
        "nxt": nxt,
        # knot 0 takes no draw and every other knot takes one
        "kc": (steps + over + 1).astype(np.uint64),
    }


class _KnotWalker:
    """Forward walk over recorded knots for strictly increasing queries.

    Keeps, per live lane, the index ``cur`` of the first recorded knot past
    the latest query, or -1 once the lane has passed its last knot, and the
    time and value of that knot, so a query that passes no knot gathers
    nothing.  Past the last knot the right time is ``+inf`` and the right
    value is not read.  A query returns the bracketing data and flags exact
    hits on existing knots.  ``prior`` is the linked knot store of
    :func:`forward_pass`, walked through ``nxt`` from the knot after each
    lane's knot 0; ``keep(live)`` compacts the walker with the live lanes.
    ``cur`` starts as a native-integer copy of those first links, and
    ``np.where`` promotes the int32 links it reads, so ``cur`` stays native
    and the gathers by it convert no indices.
    """

    def __init__(self, prior):
        self.kt = prior["kt"]
        self.kw = prior["kw"]
        self.nxt = prior["nxt"]
        self.cur = self.nxt[: prior["kc"].size].astype(np.intp)
        self.u_t = self.kt[self.cur]
        self.u_w = self.kw[self.cur]
        self.has_right = np.ones(self.cur.size, dtype=bool)

    def keep(self, live):
        for name in ("cur", "u_t", "u_w", "has_right"):
            setattr(self, name, getattr(self, name)[live])

    def bracket(self, t_node, w_node, t_next):
        """Bracket data for querying ``t_next`` from nodes at ``t_node``.

        Returns (left time, left value, right time, right value, has_right)
        where the left side accounts for any recorded knots passed during
        this step.  Arrays are aligned with the live lanes; the left side may
        be ``t_node`` and ``w_node`` themselves, so callers must not write to
        any of them.
        """
        pt, pw = t_node, w_node
        can = self.u_t <= t_next
        while np.count_nonzero(can):
            # lanes in can pass their next knot: it becomes the left side
            pt = np.where(can, self.u_t, pt)
            pw = np.where(can[:, None], self.u_w, pw)
            self.cur = np.where(can, self.nxt.take(self.cur), self.cur)
            self.has_right = self.cur >= 0
            self.u_t = self.kt.take(self.cur)
            self.u_w = self.kw.take(self.cur, axis=0)
            if np.count_nonzero(self.has_right) < self.cur.size:
                # a lane past its last knot has its right time at +inf
                self.u_t[~self.has_right] = np.inf
            can = self.u_t <= t_next
        return pt, pw, self.u_t, self.u_w, self.has_right


def bridged_pass(problem, params, rung, keys, prior, labels):
    """Adaptive scheme on paths conditioned on previously recorded knots.

    ``prior`` is the dict returned by :func:`forward_pass` for the same
    keys; its knots (which include the horizon) pin the path.  A
    :class:`_KnotWalker` follows each lane's links through them, new times
    are bridged against the two knots around them, and the draw counters go
    on from ``kc``; a lane whose step overshoots the horizon reads its value
    there from ``w_T``.  ``params`` and ``rung`` are as in
    :func:`_adaptive_lockstep`.  Returns per-lane step counts and the state
    at the horizon.
    """
    counters = _Counters(keys, prior["kc"])
    walker = _KnotWalker(prior)

    def draw(act, tc, wc, h, t_next):
        bracket = walker.bracket(tc, wc, t_next)
        return _bridged_values(*bracket, t_next, counters, problem.dimension)

    def recorded(act, sel, *_):
        return prior["w_T"][act[sel]]

    steps, x_T = _adaptive_lockstep(
        problem, params, rung, labels, (counters, walker), draw, recorded
    )
    return {"n": steps, "x_T": x_T}


def ladder_lanes(indices, n_rungs, master_seed):
    """Rung-major lanes that run every sample index once on each rung.

    Returns the lane labels (the sample indices, tiled once per rung), their
    path keys, the non-decreasing rung index of each lane, and ``by_sample``,
    which reshapes a per-lane array to (samples, rungs, ...).
    """
    idx = np.asarray(indices, dtype=np.uint64)
    labels = np.tile(idx, n_rungs)
    rung = np.repeat(np.arange(n_rungs), idx.size)

    def by_sample(v):
        return v.reshape(n_rungs, idx.size, *v.shape[1:]).swapaxes(0, 1)

    return labels, path_key(master_seed, labels), rung, by_sample


def coupled_ladders(problem, deltas):
    """Step-size parameters of the coarse (2 delta) and the fine (delta) runs, per rung.

    The fine ones are built first, so a delta too small to run is named as given.
    """
    fine = tuple(StepSizeParams.for_problem(problem, d) for d in deltas)
    return tuple(StepSizeParams.for_problem(problem, 2.0 * d) for d in deltas), fine


def coupled_pair(problem, deltas, indices, master_seed):
    """Coarse (2 delta) then fine (delta) adaptive runs on shared paths.

    Every rung of the ladder ``deltas`` runs in one pooled lockstep: first
    the coarse forward pass of all rungs, then the fine bridged pass of all
    rungs.  Returns (squared differences at the horizon, fine step counts,
    coarse step counts), each of shape (samples, rungs), for the given
    sample indices.
    """
    labels, keys, rung, by_sample = ladder_lanes(indices, len(deltas), master_seed)
    coarse, fine = coupled_ladders(problem, deltas)
    prior = forward_pass(problem, coarse, rung, keys, labels=labels)
    out = bridged_pass(problem, fine, rung, keys, prior, labels=labels)
    diff = out["x_T"] - prior["x_T"]
    sq = np.einsum("bj,bj->b", diff, diff)
    return tuple(by_sample(v) for v in (sq, out["n"], prior["n"]))


def occupation_pass(problem, params, rung, epsilons, keys, labels):
    """Time the interpolated scheme spends within each of ``epsilons`` of the surface.

    ``params`` and ``rung`` are as in :func:`_adaptive_lockstep`.  Each step
    contributes trapezoidal occupancy from its endpoints and midpoint; the
    final step is truncated at the horizon.  The draws do not depend on the
    tube half-width, so one run serves every epsilon.  Returns the per-lane
    occupation times, shape (lanes, epsilons).
    """
    n = keys.size
    d = problem.dimension
    horizon = problem.horizon
    eps = np.asarray(epsilons, dtype=float)
    counters = _Counters(keys, np.ones(n, dtype=np.uint64))
    occ = np.zeros((n, eps.size))
    h_cut = t_mid = w_mid = None

    # the midpoint of the cut step is drawn with the step: a horizon value bridges from it
    def draw(act, tc, wc, h, t_next):
        nonlocal h_cut, t_mid, w_mid
        wn = _fresh(tc, wc, t_next, counters.normals(t_next, d))
        h_cut = h
        t_mid = tc + 0.5 * h
        w_mid = _bridge(tc, wc, t_next, wn, t_mid, counters.normals(t_mid, d))
        return wn

    def bridge_from_midpoint(act, sel, tc, wc, t_next, wn):
        z = counters.normals_of(sel, horizon, d)
        return _bridge(t_mid[sel], w_mid[sel], t_next[sel], wn[sel], horizon, z)

    def trapezoid(act, tc, wc, x, mu, sig, dist, dist_end, *_):
        xm = _euler(x, mu, sig, t_mid - tc, w_mid - wc)
        in_m = np.asarray(problem.surface.distance(xm))[:, None] < eps
        inside = (dist[:, None] < eps) + 2.0 * in_m + (dist_end[:, None] < eps)
        occ[act] += h_cut[:, None] * inside * 0.25

    _adaptive_lockstep(
        problem, params, rung, labels, (counters,), draw, bridge_from_midpoint, trapezoid
    )
    return occ


def equidistant_transformed_pass(transform, z0, horizon, n_steps, rung, keys, prior, labels):
    """Uniform-grid Euler run of the transformed scalar equation.

    The lanes of rung ``r`` (``rung`` as in :func:`_adaptive_lockstep`) take
    ``n_steps[r]`` equal steps to the horizon and then retire, so the pass
    takes ``max(n_steps)`` iterations.  Starts from the transformed initial
    value ``z0``, shares the Brownian paths recorded in ``prior`` (whose
    knots include the horizon), and returns the transformed state at the
    horizon for every lane.
    """
    counters = _Counters(keys, prior["kc"])
    walker = _KnotWalker(prior)
    # state of the live lanes act only, compacted when a rung retires
    act = np.arange(keys.size)
    steps = np.asarray(n_steps)[rung]
    dt = horizon / steps
    t = np.zeros(keys.size)
    w_cur = np.zeros((keys.size, 1))
    z_cur = np.full(keys.size, z0)
    z_T = np.empty(keys.size)
    for k in range(1, max(n_steps) + 1):
        t_next = k * dt
        retire = k in n_steps
        if retire:
            done = steps == k
            t_next[done] = horizon
        bracket = walker.bracket(t, w_cur, t_next)
        wn = _bridged_values(*bracket, t_next, counters, 1)
        mu_g, sig_g = transform.transformed_coeffs(z_cur)
        h = t_next - t
        dw = wn[:, 0] - w_cur[:, 0]
        z_cur = z_cur + mu_g * h + sig_g * dw
        _check_finite(z_cur, act, labels)
        t = t_next
        w_cur = wn
        if retire:
            z_T[act[done]] = z_cur[done]
            live = ~done
            act, steps, dt, t, w_cur, z_cur = (
                v[live] for v in (act, steps, dt, t, w_cur, z_cur)
            )
            counters.keep(live)
            walker.keep(live)
    return z_T
