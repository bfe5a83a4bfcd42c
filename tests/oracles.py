"""Sequential single-sample references for the batched lockstep kernels.

``BrownianPath`` is one lazily refined Brownian path: a time past its last
knot takes a fresh increment, a time between knots a Brownian-bridge draw
against the two nearest knots, each through ``brownian.keyed_normals``.
``_engine._fresh`` and ``_engine._bridge`` must reproduce it bit for bit.

``simulate_adaptive`` runs the adaptive scheme on one ``BrownianPath``,
one step at a time, with ``step_size`` and ``em_step``; ``interpolate``
reads the time-continuous extension off its ``Trajectory``, the horizon
value among them.  ``_engine``'s one lockstep driver must reproduce them
bit for bit, the one-lane trajectory behind ``run --dump-trajectories``
included.

The functions below them run one sample through that solver and return
what the matching batch job in ``adaptive_em.montecarlo`` returns for that
sample: ``coupled_difference_sample`` for ``_coupled_job``,
``occupation_sample`` for ``_occupation_job`` and
``verify_transform_sample`` for ``_verify_job``.  The tests require the two
to agree bit for bit.

``FrozenInverse`` keeps an earlier form of the transform's Newton inversion,
against which the current one must also agree bit for bit; it returns the
types the public methods return.

``CONFIG_PROBLEM`` and ``CONFIG_TRANSFORM`` are a config-file problem with
three breakpoints, expression branches and a state-dependent diffusion,
shared by the tests of the transform's kernels and of its batched pass.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from adaptive_em.brownian import keyed_normals, path_key, time_bits
from adaptive_em.cli import problem_from_config
from adaptive_em.montecarlo import equidistant_steps
from adaptive_em.problems import transform_of
from adaptive_em.solver import (
    RunawaySimulationError,
    SdeProblem,
    StepSizeParams,
    _step_budget,
    step_size_from_distance,
)
from adaptive_em.transform1d import (
    _MAX_ITER,
    _TOL,
    RootFindError,
    _powers,
    _psi,
    _psi_prime,
    _psi_second,
)

CONFIG_PROBLEM = problem_from_config(
    {
        "dimension": 1,
        "surface": {"type": "points1d", "points": [-0.5, 0.25, 1.0]},
        "drift": {
            "breakpoints": [-0.5, 0.25, 1.0],
            "branches": ["1.0", "2*x", "-x*x", "sin(x) - 2"],
        },
        "diffusion": "1 + 0.25*sin(x)",
        "x0": [0.0],
        "horizon": 1.0,
        "eps0": 0.3,
        "sigma_sup": 1.25,
    }
)
CONFIG_TRANSFORM = transform_of(CONFIG_PROBLEM)


def step_size(x, params: StepSizeParams, surface):
    """Adaptive step size at state ``x``; scalar for a single point."""
    d = surface.distance(x)
    if not np.all(np.isfinite(d)):
        raise ValueError("non-finite distance to the surface")
    h = step_size_from_distance(d, params)
    return float(h) if np.ndim(d) == 0 else h


def em_step(state, drift_value, diffusion_value, h, dw):
    """One Euler-Maruyama update with frozen coefficients.

    Args:
        state: current state, shape (d,).
        drift_value: drift evaluated at ``state``, shape (d,).
        diffusion_value: diffusion matrix at ``state``, shape (d, d).
        h: time increment.
        dw: Brownian increment over the step, shape (d,).
    """
    state = np.asarray(state, dtype=float)
    mu = np.asarray(drift_value, dtype=float)
    sig = np.asarray(diffusion_value, dtype=float)
    ok = (
        np.all(np.isfinite(state)) and np.all(np.isfinite(mu))
        and np.all(np.isfinite(sig)) and math.isfinite(h)
        and np.all(np.isfinite(dw))
    )
    if not ok:
        raise ValueError("non-finite input to the Euler step")
    return state + mu * h + np.einsum("ij,j->i", sig, dw)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Grid times and states of one simulated path."""

    times: np.ndarray
    states: np.ndarray
    step_count: int

    def to_csv(self, stream) -> None:
        """Write rows ``k, tau_k, x1..xd`` with full float precision."""
        d = self.states.shape[1]
        stream.write("k,tau_k," + ",".join(f"x{j + 1}" for j in range(d)) + "\n")
        for k in range(len(self.times)):
            cells = [str(k), repr(float(self.times[k]))]
            cells += [repr(float(v)) for v in self.states[k]]
            stream.write(",".join(cells) + "\n")


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


def simulate_adaptive(
    problem: SdeProblem, params: StepSizeParams, path: BrownianPath
) -> Trajectory:
    """Run the adaptive scheme until the first grid time at or past the horizon.

    The final step is taken at full length, so the last grid time generally
    overshoots the horizon; use :func:`interpolate` to read off the value at
    the horizon itself.
    """
    if path.dimension != problem.dimension:
        raise ValueError("path dimension does not match the problem")
    budget = _step_budget(problem, params)
    t = 0.0
    x = problem.x0.copy()
    times = [t]
    states = [x]
    while t < problem.horizon:
        if len(states) > budget:
            raise RunawaySimulationError(
                f"exceeded {budget} steps at t={t:.6g} (delta={params.delta:.4g}, "
                f"|x|={float(np.linalg.norm(x)):.4g}); check the problem bound "
                f"sigma_sup={problem.sigma_sup:.4g}"
            )
        h = step_size(x, params, problem.surface)
        t_next = t + h
        dw = path.query(t_next) - path.query(t)
        x = em_step(x, problem.drift(x), problem.diffusion(x), h, dw)
        t = t_next
        times.append(t)
        states.append(x)
    return Trajectory(
        times=np.asarray(times), states=np.asarray(states), step_count=len(times) - 1
    )


def interpolate(
    trajectory: Trajectory, problem: SdeProblem, path: BrownianPath, t
) -> np.ndarray:
    """Evaluate the time-continuous extension of a trajectory at time ``t``.

    Freezes the coefficients at the last grid node not past ``t`` and adds
    the drift and Brownian increments up to ``t``.  Valid for ``t`` between
    0 and the final grid time.
    """
    t = float(t)
    times = trajectory.times
    if not 0.0 <= t <= times[-1]:
        raise ValueError("t must lie within the simulated time range")
    k = bisect_right(times, t) - 1
    x = trajectory.states[k]
    tk = float(times[k])
    dw = path.query(t) - path.query(tk)
    return em_step(x, problem.drift(x), problem.diffusion(x), t - tk, dw)


def coupled_difference_sample(problem, delta, sample_index, master_seed):
    """One coupled sample via the sequential path classes.

    Runs the scheme at 2*delta and at delta on the same Brownian path and
    compares the interpolated states at the horizon.  Returns the squared
    difference and the two step counts (fine, coarse).
    """
    path = BrownianPath(problem.dimension, master_seed, sample_index)
    coarse = StepSizeParams.for_problem(problem, 2.0 * delta)
    fine = StepSizeParams.for_problem(problem, delta)
    traj_c = simulate_adaptive(problem, coarse, path)
    x_c = interpolate(traj_c, problem, path, problem.horizon)
    traj_f = simulate_adaptive(problem, fine, path)
    x_f = interpolate(traj_f, problem, path, problem.horizon)
    diff = x_f - x_c
    # einsum, not @: BLAS dot may fuse multiply-adds and drift a bit from
    # the batched kernel's reduction
    return float(np.einsum("j,j->", diff, diff)), traj_f.step_count, traj_c.step_count


def occupation_sample(problem, params, epsilon, sample_index, master_seed):
    """Occupation time of one sequential run within the epsilon-tube.

    Each step contributes a trapezoidal weight from the indicator at its
    endpoints and midpoint; the final step is truncated at the horizon.
    """
    surface = problem.surface
    path = BrownianPath(problem.dimension, master_seed, sample_index)
    horizon = problem.horizon
    t = 0.0
    x = problem.x0.copy()
    w = path.query(0.0)
    occ = 0.0
    while t < horizon:
        in_l = float(surface.distance(x)) < epsilon
        h = step_size(x, params, surface)
        t_next = t + h
        w_next = path.query(t_next)
        mu = np.asarray(problem.drift(x), dtype=float)
        sig = np.asarray(problem.diffusion(x), dtype=float)
        x_next = em_step(x, mu, sig, h, w_next - w)
        if t_next < horizon:
            tm = t + 0.5 * h
            wm = path.query(tm)
            xm = em_step(x, mu, sig, tm - t, wm - w)
            in_m = float(surface.distance(xm)) < epsilon
            in_r = float(surface.distance(x_next)) < epsilon
            occ += h * (in_l + 2.0 * in_m + in_r) * 0.25
            t, x, w = t_next, x_next, w_next
        else:
            h_t = horizon - t
            tm = t + 0.5 * h_t
            wm = path.query(tm)
            wt = path.query(horizon)
            xm = em_step(x, mu, sig, tm - t, wm - w)
            xt = em_step(x, mu, sig, h_t, wt - w)
            in_m = float(surface.distance(xm)) < epsilon
            in_t = float(surface.distance(xt)) < epsilon
            occ += h_t * (in_l + 2.0 * in_m + in_t) * 0.25
            break
    return occ


def verify_transform_sample(problem, transform, delta, sample_index, master_seed):
    """Squared gap between the adaptive state and the transformed benchmark.

    One path: run the adaptive scheme at delta, then an equidistant Euler
    run of the transformed equation on a grid of ceil(T/delta^2) steps, and
    compare at the horizon after mapping the benchmark back through the
    inverse transform.
    """
    if problem.dimension != 1:
        raise ValueError("transform verification requires a one-dimensional problem")
    path = BrownianPath(1, master_seed, sample_index)
    params = StepSizeParams.for_problem(problem, delta)
    traj = simulate_adaptive(problem, params, path)
    x_T = interpolate(traj, problem, path, problem.horizon)[0]
    n_steps = equidistant_steps(problem, params)
    dt = problem.horizon / n_steps
    z = float(transform.value(problem.x0[0]))
    t = 0.0
    w = float(path.query(0.0)[0])
    for k in range(n_steps):
        t_next = problem.horizon if k == n_steps - 1 else (k + 1) * dt
        w_next = float(path.query(t_next)[0])
        mu_g, sig_g = transform.transformed_coeffs(z)
        z = z + float(mu_g) * (t_next - t) + float(sig_g) * (w_next - w)
        t, w = t_next, w_next
    x_ref = float(transform.inverse(z))
    gap = x_T - x_ref
    return gap * gap


class FrozenInverse:
    """The inverse and the transformed coefficients of a Transform1D, frozen.

    The methods are copied from ``Transform1D`` as it stood before its
    Newton inversion was trimmed: the nearest breakpoint by two gathers and
    a comparison, the bracket clamped by ``np.minimum``/``np.maximum``, the
    safeguard's midpoint formed on every pass, and the bend gathered again
    from the breakpoint index.  They share the profile's formulas
    (``_psi``, ``_psi_prime``, ``_psi_second`` and their common powers
    ``_powers``) with it, and zero the derivatives past the bump by
    ``np.where`` as the helpers then did themselves.  One line is added:
    ``bisections`` counts the unconverged lanes whose Newton candidate left
    the bracket.
    """

    def __init__(self, tr):
        self.drift = tr.drift
        self.sigma = tr.sigma
        self.c = tr.c
        self._bp = tr._bp
        self._alphas = tr._alphas
        self.bisections = 0

    def _split(self, x):
        # nearest breakpoint index and signed offset from it
        x = np.asarray(x, dtype=float)
        i = np.searchsorted(self._bp, x)
        lo = np.maximum(i - 1, 0)
        hi = np.minimum(i, self._bp.size - 1)
        use_hi = np.abs(x - self._bp[hi]) < np.abs(x - self._bp[lo])
        pick = np.where(use_hi, hi, lo)
        return pick, x - self._bp[pick]

    def _bend(self, pick, s):
        # first and second derivative at offset s from breakpoint pick
        c = self.c
        r = np.abs(s)
        u = r / c
        inside = r < c
        a = self._alphas[pick]
        v, w, ww = _powers(u)
        gp = 1.0 + np.where(inside, a * _psi_prime(r, v, w, ww), 0.0)
        gs = np.where(inside, a * _psi_second(s, v, ww), 0.0)
        return gp, gs

    def _newton(self, z, pick):
        # safeguarded Newton for in-bump points z of the bumps pick; a lane
        # keeps its iterate once its residual meets _TOL
        c = self.c
        xi = self._bp[pick]
        a = self._alphas[pick]
        lo = xi - c
        hi = xi + c
        x = z
        for _ in range(_MAX_ITER):
            s = x - xi
            r = np.abs(s)
            u = r / c
            resid = x + a * _psi(s, r, u) - z
            done = np.abs(resid) <= _TOL
            if np.count_nonzero(done) == done.size:
                return x
            # monotone map: the residual sign tells the bracket side
            hi = np.where(resid > 0.0, np.minimum(hi, x), hi)
            lo = np.where(resid < 0.0, np.maximum(lo, x), lo)
            v, w, ww = _powers(u)
            slope = 1.0 + a * np.where(v < 1.0, _psi_prime(r, v, w, ww), 0.0)
            cand = x - resid / slope
            # a NaN or infinite step fails both tests and bisects
            self.bisections += int(np.count_nonzero(~((cand > lo) & (cand < hi)) & ~done))
            cand = np.where((cand > lo) & (cand < hi), cand, 0.5 * (lo + hi))
            x = np.where(done, x, cand)
        raise RootFindError("transform inversion did not converge")

    def _invert(self, z):
        # the inverse of z, with the flat indices of the points inside a
        # bump interval, the breakpoint index of their bump and their inverses
        z = np.asarray(z, dtype=float)
        x = z.copy()
        lanes = pick = np.zeros(0, dtype=np.intp)
        if self._bp.size:
            near, s = self._split(z)
            lanes = np.flatnonzero(np.abs(s) < self.c)
            pick = np.take(near, lanes)
        xb = np.take(z, lanes)
        if lanes.size:
            xb = self._newton(xb, pick)
            np.put(x, lanes, xb)
        return x, lanes, pick, xb

    def inverse(self, z):
        """Invert the forward map to residual ``_TOL`` by safeguarded Newton.

        Each bump interval maps onto itself, so points outside all bump
        intervals come back unchanged.  A float or a 0-d array gives a
        ``numpy.float64``, as a ufunc does and as ``Transform1D.inverse``
        returns it.
        """
        x = self._invert(z)[0]
        return x[()] if x.ndim == 0 else x

    def transformed_coeffs(self, z):
        """Drift and diffusion of the transformed equation at ``z``.

        Returns the pair (drift value, diffusion value), both shaped like
        ``z``.  The drift picks up the Ito correction through the second
        derivative, which is what cancels the jumps.  Only the points inside
        a bump interval are inverted and bent; the others are fixed points
        with unit slope.  Each bump interval maps onto itself and ``c`` is
        at most half the smallest gap, so the inverse of a point keeps the
        breakpoint of the point itself.
        """
        x, lanes, pick, xb = self._invert(z)
        gp = np.ones(x.shape)
        gs = np.zeros(x.shape)
        gp_b, gs_b = self._bend(pick, xb - self._bp[pick])
        np.put(gp, lanes, gp_b)
        np.put(gs, lanes, gs_b)
        sg = np.asarray(self.sigma(x), dtype=float)
        mu = np.asarray(self.drift(x), dtype=float)
        return gp * mu + 0.5 * sg * sg * gs, gp * sg
