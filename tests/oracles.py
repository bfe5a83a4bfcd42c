"""Sequential single-sample references for the batched Monte Carlo kernels.

Each function runs one sample through ``solver.simulate_adaptive`` and a
``brownian.BrownianPath``, one step at a time, and returns what the matching
batch job in ``adaptive_em.montecarlo`` returns for that sample:
``coupled_difference_sample`` for ``_coupled_job``, ``occupation_sample``
for ``_occupation_job`` and ``verify_transform_sample`` for ``_verify_job``.
The tests require the two to agree bit for bit.
"""

import numpy as np

from adaptive_em.brownian import BrownianPath
from adaptive_em.montecarlo import equidistant_steps
from adaptive_em.solver import (
    StepSizeParams,
    em_step,
    interpolate,
    simulate_adaptive,
    step_size,
)


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
