"""Test-only reference loop for ``fv.run``: the per-step formulas as plain numpy expressions.

Each function below is one per-step formula of the upwind scheme, written
as a direct numpy expression with no in-place buffers and no shortcuts:
the nu convolution, the interface gradients s, the speed mean, one
diagnostics row and the upwind step.  :func:`reference_run` drives them
with ``fv.run``'s time loop (CFL step, shortened to land on sample times).
Any rewrite of the package's step layers that keeps the arithmetic
reproduces this loop bit for bit.
"""

from __future__ import annotations

import numpy as np

from aggr1d.fv import build_nu_kernel
from aggr1d.measure import from_cells
from aggr1d.potentials import left_exp_sums, velocity_sup_bound

DIAGNOSTIC_COLUMNS = ("step_index", "time", "mass", "min_rho", "max_abs_a", "moment1", "support_lo", "support_hi")


def nu(rho, dx, dec, kernel):
    k = kernel.half_width
    if k == 0:
        return rho * kernel.values[0] * dx
    m = rho * dx
    x = dx * np.arange(rho.size)
    sums = left_exp_sums(x, m, dec.rate) + left_exp_sums(x, m[::-1], dec.rate)[::-1]
    return kernel.values[k] * (sums + m)


def gradients(rho, dx, dec, nu_values, kernel):
    cell_mass = rho * dx
    u_left = dec.u_inf * float(np.sum(cell_mass)) + float(np.dot(cell_mass, kernel.tail))
    s = np.empty(rho.size + 1)
    s[0] = u_left
    np.cumsum(dx * (nu_values - dec.c * rho), out=s[1:])
    s[1:] += u_left
    return s


def speeds(law, s):
    return law.mean(s[:-1], s[1:])


def diagnostics_row(step_index, time, rho, a, abs_x, dx):
    nz = np.nonzero(rho > 0.0)[0]
    return (
        step_index,
        time,
        float(np.sum(rho) * dx),
        float(np.min(rho)),
        float(np.max(np.abs(a))),
        float(np.sum(abs_x * rho * dx)),
        int(nz[0]) if nz.size else -1,
        int(nz[-1]) if nz.size else -1,
    )


def upwind_step(rho, a, lam):
    stay = np.maximum(1.0 - lam * np.abs(a), 0.0)
    new = rho * stay
    inflow_right = lam * np.maximum(a, 0.0) * rho
    inflow_left = -lam * np.minimum(a, 0.0) * rho
    new[1:] += inflow_right[:-1]
    new[:-1] += inflow_left[1:]
    return new


def reference_run(state0, pot, law, t_end, gamma, sample_times=()):
    """``fv.run``'s loop over the formulas above.

    Returns (snapshots, columns): snapshots a list of (time, DiscreteMeasure)
    and columns a dict from each name in ``DIAGNOSTIC_COLUMNS`` to its list.
    """
    grid = state0.grid
    dx = grid.dx
    dt_cfl = gamma * dx / velocity_sup_bound(pot, law)
    kernel = build_nu_kernel(pot, grid)
    targets = sorted({float(t) for t in sample_times if 0.0 <= t <= t_end} | {float(t_end)})
    time_tol = 1e-9 * max(1.0, t_end)
    abs_x = np.abs(grid.centers)
    rho, time, step_index = np.array(state0.rho), state0.time, state0.step_index
    snapshots, rows = [], []
    while True:
        a = speeds(law, gradients(rho, dx, pot.decomposition, nu(rho, dx, pot.decomposition, kernel), kernel))
        rows.append(diagnostics_row(step_index, time, rho, a, abs_x, dx))
        while targets and time >= targets[0] - time_tol:
            snapshots.append((targets[0], from_cells(grid.x_min, dx, rho)))
            targets.pop(0)
        if not targets:
            break
        dt = min(dt_cfl, targets[0] - time)
        rho = upwind_step(rho, a, dt / dx)
        time, step_index = time + dt, step_index + 1
        if abs(time - targets[0]) < 1e-12:
            time = targets[0]
    return snapshots, dict(zip(DIAGNOSTIC_COLUMNS, map(list, zip(*rows))))
