"""Test-only reference loop for ``fv.run``: the per-step formulas as plain numpy expressions.

Each function below is one per-step formula of the upwind scheme, written
as a direct numpy expression with no in-place buffers and no shortcuts:
the nu convolution, the interface gradients s, the speed mean, one
diagnostics row and the upwind step.  :func:`reference_run` drives them
with ``fv.run``'s time loop: full CFL steps, and one side step from the
last of them to each sample time that commits nothing.
Any rewrite of the package's step layers that keeps the arithmetic
reproduces this loop bit for bit.
"""

from __future__ import annotations

import numpy as np

from aggr1d.fv import build_nu_kernel
from aggr1d.measure import from_cells
from aggr1d.potentials import left_exp_sums, velocity_sup_bound

DIAGNOSTIC_COLUMNS = ("step_index", "time", "mass", "min_rho", "max_abs_a", "moment1", "support_lo", "support_hi")


def nu(rho, dx, pot, kernel):
    k = kernel.half_width
    if k == 0:
        return rho * kernel.values[0] * dx
    m = rho * dx
    x = dx * np.arange(rho.size)
    sums = left_exp_sums(x, m, pot.rate) + left_exp_sums(x, m[::-1], pot.rate)[::-1]
    return kernel.values[k] * (sums + m)


def gradients(rho, dx, pot, nu_values, kernel):
    cell_mass = rho * dx
    u_left = pot.u_inf * float(np.sum(cell_mass)) + float(np.dot(cell_mass, kernel.tail))
    s = np.empty(rho.size + 1)
    s[0] = u_left
    np.cumsum(dx * (nu_values - pot.c * rho), out=s[1:])
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


def reference_run(state0, pot, law, gamma, times):
    """``fv.run``'s loop over the formulas above.

    Returns (snapshots, columns): snapshots a list of (time, DiscreteMeasure)
    and columns a dict from each name in ``DIAGNOSTIC_COLUMNS`` to its list.
    """
    grid = state0.grid
    dx = grid.dx
    dt = gamma * dx / velocity_sup_bound(pot, law)
    kernel = build_nu_kernel(pot, grid)
    abs_x = np.abs(grid.centers)
    snapshots, rows = [], []

    def row(rho, time, step_index):
        a = speeds(law, gradients(rho, dx, pot, nu(rho, dx, pot, kernel), kernel))
        rows.append(diagnostics_row(step_index, time, rho, a, abs_x, dx))
        return a

    rho, time, step_index = np.array(state0.rho), state0.time, state0.step_index
    a = row(rho, time, step_index)
    for s in times:
        while time + dt <= s:
            rho, time, step_index = upwind_step(rho, a, dt / dx), time + dt, step_index + 1
            a = row(rho, time, step_index)
        sample = rho
        if s > time:
            sample = upwind_step(rho, a, (s - time) / dx)
            row(sample, s, step_index + 1)
        snapshots.append((s, from_cells(grid.x_min, dx, sample)))
    return snapshots, dict(zip(DIAGNOSTIC_COLUMNS, map(list, zip(*rows))))
