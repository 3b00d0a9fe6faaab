"""The conservation relation of the interface-gradient solve, as a test check.

Per cell the scheme's interface gradients must satisfy

    (s_{i+1/2} - s_{i-1/2}) / dx - nu_i = -c * rho_i,

because ``fv.solve_s_gradient`` builds s as the cumulative sum of
dx * (nu - c * rho).  A gradient field that breaks it, in either
direction, is corrupt.
"""

import numpy as np

from aggr1d.fv import FVState, compute_nu, solve_s_gradient


def conservation_residual(state, pot, kernel, s=None) -> float:
    """max_i |((s_{i+1/2} - s_{i-1/2}) / dx - nu_i) / c + rho_i|, in units of density.

    ``s`` defaults to the engine's own interface gradients of ``state``;
    pass a modified copy to check that instead.
    """
    nu = compute_nu(state, kernel) if kernel.half_width else np.zeros(state.grid.n_cells)
    if s is None:
        s = solve_s_gradient(state, pot, kernel)
    return float(np.max(np.abs((np.diff(s) / state.grid.dx - nu) / pot.c + state.rho)))


def state_from_snapshot(m, grid) -> FVState:
    """The grid state whose cell atoms (``measure.from_cells``) are the snapshot ``m``."""
    rho = np.zeros(grid.n_cells)
    rho[np.rint((m.positions - grid.x_min) / grid.dx).astype(int)] = m.masses / grid.dx
    return FVState(grid=grid, rho=rho)
