"""Direct O(N^2) pairwise sums of the linear aggregation speed.

The reference the velocity engine is checked against: with the identity
law, the s-gradient / jump-quotient formulas must reproduce these sums.
They evaluate W' itself over every pair with the self term excluded
exactly, and share no code with the engines.
"""

import numpy as np


def pairwise_speeds(x, m, pot) -> np.ndarray:
    """sum_{j != i} m_j W'(x_i - x_j) for every i."""
    x = np.asarray(x, dtype=float)
    wp = np.asarray(pot.wprime_eval(x[:, None] - x[None, :]), dtype=float)
    np.fill_diagonal(wp, 0.0)
    return wp @ np.asarray(m, dtype=float)


def cell_speeds(state, pot) -> np.ndarray:
    """Grid speeds a_i = sum_{j != i} W'(x_i - x_j) rho_j dx."""
    return pairwise_speeds(state.grid.centers, state.rho * state.grid.dx, pot)
