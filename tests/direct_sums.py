"""Direct O(N^2) pairwise sums of the linear aggregation speed.

The reference the velocity engine is checked against: with the identity
law, the s-gradient / jump-quotient formulas must reproduce these sums.
They evaluate the hand-written W' of ``potential_reference`` over every
pair with the self term excluded exactly, and share no code with the
engines.  ``nu_sum`` is the term-by-term w-convolution that the
exponential sums of ``fv.compute_nu`` must reproduce, and
``interaction_energy`` the Lyapunov functional of sticky particles.
"""

import numpy as np

from potential_reference import closed_form


def pairwise_speeds(x, m, pot) -> np.ndarray:
    """sum_{j != i} m_j W'(x_i - x_j) for every i."""
    x = np.asarray(x, dtype=float)
    wp = np.asarray(closed_form(pot).wprime(x[:, None] - x[None, :]), dtype=float)
    np.fill_diagonal(wp, 0.0)
    return wp @ np.asarray(m, dtype=float)


def wtilde_sums(x, m, pot) -> np.ndarray:
    """sum_j m_j wtilde(x_i - x_j) with wtilde = W' + c*H, the continuous part of W'.

    H(0) = 1/2 and W'(0) = 0 (every builtin W' is odd), so the self term is c/2.
    """
    x = np.asarray(x, dtype=float)
    d = x[:, None] - x[None, :]
    wtilde = np.asarray(closed_form(pot).wprime(d), dtype=float) + pot.c * np.heaviside(d, 0.5)
    return wtilde @ np.asarray(m, dtype=float)


def cell_speeds(state, pot) -> np.ndarray:
    """Grid speeds a_i = sum_{j != i} W'(x_i - x_j) rho_j dx."""
    return pairwise_speeds(state.grid.centers, state.rho * state.grid.dx, pot)


def nu_sum(rho, kernel, dx) -> np.ndarray:
    """nu_i = dx * sum_k rho_k g_{i-k} over |i - k| <= half_width, row by row in O(N*K)."""
    rho = np.asarray(rho, dtype=float)
    half = kernel.half_width
    out = np.empty(rho.size)
    for i in range(rho.size):
        k = np.arange(max(0, i - half), min(rho.size, i + half + 1))
        out[i] = dx * np.dot(rho[k], kernel.values[i - k + half])
    return out


def interaction_energy(x, m, pot) -> float:
    """E = 1/2 sum_{i,j} m_i m_j W(x_i - x_j) over every pair; W(0) = 0, so the self terms vanish."""
    x, m = np.asarray(x, dtype=float), np.asarray(m, dtype=float)
    return 0.5 * float(m @ np.asarray(closed_form(pot).w(x[:, None] - x[None, :]), dtype=float) @ m)
