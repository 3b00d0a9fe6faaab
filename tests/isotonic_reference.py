"""Sticky particles of a kink-only potential as an isotonic projection.

For W' = -c*H + c/2 the particle speeds depend only on the masses, so the
sticky-particle state at time t is the mass-weighted isotonic regression of
the free-flight positions x0 + t*v0 (Brenier & Grenier, SIAM J. Numer.
Anal. 1998): the nondecreasing z minimizing sum m_i (z_i - y_i)^2.  The
reference computes it by pool-adjacent-violators in a plain loop and shares
no code with the event-driven engine.
"""

import numpy as np


def isotonic_projection(y, w):
    """Weighted pool-adjacent-violators fit of y, as (block values, block weights).

    Blocks that meet pool: a block value equal to its left neighbour's is a
    contact, so the returned values strictly increase.
    """
    vals, wts = [], []
    for yi, wi in zip(np.asarray(y, dtype=float), np.asarray(w, dtype=float)):
        vals.append(yi)
        wts.append(wi)
        while len(vals) > 1 and vals[-2] >= vals[-1]:
            wv = wts[-2] + wts[-1]
            vals[-2] = (wts[-2] * vals[-2] + wts[-1] * vals[-1]) / wv
            wts[-2] = wv
            vals.pop()
            wts.pop()
    return np.array(vals), np.array(wts)

