"""Hand-written closed forms of the potentials, for tests only.

W, W' and the concavity constant lambda of each builtin potential, keyed
by its name and written out by hand, never derived from the numbers
(c, amp, rate) of W'' that the engines use, so they stay an independent
reference for them.  lambda is the one-sided Lipschitz constant of W':
W'(x) - W'(y) <= lambda*(x - y) for x > y away from 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from aggr1d.potentials import PointyPotential


@dataclass(frozen=True)
class ClosedForm:
    w: Callable[[np.ndarray], np.ndarray]
    wprime: Callable[[np.ndarray], np.ndarray]
    lam: float


def closed_form(pot: PointyPotential) -> ClosedForm:
    """W, W' (away from the origin) and lambda of ``pot``, looked up by its name."""
    name = pot.name
    if name == "abs_half":
        return ClosedForm(lambda x: -0.5 * np.abs(x), lambda x: -0.5 * np.sign(x), 0.0)
    if name.startswith("abs_scaled(") and name.endswith(")"):
        s = float(name[len("abs_scaled(") : -1])  # the name holds repr(sigma), which round-trips
        return ClosedForm(lambda x: -s * np.abs(x), lambda x: -s * np.sign(x), 0.0)
    if name == "exp_pointy":
        return ClosedForm(
            lambda x: 0.5 * (np.exp(-np.abs(x)) - 1.0),
            lambda x: -0.5 * np.sign(x) * np.exp(-np.abs(x)),
            0.5,
        )
    raise KeyError(f"no closed form for potential {name!r}")
