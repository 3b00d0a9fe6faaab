"""Initial data: Gaussian bump profiles and atomic lists.

Bumps are amplitude * exp(-((x - center)/width)^2); the builtin two- and
three-bump profiles carry widths 1/sqrt(10) and 1/sqrt(20), i.e. decay
rates 10 and 20 in the exponent.  Profiles are normalized to unit mass
after projection (the theory fixes total mass 1; the normalization only
rescales the vertical axis of plotted profiles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import DiscreteMeasure

__all__ = ["GaussianBump", "InitialData", "builtin_initial", "sample_particles"]

# cells of the fine grid on which sample_particles inverts the cumulative mass
QUANTILE_RESOLUTION = 1 << 18


@dataclass(frozen=True)
class GaussianBump:
    amplitude: float
    center: float
    width: float

    def __post_init__(self):
        if self.width <= 0.0 or self.amplitude <= 0.0:
            raise ValueError("bump amplitude and width must be positive")


@dataclass(frozen=True)
class InitialData:
    """Either a bump list (smooth density) or an explicit atom list."""

    bumps: tuple[GaussianBump, ...] = ()
    atoms: DiscreteMeasure | None = None

    def __post_init__(self):
        if bool(self.bumps) == (self.atoms is not None):
            raise ValueError("initial data must be either bumps or atoms")

    @property
    def is_atomic(self) -> bool:
        return self.atoms is not None

    def density(self, x):
        if self.is_atomic:
            raise ValueError("atomic initial data has no density")
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for b in self.bumps:
            out += b.amplitude * np.exp(-np.square((x - b.center) / b.width))
        return out


def builtin_initial(name: str) -> InitialData:
    """Named profiles: ``init1`` two symmetric bumps, ``init2`` three bumps."""
    w10 = 1.0 / math.sqrt(10.0)
    w20 = 1.0 / math.sqrt(20.0)
    if name == "init1":
        return InitialData(bumps=(GaussianBump(1.0, 0.7, w10), GaussianBump(1.0, -0.7, w10)))
    if name == "init2":
        return InitialData(
            bumps=(GaussianBump(1.0, 1.25, w10), GaussianBump(0.8, 0.0, w20), GaussianBump(1.0, -1.0, w10))
        )
    raise ValueError(f"unknown initial profile {name!r}")


def sample_particles(initial: InitialData, n: int, domain: tuple[float, float]):
    """Equal-mass quantile discretization of the initial data.

    Returns (positions, masses) of n particles at F^{-1}((i + 1/2)/n) with
    mass 1/n each; atomic data is passed through unchanged (its own atoms
    are the discretization).
    """
    if initial.is_atomic:
        atoms = initial.atoms
        if not atoms.is_probability():
            raise ValueError("atomic initial data must carry unit mass")
        return atoms.positions.copy(), atoms.masses / atoms.total_mass
    if n < 1:
        raise ValueError("need at least one particle")
    lo, hi = domain
    edges = np.linspace(lo, hi, QUANTILE_RESOLUTION + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    cell_mass = initial.density(mids) * (edges[1] - edges[0])
    cum = np.cumsum(cell_mass)
    cum /= cum[-1]
    z = (np.arange(n) + 0.5) / n
    positions = np.interp(z, np.concatenate([[0.0], cum]), edges)
    if np.any(np.diff(positions) <= 0.0):
        # merge coincident quantiles through the measure constructor
        dm = DiscreteMeasure(positions, np.full(n, 1.0 / n))
        return dm.positions.copy(), dm.masses.copy()
    return positions, np.full(n, 1.0 / n)
