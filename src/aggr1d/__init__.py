"""Measure-valued solvers for the 1D attractive aggregation equation.

Subpackages: ``potentials`` (interaction kernels and speed laws),
``measure`` (atomic measures and exact W1), ``particles`` (sticky-particle
oracle), ``fv`` (upwind finite-volume scheme), and the experiment harness
(``config``, ``experiments``, ``cli``).
"""

from .measure import DiscreteMeasure, from_cells, quantile, wasserstein1
from .potentials import (
    PointyPotential,
    VelocityLaw,
    make_builtin_potential,
    make_velocity_law,
    velocity_sup_bound,
)

__all__ = [
    "DiscreteMeasure",
    "PointyPotential",
    "VelocityLaw",
    "from_cells",
    "make_builtin_potential",
    "make_velocity_law",
    "quantile",
    "velocity_sup_bound",
    "wasserstein1",
]

__version__ = "0.1.0"
