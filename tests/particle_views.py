"""Test-only views of a particle system: the speeds it integrates and its atoms.

The engine reads speeds from ``particles._nonlinear_vel`` on bare arrays
and the drivers build measures from ``ps.x`` and ``ps.m``; these two
functions do the same for a whole :class:`ParticleSystem`.
"""

from aggr1d.measure import DiscreteMeasure
from aggr1d.particles import _nonlinear_vel


def velocities(ps):
    """Jump speeds m_i x_i' = -[A(u)]_{x_i} with one-sided traces of u = W'*rho."""
    return _nonlinear_vel(ps.x, ps.m, ps.pot, ps.law)


def snapshot(ps) -> DiscreteMeasure:
    return DiscreteMeasure(ps.x, ps.m)
