"""Test-only view of a particle system: the speeds it integrates.

The engine reads speeds from ``particles._nonlinear_vel`` on bare arrays;
this function does the same for a whole :class:`ParticleSystem`.
"""

from aggr1d.particles import _nonlinear_vel


def velocities(ps):
    """Jump speeds m_i x_i' = -[A(u)]_{x_i} with one-sided traces of u = W'*rho."""
    return _nonlinear_vel(ps.atoms.positions, ps.atoms.masses, ps.pot, ps.law)

