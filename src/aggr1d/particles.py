"""Sticky-particle dynamics: the high-accuracy oracle for the grid scheme.

Atoms (x_i, m_i) follow the pairwise ODE between collisions and merge
irreversibly on contact, conserving mass.  The speed of particle i comes
from the jump of A(u) across the atom, where u = W' * rho has one-sided
traces

    u(x_i+) = -c * sum_{j<=i} m_j + sum_j m_j wtilde(x_i - x_j)
    u(x_i-) = u(x_i+) + c * m_i

and m_i x_i' = -(A(u(x_i+)) - A(u(x_i-))) / c.  For the identity law this
jump quotient is the trace midpoint (u(x_i+) + u(x_i-)) / 2, which is the
linear speed sum_{j != i} m_j W'(x_i - x_j) with the self term excluded
exactly; it is evaluated in that form, since the quotient would cancel for
light particles.

Integration is classical RK4 with a step capped both at 0.01 and at a
quarter of the minimal time-to-contact estimate gap_min / (4 v_max);
approaching pairs therefore close their gap geometrically and reach the
merge tolerance in a few dozen steps.  If a step overshoots (a gap turns
nonpositive), the earliest contact time is located by bisection to 1e-12
before merging.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .measure import DiscreteMeasure
from .potentials import PointyPotential, VelocityLaw

__all__ = [
    "ParticleSystem",
    "TrajectoryEvent",
    "TrajectoryLog",
    "snapshot",
    "velocities",
    "advance_to",
]

MAX_STEP = 0.01
CONTACT_TOL = 1e-12
BISECT_TOL = 1e-12


@dataclass(frozen=True)
class ParticleSystem:
    """Ordered distinct particles with the potential and speed law they follow."""

    x: np.ndarray
    m: np.ndarray
    time: float
    pot: PointyPotential
    law: VelocityLaw

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float)).copy()
        m = np.atleast_1d(np.asarray(self.m, dtype=float)).copy()
        if x.shape != m.shape:
            raise ValueError("positions and masses must have equal length")
        if np.any(m <= 0.0):
            raise ValueError("particle masses must be positive")
        if x.size > 1 and np.any(np.diff(x) <= 0.0):
            raise ValueError("particle positions must be strictly increasing")
        if self.pot.decomposition is None:
            raise ValueError("particle speeds require a kink decomposition")
        x.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "m", m)

    @property
    def n(self) -> int:
        return int(self.x.size)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.m))


@dataclass(frozen=True)
class TrajectoryEvent:
    time: float
    kind: str  # "sample" | "merge"
    snapshot: DiscreteMeasure


@dataclass
class TrajectoryLog:
    events: list[TrajectoryEvent] = field(default_factory=list)

    def record(self, time: float, kind: str, snap: DiscreteMeasure) -> None:
        self.events.append(TrajectoryEvent(time, kind, snap))


def snapshot(ps: ParticleSystem) -> DiscreteMeasure:
    return DiscreteMeasure(ps.x, ps.m)


def _wtilde_sums(x: np.ndarray, m: np.ndarray, dec) -> np.ndarray:
    """sum_j m_j wtilde(x_i - x_j) for every i."""
    if dec.w0 == 0.0:
        return 0.5 * dec.c * np.sum(m)  # wtilde is the constant c/2
    if dec.exp_kernel is not None:
        amp, rate = dec.exp_kernel
        if rate * float(np.max(np.abs(x))) < 300.0:  # keep e^{rate*x} well inside range
            # wtilde(x) = c/2 + sgn(x)*(amp/rate)*(1 - e^{-rate|x|}); the
            # exponential splits over j < i and j > i into prefix sums
            csum = np.cumsum(m)
            left = csum - m
            right = csum[-1] - csum
            ex = np.exp(rate * x)
            p = np.cumsum(m * ex) - m * ex  # sum_{j<i} m_j e^{rate x_j}
            q_rev = np.cumsum((m / ex)[::-1])[::-1] - m / ex  # sum_{j>i} m_j e^{-rate x_j}
            return 0.5 * dec.c * csum[-1] + (amp / rate) * ((left - right) - p / ex + q_rev * ex)
    return np.asarray(dec.wtilde(x[:, None] - x[None, :]), dtype=float) @ m


def _nonlinear_vel(x: np.ndarray, m: np.ndarray, pot: PointyPotential, law: VelocityLaw) -> np.ndarray:
    dec = pot.decomposition
    c = dec.c
    u_plus = -c * np.cumsum(m) + _wtilde_sums(x, m, dec)
    u_minus = u_plus + c * m
    if law.is_identity:
        return 0.5 * (u_plus + u_minus)
    return -(law.a_antideriv(u_plus) - law.a_antideriv(u_minus)) / (c * m)


def velocities(ps: ParticleSystem):
    """Jump speeds m_i x_i' = -[A(u)]_{x_i} with one-sided traces of u = W'*rho."""
    return _nonlinear_vel(ps.x, ps.m, ps.pot, ps.law)


def _vel_fn(ps: ParticleSystem):
    return lambda x, m: _nonlinear_vel(x, m, ps.pot, ps.law)


def _rk4(x, m, h, vel):
    k1 = vel(x, m)
    k2 = vel(x + 0.5 * h * k1, m)
    k3 = vel(x + 0.5 * h * k2, m)
    k4 = vel(x + h * k3, m)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _merge_contacts(x, m, tol):
    """Merge runs of particles with consecutive gaps <= tol.

    The merged particle sits at the mass-weighted mean of the run (the
    common contact point up to the gap tolerance), with the summed mass;
    under the identity law this preserves the center of mass exactly.
    """
    if x.size <= 1 or np.min(np.diff(x)) > tol:
        return x, m, False
    group = np.concatenate([[0], np.cumsum(np.diff(x) > tol)])
    n_groups = int(group[-1]) + 1
    gm = np.bincount(group, weights=m, minlength=n_groups)
    gx = np.bincount(group, weights=m * x, minlength=n_groups) / gm
    return gx, gm, True


def advance_to(ps: ParticleSystem, t_end: float, log: TrajectoryLog | None = None) -> ParticleSystem:
    """Evolve the system to t_end, merging on contact; returns a new system.

    Merge events are appended to ``log`` (kind "merge", snapshot taken just
    after the merge).  Raises on non-finite state, which signals a
    diagnostic failure upstream.
    """
    if t_end < ps.time:
        raise ValueError("t_end must not precede the current time")
    x = np.array(ps.x, dtype=float)
    m = np.array(ps.m, dtype=float)
    t = ps.time
    vel = _vel_fn(ps)
    horizon = max(1.0, abs(t_end))
    guard = 0
    while t < t_end - 1e-15 * horizon:
        guard += 1
        if guard > 50_000_000:
            raise RuntimeError("particle integration failed to reach t_end")
        if x.size == 1:
            t = t_end  # a lone particle is stationary
            break
        gaps = np.diff(x)
        if np.min(gaps) <= CONTACT_TOL:
            x, m, _ = _merge_contacts(x, m, CONTACT_TOL)
            if log is not None:
                log.record(t, "merge", DiscreteMeasure(x, m))
            continue
        v = vel(x, m)
        vmax = float(np.max(np.abs(v)))
        h = t_end - t
        if vmax > 0.0:
            h = min(h, MAX_STEP, float(np.min(gaps)) / (4.0 * vmax))
        else:
            h = min(h, MAX_STEP)
        x_try = _rk4(x, m, h, vel)
        if np.any(np.diff(x_try) <= 0.0):
            # overshoot: bisect the sub-step for the earliest contact
            lo, hi = 0.0, h
            while hi - lo > BISECT_TOL:
                mid = 0.5 * (lo + hi)
                if np.any(np.diff(_rk4(x, m, mid, vel)) <= 0.0):
                    hi = mid
                else:
                    lo = mid
            x = _rk4(x, m, lo, vel)
            t += lo
            contact_tol = max(CONTACT_TOL, 4.0 * vmax * BISECT_TOL)
            x, m, merged = _merge_contacts(x, m, contact_tol)
            if merged and log is not None:
                log.record(t, "merge", DiscreteMeasure(x, m))
        else:
            x = x_try
            t += h
        if not np.all(np.isfinite(x)):
            raise RuntimeError("non-finite particle state")
    return replace(ps, x=x, m=m, time=t_end)
