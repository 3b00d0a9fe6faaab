"""Sticky-particle dynamics: the high-accuracy oracle for the grid scheme.

Atoms (x_i, m_i) follow the pairwise ODE between collisions and merge
irreversibly on contact, conserving mass.  The speed of particle i comes
from the jump of A(u) across the atom, with A' = a the speed law and
u = W' * rho, whose one-sided traces are

    u(x_i+) = -c * sum_{j<=i} m_j + sum_j m_j wtilde(x_i - x_j)
    u(x_i-) = u(x_i+) + c * m_i

and m_i x_i' = -(A(u(x_i+)) - A(u(x_i-))) / c: particle i moves at the
mean of a over [u(x_i+), u(x_i-)]; the law states that mean itself, as
``law.mean``, in a closed form exact for every jump length, as for the
grid's cells.  Under the identity law that mean is the trace midpoint,
the linear speed sum_{j != i} m_j W'(x_i - x_j) with the self term
excluded exactly.

Kink-only potentials (amp = 0) are integrated exactly, event by event.
There wtilde is the constant c/2, so particle i moves at the mean of
v(mu) = a(c (M/2 - mu)) over its mass interval [mu_{i-1}, mu_i]: the
speeds do not depend on the positions, and a merged cluster moves at the
mass average of its members' speeds.  The speeds are evaluated once; each
event takes the earliest contact time gap / (v_i - v_{i+1}) over the
approaching pairs, moves every particle linearly to it and merges the pairs
that reach contact there.  The result is the isotonic projection of
x0 + t v0 (Brenier & Grenier 1998).

Other potentials integrate by classical RK4 with steps of STEP time units
1/(rate*a_inf), a_inf the grid's CFL speed bound, counted from the last
contact; the speeds at the end of a step are the next step's first stage.
A step holds a contact when the smallest gap at its end is <= 0.  The
earliest root of the quadratic through a closed pair's gap (value and
slope at the start, value at the end) then seeds a safeguarded regula
falsi (Illinois) on the smallest RK4 gap, which locates the first contact
time to TOL units; the system advances to it and merges every gap within
4*a_inf*TOL units.  No time or length is absolute, so power-of-two
rescalings of x and of W rescale the path bit for bit.  A gap that closes
and reopens inside one step is not seen.  Both engines commit only these
events and steps: a sample time moves the clusters linearly from the last
event, or takes one RK4 step from the last committed point, and commits
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .measure import DiscreteMeasure, merge_runs, sample_times
from .potentials import PointyPotential, VelocityLaw, left_exp_sums, velocity_sup_bound

__all__ = [
    "ParticleSystem",
    "TrajectoryEvent",
    "advance_to",
    "trajectory",
]

# the RK4 step and the contact time tolerance in time units 1/(rate*a_inf): at unit
# mass a step moves no particle more than STEP/rate, the grid's CFL rule in particle form
STEP = 2.0**-7
TOL = 2.0**-40


@dataclass(frozen=True)
class ParticleSystem:
    """The particles' atoms at ``time``, with the potential and speed law they follow."""

    atoms: DiscreteMeasure
    time: float
    pot: PointyPotential
    law: VelocityLaw


@dataclass(frozen=True)
class TrajectoryEvent:
    time: float
    kind: str  # "sample" | "merge"
    snapshot: DiscreteMeasure


def _wtilde_sums(x: np.ndarray, m: np.ndarray, pot: PointyPotential) -> np.ndarray:
    """sum_j m_j wtilde(x_i - x_j) for every i.

    wtilde = W' + c*H is the continuous part of W': wtilde(x) = c/2 +
    sgn(x)*(amp/rate)*(1 - e^{-rate|x|}), so the sum splits over j < i and
    j > i into mass prefix sums and the one-sided sums of :func:`left_exp_sums`.
    """
    if pot.amp == 0.0:
        return 0.5 * pot.c * np.sum(m)  # wtilde is the constant c/2
    csum = m.cumsum()
    left = csum - m
    right = csum[-1] - csum
    p = left_exp_sums(x, m, pot.rate)  # sum_{j<i} m_j e^{-rate (x_i - x_j)}
    q = left_exp_sums(-x[::-1], m[::-1], pot.rate)[::-1]  # sum_{j>i} m_j e^{-rate (x_j - x_i)}
    return 0.5 * pot.c * csum[-1] + (pot.amp / pot.rate) * ((left - right) - p + q)


def _nonlinear_vel(x: np.ndarray, m: np.ndarray, pot: PointyPotential, law: VelocityLaw) -> np.ndarray:
    u_plus = -pot.c * np.cumsum(m) + _wtilde_sums(x, m, pot)
    return law.mean(u_plus, u_plus + pot.c * m)


def _rk4(x, m, h, vel, k1):
    """One classical RK4 step of length h from x, whose speeds k1 are known."""
    k2 = vel(x + 0.5 * h * k1, m)
    k3 = vel(x + 0.5 * h * k2, m)
    k4 = vel(x + h * k3, m)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _locate_contact(x, m, k1, vel, h, g_end, tau, closing, tol):
    """The first contact in an RK4 step from x (speeds k1) of length at most h.

    f(t), the smallest gap after an RK4 step of length t, is positive at
    t = 0 and equals g_end <= 0 at t = h; tau estimates its first zero.  A
    safeguarded regula falsi (Illinois) on f runs until the zero is known
    to ``tol`` in time: |f| <= closing*tol, with ``closing`` a closing
    speed, or a bracket no wider than tol.  Returns (t, x(t)).
    """
    lo, hi = 0.0, h
    f_lo, f_hi = np.min(np.diff(x)), g_end
    side = 0
    for _ in range(100):
        y = _rk4(x, m, tau, vel, k1)
        f = np.min(np.diff(y))
        if abs(f) <= closing * tol:
            return tau, y
        if f > 0.0:
            lo, f_lo = tau, f
            if side > 0:
                f_hi *= 0.5
            side = 1
        else:
            hi, f_hi = tau, f
            if side < 0:
                f_lo *= 0.5
            side = -1
        if hi - lo <= tol:
            return tau, y
        tau = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < tau < hi:
            tau = 0.5 * (lo + hi)
    raise RuntimeError("particle contact location did not converge")


def _exact_path(ps: ParticleSystem, times, log):
    """(x, m) at each sample time of a kink-only potential, by exact contact events."""
    x, m, t = ps.atoms.positions, ps.atoms.masses, ps.time
    v = _nonlinear_vel(x, m, ps.pot, ps.law)
    for s in times:
        while x.size > 1:
            closing = v[:-1] - v[1:]
            gaps = np.maximum(np.diff(x), 0.0)
            with np.errstate(over="ignore"):  # a contact time past the largest float is none
                tau = np.divide(gaps, closing, out=np.full(gaps.size, np.inf), where=closing > 0.0)
            t_hit = float(np.min(tau))
            if t_hit > s - t:
                break
            x, t = x + t_hit * v, t + t_hit
            if not np.all(np.isfinite(x)):
                raise RuntimeError("non-finite particle state")
            # contact times equal up to the rounding of their quotients
            linked = (np.diff(x) <= 0.0) | (tau <= t_hit * (1.0 + 4.0 * np.finfo(float).eps))
            x, m, merged, v = merge_runs(x, m, linked, v)
            if not merged:
                raise RuntimeError(f"particle events stalled at t = {t!r}: a contact merged nothing")
            if log is not None:
                log.append(TrajectoryEvent(t, "merge", DiscreteMeasure(x, m)))
        yield x + (s - t) * v if x.size > 1 else x, m


def _rk4_next(x, m, v, vel, t, h_max, tol, near):
    """The committed point after (t, x) with speeds v: (time, positions, speeds or None, merge gap).

    That is a full step's end, or the first contact inside the step, to
    ``tol`` in time, when the smallest gap at its end is <= 0; gaps within
    the length ``near`` merge there.  The quadratic through each closed
    pair's gap (value and slope at t, value at the end) seeds the contact
    search at its earliest root.  A step whose stages pass a contact so far
    that the exponential sums overflow is halved.
    """
    g0 = np.diff(x)
    if np.min(g0) <= near:  # touching at a committed point: they merge there
        return t, x, None, near
    h = h_max
    with np.errstate(all="ignore"):  # a stage far past a contact overflows the sums: halve the step
        x_end = _rk4(x, m, h, vel, v)
        while not np.all(np.isfinite(x_end)) and h > h_max * 2.0**-40:
            h *= 0.5
            x_end = _rk4(x, m, h, vel, v)
        g1 = np.diff(x_end)
        if not np.min(g1) <= 0.0:
            return t + h, x_end, vel(x_end, m), 0.0
        closed = g1 <= 0.0
        g0, g1, b = g0[closed], g1[closed], np.diff(v)[closed]
        kappa = (g1 - g0 - b * h) / (h * h)
        tau = 2.0 * g0 / (np.sqrt(np.maximum(b * b - 4.0 * kappa * g0, 0.0)) - b)
    # rounding can break the quadratic's root: then the secant point
    tau = np.where(np.isfinite(tau) & (tau >= 0.0) & (tau <= h), tau, h * g0 / (g0 - g1))
    j = int(np.argmin(tau))
    tau, y = _locate_contact(x, m, v, vel, h, float(np.min(g1)), float(tau[j]), abs(float(b[j])), tol)
    return t + tau, y, None, near


def _rk4_path(ps: ParticleSystem, times, log):
    """(x, m) at each sample time, by RK4 between the committed points of :func:`_rk4_next`."""
    x, m, t = ps.atoms.positions, ps.atoms.masses, ps.time
    vel = lambda x, m: _nonlinear_vel(x, m, ps.pot, ps.law)  # noqa: E731
    a_inf = velocity_sup_bound(ps.pot, ps.law)
    unit = 1.0 / (ps.pot.rate * a_inf)
    units = (STEP * unit, TOL * unit, 4.0 * a_inf * TOL * unit)  # the step, the time and the length tolerance
    v = nxt = None  # the speeds at x and the next committed point, once known
    for s in times:
        while x.size > 1:  # a lone particle is stationary
            if nxt is None:
                v = vel(x, m) if v is None else v
                nxt = _rk4_next(x, m, v, vel, t, *units)
            if nxt[0] > s:  # kept for the sample time that passes it
                break
            t_prev, n_prev = t, x.size
            (t, x, v, gap), nxt = nxt, None
            x, m, merged = merge_runs(x, m, np.diff(x) <= gap) if gap else (x, m, False)
            if merged and log is not None:
                log.append(TrajectoryEvent(t, "merge", DiscreteMeasure(x, m)))
            if not np.all(np.isfinite(x)):
                raise RuntimeError("non-finite particle state")
            if t == t_prev and x.size == n_prev:
                raise RuntimeError(f"particle integration stalled at t = {t!r}: no time step and no merge")
        yield _rk4(x, m, s - t, vel, v) if x.size > 1 and s > t else x, m


def _sample_state(ps: ParticleSystem, t: float, x, m) -> ParticleSystem:
    if not np.all(np.isfinite(x)):
        raise RuntimeError("non-finite particle state")
    x, m, _ = merge_runs(x, m, np.diff(x) <= 0.0)  # a side run may close a gap
    return replace(ps, atoms=DiscreteMeasure(x, m), time=t)


def trajectory(ps: ParticleSystem, times, log: list[TrajectoryEvent] | None = None):
    """An iterator over the system at each of the finite, nondecreasing ``times``, none before ``ps.time``.

    The state at t is a side run from the committed path, the same bits
    whichever other times are sampled.  Each merge on the path up to t is
    first logged as a :class:`TrajectoryEvent` (kind "merge", snapshot just
    after it).  Raises ValueError on other times at once, before iterating;
    the iteration raises RuntimeError on non-finite state and on a stall: an
    RK4 point that neither advances nor merges, or an event that merges nothing.
    """
    times = sample_times(ps.time, times)
    path = (_exact_path if ps.pot.amp == 0.0 else _rk4_path)(ps, times, log)
    return (_sample_state(ps, t, x, m) for t, (x, m) in zip(times, path))


def advance_to(ps: ParticleSystem, t_end: float, log: list[TrajectoryEvent] | None = None) -> ParticleSystem:
    """The system at t_end: :func:`trajectory` with one sample time."""
    return next(trajectory(ps, [t_end], log))
