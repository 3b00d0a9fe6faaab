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

Other potentials integrate by classical RK4 with steps of MAX_STEP counted
from the last contact; the speeds at the end of a step are the next step's
first stage.  Positions and speeds at both ends of a step define a cubic
Hermite interpolant of every gap, and its earliest zero names the pair that
makes contact first and estimates when.  A safeguarded regula falsi
(Illinois) on that pair's RK4 gap then locates the contact time to
BISECT_TOL; the system advances to it and merges every gap within the
contact tolerance.  Both engines commit only these events and steps: a
sample time moves the clusters linearly from the last event, or takes one
RK4 step from the last committed point, and commits nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .measure import DiscreteMeasure, merge_runs
from .potentials import PointyPotential, VelocityLaw, left_exp_sums

__all__ = [
    "ParticleSystem",
    "TrajectoryEvent",
    "advance_to",
    "trajectory",
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


def _first_gap_zero(g0, d0, g1, d1, h):
    """Earliest zero of the cubic Hermite interpolants of the gaps over a step.

    Pair i's gap runs from g0[i] > 0 with slope d0[i] to g1[i] with slope
    d1[i] over a step of length h.  Returns (i, tau) for the pair whose
    interpolant reaches zero first, at tau in (0, h]; None if none does.
    """
    hd0, hd1 = h * d0, h * d1
    # power-basis coefficients in s = tau / h
    c1 = hd0
    c2 = 3.0 * (g1 - g0) - 2.0 * hd0 - hd1
    c3 = 2.0 * (g0 - g1) + hd0 + hd1
    # knots 0 <= s_a <= s_b <= 1 at the critical points split [0, 1] into monotone pieces
    qa, qb = 3.0 * c3, 2.0 * c2
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = np.sqrt(qb * qb - 4.0 * qa * c1)
        q = -0.5 * (qb + np.copysign(disc, qb))
        crit = np.stack([q / qa, c1 / q])
    crit = np.sort(np.where((crit > 0.0) & (crit < 1.0), crit, 1.0), axis=0)
    knots = np.concatenate([np.zeros((1, g0.size)), crit, np.ones((1, g0.size))])
    vals = np.where(knots == 1.0, g1, g0 + knots * (c1 + knots * (c2 + knots * c3)))
    hit = vals <= 0.0
    pairs = np.flatnonzero(np.any(hit, axis=0))
    if pairs.size == 0:
        return None
    k = np.argmax(hit[:, pairs], axis=0)  # first knot at or below zero; knot 0 holds g0 > 0
    lo, hi = knots[k - 1, pairs], knots[k, pairs]
    a0, a1, a2, a3 = g0[pairs], c1[pairs], c2[pairs], c3[pairs]
    # safeguarded Newton on each bracketing monotone piece, from the secant point
    p_lo, p_hi = vals[k - 1, pairs], vals[k, pairs]
    s = lo + (hi - lo) * p_lo / (p_lo - p_hi)
    for _ in range(60):
        p = a0 + s * (a1 + s * (a2 + s * a3))
        lo = np.where(p > 0.0, s, lo)
        hi = np.where(p > 0.0, hi, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            s_new = s - p / (a1 + s * (2.0 * a2 + 3.0 * s * a3))
        s_new = np.where((s_new >= lo) & (s_new <= hi), s_new, 0.5 * (lo + hi))
        converged = np.all(np.abs(s_new - s) <= 4.0 * np.finfo(float).eps)
        s = s_new
        if converged:
            break
    j = int(np.argmin(s))
    return int(pairs[j]), float(s[j]) * h


def _locate_contact(x, m, k1, vel, i, h, g_end, tau, rate):
    """Pair i's contact in an RK4 step from x (speeds k1) of length at most h.

    f(t), the gap of pair i after an RK4 step of length t, is positive at
    t = 0 and equals g_end at t = h; tau estimates its first zero.  A
    safeguarded regula falsi (Illinois) on f runs until the zero is known
    to ``BISECT_TOL`` in time, with ``rate`` the pair's closing speed.
    Returns (t, x(t)).  If f(tau) > 0 and g_end > 0, no sign change
    brackets a contact; (tau, x(tau)) is returned, short of contact.
    """
    lo, hi = 0.0, h
    f_lo, f_hi = x[i + 1] - x[i], g_end
    side = 0
    for _ in range(100):
        y = _rk4(x, m, tau, vel, k1)
        f = y[i + 1] - y[i]
        if abs(f) <= rate * BISECT_TOL or (f > 0.0 and f_hi > 0.0):
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
        if hi - lo <= BISECT_TOL:
            return tau, y
        tau = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < tau < hi:
            tau = 0.5 * (lo + hi)
    raise RuntimeError("particle contact location did not converge")


def _exact_path(ps: ParticleSystem, times, log):
    """(x, m) at each sample time of a kink-only potential, by exact contact events."""
    x, m, t = ps.x, ps.m, ps.time
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


def _rk4_next(x, m, v, vel, t):
    """The committed point after (t, x) with speeds v: (time, positions, speeds or None, merge gap).

    That is a full step's end, or the contact located inside it.  A step whose
    stages pass a contact so far that the exponential sums overflow is halved.
    """
    if np.min(np.diff(x)) <= CONTACT_TOL:  # touching at a committed point: they merge there
        return t, x, None, CONTACT_TOL
    h = MAX_STEP
    with np.errstate(all="ignore"):  # a stage far past a contact overflows the sums: halve the step
        x_end = _rk4(x, m, h, vel, v)
        while not np.all(np.isfinite(x_end)) and h > MAX_STEP * 2.0**-40:
            h *= 0.5
            x_end = _rk4(x, m, h, vel, v)
        v_end = vel(x_end, m)
    d0, d1, g_end = np.diff(v), np.diff(v_end), np.diff(x_end)
    contact = _first_gap_zero(np.diff(x), d0, g_end, d1, h)
    if contact is None:
        return t + h, x_end, v_end, 0.0
    i, tau = contact
    tau, y = _locate_contact(x, m, v, vel, i, h, g_end[i], tau, max(abs(d0[i]), abs(d1[i])))
    vmax = max(float(np.max(np.abs(v))), float(np.max(np.abs(v_end))))
    return t + tau, y, None, max(CONTACT_TOL, 4.0 * vmax * BISECT_TOL)


def _rk4_path(ps: ParticleSystem, times, log):
    """(x, m) at each sample time, by RK4 between the committed points of :func:`_rk4_next`."""
    x, m, t = ps.x, ps.m, ps.time
    vel = lambda x, m: _nonlinear_vel(x, m, ps.pot, ps.law)  # noqa: E731
    v = nxt = None  # the speeds at x and the next committed point, once known
    for s in times:
        while x.size > 1:  # a lone particle is stationary
            if nxt is None:
                v = vel(x, m) if v is None else v
                nxt = _rk4_next(x, m, v, vel, t)
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


def trajectory(ps: ParticleSystem, times, log: list[TrajectoryEvent] | None = None):
    """Yield the system at each of the nondecreasing ``times``, none before ``ps.time``.

    The state at t is a side run from the committed path, the same bits
    whichever other times are sampled.  Each merge on the path up to t is
    first logged as a :class:`TrajectoryEvent` (kind "merge", snapshot just
    after it).  Raises RuntimeError on non-finite state and on a stall: an
    RK4 point that neither advances nor merges, or an event that merges nothing.
    """
    times = [float(t) for t in times]
    if any(b < a for a, b in zip([ps.time, *times], times)):
        raise ValueError("sample times must be nondecreasing and not precede the current time")
    path = _exact_path if ps.pot.amp == 0.0 else _rk4_path
    for t, (x, m) in zip(times, path(ps, times, log)):
        if not np.all(np.isfinite(x)):
            raise RuntimeError("non-finite particle state")
        x, m, _ = merge_runs(x, m, np.diff(x) <= 0.0)  # a side run may close a gap
        yield replace(ps, x=x, m=m, time=t)


def advance_to(ps: ParticleSystem, t_end: float, log: list[TrajectoryEvent] | None = None) -> ParticleSystem:
    """The system at t_end: :func:`trajectory` with one sample time."""
    return next(trajectory(ps, [t_end], log))
