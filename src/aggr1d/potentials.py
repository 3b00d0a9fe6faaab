"""Pointy interaction potentials and velocity nonlinearities.

The whole solver family is driven by an even, Lipschitz, lambda-concave
potential W with a kink at the origin.  A potential is the three numbers
(c, amp, rate) of W'' = -c*delta_0 + w in the sense of distributions, with
w(x) = amp*e^{-rate|x|} (amp = 0 for the |x| family): they give every
constant the schemes need (the Lipschitz bound, the closed forms of w and
its integral, and with the interval mean of the speed law the CFL bound),
so downstream code never differentiates or integrates anything numerically.

The kink coefficient c is carried explicitly rather than hard-wired to 1;
scaled potentials like -sigma*|x| then keep an exact decomposition
(c = 2*sigma, w = 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "left_exp_sums",
    "exp_blocks",
    "block_exp_sums",
    "PointyPotential",
    "VelocityLaw",
    "make_builtin_potential",
    "make_velocity_law",
    "velocity_sup_bound",
]

# widest block of left_exp_sums, in units of 1/rate: e^600 stays well inside
# the float range (e^709), so no prefix sum in a block overflows
EXP_BLOCK = 600.0


def left_exp_sums(x: np.ndarray, m: np.ndarray, rate: float) -> np.ndarray:
    """P_i = sum_{j<i} m_j e^{-rate (x_i - x_j)} for sorted x, in O(N).

    Exclusive prefix sums of m_j e^{rate (x_j - x_0)} run in blocks no wider
    than ``EXP_BLOCK / rate`` from their first point x_0, so no exponent
    overflows on any domain; each block starts from P at x_0, the earlier
    blocks' sum carried across the gap by one exponential.  The mirrored
    sums Q_i = sum_{j>i} are the same call on -x reversed.
    """
    return block_exp_sums(exp_blocks(x, rate), m)


def exp_blocks(x: np.ndarray, rate: float) -> tuple:
    """Position-only part of :func:`left_exp_sums`: per block (start, stop, e^{rate (x - x_start)}, carry factor)."""
    blocks, start = [], 0
    while start < x.size:
        stop = int(x.searchsorted(x[start] + EXP_BLOCK / rate, "right"))
        gap = np.exp(-rate * (x[stop] - x[stop - 1])) if stop < x.size else 0.0  # carries the sum to the next block
        blocks.append((start, stop, np.exp(rate * (x[start:stop] - x[start])), gap))
        start = stop
    return tuple(blocks)


def block_exp_sums(blocks: tuple, m: np.ndarray) -> np.ndarray:
    """Mass part of :func:`left_exp_sums`, on the blocks of :func:`exp_blocks`."""
    out, carry = np.empty(m.size), 0.0
    for start, stop, e, gap in blocks:
        block = out[start:stop]
        block[0] = carry
        np.multiply(m[start : stop - 1], e[:-1], out=block[1:])
        block.cumsum(out=block)
        block /= e
        carry = (block[-1] + m[stop - 1]) * gap
    return out


@dataclass(frozen=True)
class PointyPotential:
    """Even Lipschitz potential with W'' = -c*delta_0 + amp*e^{-rate|x|}.

    c is the Dirac mass sitting at the kink (c > 0 for attraction) and
    amp >= 0, rate > 0 describe the continuous remainder w; amp = 0 is a
    kink-only potential.  Both engines work from these numbers alone; W'
    follows from them, W'(x) = u_inf + int_{-inf}^x w - c*H(x).  w is a
    single exponential, so every sum of it over a sorted point set (the
    grid's nu convolution, the particles' wtilde sums) splits into the
    one-sided sums of :func:`left_exp_sums`.

    The potential must be attractive, c > 0 and W' >= 0 on (-inf, 0), that
    is u_inf >= 0; anything else raises ValueError.  The grid's end-cell
    speeds then point inward (:func:`velocity_sup_bound`): it is a closed box.
    """

    name: str
    c: float
    amp: float = 0.0
    rate: float = 1.0

    def __post_init__(self):
        if not (self.c > 0.0 and self.amp >= 0.0 and self.rate > 0.0 and self.u_inf >= 0.0):
            raise ValueError(f"{self.name}: an attractive potential needs c > 0, amp >= 0, rate > 0, c/2 >= amp/rate")

    @property
    def w0(self) -> float:
        """L1 norm of w."""
        return 2.0 * self.amp / self.rate

    @property
    def u_inf(self) -> float:
        """W' at -infinity: c/2 minus the w-mass left of the origin."""
        return 0.5 * self.c - self.amp / self.rate

    @property
    def lip(self) -> float:
        """sup |W'|: W' is odd and runs monotonically from -c/2 at 0+ to -u_inf in [-c/2, 0] at +inf."""
        return 0.5 * self.c

    def w_eval(self, x):
        return self.amp * np.exp(-self.rate * np.abs(x))

    def w_left_integral(self, x):
        """Exact antiderivative x -> int_{-inf}^x w(y) dy; w0/2 at the origin."""
        x = np.asarray(x, dtype=float)
        k = self.amp / self.rate
        left = k * np.exp(self.rate * np.minimum(x, 0.0))
        right = self.w0 - k * np.exp(-self.rate * np.maximum(x, 0.0))
        return np.where(x <= 0.0, left, right)


@dataclass(frozen=True)
class VelocityLaw:
    """Odd, nondecreasing C^1 speed law a, given by its mean over an interval.

    ``mean(lo, hi)`` is the exact mean of a over [lo, hi] elementwise, for
    either orientation, in a closed form that stays well-conditioned for
    every interval length; at lo == hi it is a itself, a(x) = mean(x, x).
    The mean is the law's only evaluator: both engines read a through it,
    and so does the CFL bound (:func:`velocity_sup_bound`).  Since a is odd
    and nondecreasing, a mean has the sign of its interval's midpoint.
    """

    name: str
    mean: Callable[[np.ndarray, np.ndarray], np.ndarray]


def make_builtin_potential(name: str, sigma: float | None = None) -> PointyPotential:
    """Builtin potential family.

    abs_half        W(x) = -|x|/2          (lambda = 0, c = 1, w = 0)
    abs_scaled      W(x) = -sigma*|x|      (lambda = 0, c = 2*sigma, w = 0)
    exp_pointy      W(x) = (e^{-|x|}-1)/2  (lambda = 1/2, c = 1, w = e^{-|x|}/2)
    """
    if name == "abs_half":
        return PointyPotential("abs_half", c=1.0)
    if name == "abs_scaled":
        if sigma is None or sigma <= 0:
            raise ValueError("abs_scaled requires sigma > 0")
        return PointyPotential(f"abs_scaled({float(sigma)!r})", c=2.0 * float(sigma))
    if name == "exp_pointy":
        return PointyPotential("exp_pointy", c=1.0, amp=0.5, rate=1.0)
    raise ValueError(f"unknown potential {name!r}")


def make_velocity_law(name: str, k: float | None = None, scale: float | None = None) -> VelocityLaw:
    """Builtin speed laws: ``identity`` (a(x) = x) and ``atan`` (a(x) = scale*atan(k*x))."""
    if name == "identity":
        return VelocityLaw(name="identity", mean=lambda lo, hi: 0.5 * (hi + lo))
    if name == "atan":
        if k is None or k <= 0 or scale is None or scale <= 0:
            raise ValueError("atan law requires k > 0 and scale > 0")
        kk = float(k)
        sc = float(scale)

        def mean(lo, hi):
            # F(y) = y*atan(y) - log(1 + y^2)/2 has F' = atan; with p = k*lo,
            # q = k*hi, d = k*(hi - lo) the mean is scale*(F(q) - F(p))/d =
            # scale*(atan(q) + (p*(atan(q) - atan(p)) - log((1+q^2)/(1+p^2))/2)/d),
            # whose two differences are atan2(d, 1 + p*q) and log1p(d*(p+q)/(1+p^2))
            # without cancellation; the bracket is exactly 0 at d = 0.  The same
            # operations run in place on five buffers, floats and arrays alike
            p, q, d, u, v = map(np.empty, [np.broadcast(lo, hi).shape] * 5)
            np.multiply(kk, lo, out=p)
            np.multiply(kk, hi, out=q)
            np.subtract(hi, lo, out=d)
            d *= kk
            np.multiply(p, q, out=u)
            u += 1.0
            np.arctan2(d, u, out=u)
            u *= p  # p*atan2(d, 1 + p*q)
            np.add(p, q, out=v)
            v *= d
            np.multiply(p, p, out=p)
            p += 1.0
            v /= p
            # log1p loses digits as v nears -1 and fails where rounding takes it past;
            # below -0.999, where (1 + q^2)/(1 + p^2) < 1e-3 and so |p| > 31, the log
            # is the difference of two logs instead, above 6.9 apart
            near = None
            if v.min() < -0.999:
                near = v < -0.999
                v[near] = 0.0
            np.log1p(v, out=v)
            if near is not None:
                v[near] = np.log1p(np.square(q[near])) - np.log(p[near])
            v *= 0.5
            u -= v  # the bracket
            np.divide(u, d, out=u, where=d != 0.0)  # kept as it is, over 1, at d = 0
            np.arctan(q, out=q)
            q += u
            q *= sc
            return q

        return VelocityLaw(name=f"atan({kk!r},{sc!r})", mean=mean)
    raise ValueError(f"unknown velocity law {name!r}")


def velocity_sup_bound(pot: PointyPotential, law: VelocityLaw) -> float:
    """Uniform bound on the transport speed, the a_inf of the CFL condition.

    Every speed is a mean of the nondecreasing a over interface gradients,
    and these obey |s_{i+1/2}| <= lip*M on a grid holding mass M <= 1, so
    a_inf = max(|a(-lip)|, |a(lip)|), each a(x) = mean(x, x) called on a
    Python float: numpy's scalar and array paths of a transcendental
    function may differ in the last bit.

    The bound holds because each telescoped interface gradient is a
    mass-weighted sum of values of W'.  Write W'(x) = u_inf + Phi(x) -
    c*H(x) with Phi(x) = int_{-inf}^x w, nondecreasing since w >= 0.  The
    source cell j contributes m_j*(u_inf + V_l - c*[l >= 0]) to the
    gradient at the right interface of cell i, l = i - j, where the left
    anchor and the kernel steps sum to V_l = Phi(l dx) + dx*g_l/2.  The
    kernel's two-term averages are exact cell integrals of w,
    dx*(g_l + g_{l+1})/2 = Phi((l+1) dx) - Phi(l dx), and g >= 0, so V_l
    lies between Phi(l dx) and Phi((l+1) dx): the contribution is m_j times
    a value W' takes on the offset cell [l dx, (l+1) dx] (its one-sided
    limit at the origin), at most lip in modulus.  For a kink-only
    potential this is s = c*(M/2 - F) with F the cumulative mass, and for
    the identity law the bound is lip itself.

    The end-cell speeds point inward, so no mass leaves the grid.  Cell 0's
    speed is the mean of a over [s_{-1/2}, s_{1/2}], which has the sign of
    the interval's midpoint.  With the left-anchor weights tail_j =
    Phi(-j dx) - dx*g_j/2 that midpoint is u_inf*(M - m_0) + sum_{j>=1}
    m_j*(tail_j + dx*g_j/2): cell 0's own term m_0*(u_inf + Phi(0) - c/2)
    is 0, since Phi(0) = amp/rate = c/2 - u_inf, and the rest is >= 0,
    since u_inf >= 0 and tail_j + dx*g_j/2 = Phi(-j dx) >= 0.  So a_0 >= 0,
    and the mirror image gives a_{N-1} <= 0.
    """
    return float(max(abs(law.mean(-pot.lip, -pot.lip)), abs(law.mean(pot.lip, pot.lip))))
