"""Extended-precision antiderivatives and interval means of the builtin speed laws.

The reference ``VelocityLaw.mean`` is checked against, independent of the
package: a(x) and its antiderivative A (A(0) = 0) are written out here in
``longdouble``.  The mean over [lo, hi] is the quotient of A on intervals
longer than ``QUOTIENT_MIN``, where extended precision leaves it about
1e-19*|A|/d off (below 4e-15 for |x| <= 3), and the 3-point Gauss-Legendre
mean below, whose error a''''''*d^6/2016000 is below 1e-18 there for the
atan law of the presets.
"""

import numpy as np

QUOTIENT_MIN = 1e-4


def identity_antideriv(x):
    """A(x) = x^2/2 of a(x) = x, as longdouble."""
    x = np.asarray(x, dtype=np.longdouble)
    return np.square(x) / 2


def atan_antideriv(x, k, scale):
    """A(x) = scale*(x*atan(k x) - log(1 + k^2 x^2)/(2k)) of a(x) = scale*atan(k x), as longdouble."""
    x = np.asarray(x, dtype=np.longdouble)
    k, scale = np.longdouble(k), np.longdouble(scale)
    return scale * (x * np.arctan(k * x) - np.log1p(np.square(k * x)) / (2 * k))


def _interval_mean(a, antideriv, lo, hi):
    lo = np.asarray(lo, dtype=np.longdouble)
    hi = np.asarray(hi, dtype=np.longdouble)
    d = hi - lo
    mid = (hi + lo) / 2
    off = np.sqrt(np.longdouble(3) / 5) * d / 2
    gauss = (5 * a(mid - off) + 8 * a(mid) + 5 * a(mid + off)) / 18
    long = np.abs(d) > QUOTIENT_MIN
    quotient = (antideriv(hi) - antideriv(lo)) / np.where(long, d, 1)
    return np.where(long, quotient, gauss)


def identity_mean(lo, hi):
    """Mean of a(x) = x over [lo, hi] for every pair, as longdouble."""
    return _interval_mean(lambda x: x, identity_antideriv, lo, hi)


def atan_mean(lo, hi, k, scale):
    """Mean of scale*atan(k x) over [lo, hi] for every pair, as longdouble."""
    k, scale = np.longdouble(k), np.longdouble(scale)
    return _interval_mean(lambda x: scale * np.arctan(k * x), lambda x: atan_antideriv(x, k, scale), lo, hi)
