"""Extended-precision mean of the atan speed law over an interval.

The reference ``potentials.mean_speed`` is checked against.  It evaluates
a(x) = scale*atan(k x) and its antiderivative in ``longdouble`` and shares
no code with the engines: the quotient of the antiderivative on intervals
longer than ``QUOTIENT_MIN``, where extended precision leaves it about
1e-19*|A|/d off, and the 3-point Gauss-Legendre mean below, whose error
a''''''*d^6/2016000 is far below double rounding there.
"""

import numpy as np

QUOTIENT_MIN = 1e-7


def atan_mean(lo, hi, k, scale):
    """Mean of scale*atan(k x) over [lo, hi] for every pair, as longdouble."""
    lo = np.asarray(lo, dtype=np.longdouble)
    hi = np.asarray(hi, dtype=np.longdouble)
    k, scale = np.longdouble(k), np.longdouble(scale)

    def a(x):
        return scale * np.arctan(k * x)

    def antideriv(x):
        return scale * (x * np.arctan(k * x) - np.log1p(np.square(k * x)) / (2 * k))

    d = hi - lo
    mid = (hi + lo) / 2
    off = np.sqrt(np.longdouble(3) / 5) * d / 2
    gauss = (5 * a(mid - off) + 8 * a(mid) + 5 * a(mid + off)) / 18
    long = np.abs(d) > QUOTIENT_MIN
    quotient = (antideriv(hi) - antideriv(lo)) / np.where(long, d, 1)
    return np.where(long, quotient, gauss)
