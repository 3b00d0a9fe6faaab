"""Initial data: Gaussian bump profiles and atomic lists.

Bumps are amplitude * exp(-((x - center)/width)^2); the builtin two- and
three-bump profiles carry widths 1/sqrt(10) and 1/sqrt(20), i.e. decay
rates 10 and 20 in the exponent.  Profiles are normalized to unit mass
after projection (the theory fixes total mass 1; the normalization only
rescales the vertical axis of plotted profiles).

A bump's mass left of x is closed form, amplitude*width*sqrt(pi)/2 *
erfc((center - x)/width), and ``InitialData.cdf`` sums it over the bumps.
The particle labels of :func:`sample_particles` are the exact quantiles of
this closed-form CDF, normalized to the mass inside the domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import DiscreteMeasure

__all__ = ["GaussianBump", "InitialData", "builtin_initial", "sample_particles"]

_erfc = np.frompyfunc(math.erfc, 1, 1)

# knots of the CDF table that seeds and brackets each label's Newton search
SEED_KNOTS = 1025
# iterations per label before sample_particles raises; Newton takes 3-4 on
# the builtin profiles, and bisection alone closes a knot interval in about 60
MAX_LABEL_ITERATIONS = 100


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

    def cdf(self, x):
        """Mass of the bumps left of x, in closed form (unnormalized).

        Each bump adds amplitude*width*sqrt(pi)/2 * erfc((center - x)/width),
        which keeps its relative accuracy in the left tail; the mass right of
        x is the ``cdf`` of the mirrored bumps at -x.
        """
        if self.is_atomic:
            raise ValueError("atomic initial data has no density")
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for b in self.bumps:
            tail = np.asarray(_erfc((b.center - x) / b.width), dtype=float)
            out += b.amplitude * b.width * (0.5 * math.sqrt(math.pi)) * tail
        return out


def _mirrored(initial: InitialData) -> InitialData:
    """The bumps reflected through 0: its ``cdf`` at -x is the mass right of x."""
    return InitialData(bumps=tuple(GaussianBump(b.amplitude, -b.center, b.width) for b in initial.bumps))


def _left_labels(initial: InitialData, mass, lo: float, hi: float):
    """Solve cdf(x) - cdf(lo) = mass for each entry by safeguarded Newton.

    The derivative is the density.  A table of the CDF at ``SEED_KNOTS``
    knots brackets each root and seeds it by linear interpolation; an
    iterate outside its bracket falls back to bisection.  Each label stops
    on its own once the Newton step is within a few ulps of the label or
    of the target mass (so the CDF's rounding cannot keep it going), or
    once its bracket has closed.
    """
    knots = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.linspace(-1.0, 1.0, SEED_KNOTS)
    knots[0], knots[-1] = lo, hi
    table = initial.cdf(knots)
    target = table[0] + mass
    k = np.clip(np.searchsorted(table, target, side="right") - 1, 0, SEED_KNOTS - 2)
    a, b = knots[k], knots[k + 1]
    rise = table[k + 1] - table[k]
    frac = np.divide(target - table[k], rise, out=np.full_like(target, 0.5), where=rise > 0.0)
    x = np.clip(a + frac * (b - a), a, b)
    out = np.empty_like(target)
    todo = np.arange(target.size)
    for _ in range(MAX_LABEL_ITERATIONS):
        f = initial.cdf(x) - target
        a = np.where(f < 0.0, x, a)
        b = np.where(f > 0.0, x, b)
        with np.errstate(all="ignore"):
            step = np.where(f == 0.0, 0.0, f / initial.density(x))
        newton = x - step
        done = (
            (np.abs(f) <= 4.0 * np.spacing(target))
            | (np.abs(step) <= 4.0 * np.spacing(np.abs(x)))
            | (b - a <= 4.0 * np.spacing(np.maximum(np.abs(a), np.abs(b))))
        )
        out[todo[done]] = np.clip(newton, a, b)[done]
        nxt = np.where((a < newton) & (newton < b), newton, 0.5 * (a + b))
        keep = ~done
        todo, x, a, b, target = todo[keep], nxt[keep], a[keep], b[keep], target[keep]
        if todo.size == 0:
            return out
    raise RuntimeError(f"{todo.size} particle labels did not converge in {MAX_LABEL_ITERATIONS} iterations")


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


def sample_particles(initial: InitialData, n: int, domain: tuple[float, float]) -> DiscreteMeasure:
    """Equal-mass quantile discretization of the initial data, as a measure.

    Bump data give n labels of mass 1/n each, at the exact quantiles
    F^{-1}((i + 1/2)/n) of the bumps' closed-form CDF normalized to the
    mass inside ``domain``; coincident labels are one atom.  Labels above
    the median invert the mass right of them (the mirrored bumps' CDF), so
    tail labels keep their digits and even data give mirror-image labels.
    Atomic data give their own atoms, with the masses scaled to sum to 1.
    """
    if initial.is_atomic:
        atoms = initial.atoms
        if not atoms.is_probability():
            raise ValueError("atomic initial data must carry unit mass")
        return DiscreteMeasure(atoms.positions, atoms.masses / atoms.total_mass)
    if n < 1:
        raise ValueError("need at least one particle")
    lo, hi = domain
    mirror = _mirrored(initial)
    inside = sum(b.amplitude * b.width * math.sqrt(math.pi) for b in initial.bumps)
    inside -= float(initial.cdf(lo)) + float(mirror.cdf(-hi))
    # label i and label n - 1 - i lie the same mass fraction from either end
    z = (np.arange((n + 1) // 2) + 0.5) / n
    left = _left_labels(initial, z * inside, lo, hi)
    right = -_left_labels(mirror, z[: n // 2] * inside, -hi, -lo)[::-1]
    return DiscreteMeasure(np.concatenate([left, right]), np.full(n, 1.0 / n))
