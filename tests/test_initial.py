"""Particle labels and the closed-form CDF of bump initial data.

The references here share no code with ``aggr1d.initial``: the labels are
checked against 40-digit ``mpmath`` quantiles seeded by a double-precision
``scipy.special.erfc`` bisection, and ``InitialData.cdf`` against
``scipy.integrate.quad`` of the density.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc

from aggr1d import initial
from aggr1d.initial import GaussianBump, InitialData, builtin_initial, sample_particles
from aggr1d.measure import DiscreteMeasure

DOMAIN = (-2.5, 2.5)


def _reference_labels(init, n, domain, idx):
    """F^{-1}((i + 1/2)/n) for i in idx: F the bumps' mass left of x over their mass in the domain."""
    bumps = [(b.amplitude, b.center, b.width) for b in init.bumps]

    def mass_left(x):
        return sum(amp * w * math.sqrt(math.pi) / 2 * erfc((c - x) / w) for amp, c, w in bumps)

    lo, hi = domain
    z = (np.asarray(idx) + 0.5) / n
    a, b = np.full(z.size, float(lo)), np.full(z.size, float(hi))
    for _ in range(60):
        mid = 0.5 * (a + b)
        below = (mass_left(mid) - mass_left(lo)) / (mass_left(hi) - mass_left(lo)) < z
        a, b = np.where(below, mid, a), np.where(below, b, mid)
    with mpmath.workdps(40):
        mp_bumps = [tuple(mpmath.mpf(v) for v in bump) for bump in bumps]

        def mp_mass_left(x):
            return sum(amp * w * mpmath.sqrt(mpmath.pi) / 2 * mpmath.erfc((c - x) / w) for amp, c, w in mp_bumps)

        def mp_density(x):
            return sum(amp * mpmath.exp(-(((x - c) / w) ** 2)) for amp, c, w in mp_bumps)

        base = mp_mass_left(mpmath.mpf(lo))
        inside = mp_mass_left(mpmath.mpf(hi)) - base
        out = []
        for i, seed in zip(idx, 0.5 * (a + b)):
            target = base + inside * (mpmath.mpf(int(i)) + mpmath.mpf(1) / 2) / n
            x = mpmath.mpf(float(seed))
            for _ in range(3):
                x -= (mp_mass_left(x) - target) / mp_density(x)
            out.append(float(x))
    return np.array(out)


@pytest.mark.parametrize("name", ["init1", "init2"])
@pytest.mark.parametrize("n", [64, 512, 100_000])
def test_labels_are_exact_quantiles(name, n):
    # measured: at most 2.7e-15 at 512 labels and 6.4e-15 at 10^5 (next to
    # the median of init1, where the density is lowest); a 2^18-point
    # cumulative sum puts labels up to 3.9e-10 off
    labels = sample_particles(builtin_initial(name), n, DOMAIN)
    x, m = labels.positions, labels.masses
    np.testing.assert_array_equal(m, np.full(n, 1.0 / n))
    if n <= 512:
        idx = np.arange(n)
    else:
        # every 199th label, both ends and the labels around the median
        idx = np.unique(np.r_[0:n:199, 0:5, n - 5 : n, n // 2 - 3 : n // 2 + 3])
    assert np.max(np.abs(x[idx] - _reference_labels(builtin_initial(name), n, DOMAIN, idx))) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 63, 64, 511, 512, 100_000])
def test_init1_labels_are_antisymmetric(n):
    x = sample_particles(builtin_initial("init1"), n, DOMAIN).positions
    assert np.max(np.abs(x + x[::-1])) <= 1e-14


def test_labels_stop_per_label_well_inside_the_cap(monkeypatch):
    # each label stops on its own after 3-4 iterations on the builtin profiles
    monkeypatch.setattr(initial, "MAX_LABEL_ITERATIONS", 6)
    for name in ("init1", "init2"):
        x = sample_particles(builtin_initial(name), 100_000, DOMAIN).positions
        assert np.all(np.diff(x) > 0.0)
    monkeypatch.setattr(initial, "MAX_LABEL_ITERATIONS", 1)
    with pytest.raises(RuntimeError, match="did not converge"):
        sample_particles(builtin_initial("init1"), 512, DOMAIN)


def test_labels_bracketed_on_a_wide_domain():
    # narrow bumps far apart on a wide domain: most seeds start in a flat
    # stretch of the CDF table and reach their bump by bisection
    init = InitialData(bumps=(GaussianBump(1.0, -400.0, 5.0), GaussianBump(1.0, 0.3, 1e-3), GaussianBump(2.0, 400.0, 5.0)))
    domain = (-700.0, 700.0)
    n = 512
    x = sample_particles(init, n, domain).positions
    idx = np.arange(0, n, 7)
    ref = _reference_labels(init, n, domain, idx)
    assert np.max(np.abs(x[idx] - ref) / np.maximum(np.abs(ref), 1.0)) <= 1e-14


def test_label_memory_is_linear_in_n():
    # inverting a cumulative sum on a 2^18-point grid peaks at 10.2 MB for 512 labels
    init = builtin_initial("init1")
    sample_particles(init, 512, DOMAIN)  # warm-up: first-call allocations are not the labels'
    tracemalloc.start()
    try:
        sample_particles(init, 512, DOMAIN)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("name", ["init1", "init2"])
def test_cdf_differences_match_quadrature(name):
    # cells from -8 to 8: the outermost carry masses near 1e-226.  Left of 0
    # the cell mass is a difference of the cdf; right of it, a difference of
    # the mirrored bumps' cdf at -x (the mass right of x), as sample_particles
    # forms it.  Rounding the argument z = (x - centre)/width moves erfc and
    # exp alike by about z^2*eps relative, 9.9e-14 measured at the outermost
    # cells (z^2 up to 590); inside the domain it is at most 3.2e-14
    init = builtin_initial(name)
    mirror = InitialData(bumps=tuple(GaussianBump(b.amplitude, -b.center, b.width) for b in init.bumps))
    edges = np.linspace(-8.0, 8.0, 129)
    worst = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        exact, err = quad(lambda t: float(init.density(t)), a, b, epsabs=0.0, epsrel=1e-13, limit=200)
        assert err <= 1e-12 * exact
        if b <= 0.0:
            cell = float(init.cdf(b) - init.cdf(a))
        else:
            cell = float(mirror.cdf(-a) - mirror.cdf(-b))
        worst = max(worst, abs(cell - exact) / exact)
    assert worst <= 2e-13
    # the total and both half-line masses are closed form
    total = sum(b.amplitude * b.width * math.sqrt(math.pi) for b in init.bumps)
    assert float(init.cdf(50.0)) == pytest.approx(total, rel=1e-15)
    assert float(init.cdf(0.0) + mirror.cdf(0.0)) == pytest.approx(total, rel=1e-15)


def test_cdf_rejects_atomic_data():
    with pytest.raises(ValueError):
        InitialData(atoms=DiscreteMeasure([0.0], [1.0])).cdf(0.0)
