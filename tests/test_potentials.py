import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from aggr1d import fv
from aggr1d.measure import DiscreteMeasure
from aggr1d.particles import ParticleSystem
from aggr1d.potentials import (
    EXP_BLOCK,
    PointyPotential,
    left_exp_sums,
    make_builtin_potential,
    make_velocity_law,
    velocity_sup_bound,
)
from mean_speed_reference import QUOTIENT_MIN, atan_a, atan_mean, identity_a, identity_mean
from particle_views import velocities
from potential_reference import closed_form

ALL_BUILTINS = [
    make_builtin_potential("abs_half"),
    make_builtin_potential("abs_scaled", sigma=2.0),
    make_builtin_potential("abs_scaled", sigma=1.0 / 250.0),
    make_builtin_potential("exp_pointy"),
]


def test_abs_half_values():
    pot = make_builtin_potential("abs_half")
    assert pot.lip == 0.5
    assert pot.c == 1.0
    assert pot.w0 == 0.0


def test_exp_pointy_derivative():
    wprime = closed_form(make_builtin_potential("exp_pointy")).wprime
    assert wprime(1.0) == pytest.approx(-0.5 * math.exp(-1.0), abs=1e-15)
    assert wprime(1.0) == pytest.approx(-0.18393972058572117, abs=1e-12)


def test_exp_pointy_decomposition_identity_at_one():
    # -H(1) + int_0^1 w + c/2 must reproduce W'(1); the integral is done by
    # quadrature so the check is independent of w_left_integral
    pot = make_builtin_potential("exp_pointy")
    integral, err = quad(lambda y: float(pot.w_eval(y)), 0.0, 1.0, epsabs=1e-14)
    assert err < 1e-12
    lhs = -1.0 + integral + 0.5 * pot.c
    assert lhs == pytest.approx(float(closed_form(pot).wprime(1.0)), abs=1e-12)
    assert lhs == pytest.approx(-0.5 / math.e, abs=1e-12)


def test_unknown_potential_and_bad_sigma():
    with pytest.raises(ValueError):
        make_builtin_potential("box")
    with pytest.raises(ValueError):
        make_builtin_potential("abs_scaled", sigma=0.0)
    with pytest.raises(ValueError):
        make_builtin_potential("abs_scaled", sigma=-1.0)
    for name in ("abs_half", "exp_pointy"):  # only abs_scaled reads sigma
        with pytest.raises(ValueError, match="takes no sigma"):
            make_builtin_potential(name, sigma=1.0)


NOT_ATTRACTIVE = {
    "c=0": (0.0, 0.0, 1.0),
    "c=-1": (-1.0, 0.0, 1.0),
    "c=nan": (math.nan, 0.0, 1.0),
    "amp<0": (1.0, -0.25, 1.0),
    "rate=0": (1.0, 0.25, 0.0),
    "rate<0": (1.0, 0.25, -1.0),
    "u_inf<0": (1.0, 1.0, 1.0),  # u_inf = 1/2 - 1 = -1/2
}


@pytest.mark.parametrize(
    "c, amp, rate, accepted",
    [*((pot.c, pot.amp, pot.rate, True) for pot in ALL_BUILTINS), *((*v, False) for v in NOT_ATTRACTIVE.values())],
    ids=[*(pot.name for pot in ALL_BUILTINS), *NOT_ATTRACTIVE],
)
def test_potential_must_be_attractive(c, amp, rate, accepted):
    # c > 0, amp >= 0, rate > 0 and u_inf = c/2 - amp/rate >= 0, so W' >= 0
    # on (-inf, 0); exp_pointy sits on the edge, u_inf = 0.0 exactly
    if accepted:
        assert PointyPotential("p", c=c, amp=amp, rate=rate).u_inf >= 0.0
    else:
        with pytest.raises(ValueError, match="attractive"):
            PointyPotential("p", c=c, amp=amp, rate=rate)


def test_potential_symmetries():
    rng = np.random.default_rng(7)
    x = rng.uniform(0.05, 10.0, size=500)
    for pot in ALL_BUILTINS:
        ref = closed_form(pot)
        assert ref.w(0.0) == 0.0
        np.testing.assert_allclose(ref.w(x), ref.w(-x), rtol=0, atol=0)
        np.testing.assert_allclose(ref.wprime(-x), -np.asarray(ref.wprime(x)), rtol=0, atol=0)
        assert np.max(np.abs(ref.wprime(x))) <= pot.lip + 1e-15


def test_one_sided_lipschitz_bound():
    # W'(x) - W'(y) <= lam (x - y) on 10^4 random ordered pairs away from 0
    rng = np.random.default_rng(11)
    for pot in ALL_BUILTINS:
        a = rng.uniform(-10.0, 10.0, size=10_000)
        b = rng.uniform(-10.0, 10.0, size=10_000)
        a, b = np.where(a == 0.0, 0.5, a), np.where(b == 0.0, -0.5, b)
        x, y = np.maximum(a, b), np.minimum(a, b)
        keep = x > y
        x, y = x[keep], y[keep]
        ref = closed_form(pot)
        gap = np.asarray(ref.wprime(x)) - np.asarray(ref.wprime(y)) - ref.lam * (x - y)
        assert np.max(gap) <= 1e-12


def test_wprime_below_lambda_x():
    rng = np.random.default_rng(13)
    x = rng.uniform(1e-6, 10.0, size=2000)
    for pot in ALL_BUILTINS:
        ref = closed_form(pot)
        assert np.max(np.asarray(ref.wprime(x)) - ref.lam * x) <= 1e-12


def test_decomposition_reconstructs_wprime():
    # W'(x) = -c H(x) + int_0^x w + c/2 at 10^3 random nonzero points
    rng = np.random.default_rng(17)
    x = rng.uniform(-8.0, 8.0, size=1000)
    x = np.where(x == 0.0, 1.0, x)
    for pot in ALL_BUILTINS:
        int0x = np.asarray(pot.w_left_integral(x)) - float(pot.w_left_integral(0.0))
        recon = -pot.c * (x > 0) + int0x + 0.5 * pot.c
        assert np.max(np.abs(np.asarray(closed_form(pot).wprime(x)) - recon)) <= 1e-10


def test_w_left_integral_matches_quadrature():
    pot = make_builtin_potential("exp_pointy")
    for xx in (-3.0, -0.4, 0.0, 0.9, 2.5):
        # split at the kink, or quad loses digits there
        q, _ = quad(lambda y: float(pot.w_eval(y)), -40.0, min(xx, 0.0), epsabs=1e-13, limit=200)
        if xx > 0.0:
            q2, _ = quad(lambda y: float(pot.w_eval(y)), 0.0, xx, epsabs=1e-13, limit=200)
            q += q2
        assert float(pot.w_left_integral(xx)) == pytest.approx(q, abs=1e-10)
    assert float(pot.w_left_integral(0.0)) == pytest.approx(0.5 * pot.w0, abs=1e-15)


def _left_exp_sums_longdouble(x, m, rate):
    """sum_{j<i} m_j e^{-rate (x_i - x_j)} term by term in extended precision."""
    x = np.asarray(x, dtype=np.longdouble)
    d = x[:, None] - x[None, :]
    weights = np.where(d > 0, np.exp(-rate * np.maximum(d, 0)), 0)
    return weights @ np.asarray(m, dtype=np.longdouble)


@pytest.mark.parametrize("rate", [0.5, 1.0, 3.0])
def test_left_exp_sums_match_longdouble_reference(rate):
    # positions over [-1000, 1000] take several blocks of width EXP_BLOCK/rate;
    # the first block's second point lies exactly one block width from its first
    rng = np.random.default_rng(int(rate * 10))
    width = EXP_BLOCK / rate
    x = np.concatenate([[-1000.0, -1000.0 + width], np.sort(rng.uniform(-1000.0 + width, 1000.0, 200))])
    assert x[1] - x[0] == width and rate * (x[-1] - x[0]) > EXP_BLOCK
    m = rng.random(x.size) + 0.01
    m /= m.sum()
    left = left_exp_sums(x, m, rate)
    right = left_exp_sums(-x[::-1], m[::-1], rate)[::-1]
    np.testing.assert_allclose(left, _left_exp_sums_longdouble(x, m, rate), rtol=0, atol=1e-15)
    np.testing.assert_allclose(right, _left_exp_sums_longdouble(-x[::-1], m[::-1], rate)[::-1], rtol=0, atol=1e-15)
    assert left[0] == 0.0 and right[-1] == 0.0


def test_identity_law():
    law = make_velocity_law("identity")
    assert law.mean(3.0, 3.0) == 3.0


def test_atan_law_values():
    law = make_velocity_law("atan", k=50.0, scale=2.0 / math.pi)
    assert law.mean(0.0, 0.0) == 0.0
    assert float(law.mean(1.0 / 50.0, 1.0 / 50.0)) == pytest.approx(0.5, abs=1e-16)
    # frozen mean over [0, 1/2], the closing speed of two half masses under abs_half
    assert float(law.mean(0.0, 0.5)) == pytest.approx(0.8925604219551196, abs=1e-15)


def test_bad_law_parameters():
    with pytest.raises(ValueError):
        make_velocity_law("atan", k=0.0, scale=1.0)
    with pytest.raises(ValueError):
        make_velocity_law("atan", k=50.0, scale=-2.0)
    with pytest.raises(ValueError):
        make_velocity_law("tanh")
    for params in ({"k": 50.0}, {"scale": 1.0}, {"k": 50.0, "scale": 1.0}):  # only atan reads k and scale
        with pytest.raises(ValueError, match="takes no k or scale"):
            make_velocity_law("identity", **params)


@pytest.mark.parametrize("name", ["identity", "atan"])
def test_mean_matches_quadrature(name):
    # mean(lo, hi) is the integral of a over [lo, hi] divided by hi - lo on
    # random intervals of either orientation, and a itself where lo == hi
    law = make_velocity_law(name, k=50.0, scale=2.0 / math.pi) if name == "atan" else make_velocity_law(name)
    a_of = (lambda x: atan_a(x, 50.0, 2.0 / math.pi)) if name == "atan" else identity_a
    rng = np.random.default_rng(19)
    lo = rng.uniform(-2.0, 2.0, 200)
    hi = lo + rng.choice([-1.0, 1.0], 200) * rng.uniform(0.05, 2.0, 200)
    given = lo.copy(), hi.copy()
    got = law.mean(lo, hi)
    assert np.array_equal(lo, given[0]) and np.array_equal(hi, given[1])  # the mean writes only its own buffers
    for left, right, mean in zip(lo, hi, got):
        a, b = min(left, right), max(left, right)
        # split at the origin, where a bends sharpest
        integral = sum(
            quad(lambda y: float(a_of(y)), x0, x1, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
            for x0, x1 in ((a, min(b, 0.0)), (max(a, 0.0), b))
            if x1 > x0
        )
        assert mean == pytest.approx(integral / (b - a), abs=1e-12)
    x = np.concatenate([lo, [0.0, -0.0, 1e-300, -5e-324, 1e6, -1e6]])
    assert np.array_equal(law.mean(x, x), a_of(x))


def test_atan_mean_where_one_end_is_far_above_the_other():
    # at k*|lo| above 1e8 and k*|hi| below 1e-8 of it, the log's argument
    # d*(p+q)/(1+p^2) rounds to -1 or past it; the mean stays within 1e-14
    # of the 40-digit one, with no warning
    lo = np.array([-10930.0, 10930.0, -1.0, 3e3, -0.5])
    hi = np.array([1e-5, -1e-5, 0.0, 0.0, 1e-9])
    for k in (46487151.461524196, 1e8, 1e10):
        law = make_velocity_law("atan", k=k, scale=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = law.mean(lo, hi)
            scalars = [law.mean(a, b) for a, b in zip(lo, hi)]
        with mpmath.workdps(40):

            def antideriv(x):
                y = mpmath.mpf(k) * mpmath.mpf(x)
                return y * mpmath.atan(y) - mpmath.log1p(y * y) / 2

            exact = [float((antideriv(b) - antideriv(a)) / (k * (mpmath.mpf(b) - mpmath.mpf(a)))) for a, b in zip(lo, hi)]
        np.testing.assert_allclose(got, exact, rtol=1e-14, atol=0)
        np.testing.assert_allclose(scalars, exact, rtol=1e-14, atol=0)


def test_velocity_sup_bound_linear():
    law = make_velocity_law("identity")
    # the identity law is the linear equation: |W' * rho| <= lip for unit mass
    assert velocity_sup_bound(make_builtin_potential("abs_half"), law) == 0.5
    assert velocity_sup_bound(make_builtin_potential("abs_scaled", sigma=1.0 / 250.0), law) == 1.0 / 250.0
    assert velocity_sup_bound(make_builtin_potential("exp_pointy"), law) == 0.5


def test_velocity_sup_bound_nonlinear_abs_half():
    pot = make_builtin_potential("abs_half")
    law = make_velocity_law("identity")
    # the identity law gives lip itself: |a(+-1/2)| = 1/2
    assert velocity_sup_bound(pot, law) == pytest.approx(0.5, abs=1e-15)


def test_velocity_sup_bound_nonlinear_exp_pointy():
    pot = make_builtin_potential("exp_pointy")
    law = make_velocity_law("atan", k=50.0, scale=2.0 / math.pi)
    # lip = max(c/2, |u_inf|) = 1/2, so a_inf = a(1/2) = (2/pi)*atan(25)
    expect = (2.0 / math.pi) * math.atan(25.0)
    got = velocity_sup_bound(pot, law)
    assert got == pytest.approx(expect, abs=1e-14)
    assert got == pytest.approx(0.9745487773040165, abs=1e-15)


def test_velocity_sup_bound_kink_only_is_a_at_half_c():
    # kink-only: u_inf = c/2, so lip = c/2 and a_inf = a(c/2) bit for bit
    law = make_velocity_law("atan", k=50.0, scale=2.0 / math.pi)
    pot = make_builtin_potential("abs_scaled", sigma=1.0 / 250.0)
    assert velocity_sup_bound(pot, law) == float(atan_a(1.0 / 250.0, 50.0, 2.0 / math.pi))
    assert velocity_sup_bound(make_builtin_potential("abs_half"), law) == float(atan_a(0.5, 50.0, 2.0 / math.pi))


# a_inf of each builtin potential under identity, atan(50, 2/pi) and
# atan(0.3, 1.7), frozen bit for bit: a last-bit change in a(+-lip) moves
# every CFL step of a run
A_INF = [
    (make_builtin_potential("abs_half"), (0.5, 0.9745487773040165, 0.2531129109361453)),
    (make_builtin_potential("abs_scaled", sigma=1.0 / 250.0), (0.004, 0.1256659163780024, 0.0020399990208008457)),
    (make_builtin_potential("abs_scaled", sigma=3.7), (3.7, 0.9965588455560129, 1.423722311439766)),
    (make_builtin_potential("exp_pointy"), (0.5, 0.9745487773040165, 0.2531129109361453)),
]


@pytest.mark.parametrize("pot, expected", A_INF, ids=[pot.name for pot, _ in A_INF])
def test_velocity_sup_bound_frozen(pot, expected):
    laws = (
        make_velocity_law("identity"),
        make_velocity_law("atan", k=50.0, scale=2.0 / math.pi),
        make_velocity_law("atan", k=0.3, scale=1.7),
    )
    assert tuple(velocity_sup_bound(pot, law) for law in laws) == expected


@pytest.mark.parametrize("pot", ALL_BUILTINS, ids=lambda pot: pot.name)
def test_lip_is_sup_of_wprime(pot):
    # the derived lip against the hand-written W' over a dense grid and its
    # limits at 0- and 0+ and at -inf and +inf
    wprime = closed_form(pot).wprime
    x = np.concatenate([-np.geomspace(1e-12, 1e3, 4001), np.geomspace(1e-12, 1e3, 4001)])
    grid_sup = float(np.max(np.abs(wprime(x))))
    limits = [abs(float(wprime(v))) for v in (-5e-324, 5e-324, -math.inf, math.inf)]
    assert pot.lip == max(grid_sup, *limits)


LAWS_AND_REFERENCES = [
    (make_velocity_law("identity"), identity_mean),
    (make_velocity_law("atan", k=50.0, scale=2.0 / math.pi), lambda lo, hi: atan_mean(lo, hi, 50.0, 2.0 / math.pi)),
]


def test_longdouble_reference_matches_mpmath():
    # the reference must be far more accurate than the 1e-14 it checks: 40-digit
    # means at lengths on either side of its quotient/Gauss switch, where a
    # longdouble quotient alone is 3.6e-15 off at d = 1.26e-4 (measured here
    # at most 3.4e-17, just above the switch)
    lo = np.random.default_rng(5).uniform(-3.0, 3.0, 60)
    with mpmath.workdps(40):
        k, scale = mpmath.mpf(50.0), mpmath.mpf(2.0 / math.pi)

        def atan_antideriv(x):
            return scale * (x * mpmath.atan(k * x) - mpmath.log1p((k * x) ** 2) / (2 * k))

        for d in (1e-6, 1.26e-4, 3e-3, QUOTIENT_MIN, QUOTIENT_MIN * (1 + 1e-3), 0.2):
            for hi in (lo + d, lo - d):
                ends = [(mpmath.mpf(a), mpmath.mpf(b)) for a, b in zip(lo, hi)]
                identity = [(a + b) / 2 for a, b in ends]
                atan = [(atan_antideriv(b) - atan_antideriv(a)) / (b - a) for a, b in ends]
                for got, exact in ((identity_mean(lo, hi), identity), (atan_mean(lo, hi, 50.0, 2.0 / math.pi), atan)):
                    assert max(abs(mpmath.mpf(str(g)) - e) for g, e in zip(got, exact)) <= 1e-16


# zero, one length per decade from 1e-16 to 1, and lengths around 1e-6, where a
# quotient of the antiderivative in double precision keeps only about nine digits
@pytest.mark.parametrize(
    "d", sorted({0.0, *(10.0**-e for e in range(17)), 1.01e-12, 9.99999999e-07, 1.000000001e-06, 1.4678e-6, 3e-6})
)
def test_mean_speed_matches_longdouble_reference(d):
    # every builtin law over [-2, 2], four times exp_pointy's gradient range
    # [-1/2, 1/2], and preset 2's [-1/250, 1/250], on intervals of length d in
    # either orientation, through law.mean and the grid's speeds, and in the
    # one orientation the particles' speeds take
    lo = np.concatenate([np.linspace(-2.0, 2.0, 401), np.linspace(-0.004, 0.004, 41)])
    for law, reference in LAWS_AND_REFERENCES:
        for sign in (1.0, -1.0):
            hi = lo + sign * d
            assert np.max(np.abs(law.mean(lo, hi) - reference(lo, hi))) <= 1e-14
            grid = np.sort(np.concatenate([lo, hi]))[:: int(sign)]  # a gradient profile with intervals of length d
            profile = fv.velocity_from_gradients(law, grid)
            assert np.max(np.abs(profile - reference(grid[:-1], grid[1:]))) <= 1e-14
        # atoms of mass 1/41 alternate with atoms of mass d/4 under the kink
        # c = 4, whose trace intervals [u(x_i+), u(x_i+) + c*m_i] are increasing,
        # as they are under every attractive potential
        pot = make_builtin_potential("abs_scaled", sigma=2.0)
        m = np.tile([1.0 / 41.0, d / 4.0], 41)
        m = m[m > 0.0]
        speeds = velocities(ParticleSystem(DiscreteMeasure(np.arange(m.size), m), time=0.0, pot=pot, law=law))
        u_plus = -pot.c * np.cumsum(m) + 0.5 * pot.c * np.sum(m)  # the kink-only traces as the engine forms them
        assert np.max(np.abs(speeds - reference(u_plus, u_plus + pot.c * m))) <= 1e-14
