import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from aggr1d import particles
from aggr1d.cli import main as cli_main
from aggr1d.config import SimConfig, example_preset
from aggr1d.experiments import _particle_system
from aggr1d.measure import DiscreteMeasure, wasserstein1
from aggr1d.particles import ParticleSystem, advance_to, trajectory
from aggr1d.potentials import make_builtin_potential, make_velocity_law
from direct_sums import interaction_energy, pairwise_speeds, wtilde_sums
from isotonic_reference import isotonic_projection
from mean_speed_reference import atan_a, atan_antideriv, identity_antideriv
from particle_views import velocities
from potential_reference import closed_form
from rescaling import rescaling

ABS_HALF = make_builtin_potential("abs_half")
EXP_POINTY = make_builtin_potential("exp_pointy")
IDENTITY = make_velocity_law("identity")
ATAN = make_velocity_law("atan", k=50.0, scale=2.0 / math.pi)
# extended-precision antiderivative of each law, for quotient references
ANTIDERIV = {IDENTITY.name: identity_antideriv, ATAN.name: lambda x: atan_antideriv(x, 50.0, 2.0 / math.pi)}


def system(x, m, pot=ABS_HALF, law=IDENTITY):
    return ParticleSystem(DiscreteMeasure(x, m), time=0.0, pot=pot, law=law)


def test_linear_velocities_two_body():
    v = velocities(system([-1.0, 1.0], [0.5, 0.5]))
    np.testing.assert_allclose(v, [0.25, -0.25], atol=0)


def test_linear_velocities_single_particle():
    v = velocities(system([0.0], [1.0]))
    np.testing.assert_array_equal(v, [0.0])
    v = velocities(system([0.0], [1.0], pot=EXP_POINTY))
    np.testing.assert_array_equal(v, [0.0])


def test_linear_velocities_three_body():
    v = velocities(system([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25]))
    np.testing.assert_allclose(v, [0.375, 0.0, -0.375], atol=1e-16)


def test_linear_fast_path_matches_direct_sum():
    # identity law: the O(n) trace midpoint equals the pairwise sum
    rng = np.random.default_rng(41)
    for pot in (ABS_HALF, make_builtin_potential("abs_scaled", sigma=3.0), EXP_POINTY):
        for _ in range(30):
            n = rng.integers(2, 40)
            x = np.sort(rng.normal(size=n) * 3)
            while np.any(np.diff(x) <= 1e-9):
                x = np.sort(rng.normal(size=n) * 3)
            m = rng.random(n) + 0.05
            np.testing.assert_allclose(velocities(system(x, m, pot=pot)), pairwise_speeds(x, m, pot), atol=1e-13)


def test_nonlinear_two_body_identity():
    v = velocities(system([-1.0, 1.0], [0.5, 0.5]))
    np.testing.assert_allclose(v, [0.25, -0.25], atol=1e-15)


def test_nonlinear_two_body_atan():
    # closing speed 2*A(1/2): cross-check A against quadrature of a
    v = velocities(system([-1.0, 1.0], [0.5, 0.5], law=ATAN))
    a_half, _ = quad(lambda y: float(atan_a(y, 50.0, 2.0 / math.pi)), 0.0, 0.5, epsabs=1e-14)
    assert v[0] == pytest.approx(2.0 * a_half, abs=1e-12)
    assert v[0] == pytest.approx(0.8925604219551196, abs=1e-13)
    assert v[1] == pytest.approx(-v[0], abs=1e-15)


def test_nonlinear_single_particle_is_stationary():
    for pot in (ABS_HALF, EXP_POINTY):
        for law in (IDENTITY, ATAN):
            v = velocities(system([0.3], [1.0], pot=pot, law=law))
            np.testing.assert_array_equal(v, [0.0])
            # brute-force jump of A(W' * rho) across the lone atom
            eps = 1e-9
            wprime = closed_form(pot).wprime
            u_plus, u_minus = float(wprime(eps)), float(wprime(-eps))
            jump = float(ANTIDERIV[law.name](u_plus) - ANTIDERIV[law.name](u_minus))
            assert abs(jump / pot.c) <= 1e-8


def test_nonlinear_prefix_sums_match_pairwise_matrix():
    # the exponential prefix sums must reproduce the full pairwise sum; the
    # last input reaches |x| ~ 400, where the sums take several blocks
    rng = np.random.default_rng(45)
    inputs = []
    for _ in range(30):
        n = rng.integers(2, 60)
        x = np.sort(rng.normal(size=n) * 2.5)
        if np.any(np.diff(x) <= 1e-9):
            continue
        inputs.append((x, rng.random(n) + 0.05))
    inputs.append((np.array([-401.0, -399.5, -0.5, 1.0, 398.0, 400.5]), np.array([0.1, 0.2, 0.25, 0.15, 0.2, 0.1])))
    for x, m in inputs:
        m /= m.sum()
        for law in (IDENTITY, ATAN):
            fast = velocities(system(x, m, pot=EXP_POINTY, law=law))
            u_plus = -EXP_POINTY.c * np.cumsum(m) + wtilde_sums(x, m, EXP_POINTY)
            u_minus = u_plus + EXP_POINTY.c * m
            ref = -(ANTIDERIV[law.name](u_plus) - ANTIDERIV[law.name](u_minus)) / (EXP_POINTY.c * m)
            np.testing.assert_allclose(fast, ref, atol=1e-12)


def test_light_particle_moves_at_trace_midpoint():
    # a particle whose jump c*m is 1e-15 moves at the mean of a over its
    # traces, a at their midpoint up to a''*(c*m)^2/24; a quotient of the
    # antiderivative A in double precision would cancel there (under abs_half
    # it gives -0.94369, the midpoint -0.93655)
    x = np.array([-1.0, 0.0, 1.0])
    m = np.array([0.7, 1e-15, 0.3])
    for pot in (ABS_HALF, EXP_POINTY):
        u_plus = -pot.c * np.cumsum(m) + wtilde_sums(x, m, pot)
        u_minus = u_plus + pot.c * m
        v = velocities(system(x, m, pot=pot, law=ATAN))
        assert abs(v[1] - float(atan_a(0.5 * (u_plus[1] + u_minus[1]), 50.0, 2.0 / math.pi))) <= 1e-12
        heavy = [0, 2]
        quotient = -(ANTIDERIV[ATAN.name](u_plus[heavy]) - ANTIDERIV[ATAN.name](u_minus[heavy])) / (pot.c * m[heavy])
        np.testing.assert_allclose(v[heavy], quotient, atol=1e-12)


def test_system_requires_law():
    with pytest.raises(TypeError):
        ParticleSystem(DiscreteMeasure([-1.0, 1.0], [0.5, 0.5]), time=0.0, pot=ABS_HALF)


def test_coincident_particles_are_one_atom():
    ps = system([0.0, 0.0], [0.5, 0.5])
    np.testing.assert_array_equal(ps.atoms.positions, [0.0])
    np.testing.assert_array_equal(ps.atoms.masses, [1.0])


# the last two atoms lie 5e-13 apart: distinct atoms, which the engine merges on contact
CLOSE_ATOMS = [[-0.5, 0.25], [0.2, 0.25], [0.2000000000005, 0.5]]


@pytest.mark.parametrize("pot, law", [(EXP_POINTY, ATAN), (ABS_HALF, IDENTITY)], ids=["rk4", "exact"])
def test_atoms_5e13_apart_merge_in_the_engine(pot, law):
    doc = {"potential": {"name": pot.name}, "initial": {"kind": "atoms", "atoms": CLOSE_ATOMS}}
    assert SimConfig.from_dict(doc).initial.atoms.n_atoms == 3  # loading the config merges nothing
    ps = system(*zip(*CLOSE_ATOMS), pot=pot, law=law)
    log = []
    t0, t1 = trajectory(ps, [0.0, 0.5], log)
    merges = [ev for ev in log if ev.kind == "merge"]
    assert len(merges) == 1 and merges[0].snapshot.n_atoms == 2 and t1.atoms.n_atoms == 2
    x = ps.atoms.positions
    if pot.amp > 0.0:
        # the RK4 path merges a pair within CONTACT_TOL where it stands, before any step
        assert merges[0].time == 0.0 and t0.atoms.n_atoms == 2
    else:
        # the exact path merges the pair at its contact time gap / closing speed
        gap, closing = x[2] - x[1], -np.diff(velocities(ps))[1]
        assert merges[0].time == gap / closing and merges[0].time == pytest.approx(1.333e-12, rel=1e-3)
        assert t0.atoms.n_atoms == 3


def test_two_body_merge_time_and_point():
    # gap 2 closes at rate 1/2: contact at t = 4, x = 0 by symmetry
    log = []
    ps = advance_to(system([-1.0, 1.0], [0.5, 0.5]), 5.0, log)
    assert ps.atoms.n_atoms == 1
    assert abs(ps.atoms.positions[0]) <= 1e-14
    assert ps.atoms.masses[0] == 1.0
    merges = [ev for ev in log if ev.kind == "merge"]
    assert len(merges) == 1
    assert merges[0].time == pytest.approx(4.0, abs=1e-14)
    np.testing.assert_array_equal(velocities(ps), [0.0])  # stationary after merge


def test_stalled_contact_search_aborts(monkeypatch):
    # a contact search that returns the start of the step leaves t and the
    # particle count unchanged, so the pass made no progress
    monkeypatch.setattr(particles, "_locate_contact", lambda x, *args: (0.0, x))
    with pytest.raises(RuntimeError, match="stalled"):
        # d' = -e^{-d}/2 from d = 1/2: contact inside a step, at t = 2(e^{1/2} - 1) = 1.2974...
        advance_to(system([-0.25, 0.25], [0.5, 0.5], pot=EXP_POINTY), 5.0)


def test_contact_search_returns_once_the_bracket_closes(monkeypatch):
    # constant speeds: the gap 0.3 - t closes at t = 0.3, but the RK4 gap at the
    # iterate does not read 0 exactly here, so with rate = 0 the search can only end
    # when its bracket closes to BISECT_TOL, on the iterate's nonzero gap
    x, m, v = np.array([0.0, 0.3]), np.array([0.5, 0.5]), np.array([0.7, -0.3])

    def vel(y, m):
        return v

    g_end = float(np.min(np.diff(particles._rk4(x, m, 0.5, vel, v))))
    calls = []
    rk4 = particles._rk4
    monkeypatch.setattr(particles, "_rk4", lambda *args: calls.append(args[2]) or rk4(*args))
    t, y = particles._locate_contact(x, m, v, vel, 0.5, g_end, 0.1, 0.0)
    assert abs(t - 0.3) <= particles.BISECT_TOL
    assert np.min(np.diff(y)) != 0.0  # the zero-gap exit cannot have returned
    assert calls[-1] == t and len(calls) == 3


def test_kink_only_event_merging_nothing_aborts(monkeypatch):
    # a merge that leaves every particle in place makes the contact event no progress
    monkeypatch.setattr(particles, "merge_runs", lambda x, m, linked, *values: (x, m, False, *values))
    with pytest.raises(RuntimeError, match="stalled"):
        advance_to(system([-1.0, 1.0], [0.5, 0.5]), 5.0)


def test_kink_only_contact_past_the_float_range_is_none():
    # two atoms 20 apart closing at 4.7e-308: the contact time overflows, which means no contact
    tiny = make_velocity_law("atan", k=1e8, scale=1.5e-308)
    ps = system([-10.0, 10.0], [0.5, 0.5], law=tiny)
    closing = -np.diff(velocities(ps))[0]
    assert 0.0 < closing < 20.0 / np.finfo(float).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = advance_to(ps, 1.0)
    assert out.atoms.n_atoms == 2 and np.array_equal(out.atoms.positions, ps.atoms.positions)


def test_kink_only_path_is_exact_and_steps_nothing(monkeypatch):
    # speeds are evaluated once per call; no RK4 step or root find
    def forbidden(*args):
        raise AssertionError("the kink-only path takes no time step")

    for name in ("_rk4", "_locate_contact"):
        monkeypatch.setattr(particles, name, forbidden)
    calls = []
    vel = particles._nonlinear_vel
    monkeypatch.setattr(particles, "_nonlinear_vel", lambda *args: calls.append(1) or vel(*args))
    ps = system([-1.0, -0.2, 0.4, 1.3], [0.25, 0.25, 0.25, 0.25], pot=make_builtin_potential("abs_scaled", sigma=3.0))
    for k, t in enumerate((0.5, 1.0, 8.0), start=1):
        ps = advance_to(ps, t)
        assert len(calls) == k
    assert ps.atoms.n_atoms == 1


@pytest.mark.parametrize("n", [64, 256, 1024])
@pytest.mark.parametrize("preset", [2, 3])
def test_kink_only_matches_isotonic_projection(preset, n):
    # presets 2 and 3 are kink-only: the state is the PAVA fit of x0 + t v0
    cfg = example_preset(preset)
    ps0 = _particle_system(cfg, n)
    v0 = velocities(ps0)
    ps = ps0
    for t in (0.5 * cfg.t_end, cfg.t_end):
        ps = advance_to(ps, t)
        x, m = isotonic_projection(ps0.atoms.positions + t * v0, ps0.atoms.masses)
        assert ps.atoms.n_atoms == x.size
        assert wasserstein1(ps.atoms, DiscreteMeasure(x, m)) <= 1e-14


@pytest.mark.parametrize("symmetry", ["time", "space"])
@pytest.mark.parametrize("preset", [2, 3])
def test_kink_only_path_is_exactly_covariant_under_power_of_two_rescaling(preset, symmetry):
    # the exact event oracle with its labels at lam*x, sampled at tau*t: the
    # same atoms at every sample time, bit for bit, with no floor
    cfg = example_preset(preset)
    law, scaled, lam, tau = rescaling(cfg, symmetry)
    atoms = _particle_system(cfg, 256).atoms
    want = [ps.atoms for ps in trajectory(ParticleSystem(atoms, 0.0, cfg.make_potential(), law), cfg.schedule())]
    moved = ParticleSystem(DiscreteMeasure(lam * atoms.positions, atoms.masses), 0.0, scaled, law)
    got = [ps.atoms for ps in trajectory(moved, [tau * t for t in cfg.schedule()])]
    assert len(got) == len(want) == len(cfg.schedule())
    for g, w in zip(got, want):
        assert (g.positions / lam).tobytes() == w.positions.tobytes()
        assert g.masses.tobytes() == w.masses.tobytes()


def test_single_particle_never_moves():
    ps = advance_to(system([0.7], [1.0]), 123.0)
    assert ps.atoms.positions[0] == 0.7
    assert ps.time == 123.0


def test_three_body_collapse():
    # outer speeds are 3/8 inward, middle stays: triple contact at t = 8/3
    log = []
    ps0 = system([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25])
    ps = advance_to(ps0, 4.0, log)
    assert ps.atoms.n_atoms == 1
    assert abs(ps.atoms.positions[0]) <= 1e-14
    assert ps.atoms.masses[0] == 1.0
    merges = [ev for ev in log if ev.kind == "merge"]
    assert merges[0].time == pytest.approx(8.0 / 3.0, abs=1e-14)


def test_exp_two_body_merge_time_analytic():
    # W = (e^{-|x|}-1)/2, identity law, masses 1/2: the gap d obeys
    # d' = -e^{-d}/2, so e^d falls at rate 1/2 and contact is at 2(e^{d0} - 1)
    for d0 in (0.5, 2.0):
        log = []
        t_contact = 2.0 * math.expm1(d0)
        ps = advance_to(system([-0.5 * d0, 0.5 * d0], [0.5, 0.5], pot=EXP_POINTY), t_contact + 0.1, log)
        merges = [ev for ev in log if ev.kind == "merge"]
        assert len(merges) == 1 and ps.atoms.n_atoms == 1
        assert merges[0].time == pytest.approx(t_contact, abs=1e-11)
        assert abs(ps.atoms.positions[0]) <= 1e-11


def test_two_contacts_inside_one_rk4_step():
    # two exp_pointy pairs 800 apart, masses 1/4, identity law: the pairs do not
    # interact (e^-800 underflows), and each gap obeys d' = -e^{-d}/4, so it
    # closes at 4(e^{d0} - 1); both contacts fall inside the step from t = 1
    times = (1.003, 1.007)
    d = [math.log1p(t / 4.0) for t in times]
    x = [-400.0 - 0.5 * d[0], -400.0 + 0.5 * d[0], 400.0 - 0.5 * d[1], 400.0 + 0.5 * d[1]]
    assert times[1] - times[0] < particles.MAX_STEP
    log = []
    ps = advance_to(system(x, [0.25] * 4, pot=EXP_POINTY), 1.1, log)
    merges = [ev for ev in log if ev.kind == "merge"]
    assert [ev.snapshot.n_atoms for ev in merges] == [3, 2] and ps.atoms.n_atoms == 2
    for ev, t in zip(merges, times):
        assert ev.time == pytest.approx(t, abs=1e-11)


def test_contact_search_iteration_cap_aborts(monkeypatch, tmp_path):
    # a tolerance no search can meet; at 0 an exact zero gap in floating point would still stop it
    monkeypatch.setattr(particles, "BISECT_TOL", -1.0)
    atoms = [[-0.25, 0.5], [0.25, 0.5]]
    with pytest.raises(RuntimeError, match="did not converge"):
        advance_to(system(*zip(*atoms), pot=EXP_POINTY), 5.0)
    doc = {"label": "cap", "potential": {"name": "exp_pointy"}, "velocity_law": {"name": "identity"}}
    doc.update(t_end=5.0, initial={"kind": "atoms", "atoms": atoms}, output_dir=str(tmp_path / "out"))
    (tmp_path / "cap.json").write_text(json.dumps(doc))
    assert cli_main(["particles", "--config", str(tmp_path / "cap.json")]) == 3
    assert not (tmp_path / "out").exists()


def test_three_body_against_fixed_step_rk4():
    # independent fixed-step integration of the same ODE up to first contact
    pot = EXP_POINTY
    x = np.array([-0.8, 0.1, 0.9])
    m = np.array([0.3, 0.4, 0.3])

    def vel(y):
        diff = y[:, None] - y[None, :]
        wp = np.asarray(closed_form(pot).wprime(diff))
        np.fill_diagonal(wp, 0.0)
        return wp @ m

    t, h = 0.0, 1e-4
    y = x.copy()
    while np.min(np.diff(y)) > 1e-6:
        k1 = vel(y)
        k2 = vel(y + 0.5 * h * k1)
        k3 = vel(y + 0.5 * h * k2)
        k4 = vel(y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    ps = advance_to(system(x, m, pot=pot), t, [])
    if ps.atoms.n_atoms == 3:
        np.testing.assert_allclose(ps.atoms.positions, y, atol=1e-6)
    else:
        # the event-driven run already merged: states agree as measures
        # (the oracle endpoint may have touching atoms, hence the raw measure)
        assert wasserstein1(ps.atoms, DiscreteMeasure(y, m)) <= 1e-5


def test_mass_and_center_conservation():
    rng = np.random.default_rng(47)
    for _ in range(5):
        n = 24
        x = np.sort(rng.normal(size=n) * 1.5)
        m = rng.random(n) + 0.05
        m /= m.sum()
        ps0 = system(x, m)
        com0 = float(np.sum(ps0.atoms.positions * ps0.atoms.masses))
        ps = ps0
        for t in (0.3, 0.9, 2.0, 6.0):
            ps = advance_to(ps, t)
            assert abs(ps.atoms.total_mass - ps0.atoms.total_mass) <= 1e-14
            assert abs(float(np.sum(ps.atoms.positions * ps.atoms.masses)) - com0) <= 1e-10


def test_contraction_at_lambda_zero():
    # two evolutions under W = -|x|/2 never spread apart in W1
    rng = np.random.default_rng(53)
    n = 20
    x1 = np.sort(rng.uniform(-1.5, 1.5, size=n))
    x2 = np.sort(x1 + rng.normal(scale=0.05, size=n))
    m = np.full(n, 1.0 / n)
    a, b = system(x1, m), system(x2, m)
    last = wasserstein1(a.atoms, b.atoms)
    for t in np.linspace(0.2, 5.0, 25):
        a, b = advance_to(a, t), advance_to(b, t)
        cur = wasserstein1(a.atoms, b.atoms)
        assert cur <= last + 1e-9
        last = cur


def test_contraction_growth_bound_lambda_positive():
    # exp_pointy has lam = 1/2: W1 may grow at most like e^{2 lam t}
    rng = np.random.default_rng(59)
    n = 16
    x1 = np.sort(rng.uniform(-1.0, 1.0, size=n))
    x2 = np.sort(x1 + rng.normal(scale=0.03, size=n))
    m = np.full(n, 1.0 / n)
    a = system(x1, m, pot=EXP_POINTY)
    b = system(x2, m, pot=EXP_POINTY)
    d0 = wasserstein1(a.atoms, b.atoms)
    lam = closed_form(EXP_POINTY).lam
    for t in (0.25, 0.5, 1.0, 2.0):
        at, bt = advance_to(a, t), advance_to(b, t)
        d = wasserstein1(at.atoms, bt.atoms)
        assert d <= math.exp(2.0 * lam * t) * d0 * (1.0 + 1e-6)


def test_velocity_osl_diagnostic():
    # v_j - v_i <= alpha (x_j - x_i) for j right of i, alpha = lam * M * sup a'
    # (1 for the identity law, k * scale for atan): a is nondecreasing with
    # a' <= sup a', and each particle speed lies between a(u(x+)) and a(u(x-)),
    # so v_j - v_i <= a(u(x_j-)) - a(u(x_i+)), while u = W' * rho rises between
    # x_i and x_j at most at rate lam * M (its jumps at atoms are falls)
    rng = np.random.default_rng(61)
    for law, slope in ((IDENTITY, 1.0), (ATAN, 50.0 * 2.0 / math.pi)):
        for pot in (ABS_HALF, EXP_POINTY):
            lam = closed_form(pot).lam
            for _ in range(40):
                n = rng.integers(2, 30)
                x = np.sort(rng.normal(size=n) * 2.0)
                if np.any(np.diff(x) <= 1e-9):
                    continue
                m = rng.random(n) + 0.02
                v = velocities(system(x, m, pot=pot, law=law))
                i, j = np.triu_indices(n, k=1)
                slack = v[j] - v[i] - lam * m.sum() * slope * (x[j] - x[i])  # j > i here
                assert np.max(slack) <= 1e-9


@pytest.mark.parametrize("preset, law", [(1, "atan"), (1, "identity"), (2, "atan"), (2, "identity"), (3, "identity")])
def test_interaction_energy_never_decreases(preset, law):
    # E = 1/2 sum m_i m_j W(x_i - x_j) is a Lyapunov functional: dE/dt = sum m_i v_i u_i, with
    # u_i the midpoint of the jump of u = W' * rho at x_i and v_i of its sign for an odd,
    # nondecreasing a, and E is continuous at merges.  With W(0) = 0 it reaches 0 exactly
    # once one atom is left.  Measured on 256 labels at 301 times: no decrease, the smallest
    # rise before one atom is left is 1.6e-4*|E|, and one direct sum rounds by at most
    # 2.4e-16*|E(0)|; the slack allows about twice that for a difference of two sums.
    # Under its own law each preset also runs three seeded draws of 64 atoms, uniform
    # on [-1.5, 1.5] with Dirichlet masses: measured, no decrease, and each ends in one atom
    cfg = example_preset(preset)
    own_law = law == cfg.law_name
    if not own_law:
        cfg = replace(cfg, law_name=law, law_k=None, law_scale=None)
    pot, times = cfg.make_potential(), np.linspace(0.0, cfg.t_end, 301)
    rng = np.random.default_rng(32)
    draws = [DiscreteMeasure(np.sort(rng.uniform(-1.5, 1.5, 64)), rng.dirichlet(np.ones(64))) for _ in range(3 * own_law)]
    systems = [_particle_system(cfg, 256)] + [ParticleSystem(m, time=0.0, pot=pot, law=cfg.make_law()) for m in draws]
    for system0 in systems:
        states = list(trajectory(system0, times))
        energy = np.array([interaction_energy(ps.atoms.positions, ps.atoms.masses, pot) for ps in states])
        assert np.min(np.diff(energy)) >= -5e-16 * abs(energy[0])
        single = [e for ps, e in zip(states, energy) if ps.atoms.n_atoms == 1]
        assert all(e == 0.0 for e in single)
        assert bool(single) == own_law  # under its own law each run ends in one atom


def test_trajectory_log_monotone_times_and_mass():
    log = []
    ps = system([-1.0, -0.2, 0.4, 1.3], [0.25, 0.25, 0.25, 0.25])
    for t in (1.0, 2.0, 8.0):
        ps = advance_to(ps, t, log)
        log.append(particles.TrajectoryEvent(t, "sample", ps.atoms))
    times = [ev.time for ev in log]
    assert all(b >= a for a, b in zip(times, times[1:]))
    assert all(abs(ev.snapshot.total_mass - 1.0) <= 1e-12 for ev in log)
    assert ps.atoms.n_atoms == 1  # everything aggregates eventually


@pytest.mark.parametrize("preset, n", [(1, 256), (2, 4096)], ids=["rk4", "exact"])
def test_state_at_t_does_not_depend_on_other_sample_times(preset, n):
    # the run over the preset's schedule and the run to each of its times alone
    cfg = example_preset(preset)
    ps0 = _particle_system(cfg, n)
    for ps in trajectory(ps0, cfg.schedule()):
        alone, got = advance_to(ps0, ps.time).atoms, ps.atoms
        assert np.array_equal(alone.positions, got.positions) and np.array_equal(alone.masses, got.masses), f"t = {ps.time}"


def test_rk4_takes_one_side_step_per_sample_time(monkeypatch):
    # steps of MAX_STEP count from the last contact and never land on a sample time:
    # a sample time with particles still moving costs one side step, and no step is taken twice
    cfg = example_preset(1)
    ps0 = _particle_system(cfg, 64)
    lengths = []
    rk4 = particles._rk4
    monkeypatch.setattr(particles, "_rk4", lambda x, m, h, vel, k1: lengths.append(h) or rk4(x, m, h, vel, k1))
    final = advance_to(ps0, cfg.t_end)
    alone = len(lengths)
    lengths.clear()
    states = list(trajectory(ps0, cfg.schedule()))
    assert final.atoms.n_atoms == 1 and np.array_equal(states[-1].atoms.positions, final.atoms.positions)
    assert len(lengths) == alone + sum(1 for ps in states if ps.atoms.n_atoms > 1 and ps.time > 0.0)
    assert max(lengths) == particles.MAX_STEP


def test_trajectory_rejects_times_out_of_order():
    ps = system([-1.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        list(trajectory(ps, [1.0, 0.5]))
    with pytest.raises(ValueError):
        advance_to(replace(ps, time=2.0), 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_sample_time_fails_before_any_step(monkeypatch, bad):
    ps = system([-0.5, 0.5], [0.5, 0.5], pot=EXP_POINTY)

    def no_step(*args):
        raise AssertionError("integrated towards a non-finite time")

    monkeypatch.setattr(particles, "_rk4_next", no_step)
    with pytest.raises(ValueError, match="sample times must be finite"):
        advance_to(ps, bad)
    with pytest.raises(ValueError, match="sample times must be finite"):
        list(trajectory(ps, [0.5, bad]))


def test_trajectory_checks_its_times_before_iteration():
    ps = system([-0.5, 0.5], [0.5, 0.5], pot=EXP_POINTY)
    with pytest.raises(ValueError, match="sample times must be finite"):
        trajectory(ps, [math.nan])


def test_rk4_step_whose_stages_overflow_is_halved():
    # speeds near 1e6 close a gap of 0.012 within 1e-8: a full step's stages pass the
    # contact by about 1e4, where the exponential sums overflow, so the step is halved
    fast = make_velocity_law("atan", k=0.636, scale=4.4e6)
    ps = system([-4.4333, -4.4209], [0.5, 0.5], pot=EXP_POINTY, law=fast)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = advance_to(ps, 0.02)
    assert out.atoms.n_atoms == 1 and out.atoms.positions[0] == pytest.approx(-4.4271, abs=1e-3)
