import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import aggr1d
from aggr1d import fv
from aggr1d.fv import (
    GAUSS5_NODES,
    GAUSS5_WEIGHTS,
    FVState,
    Grid,
    SchemeError,
    build_nu_kernel,
    cfl_dt,
    compute_nu,
    project_initial,
    run,
    solve_s_gradient,
    step,
    velocity_from_gradients,
)
from aggr1d.initial import GaussianBump, InitialData, builtin_initial, sample_particles
from aggr1d.measure import DiscreteMeasure, from_cells
from aggr1d.potentials import (
    VelocityLaw,
    block_exp_sums,
    left_exp_sums,
    make_builtin_potential,
    make_velocity_law,
    velocity_sup_bound,
)
from conservation import conservation_residual, state_from_snapshot
from direct_sums import cell_speeds, nu_sum
from mean_speed_reference import atan_a
from rescaling import rescaling
from step_reference import DIAGNOSTIC_COLUMNS, reference_run
from step_reference import gradients as reference_gradients
from step_reference import nu as reference_nu

ABS_HALF = make_builtin_potential("abs_half")
EXP_POINTY = make_builtin_potential("exp_pointy")
IDENTITY = make_velocity_law("identity")
ATAN = make_velocity_law("atan", k=50.0, scale=2.0 / math.pi)


def random_state(rng, grid, sparsity=0.7):
    rho = rng.random(grid.n_cells) * (rng.random(grid.n_cells) < sparsity)
    if rho.sum() == 0.0:
        rho[grid.n_cells // 2] = 1.0
    rho /= rho.sum() * grid.dx
    return FVState(grid=grid, rho=rho)


def speeds(state, pot, law, kernel):
    """Per-cell speeds as ``fv.run`` computes them: the law's mean over the interface gradients."""
    return velocity_from_gradients(law, solve_s_gradient(state, pot, kernel))


# ---------------------------------------------------------------- grid/projection


def test_grid_geometry():
    g = Grid.from_domain(-2.5, 2.5, 1000)
    assert g.dx == pytest.approx(0.005)
    assert g.left_edge == pytest.approx(-2.5)
    assert g.centers[0] == pytest.approx(-2.4975)
    for dx in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            Grid(x_min=0.0, dx=dx, n_cells=10)
    with pytest.raises(ValueError):
        Grid(x_min=0.0, dx=1.0, n_cells=1)
    with pytest.raises(ValueError, match="positive and finite"):
        Grid.from_domain(-1e308, 1e308, 10)  # the width overflows


def test_project_single_atom():
    g = Grid(x_min=-1.0, dx=1.0, n_cells=3)
    st = project_initial(DiscreteMeasure([0.0], [1.0]), g)
    np.testing.assert_allclose(st.rho, [0.0, 1.0, 0.0], atol=0)


def test_project_boundary_atom_goes_right():
    g = Grid(x_min=0.0, dx=1.0, n_cells=3)
    st = project_initial(DiscreteMeasure([0.5], [1.0]), g)  # on the 0|1 interface
    np.testing.assert_allclose(st.rho, [0.0, 1.0, 0.0], atol=0)


def test_project_uniform_density():
    g = Grid.from_domain(-1.0, 1.0, 4)
    st = project_initial(lambda x: np.full_like(np.asarray(x, float), 0.5), g)
    np.testing.assert_allclose(st.rho, 0.5, atol=1e-15)
    assert st.mass == pytest.approx(1.0, abs=1e-14)


def test_project_init1_normalized():
    g = Grid.from_domain(-2.5, 2.5, 1000)
    st = project_initial(builtin_initial("init1").density, g)
    assert abs(st.mass - 1.0) <= 1e-12
    assert np.all(st.rho >= 0)


def test_gauss5_rule_is_leggauss_bit_for_bit():
    nodes, weights = np.polynomial.legendre.leggauss(5)
    np.testing.assert_array_equal(GAUSS5_NODES, nodes)
    np.testing.assert_array_equal(GAUSS5_WEIGHTS, weights)


def _fresh_interpreter(code):
    """Run ``code`` in a fresh interpreter on this package and return its last stdout line."""
    src = str(Path(aggr1d.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_projection_does_not_import_numpy_polynomial():
    code = (
        "import sys\n"
        "from aggr1d.fv import Grid, project_initial\n"
        "from aggr1d.initial import builtin_initial\n"
        "project_initial(builtin_initial('init1').density, Grid.from_domain(-2.5, 2.5, 100))\n"
        "print('numpy.polynomial' in sys.modules)\n"
    )
    assert _fresh_interpreter(code) == "False"


def test_compare_does_not_import_numpy_fft(tmp_path):
    # both engines sum w as exponentials; no run needs a Fourier transform,
    # and exact W1 merges its breakpoints without np.unique, which imports numpy.ma
    args = ["compare", "--example", "1", "--cells", "200", "--particles", "32", "--t-end", "0.2", "--out", str(tmp_path)]
    converge = ["converge", "--example", "3", "--levels", "50,100,200", "--particles", "32", "--out", str(tmp_path)]
    code = (
        "import sys\n"
        "from aggr1d.cli import main\n"
        f"assert main({args!r}) == 0\n"
        "after_compare = ['numpy.fft' in sys.modules, 'numpy.ma' in sys.modules]\n"
        f"assert main({converge!r}) == 0\n"
        "print(after_compare, 'numpy.ma' in sys.modules)\n"
    )
    assert _fresh_interpreter(code) == "[False, False] False"


def test_project_atom_outside_grid():
    g = Grid(x_min=0.0, dx=1.0, n_cells=3)
    with pytest.raises(ValueError):
        project_initial(DiscreteMeasure([7.0], [1.0]), g)


def test_project_atoms_at_the_domain_ends_land_in_the_end_cells():
    # lo and the largest float below hi belong to the domain [lo, hi); rounding
    # lo, hi and n into the grid can put either off the grid by a few ulps (the top
    # atom of [-2.5, 2.5) at every size here, lo = 0.01 at 100 cells), and the
    # projection puts each in its end cell
    eps = np.finfo(float).eps
    for lo, hi in ((-2.5, 2.5), (0.01, 7.98)):
        for n in (100, 200, 400, 1000, 2000, 4000):
            grid = Grid.from_domain(lo, hi, n)
            rho = project_initial(DiscreteMeasure([lo, math.nextafter(hi, lo)], [0.5, 0.5]), grid).rho
            assert rho[0] == rho[-1] == 0.5 / grid.dx
    # over random domains, where 1 in 10 puts the top atom at index n
    rng = np.random.default_rng(33)
    for _ in range(2000):
        lo = rng.uniform(-1e3, 1e3) * 10.0 ** rng.uniform(-3, 3)
        hi = lo + 10.0 ** rng.uniform(-6, 6)
        grid = Grid.from_domain(lo, hi, int(rng.integers(10, 5000)))
        rho = project_initial(DiscreteMeasure([lo, math.nextafter(hi, lo)], [0.5, 0.5]), grid).rho
        assert rho[0] > 0.0 and rho[-1] > 0.0
        # twice the stated slack outside either edge is more than rounding explains
        slack = 8.0 * eps * (grid.n_cells + abs(grid.left_edge) / grid.dx) * grid.dx
        right = grid.left_edge + grid.n_cells * grid.dx
        for x in (grid.left_edge - slack, right + slack):
            with pytest.raises(ValueError, match="outside the grid"):
                project_initial(DiscreteMeasure([x], [1.0]), grid)


def test_project_atoms_need_unit_mass():
    # the same probability rule as the config gate and sample_particles
    g = Grid(x_min=0.0, dx=1.0, n_cells=3)
    atoms = DiscreteMeasure([0.0, 1.0], [0.5, 0.5 + 5e-7])
    with pytest.raises(ValueError, match="unit mass"):
        project_initial(atoms, g)
    with pytest.raises(ValueError, match="unit mass"):
        sample_particles(InitialData(atoms=atoms), 2, (-0.5, 2.5))
    with pytest.raises(ValueError, match="unit mass"):
        project_initial(DiscreteMeasure([], []), g)


# ---------------------------------------------------------------- identity law (linear speeds)


def test_linear_velocity_two_pulses():
    g = Grid(x_min=0.0, dx=1.0, n_cells=4)
    st = FVState(grid=g, rho=np.array([0.5, 0.0, 0.0, 0.5]))
    a = speeds(st, ABS_HALF, IDENTITY, build_nu_kernel(ABS_HALF, g))
    np.testing.assert_allclose(a, [0.25, 0.0, 0.0, -0.25], atol=0)


def test_linear_velocity_single_cell_diagonal_excluded():
    g = Grid(x_min=0.0, dx=1.0, n_cells=3)
    st = FVState(grid=g, rho=np.array([0.0, 1.0, 0.0]))
    a = speeds(st, ABS_HALF, IDENTITY, build_nu_kernel(ABS_HALF, g))
    assert a[1] == 0.0


def test_linear_velocity_antisymmetric_for_even_data():
    rng = np.random.default_rng(67)
    g = Grid.from_domain(-2.0, 2.0, 120)
    for pot in (ABS_HALF, EXP_POINTY):
        kern = build_nu_kernel(pot, g)
        for _ in range(10):
            half = rng.random(60)
            rho = np.concatenate([half[::-1], half])
            rho /= rho.sum() * g.dx
            st = FVState(grid=g, rho=rho)
            a = speeds(st, pot, IDENTITY, kern)
            assert np.max(np.abs(a + a[::-1])) <= 1e-12


# ---------------------------------------------------------------- nu kernel


def test_nu_kernel_zero_w():
    g = Grid.from_domain(-2.0, 2.0, 50)
    k = build_nu_kernel(ABS_HALF, g)
    np.testing.assert_array_equal(k.values, [0.0])


def test_nu_kernel_mass_consistency():
    # sum g dx telescopes to the integral of w over the kernel span
    g = Grid.from_domain(-15.0, 15.0, 300)
    k = build_nu_kernel(EXP_POINTY, g)
    assert float(np.sum(k.values) * g.dx) == pytest.approx(1.0, abs=g.dx)


def test_nu_kernel_pair_relation_exact():
    # (g_j + g_{j+1})/2 * dx equals the analytic integral of e^{-|x|}/2 per cell
    g = Grid.from_domain(-3.0, 3.0, 240)
    k = build_nu_kernel(EXP_POINTY, g)
    offs = np.arange(-k.half_width, k.half_width + 1) * g.dx

    def exact_cell(a, b):
        # int_a^b e^{-|y|}/2 dy, split at 0
        def prim(t):  # int_0^t
            return 0.5 * (1 - math.exp(-t)) if t >= 0 else -0.5 * (1 - math.exp(t))

        return prim(b) - prim(a)

    ints = np.array([exact_cell(a, b) for a, b in zip(offs[:-1], offs[1:])])
    rel = 0.5 * (k.values[:-1] + k.values[1:]) * g.dx - ints
    assert np.max(np.abs(rel)) <= 1e-12


def test_nu_kernel_tail_beyond_truncated_support():
    # the kernel spans every offset of the grid, so each left-anchor weight is
    # the w-mass left of the first center minus half a cell of the kernel:
    # (amp/rate - beta*dx/2) * e^{-rate*j*dx}, down to e^{-80} on [-40, 40]
    g = Grid.from_domain(-40.0, 40.0, 1500)
    k = build_nu_kernel(EXP_POINTY, g)
    assert k.half_width == g.n_cells - 1
    h = 0.5 * EXP_POINTY.rate * g.dx
    beta = EXP_POINTY.amp * math.tanh(h) / h
    j = np.arange(g.n_cells)
    expect = (EXP_POINTY.amp / EXP_POINTY.rate - 0.5 * beta * g.dx) * np.exp(-EXP_POINTY.rate * j * g.dx)
    np.testing.assert_allclose(k.tail, expect, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n_cells", [10, 100, 1000])
def test_nu_kernel_is_geometric(n_cells):
    # g_{j+1}/g_j = e^{-rate*dx} at every offset: no alternating mode
    g = Grid.from_domain(-2.5, 2.5, n_cells)
    k = build_nu_kernel(EXP_POINTY, g)
    right = k.values[k.half_width :]
    np.testing.assert_allclose(right[1:] / right[:-1], math.exp(-g.dx), rtol=1e-13, atol=0.0)
    np.testing.assert_array_equal(k.values, k.values[::-1])


def test_nu_matches_direct_convolution_quadrature():
    # nu_i should approximate (w * rho)(x_i); compare against a midpoint
    # quadrature of the exact convolution for a smooth state
    g = Grid.from_domain(-6.0, 6.0, 240)
    x = g.centers
    rho = np.exp(-4.0 * x**2)
    rho /= rho.sum() * g.dx
    st = FVState(grid=g, rho=rho)
    k = build_nu_kernel(EXP_POINTY, g)
    nu = compute_nu(st, k)
    w = EXP_POINTY.w_eval
    direct = np.array([float(np.sum(np.asarray(w(xi - x)) * rho) * g.dx) for xi in x])
    assert np.max(np.abs(nu - direct)) <= 5e-3  # O(dx^2) quadrature agreement


@pytest.mark.parametrize(
    "n_cells, domain, half_width",
    [
        (2000, (-2.5, 2.5), 1999),
        (1001, (-2.5, 2.5), 1000),
        (10, (-2.5, 2.5), 9),
        (1500, (-40.0, 40.0), 1499),  # weights down to e^{-80}
    ],
)
def test_compute_nu_matches_direct_sum(n_cells, domain, half_width):
    g = Grid.from_domain(*domain, n_cells)
    k = build_nu_kernel(EXP_POINTY, g)
    assert k.half_width == half_width
    rng = np.random.default_rng(n_cells)
    for rho in (rng.random(n_cells), rng.random(n_cells) * (rng.random(n_cells) < 0.1)):
        rho[n_cells // 2] += 1.0
        rho /= rho.sum() * g.dx
        st = FVState(grid=g, rho=rho)
        assert np.max(np.abs(compute_nu(st, k) - nu_sum(rho, k, g.dx))) <= 1e-15


def test_compute_nu_rejects_a_point_kernel():
    # a kink-only potential has no nu to compute: solve_s_gradient never asks for it
    g = Grid.from_domain(-2.0, 2.0, 40)
    st = FVState(grid=g, rho=np.random.default_rng(5).random(40))
    k = build_nu_kernel(ABS_HALF, g)
    assert k.half_width == 0
    with pytest.raises(ValueError, match="point kernel"):
        compute_nu(st, k)


def test_compute_nu_rejects_kernel_of_smaller_grid():
    # a kernel serves the grid it was built for, not a 10x larger one
    k = build_nu_kernel(EXP_POINTY, Grid.from_domain(-1.0, 1.0, 20))
    st = FVState(grid=Grid.from_domain(-10.0, 10.0, 200), rho=np.full(200, 0.05))
    with pytest.raises(ValueError):
        compute_nu(st, k)


@pytest.mark.parametrize("domain, n_cells, n_blocks", [((-2.5, 2.5), 2000, 1), ((-700.0, 700.0), 1400, 3)])
def test_compute_nu_cached_blocks_equal_left_exp_sums(domain, n_cells, n_blocks):
    # the kernel stores the exponentials of the grid's offsets once; summing
    # on them repeats left_exp_sums' float operations, within a block and
    # across the carries between blocks, so the sums agree under ==
    g = Grid.from_domain(*domain, n_cells)
    k = build_nu_kernel(EXP_POINTY, g)
    assert len(k.blocks) == n_blocks
    x = g.dx * np.arange(n_cells)
    rho = np.random.default_rng(n_cells).random(n_cells)
    m = rho * g.dx
    for masses in (m, m[::-1]):
        assert np.array_equal(block_exp_sums(k.blocks, masses), left_exp_sums(x, masses, EXP_POINTY.rate))
    assert np.array_equal(compute_nu(FVState(grid=g, rho=rho), k), reference_nu(rho, g.dx, EXP_POINTY, k))


def test_kink_only_speeds_skip_the_zero_nu_pass(monkeypatch):
    # the point kernel's nu is all zeros, so kink-only speeds never compute it;
    # the gradients are those of the explicit zero nu, also in the sign of zero cells
    g = Grid.from_domain(-2.5, 2.5, 200)
    st = project_initial(DiscreteMeasure([-1.0, 1.0], [0.5, 0.5]), g)
    k = build_nu_kernel(ABS_HALF, g)
    zero_nu = reference_nu(st.rho, g.dx, ABS_HALF, k)
    expected = reference_gradients(st.rho, g.dx, ABS_HALF, zero_nu, k)
    monkeypatch.setattr(fv, "compute_nu", lambda *args: pytest.fail("compute_nu called for the point kernel"))
    s = solve_s_gradient(st, ABS_HALF, k)
    assert 0.0 in s  # between the atoms
    assert np.array_equal(s, expected) and np.array_equal(np.signbit(s), np.signbit(expected))


# ---------------------------------------------------------------- s gradient


def test_s_gradient_two_pulses():
    g = Grid(x_min=0.0, dx=1.0, n_cells=4)
    st = FVState(grid=g, rho=np.array([0.5, 0.0, 0.0, 0.5]))
    k = build_nu_kernel(ABS_HALF, g)
    s = solve_s_gradient(st, ABS_HALF, k)
    np.testing.assert_allclose(s, [0.5, 0.0, 0.0, 0.0, -0.5], atol=0)


def test_s_gradient_within_lip_times_mass():
    # each interface gradient sums, per source cell, its mass times a value of
    # W', so |s| <= lip*M up to the rounding of the n-term cumulative sum;
    # velocity_sup_bound relies on it.  Kink-only potentials have lip = c/2
    # and s = c*(M/2 - F) with F the cumulative mass.  Random states, and
    # single-cell Diracs in the first, second, middle and last cells, where
    # |s| comes closest to the bound; the last grid is the wide CI domain
    rng = np.random.default_rng(53)
    for domain, n in (((-2.5, 2.5), 10), ((-2.5, 2.5), 200), ((-2.5, 2.5), 4000), ((-700.0, 700.0), 1400)):
        g = Grid.from_domain(*domain, n)
        diracs = []
        for i in (0, 1, n // 2, n - 1):
            rho = np.zeros(n)
            rho[i] = 1.0 / g.dx
            diracs.append(rho)
        for pot in (ABS_HALF, make_builtin_potential("abs_scaled", sigma=1.0 / 250.0), EXP_POINTY):
            kern = build_nu_kernel(pot, g)
            states = [rng.random(n) * (rng.random(n) < 0.7) * rng.uniform(0.1, 10.0) for _ in range(50)]
            for rho in states + diracs:
                st = FVState(grid=g, rho=rho)
                s = solve_s_gradient(st, pot, kern)
                assert np.max(np.abs(s)) <= pot.lip * st.mass * (1.0 + n * np.finfo(float).eps)


def test_s_gradient_zero_state_constant():
    g = Grid.from_domain(-1.0, 1.0, 10)
    st = FVState(grid=g, rho=np.zeros(10))
    k = build_nu_kernel(ABS_HALF, g)
    s = solve_s_gradient(st, ABS_HALF, k)
    assert np.ptp(s) == 0.0


def test_linear_nonlinear_equivalence_random_states():
    # identity law: the divided difference is the interface midpoint, which
    # telescopes to the direct pairwise sum exactly
    # on the [-40, 40] grid the kernel weights fall to e^{-80}
    rng = np.random.default_rng(71)
    for g in (Grid.from_domain(-3.0, 3.0, 200), Grid.from_domain(-40.0, 40.0, 1500)):
        for pot in (ABS_HALF, EXP_POINTY):
            kern = build_nu_kernel(pot, g)
            worst = 0.0
            for _ in range(25):
                st = random_state(rng, g)
                a_lin = cell_speeds(st, pot)
                a_non = speeds(st, pot, IDENTITY, kern)
                worst = max(worst, float(np.max(np.abs(a_lin - a_non))))
            assert worst <= 1e-12


def test_divided_difference_midpoint_for_identity():
    s = np.array([0.1, 0.3])
    a = velocity_from_gradients(IDENTITY, s)
    assert a[0] == pytest.approx(0.2, abs=1e-16)


def test_divided_difference_equal_branch():
    s = np.array([0.25, 0.25])
    a = velocity_from_gradients(ATAN, s)
    assert a[0] == float(atan_a(0.25, 50.0, 2.0 / math.pi))


def test_nonlinear_velocity_antisymmetric_two_cells():
    g = Grid.from_domain(-1.0, 1.0, 2)
    st = FVState(grid=g, rho=np.array([0.5, 0.5]))
    a = speeds(st, ABS_HALF, ATAN, build_nu_kernel(ABS_HALF, g))
    assert a[0] == pytest.approx(-a[1], abs=1e-12)
    assert a[0] > 0  # mutual attraction


# ---------------------------------------------------------------- cfl / step


def test_cfl_dt_values():
    assert cfl_dt(0.5, 0.01, 1.0) == pytest.approx(0.02, abs=1e-18)
    assert cfl_dt(0.5, 0.01, 0.5) == pytest.approx(0.01, abs=1e-18)
    a_inf = (2.0 / math.pi) * math.atan(100.0)
    assert cfl_dt(a_inf, 0.005, 0.9) == pytest.approx(0.004528830469234137, abs=1e-15)


def test_cfl_dt_zero_bound():
    with pytest.raises(ValueError):
        cfl_dt(0.0, 0.01, 0.9)
    with pytest.raises(ValueError):
        cfl_dt(1.0, 0.01, 1.5)


def test_step_hand_computed():
    g = Grid(x_min=0.0, dx=1.0, n_cells=4)
    st = FVState(grid=g, rho=np.array([0.5, 0.0, 0.0, 0.5]))
    new = step(st, speeds(st, ABS_HALF, IDENTITY, build_nu_kernel(ABS_HALF, g)), 1.0)
    np.testing.assert_allclose(new.rho, [0.375, 0.125, 0.125, 0.375], atol=0)
    assert new.time == 1.0
    assert new.step_index == 1


def test_state_checks_input_and_step_returns_read_only_state():
    g = Grid(x_min=0.0, dx=1.0, n_cells=3)
    with pytest.raises(ValueError, match="nonnegative"):
        FVState(grid=g, rho=np.array([0.5, -1e-300, 0.5]))
    with pytest.raises(ValueError, match="length"):
        FVState(grid=g, rho=np.ones(4))
    rho = np.array([0.25, 0.5, 0.25])
    st = FVState(grid=g, rho=rho)
    rho[0] = 9.0
    assert st.rho[0] == 0.25 and not st.rho.flags.writeable
    new = step(st, np.array([0.5, 0.0, -0.5]), 1.0)
    np.testing.assert_array_equal(new.rho, [0.125, 0.75, 0.125])
    assert not new.rho.flags.writeable and (new.grid, new.time, new.step_index) == (g, 1.0, 1)
    np.testing.assert_array_equal(st.rho, [0.25, 0.5, 0.25])


def test_step_zero_velocity_is_identity():
    g = Grid.from_domain(0.0, 1.0, 8)
    rng = np.random.default_rng(73)
    st = random_state(rng, g)
    new = step(st, np.zeros(8), 0.05)
    np.testing.assert_array_equal(new.rho, st.rho)


def test_step_isolated_dirac_is_stationary():
    g = Grid.from_domain(-2.0, 2.0, 11)
    rho = np.zeros(11)
    rho[5] = 1.0 / g.dx
    st = FVState(grid=g, rho=rho)
    new = step(st, speeds(st, ABS_HALF, IDENTITY, build_nu_kernel(ABS_HALF, g)), cfl_dt(0.5, g.dx, 0.9))
    np.testing.assert_array_equal(new.rho, st.rho)


def test_run_rejects_cfl_violation_before_stepping(monkeypatch):
    # the cell speeds are twice the identity's while the sup bound, which calls
    # the mean with two floats, is the identity's: the first step breaks CFL
    def mean(lo, hi):
        out = IDENTITY.mean(lo, hi)
        return 2.0 * out if np.ndim(out) else out

    law = VelocityLaw(name="twice-identity", mean=mean)
    st = project_initial(builtin_initial("init1").density, Grid.from_domain(-2.5, 2.5, 100))

    def no_step(*args):
        raise AssertionError("stepped past the CFL bound")

    monkeypatch.setattr(fv, "step", no_step)
    with pytest.raises(SchemeError, match="CFL violation"):
        run(st, ABS_HALF, law, 0.9, [1.0])


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["rightward", "leftward"])
def test_step_within_cfl_slack_sends_no_more_than_the_cell_holds(sign):
    # dt*|a|/dx = 1 + 2 ulp passes the CFL check's slack; the cell must send
    # exactly its content, not 1 + 2 ulp of it, so the mass stays the same
    g = Grid(x_min=0.0, dx=1.0, n_cells=3)
    st = FVState(grid=g, rho=np.array([0.0, 1.0, 0.0]))
    speed = np.nextafter(np.nextafter(1.0, 2.0), 2.0)
    new = step(st, np.array([0.0, sign * speed, 0.0]), g.dx)
    assert new.mass == st.mass
    assert float(np.min(new.rho)) >= 0.0
    np.testing.assert_array_equal(new.rho, [0.0, 0.0, 1.0][:: int(sign)])


def test_step_end_cells_keep_an_outward_share():
    # end speeds pointing out of the grid would send half of each end cell
    # nowhere (rho 0.125, 0.5, 0.125 and mass 0.75); the box is closed, so
    # both end cells keep their content and the interior cell gets nothing
    g = Grid(x_min=0.0, dx=1.0, n_cells=3)
    st = FVState(grid=g, rho=np.array([0.25, 0.5, 0.25]))
    new = step(st, np.array([-0.5, 0.0, 0.5]), 1.0)
    np.testing.assert_array_equal(new.rho, st.rho)
    assert new.mass == 1.0


def test_step_positivity_exact():
    rng = np.random.default_rng(79)
    g = Grid.from_domain(-2.0, 2.0, 64)
    st = random_state(rng, g)
    dt = cfl_dt(0.5, g.dx, 1.0)
    kern = build_nu_kernel(ABS_HALF, g)
    for _ in range(200):
        st = step(st, speeds(st, ABS_HALF, IDENTITY, kern), dt)
        assert float(np.min(st.rho)) >= 0.0


# ---------------------------------------------------------------- conservation relation


def test_conservation_relation_random_state():
    rng = np.random.default_rng(83)
    g = Grid.from_domain(-3.0, 3.0, 80)
    st = random_state(rng, g)
    assert conservation_residual(st, EXP_POINTY, build_nu_kernel(EXP_POINTY, g)) <= 1e-12


def test_conservation_relation_zero_state():
    g = Grid.from_domain(-1.0, 1.0, 10)
    st = FVState(grid=g, rho=np.zeros(10))
    assert conservation_residual(st, EXP_POINTY, build_nu_kernel(EXP_POINTY, g)) == 0.0


def test_conservation_relation_flags_corruption():
    rng = np.random.default_rng(89)
    g = Grid.from_domain(-3.0, 3.0, 80)
    st = random_state(rng, g)
    k = build_nu_kernel(EXP_POINTY, g)
    bad = solve_s_gradient(st, EXP_POINTY, k)
    bad[40] += 1e-6  # hand-corrupted gradient
    assert conservation_residual(st, EXP_POINTY, k, bad) > 1e-12


# ---------------------------------------------------------------- full runs


def test_run_t_end_zero_returns_initial():
    g = Grid.from_domain(-2.5, 2.5, 100)
    st = project_initial(builtin_initial("init1").density, g)
    snaps, diag = run(st, ABS_HALF, IDENTITY, 0.9, [0.0])
    assert len(snaps) == 1
    assert snaps[0][0] == 0.0
    assert abs(snaps[0][1].total_mass - 1.0) <= 1e-12
    assert len(diag.time) == 1


def test_run_hands_each_sampled_density_to_on_sample():
    g = Grid.from_domain(-2.5, 2.5, 100)
    st = project_initial(builtin_initial("init1").density, g)
    seen = []
    snaps, _ = run(st, ABS_HALF, IDENTITY, 0.9, (0.0, 0.3, 0.6, 1.0), on_sample=seen.append)
    assert [t for t, _ in snaps] == [0.0, 0.3, 0.6, 1.0]
    assert len(seen) == 4 and seen[0] is st.rho
    for (_, m), rho in zip(snaps, seen):
        again = from_cells(g.x_min, g.dx, rho)
        assert np.array_equal(again.positions, m.positions) and np.array_equal(again.masses, m.masses)


def test_run_mass_trace_constant():
    g = Grid.from_domain(-2.5, 2.5, 400)
    st = project_initial(builtin_initial("init1").density, g)
    _, diag = run(st, ABS_HALF, IDENTITY, 0.9, [1.5])
    drift = np.abs(np.asarray(diag.mass) - diag.mass[0])
    assert float(np.max(drift)) <= 1e-12


def test_run_long_horizon_mass_on_fine_grid():
    # |mass - 1| stays below 1e-12 through t = 10 on 1000 cells
    g = Grid.from_domain(-7.5, 7.5, 1000)
    st = project_initial(builtin_initial("init1").density, g)
    _, diag = run(st, ABS_HALF, IDENTITY, 0.9, [10.0])
    assert float(np.max(np.abs(np.asarray(diag.mass) - 1.0))) <= 1e-12


def test_run_first_moment_bound():
    g = Grid.from_domain(-2.5, 2.5, 400)
    st = project_initial(builtin_initial("init1").density, g)
    _, diag = run(st, ABS_HALF, IDENTITY, 0.9, [1.5])
    a_inf = velocity_sup_bound(ABS_HALF, IDENTITY)
    m1 = np.asarray(diag.moment1)
    t = np.asarray(diag.time)
    assert np.max(m1 - (m1[0] + a_inf * t)) <= 1e-10


def test_run_velocity_bound_and_positivity():
    g = Grid.from_domain(-2.5, 2.5, 300)
    st = project_initial(builtin_initial("init1").density, g)
    snaps, diag = run(st, EXP_POINTY, ATAN, 0.9, [0.5, 1.0])
    a_inf = velocity_sup_bound(EXP_POINTY, ATAN)
    assert max(diag.max_abs_a) <= a_inf + 1e-12
    assert min(diag.min_rho) >= 0.0
    k = build_nu_kernel(EXP_POINTY, g)
    assert max(conservation_residual(state_from_snapshot(m, g), EXP_POINTY, k) for _, m in snaps) <= 1e-12
    assert [t for t, _ in snaps] == [0.5, 1.0]


def test_run_support_growth_per_step():
    g = Grid.from_domain(-3.0, 3.0, 300)
    st = project_initial(builtin_initial("init2").density, g)
    _, diag = run(st, ABS_HALF, IDENTITY, 0.9, [1.0])
    lo = diag.support_lo
    hi = diag.support_hi
    assert all(b >= a - 1 for a, b in zip(lo, lo[1:]))
    assert all(b <= a + 1 for a, b in zip(hi, hi[1:]))


def test_run_keeps_stationary_dirac_next_to_edge():
    # a lone Dirac two cells from the edge does not move, so no mass leaves
    g = Grid.from_domain(0.0, 1.0, 20)
    rho = np.zeros(20)
    rho[-2] = 1.0 / g.dx
    st = FVState(grid=g, rho=rho)
    snaps, diag = run(st, ABS_HALF, IDENTITY, 0.9, [1.0])
    assert max(abs(m - 1.0) for m in diag.mass) <= 1e-12
    np.testing.assert_array_equal(state_from_snapshot(snaps[-1][1], g).rho, st.rho)


def test_run_aborts_when_a_step_does_not_advance_time(monkeypatch):
    g = Grid.from_domain(-2.5, 2.5, 100)
    st = project_initial(builtin_initial("init1").density, g)
    monkeypatch.setattr(fv, "step", lambda state, a, dt: state)
    with pytest.raises(SchemeError, match="did not advance"):
        run(st, ABS_HALF, IDENTITY, 0.9, [1.0])


@pytest.mark.parametrize("equation", ["linear", "nonlinear"])
def test_run_symmetry_preservation_thousand_steps(equation):
    # even data, odd W' and odd a: the profile stays even.  The linear
    # equation is the identity law (midpoint branch); the nonlinear one uses
    # a mild atan law (divided-difference branch).  The stiff atan(50.) law
    # amplifies rounding-seeded asymmetry through a' ~ 32 during blow-up,
    # which no floating-point evaluation order avoids.
    law = IDENTITY if equation == "linear" else make_velocity_law("atan", k=1.0, scale=1.0)
    g = Grid.from_domain(-2.5, 2.5, 200)
    for pot in (ABS_HALF, EXP_POINTY):
        st = project_initial(builtin_initial("init1").density, g)
        dt = cfl_dt(velocity_sup_bound(pot, law), g.dx, 0.9)
        kern = build_nu_kernel(pot, g)
        asym = 0.0
        for _ in range(1000):
            st = step(st, speeds(st, pot, law, kern), dt)
            asym = max(asym, float(np.max(np.abs(st.rho - st.rho[::-1]))) * g.dx)
        assert asym <= 1e-12


def test_run_preset3_keeps_lip_step_count():
    # the identity law steps under a_inf = lip: 445 steps for preset 3 at
    # 1000 cells, and the engine still agrees with the direct sum on the
    # final, concentrated state
    from aggr1d.config import example_preset

    cfg = example_preset(3)
    pot = cfg.make_potential()
    st = project_initial(cfg.initial.density, cfg.make_grid())
    snaps, diag = run(st, pot, cfg.make_law(), cfg.gamma, cfg.schedule())
    assert diag.step_index[-1] == 445
    assert max(diag.max_abs_a) <= pot.lip + 1e-15
    end = state_from_snapshot(snaps[-1][1], st.grid)
    a_end = speeds(end, pot, IDENTITY, build_nu_kernel(pot, st.grid))
    assert np.max(np.abs(a_end - cell_speeds(end, pot))) <= 1e-12


def test_run_preset2_steps_at_kink_only_bound():
    # kink-only gradients stay in [-c/2, c/2], so preset 2 steps under
    # a_inf = a(1/250) = 0.1257: 419 steps at 1000 cells
    from aggr1d.config import example_preset

    cfg = example_preset(2)
    st = project_initial(cfg.initial.density, cfg.make_grid())
    _, diag = run(st, cfg.make_potential(), cfg.make_law(), cfg.gamma, cfg.schedule())
    assert diag.step_index[-1] == 419


def test_run_preset1_steps_at_lip_bound():
    # exp_pointy's gradients stay in [-lip, lip] = [-1/2, 1/2], so preset 1
    # steps under a_inf = a(1/2) = 0.97455: 650 steps at 1000 cells, and no
    # speed exceeds that bound
    from aggr1d.config import example_preset

    cfg = example_preset(1)
    pot, law = cfg.make_potential(), cfg.make_law()
    st = project_initial(cfg.initial.density, cfg.make_grid())
    _, diag = run(st, pot, law, cfg.gamma, cfg.schedule())
    assert diag.step_index[-1] == 650
    assert max(diag.max_abs_a) <= velocity_sup_bound(pot, law) + 1e-12


# CI's wide-exp config: the exponential sums span several blocks
WIDE_EXP = {
    "label": "wide-exp",
    "potential": {"name": "exp_pointy"},
    "velocity_law": {"name": "atan", "k": 50.0, "scale": 0.6366197723675814},
    "domain": [-700.0, 700.0],
    "n_cells": 1400,
    "t_end": 2.0,
    "initial": {"kind": "bumps", "bumps": [{"amplitude": 1.0, "center": c, "width": 5.0} for c in (-400.0, 0.0, 400.0)]},
}


@pytest.mark.parametrize(
    "case, n_cells", [(1, 1000), (1, 4000), (2, 1000), (2, 4000), (3, 1000), (3, 4000), ("wide-exp", 1400)], ids=str
)
def test_run_speeds_keep_the_one_sided_lipschitz_bound(monkeypatch, case, n_cells):
    # the duality-solution condition on the grid: over every recorded state,
    # max_i (a_{i+1} - a_i)/dx <= lam*M*sup a', with lam = amp = sup w, M = 1 and
    # sup a' = 1 for the identity law, k*scale for atan.  Measured: preset 1
    # reads 15.6849 (1000 cells) and 15.8591 (4000) against 15.9155, wide-exp
    # 0.0297, and the other kink-only runs exactly 0 against 0, so there is no slack.
    # Preset 2 at 4000 cells rounds: its speeds rise by one ulp of a_inf per cell
    # width, 2.220446049250313e-14, in at most 3 cells of 1,067 of its 1,691 rows,
    # so it alone is gated at that ulp
    from aggr1d.config import SimConfig, example_preset

    cfg = SimConfig.from_dict(WIDE_EXP) if case == "wide-exp" else example_preset(case)
    grid = cfg.make_grid(n_cells)
    sup_slope = 1.0 if cfg.law_name == "identity" else cfg.law_k * cfg.law_scale
    bound = cfg.make_potential().amp * sup_slope  # M = 1
    if (case, n_cells) == (2, 4000):
        bound = np.spacing(velocity_sup_bound(cfg.make_potential(), cfg.make_law())) / grid.dx
    rises = []
    record = fv.DiagnosticsReport.record

    def spy_record(self, state, a):
        rises.append(float(np.max(np.diff(a))) / grid.dx)
        record(self, state, a)

    monkeypatch.setattr(fv.DiagnosticsReport, "record", spy_record)
    _, diag = run(project_initial(cfg.initial.density, grid), cfg.make_potential(), cfg.make_law(), cfg.gamma, cfg.schedule())
    assert len(rises) == len(diag.time)
    assert max(rises) <= bound


@pytest.mark.parametrize("preset, n_cells", [(2, 200), (2, 1000), (3, 200), (3, 1000)])
def test_kink_only_w1_between_two_runs_on_one_grid_never_grows(preset, n_cells):
    # with w = 0 the scheme is a monotone upwind scheme for the cumulative masses
    # F_i, so the l1 distance between two runs' F, which on one grid is the W1
    # dx * sum |F_i - G_i| between their cell-centre measures, does not grow over
    # a committed step.  The second run's bumps are shifted and widened; both
    # take the common CFL step.  Measured over 400 steps: it rises by at most
    # 3.2e-16 over a step, and falls by 41-47% towards the 0.05 that the
    # shifted centre of mass keeps.  A cell speed read at one interface
    # gradient, not averaged over both, makes it rise by 4e-4 to 8e-3
    from aggr1d.config import example_preset

    cfg = example_preset(preset)
    pot, law, grid = cfg.make_potential(), cfg.make_law(), cfg.make_grid(n_cells)
    moved = InitialData(bumps=tuple(GaussianBump(b.amplitude, b.center + 0.05, 1.5 * b.width) for b in cfg.initial.bumps))
    states = [cfg.initial_state(n_cells), project_initial(moved.density, grid)]
    kernel = build_nu_kernel(pot, grid)
    dt = cfl_dt(velocity_sup_bound(pot, law), grid.dx, cfg.gamma)

    def w1(a, b):
        return grid.dx * float(np.abs(np.cumsum(a.rho * grid.dx) - np.cumsum(b.rho * grid.dx)).sum())

    dist = [w1(*states)]
    for _ in range(400):
        states = [step(st, speeds(st, pot, law, kernel), dt) for st in states]
        dist.append(w1(*states))
    assert max(np.diff(dist)) <= 1e-13
    assert dist[-1] < 0.75 * dist[0]


# a density at or below this in either run may have gone through a subnormal intermediate such as rho*dx
RESCALING_FLOOR = 1e-300


def _rescaled_densities(cfg, pot, law, lam=1.0, tau=1.0):
    """The sampled densities of the config's run with x -> lam*x and t -> tau*t: (densities, steps)."""
    lo, hi = cfg.domain
    bumps = tuple(GaussianBump(b.amplitude, lam * b.center, lam * b.width) for b in cfg.initial.bumps)
    st = project_initial(InitialData(bumps=bumps).density, Grid.from_domain(lam * lo, lam * hi, cfg.n_cells))
    rhos = []
    _, diag = run(st, pot, law, cfg.gamma, [tau * t for t in cfg.schedule()], on_sample=lambda rho: rhos.append(rho.copy()))
    return rhos, diag.step_index[-1]


@pytest.mark.parametrize("symmetry", ["time", "space"])
@pytest.mark.parametrize("case", [1, 2, 3, "wide-exp"], ids=str)
def test_run_is_exactly_covariant_under_power_of_two_rescaling(record_property, case, symmetry):
    # every cell above the floor in both runs has the same bits at every sample
    # time, with no slack, and both runs take the same steps.  Cells that differ
    # below the floor are counted and reported: measured 0 under the time symmetry,
    # and 2, 38, 54 and 4 (presets 1-3, wide-exp) over all samples under the space one
    from aggr1d.config import SimConfig, example_preset

    cfg = SimConfig.from_dict(WIDE_EXP) if case == "wide-exp" else example_preset(case)
    law, scaled, lam, tau = rescaling(cfg, symmetry)
    want, steps = _rescaled_densities(cfg, cfg.make_potential(), law)
    got, scaled_steps = _rescaled_densities(cfg, scaled, law, lam, tau)
    assert scaled_steps == steps
    assert len(got) == len(want) == len(cfg.schedule())
    differ = 0
    for rho, ref in zip(got, want):
        rho = lam * rho  # rho_lam = rho/lam
        above = (rho > RESCALING_FLOOR) & (ref > RESCALING_FLOOR)
        assert np.array_equal(rho[above], ref[above])
        differ += int(np.count_nonzero(rho[~above] != ref[~above]))
    record_property("cells_below_floor_that_differ", differ)


def _preset_case(number, n_cells, t_end=None):
    from aggr1d.config import example_preset

    cfg = example_preset(number)
    cfg = replace(cfg, t_end=cfg.t_end if t_end is None else t_end)
    st = project_initial(cfg.initial.density, cfg.make_grid(n_cells))
    return st, cfg.make_potential(), cfg.make_law(), cfg.gamma, cfg.schedule()


def _two_atom_case():
    # at gamma = 1 each atom's trailing cell keeps the fraction m_i of its
    # mass per step, so it underflows to an exact zero and the support shrinks
    g = Grid.from_domain(-2.0, 2.0, 40)
    st = project_initial(DiscreteMeasure([-1.0, 1.0], [0.5, 0.5]), g)
    return st, ABS_HALF, IDENTITY, 1.0, (1.0, 2.0, 3.0)


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(lambda: _preset_case(1, 200, t_end=1.0), id="preset1-200"),
        pytest.param(lambda: _preset_case(2, 200), id="preset2-200"),
        pytest.param(lambda: _preset_case(3, 100), id="preset3-100"),
        pytest.param(_two_atom_case, id="two-atoms"),
    ],
)
def test_run_matches_reference_loop_bit_for_bit(case):
    # every snapshot and every diagnostics column equals the plain-numpy
    # reference loop under ==, with no tolerance
    st, pot, law, gamma, times = case()
    snaps, diag = run(st, pot, law, gamma, times)
    ref_snaps, ref_columns = reference_run(st, pot, law, gamma, times)
    assert [t for t, _ in snaps] == [t for t, _ in ref_snaps]
    for (_, m), (_, ref) in zip(snaps, ref_snaps):
        assert np.array_equal(m.positions, ref.positions)
        assert np.array_equal(m.masses, ref.masses)
    for name in DIAGNOSTIC_COLUMNS:
        assert getattr(diag, name) == ref_columns[name], name
    if case is _two_atom_case:  # the case exists to move both support edges
        assert len(set(diag.support_lo)) > 1 and len(set(diag.support_hi)) > 1


@pytest.mark.parametrize("preset", [1, 2, 3])
def test_state_at_t_does_not_depend_on_other_sample_times(preset):
    # the run over the preset's schedule and the run to each of its times alone, at 200 cells
    from aggr1d.config import example_preset

    cfg = example_preset(preset)
    st = project_initial(cfg.initial.density, cfg.make_grid(200))
    pot, law = cfg.make_potential(), cfg.make_law()
    sampled = []
    run(st, pot, law, cfg.gamma, cfg.schedule(), on_sample=sampled.append)
    assert len(sampled) == len(cfg.schedule())
    for t, rho in zip(cfg.schedule(), sampled):
        alone = []
        run(st, pot, law, cfg.gamma, [t], on_sample=alone.append)
        assert np.array_equal(alone[0], rho), f"t = {t}"


@pytest.mark.parametrize(
    "times", [[math.nan], [math.inf], [0.5, 0.25], [-0.1]], ids=["nan", "inf", "decreasing", "before-start"]
)
def test_run_rejects_bad_sample_times_before_stepping(monkeypatch, times):
    st = project_initial(builtin_initial("init1").density, Grid.from_domain(-2.5, 2.5, 100))

    def no_step(*args):
        raise AssertionError("stepped towards a bad sample time")

    monkeypatch.setattr(fv, "step", no_step)
    with pytest.raises(ValueError, match="sample times must be finite"):
        run(st, ABS_HALF, IDENTITY, 0.9, times)


def test_run_aborts_on_non_finite_speed_before_stepping(monkeypatch):
    def mean(lo, hi):
        out = IDENTITY.mean(lo, hi)
        if np.ndim(out):  # the cell speeds; the CFL bound calls with two floats
            out[out.size // 2] = math.nan
        return out

    law = VelocityLaw(name="nan-in-one-cell", mean=mean)
    st = project_initial(builtin_initial("init1").density, Grid.from_domain(-2.5, 2.5, 100))

    def no_step(*args):
        raise AssertionError("stepped with a non-finite speed")

    monkeypatch.setattr(fv, "step", no_step)
    with pytest.raises(SchemeError, match="non-finite mean speed"):
        run(st, ABS_HALF, law, 0.9, [1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("law", [IDENTITY, ATAN], ids=["identity", "atan"])
def test_run_aborts_on_non_finite_gradient_before_stepping(monkeypatch, law, bad):
    # one non-finite interface gradient reaches the law's mean; the CFL bound
    # calls the mean with two floats and keeps its finite value
    def mean(lo, hi):
        if np.ndim(lo):
            lo = lo.copy()
            lo[lo.size // 2] = bad
        return law.mean(lo, hi)

    st = project_initial(builtin_initial("init1").density, Grid.from_domain(-2.5, 2.5, 100))

    def no_step(*args):
        raise AssertionError("stepped with a non-finite speed")

    monkeypatch.setattr(fv, "step", no_step)
    with np.errstate(invalid="ignore"), pytest.raises(SchemeError, match="non-finite mean speed"):
        run(st, ABS_HALF, VelocityLaw(name="one-bad-gradient", mean=mean), 0.9, [1.0])


def test_diagnostics_csv_format(tmp_path):
    g = Grid.from_domain(-2.5, 2.5, 100)
    st = project_initial(builtin_initial("init1").density, g)
    _, diag = run(st, ABS_HALF, IDENTITY, 0.9, [0.3])
    path = tmp_path / "diag.csv"
    diag.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,time,mass,min_rho,max_abs_a,moment1,support_cells"
    assert len(lines) == len(diag.time) + 1
