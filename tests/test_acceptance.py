"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Desk scale: at most 4000 cells and 512 particles per study.
"""

import math
from dataclasses import replace

import numpy as np

from aggr1d import fv, particles
from aggr1d.config import example_preset
from aggr1d.experiments import cmd_converge
from aggr1d.fv import build_nu_kernel, compute_nu, nonlinear_velocity, project_initial, run, solve_s_gradient
from aggr1d.initial import builtin_initial, sample_particles
from aggr1d.measure import DiscreteMeasure, quantile, wasserstein1
from aggr1d.potentials import make_builtin_potential, make_velocity_law, velocity_sup_bound
from conservation import conservation_residual, state_from_snapshot
from direct_sums import cell_speeds


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _preset_run(number: int, t_end: float):
    cfg = replace(example_preset(number), t_end=t_end)
    grid = cfg.make_grid()
    pot = cfg.make_potential()
    law = cfg.make_law()
    state0 = project_initial(cfg.initial.density, grid)
    samples = [t for t in cfg.sample_times if t <= t_end]
    snaps, diag = run(state0, pot, law, t_end, cfg.gamma, samples)
    return cfg, grid, pot, law, snaps, diag


_CACHE = {}


def preset_run(number: int, t_end: float):
    key = (number, t_end)
    if key not in _CACHE:
        _CACHE[key] = _preset_run(number, t_end)
    return _CACHE[key]


def _scheme_invariant_violations(pot, law, diag) -> list[str]:
    bad = []
    a_inf = velocity_sup_bound(pot, law)
    mass = np.asarray(diag.mass)
    if float(np.max(np.abs(mass - mass[0]))) > 1e-12:
        bad.append(f"mass drift {np.max(np.abs(mass - mass[0])):.3g}")
    if min(diag.min_rho) < 0.0:
        bad.append("negative density")
    if max(diag.max_abs_a) > a_inf + 1e-12:
        bad.append(f"velocity {max(diag.max_abs_a):.6g} above a_inf {a_inf:.6g}")
    m1 = np.asarray(diag.moment1)
    t = np.asarray(diag.time)
    if float(np.max(m1 - (m1[0] + a_inf * t))) > 1e-10:
        bad.append("first moment above the linear-growth bound")
    lo, hi = diag.support_lo, diag.support_hi
    if any(b < a - 1 for a, b in zip(lo, lo[1:])) or any(b > a + 1 for a, b in zip(hi, hi[1:])):
        bad.append("support grew by more than one cell per side in a step")
    return bad


def test_criterion_1_scheme_invariants():
    # presets 1 and 3 to t = 2 and preset 2 to its t_end, 1000 cells, gamma = 0.9
    bad = []
    for number, t_end in ((1, 2.0), (2, example_preset(2).t_end), (3, 2.0)):
        _, _, pot, law, _, diag = preset_run(number, t_end)
        bad += [f"example {number}: {b}" for b in _scheme_invariant_violations(pot, law, diag)]
    # positivity and constant mass make the cumulative mass's total variation equal the mass: TVD
    _report(1, not bad, "; ".join(bad) or "mass/positivity/velocity/moment/support hold on presets 1, 2 and 3")


def test_criterion_2_two_particle_oracle():
    pot = make_builtin_potential("abs_half")
    ps0 = particles.ParticleSystem(
        x=np.array([-1.0, 1.0]), m=np.array([0.5, 0.5]), time=0.0, pot=pot, law=make_velocity_law("identity")
    )
    log = particles.TrajectoryLog()
    ps = particles.advance_to(ps0, 5.0, log)
    merges = [ev for ev in log.events if ev.kind == "merge"]
    t_err = abs(merges[0].time - 4.0) if merges else math.inf
    x_err = abs(float(ps.x[0]))
    v_post = float(particles.velocities(ps)[0])
    ok = len(merges) == 1 and t_err <= 1e-14 and x_err <= 1e-14 and v_post == 0.0
    _report(2, ok, f"merge time error {t_err:.2e}, point error {x_err:.2e}, post-merge speed {v_post}")


def test_criterion_3_velocity_equivalence():
    # a = id: the engine's divided differences equal the direct pairwise sums
    rng = np.random.default_rng(2024)
    ident = make_velocity_law("identity")
    grid = fv.Grid.from_domain(-3.0, 3.0, 200)
    worst = 0.0
    for pot in (make_builtin_potential("abs_half"), make_builtin_potential("exp_pointy")):
        kern = build_nu_kernel(pot, grid)
        for _ in range(50):
            rho = rng.random(200) * (rng.random(200) < 0.7)
            if rho.sum() == 0.0:
                rho[100] = 1.0
            rho /= rho.sum() * grid.dx
            st = fv.FVState(grid=grid, rho=rho)
            a_lin = cell_speeds(st, pot)
            a_non = nonlinear_velocity(st, pot, ident, kernel=kern)
            worst = max(worst, float(np.max(np.abs(a_lin - a_non))))
    _report(3, worst <= 1e-12, f"per-cell direct-sum/engine mismatch at most {worst:.3e} over 100 states")


def test_criterion_4_contraction():
    # two 4096-particle systems from perturbed two-bump projections, W = -|x|/2
    rng = np.random.default_rng(99)
    pot = make_builtin_potential("abs_half")
    ident = make_velocity_law("identity")
    x, m = sample_particles(builtin_initial("init1"), 4096, (-2.5, 2.5))
    systems = []
    for _ in range(2):
        pert = np.sort(x + rng.normal(scale=0.02, size=x.size))
        while np.any(np.diff(pert) <= 1e-9):
            pert = np.sort(x + rng.normal(scale=0.02, size=x.size))
        systems.append(particles.ParticleSystem(x=pert, m=m.copy(), time=0.0, pot=pot, law=ident))
    a, b = systems
    last = wasserstein1(particles.snapshot(a), particles.snapshot(b))
    worst_rise = 0.0
    for t in np.linspace(0.1, 5.0, 50):
        a = particles.advance_to(a, float(t))
        b = particles.advance_to(b, float(t))
        cur = wasserstein1(particles.snapshot(a), particles.snapshot(b))
        worst_rise = max(worst_rise, cur - last)
        last = cur
    _report(4, worst_rise <= 1e-13, f"largest W1 increase between samples {worst_rise:.3e}")


def test_criterion_5_convergence(tmp_path):
    cfg = replace(
        example_preset(3),
        label="acceptance-converge",
        potential_name="abs_half",
        potential_sigma=None,
        initial=builtin_initial("init1"),
        t_end=1.0,
        levels=(100, 200, 400),
        converge_particles=512,
        output_dir=str(tmp_path),
        sample_times=(),
    ).validate()
    rep = cmd_converge(cfg)
    errs = [r.w1_error for r in rep.rows]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    ratio_ok = all(r <= 0.75 for r in rep.ratios)
    _report(
        5,
        decreasing and ratio_ok,
        "W1 errors " + ", ".join(f"{e:.5f}" for e in errs) + "; ratios " + ", ".join(f"{r:.3f}" for r in rep.ratios),
    )


def _cluster_masses(m: DiscreteMeasure, gap: float = 0.1):
    left = float(np.sum(m.masses[m.positions < -gap]))
    right = float(np.sum(m.masses[m.positions > gap]))
    return left, right


def _peak_and_near_mass(m: DiscreteMeasure, grid, n_side=5):
    rho = np.zeros(grid.n_cells)
    idx = np.rint((m.positions - grid.x_min) / grid.dx).astype(int)
    rho[idx] = m.masses
    pk = int(np.argmax(rho))
    near = float(np.sum(rho[max(0, pk - n_side) : pk + n_side + 1]))
    return float(grid.centers[pk]), near


def test_criterion_6_peaks_merge_and_freeze():
    cfg, grid, _, _, snaps, _ = preset_run(1, 3.0)
    two_clusters = False
    for t, m in snaps:
        if 0.0 < t < 3.0:
            left, right = _cluster_masses(m)
            if left >= 0.45 and right >= 0.45:
                two_clusters = True
    peak_final, near_final = _peak_and_near_mass(snaps[-1][1], grid)
    tail = [(t, _peak_and_near_mass(m, grid)[0]) for t, m in snaps if t >= 0.8 * 3.0]
    drift = max(abs(p - peak_final) for _, p in tail)
    ok = two_clusters and near_final >= 0.99 and drift < 2.0 * grid.dx
    _report(
        6,
        ok,
        f"two-cluster phase {two_clusters}, final mass within 5 cells {near_final:.4f}, "
        f"late peak drift {drift:.4g} vs 2dx = {2 * grid.dx:.4g}",
    )


def test_criterion_7_central_blowup():
    cfg, grid, _, _, snaps, _ = preset_run(2, example_preset(2).t_end)
    peak, near = _peak_and_near_mass(snaps[-1][1], grid)
    ok = abs(peak) <= 3.0 * grid.dx
    _report(7, ok, f"final concentration point {peak:+.4f}, window 3dx = {3 * grid.dx:.4f} (mass nearby {near:.4f})")


def test_criterion_8_entropy_diagnostic():
    # every sample snapshot's interface gradients satisfy the conservation
    # relation (s_{i+1/2} - s_{i-1/2})/dx - nu_i = -c rho_i, in both directions
    worst = 0.0
    for number, t_end in ((1, 2.0), (1, 3.0), (2, example_preset(2).t_end), (3, 2.0)):
        _, grid, pot, _, snaps, _ = preset_run(number, t_end)
        kern = build_nu_kernel(pot, grid)
        for _, m in snaps:
            worst = max(worst, conservation_residual(state_from_snapshot(m, grid), pot, kern))
    # negative control: a hand-corrupted gradient field must be flagged
    pot = make_builtin_potential("exp_pointy")
    grid = fv.Grid.from_domain(-2.5, 2.5, 100)
    st = project_initial(builtin_initial("init1").density, grid)
    kern = build_nu_kernel(pot, grid)
    bad = solve_s_gradient(st, pot, compute_nu(st, kern), kern)
    bad[5] += 1e-6  # steepen u in the empty left tail, where no mass warrants it
    corrupted = conservation_residual(st, pot, kern, bad)
    ok = worst <= 1e-12 and corrupted > 1e-12
    _report(8, ok, f"max residual over preset snapshots {worst:.3e}; corrupted fixture reads {corrupted:.3e}")


def test_criterion_9_w1_oracle_equivalence():
    rng = np.random.default_rng(4096)
    z = (np.arange(1_000_000) + 0.5) / 1_000_000
    worst = 0.0
    for _ in range(100):
        ms = []
        for _ in range(2):
            n = rng.integers(1, 9)
            w = rng.random(n) + 0.05
            ms.append(DiscreteMeasure(rng.normal(size=n) * 3.0, w / w.sum()))
        exact = wasserstein1(ms[0], ms[1])
        riemann = float(np.mean(np.abs(quantile(ms[0], z) - quantile(ms[1], z))))
        worst = max(worst, abs(exact - riemann))
    _report(9, worst <= 1e-4, f"merge-based vs 1e6-point Riemann evaluation: largest gap {worst:.3e}")
