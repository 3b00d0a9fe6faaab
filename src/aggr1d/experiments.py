"""Experiment drivers behind the CLI subcommands.

Each driver takes a validated :class:`SimConfig`, runs the relevant
engines, writes CSV artifacts plus a JSON run manifest into the run
directory, and returns an in-memory result object.  CSV contents are a
pure function of the config (runtimes live only in the manifest), so
repeated runs of the same config produce bit-identical CSV files.
"""

from __future__ import annotations

import hashlib
import json
import time as _time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import fv, particles
from .config import ConfigError, SimConfig
from .initial import sample_particles
from .measure import DiscreteMeasure, wasserstein1, write_atoms_csv, write_csv
from .potentials import velocity_sup_bound

__all__ = [
    "RunArtifacts",
    "CompareResult",
    "ConvergenceRow",
    "ConvergenceReport",
    "cmd_simulate",
    "cmd_particles",
    "cmd_compare",
    "cmd_converge",
]


@dataclass
class RunArtifacts:
    out_dir: Path
    files: list[Path] = field(default_factory=list)
    manifest: dict = field(default_factory=dict)


@dataclass
class CompareResult:
    times: list[float]
    w1: list[float]
    artifacts: RunArtifacts


@dataclass
class ConvergenceRow:
    dx: float
    n_cells: int
    w1_error: float
    runtime_s: float


@dataclass
class ConvergenceReport:
    rows: list[ConvergenceRow]
    ratios: list[float]
    artifacts: RunArtifacts | None = None


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(cfg: SimConfig, command: str, out_dir: Path, files: list[Path], summary: dict) -> RunArtifacts:
    manifest = {
        "command": command,
        "label": cfg.label,
        "config": cfg.to_dict(),
        "outputs": [{"path": p.name, "sha256": _sha256(p)} for p in sorted(files)],
        "summary": summary,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return RunArtifacts(out_dir=out_dir, files=sorted(files) + [path], manifest=manifest)


def _run_dir(cfg: SimConfig) -> Path:
    """The run directory, created or cleared of the files its previous manifest lists.

    Call it after the computation, so an aborted run leaves the previous one as it was.
    """
    d = Path(cfg.output_dir) / cfg.label
    d.mkdir(parents=True, exist_ok=True)
    old = d / "manifest.json"
    if old.is_file():
        try:
            listed = [entry["path"] for entry in json.loads(old.read_text())["outputs"]]
        except ValueError:  # a manifest cut short by a killed run lists nothing
            listed = []
        for name in listed:
            if Path(name).name == name and (d / name).is_file():  # a bare file name
                (d / name).unlink()
        old.unlink()
    return d


def _run_fv(cfg: SimConfig, n_cells: int, times):
    """Run the scheme from the config's initial data on ``n_cells`` cells, sampling at ``times``."""
    initial = cfg.initial.atoms if cfg.initial.is_atomic else cfg.initial.density
    state0 = fv.project_initial(initial, cfg.make_grid(n_cells))
    return fv.run(state0, cfg.make_potential(), cfg.make_law(), cfg.t_end, cfg.gamma, times)


def _write_snapshot_csv(path: Path, m: DiscreteMeasure, grid: fv.Grid) -> Path:
    """Cell-centered snapshot: ``x,rho`` rows over the full grid."""
    rho = np.zeros(grid.n_cells)
    if m.n_atoms:
        idx = np.rint((m.positions - grid.x_min) / grid.dx).astype(int)
        rho[idx] = m.masses / grid.dx
    return write_csv(path, "x,rho", np.column_stack([grid.centers, rho]))


def cmd_simulate(cfg: SimConfig) -> RunArtifacts:
    """Run the finite-volume scheme; write snapshots, diagnostics and manifest."""
    cfg.validate()
    a_inf = velocity_sup_bound(cfg.make_potential(), cfg.make_law())
    t0 = _time.perf_counter()
    snapshots, diag = _run_fv(cfg, cfg.n_cells, cfg.schedule())
    runtime = _time.perf_counter() - t0
    out = _run_dir(cfg)
    grid = cfg.make_grid()
    files = [_write_snapshot_csv(out / f"snapshot_{k:03d}_t{t:.6f}.csv", m, grid) for k, (t, m) in enumerate(snapshots)]
    diag_path = out / "diagnostics.csv"
    diag.write_csv(diag_path)
    files.append(diag_path)
    summary = {
        "runtime_s": runtime,
        "steps": diag.step_index[-1],
        "final_mass": diag.mass[-1],
        "final_support_cells": diag.support_cells[-1],
        "max_abs_velocity": max(diag.max_abs_a),
        "a_inf": a_inf,
    }
    return _write_manifest(cfg, "simulate", out, files, summary)


def _particle_system(cfg: SimConfig, n: int) -> particles.ParticleSystem:
    x, m = sample_particles(cfg.initial, n, cfg.domain)
    return particles.ParticleSystem(x=x, m=m, time=0.0, pot=cfg.make_potential(), law=cfg.make_law())


def cmd_particles(cfg: SimConfig) -> RunArtifacts:
    """Sticky-particle run on atomic initial data, with trajectory logging."""
    cfg.validate()
    if not cfg.initial.is_atomic:
        raise ConfigError("the particles command requires atomic initial data")
    ps = _particle_system(cfg, n=cfg.initial.atoms.n_atoms)
    log = particles.TrajectoryLog()
    t0 = _time.perf_counter()
    for t in cfg.schedule():
        ps = particles.advance_to(ps, t, log)
        log.record(t, "sample", particles.snapshot(ps))
    runtime = _time.perf_counter() - t0
    out = _run_dir(cfg)
    rows = ([ev.time, ev.kind, *ev.snapshot.positions, *ev.snapshot.masses] for ev in log.events)
    traj_path = write_csv(out / "trajectory.csv", "time,event,positions_then_masses", rows)
    final_path = write_atoms_csv(particles.snapshot(ps), out / "final_atoms.csv")
    merges = [ev for ev in log.events if ev.kind == "merge"]
    summary = {
        "runtime_s": runtime,
        "n_initial": cfg.initial.atoms.n_atoms,
        "n_final": ps.n,
        "n_merge_events": len(merges),
        "final_mass": ps.total_mass,
    }
    return _write_manifest(cfg, "particles", out, [traj_path, final_path], summary)


def cmd_compare(cfg: SimConfig) -> CompareResult:
    """Scheme vs particle oracle: W1 between snapshots at shared sample times."""
    cfg.validate()
    t0 = _time.perf_counter()
    fv_snaps, _ = _run_fv(cfg, cfg.n_cells, cfg.schedule())
    ps = _particle_system(cfg, n=cfg.compare_particles)
    series = []
    for t, fv_m in fv_snaps:
        ps = particles.advance_to(ps, t)
        series.append((t, wasserstein1(fv_m, particles.snapshot(ps))))
    runtime = _time.perf_counter() - t0
    out = _run_dir(cfg)
    path = write_csv(out / "w1_compare.csv", "time,w1", series)
    summary = {
        "runtime_s": runtime,
        "oracle_particles": ps.n,
        "w1_initial": series[0][1],
        "w1_final": series[-1][1],
    }
    artifacts = _write_manifest(cfg, "compare", out, [path], summary)
    return CompareResult(times=[t for t, _ in series], w1=[w for _, w in series], artifacts=artifacts)


def cmd_converge(cfg: SimConfig) -> ConvergenceReport:
    """Grid-refinement study against a particle oracle at t_end.

    Levels must be at least three, increasing, each dividing the next;
    rows come out coarse to fine.
    """
    cfg.validate()
    levels = list(cfg.levels)
    if len(levels) < 3:
        raise ConfigError("converge needs at least three refinement levels")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError("refinement levels must be strictly increasing")
    if any(b % a for a, b in zip(levels, levels[1:])):
        raise ConfigError("each refinement level must divide the next")

    oracle = _particle_system(cfg, n=cfg.converge_particles)
    oracle = particles.advance_to(oracle, cfg.t_end)
    oracle_final = particles.snapshot(oracle)

    rows = []
    for n_cells in levels:
        t0 = _time.perf_counter()
        snaps, _ = _run_fv(cfg, n_cells, [cfg.t_end])
        err = wasserstein1(snaps[-1][1], oracle_final)
        dx = cfg.make_grid(n_cells).dx
        rows.append(ConvergenceRow(dx=dx, n_cells=n_cells, w1_error=err, runtime_s=_time.perf_counter() - t0))
    ratios = [b.w1_error / a.w1_error for a, b in zip(rows, rows[1:])]
    table = [(r.dx, r.n_cells, r.w1_error, ratio) for r, ratio in zip(rows, ["", *ratios])]
    out = _run_dir(cfg)
    path = write_csv(out / "convergence.csv", "dx,n_cells,w1_error,ratio", table)
    summary = {
        "oracle_particles": cfg.converge_particles,
        "runtimes_s": {str(r.n_cells): r.runtime_s for r in rows},
        "w1_errors": {str(r.n_cells): r.w1_error for r in rows},
        "ratios": ratios,
    }
    artifacts = _write_manifest(cfg, "converge", out, [path], summary)
    return ConvergenceReport(rows=rows, ratios=ratios, artifacts=artifacts)
