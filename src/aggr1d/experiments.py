"""Experiment drivers behind the CLI subcommands.

Each driver takes a validated :class:`SimConfig`, runs the relevant
engines, writes CSV artifacts plus a JSON run manifest into the run
directory, and returns an in-memory result object.  CSV contents are a
pure function of the config (runtimes live only in the manifest), so
repeated runs of the same config produce bit-identical CSV files.
Where ``os.fork`` exists, ``simulate`` and ``compare`` each run one child
(:func:`_start`) during the scheme: ``simulate``'s formats the snapshot CSVs
of the densities it is fed, ``compare``'s reads none of its feed and runs the
particle oracle.  Without ``os.fork`` each runs after the scheme, to the same bytes.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import time as _time
import traceback
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


def _run_fv(cfg: SimConfig, n_cells: int, times, on_sample=None):
    """Run the scheme from the config's initial data on ``n_cells`` cells, sampling at ``times``."""
    initial = cfg.initial.atoms if cfg.initial.is_atomic else cfg.initial.density
    state0 = fv.project_initial(initial, cfg.make_grid(n_cells))
    return fv.run(state0, cfg.make_potential(), cfg.make_law(), cfg.t_end, cfg.gamma, times, on_sample=on_sample)


def _snapshot_files(source, cfg: SimConfig):
    """Snapshot CSVs of the densities read from ``source``, written once it ends: (paths, seconds).

    Each density arrives as n_cells float64 values.  Its ``x,rho`` rows hold
    the masses/dx of its :func:`~aggr1d.measure.from_cells` atoms, and 0 in
    the cells without one, as :func:`~aggr1d.measure.write_csv` formats
    them, with the x column formatted once.  The seconds are those spent
    formatting and writing, not waiting for ``source``.
    """
    t0 = _time.perf_counter()
    grid = cfg.make_grid()
    dx, n = grid.dx, grid.n_cells
    template = "x,rho\n" + ("%.17g,%%.17g\n" * n) % tuple(grid.centers.tolist())
    texts = []
    busy = _time.perf_counter() - t0
    while chunk := source.read(8 * n):
        t0 = _time.perf_counter()
        mass = np.frombuffer(chunk) * dx
        texts.append(template % tuple(np.divide(mass, dx, out=np.zeros(n), where=mass > 0.0).tolist()))
        busy += _time.perf_counter() - t0
    t0 = _time.perf_counter()
    out = Path(cfg.output_dir) / cfg.label
    paths = [out / f"snapshot_{k:03d}_t{t:.6f}.csv" for k, t in enumerate(cfg.schedule())]
    if len(texts) != len(paths):
        raise RuntimeError(f"{len(texts)} of {len(paths)} snapshot densities arrived")
    for path, text in zip(paths, texts):
        path.write_text(text)
    return paths, busy + _time.perf_counter() - t0


def cmd_simulate(cfg: SimConfig) -> RunArtifacts:
    """Run the finite-volume scheme; write snapshots, diagnostics and manifest.

    The scheme feeds each sampled density to :func:`_snapshot_files` in a
    child, which writes the snapshots once the run directory is ready.
    """
    cfg.validate()
    a_inf = velocity_sup_bound(cfg.make_potential(), cfg.make_law())
    send, wait = _start(_snapshot_files, cfg)
    try:
        t0 = _time.perf_counter()
        _, diag = _run_fv(cfg, cfg.n_cells, cfg.schedule(), on_sample=send)
        runtime = _time.perf_counter() - t0
        out = _run_dir(cfg)
        send(None)  # the child writes its files while this process writes the diagnostics
        diag_path = out / "diagnostics.csv"
        diag.write_csv(diag_path)
    except BaseException:
        wait(kill=True)
        raise
    files, format_s = wait()
    summary = {
        "runtime_s": runtime,
        "format_s": format_s,
        "steps": diag.step_index[-1],
        "final_mass": diag.mass[-1],
        "final_support_cells": diag.support_cells[-1],
        "max_abs_velocity": max(diag.max_abs_a),
        "a_inf": a_inf,
    }
    return _write_manifest(cfg, "simulate", out, [*files, diag_path], summary)


def _particle_system(cfg: SimConfig, n: int) -> particles.ParticleSystem:
    x, m = sample_particles(cfg.initial, n, cfg.domain)
    return particles.ParticleSystem(x=x, m=m, time=0.0, pot=cfg.make_potential(), law=cfg.make_law())


def cmd_particles(cfg: SimConfig) -> RunArtifacts:
    """Sticky-particle run on atomic initial data, with trajectory logging."""
    cfg.validate()
    if not cfg.initial.is_atomic:
        raise ConfigError("the particles command requires atomic initial data")
    ps = _particle_system(cfg, n=cfg.initial.atoms.n_atoms)
    log = []
    t0 = _time.perf_counter()
    for t in cfg.schedule():
        ps = particles.advance_to(ps, t, log)
        log.append(particles.TrajectoryEvent(t, "sample", DiscreteMeasure(ps.x, ps.m)))
    runtime = _time.perf_counter() - t0
    out = _run_dir(cfg)
    rows = ([ev.time, ev.kind, *ev.snapshot.positions, *ev.snapshot.masses] for ev in log)
    traj_path = write_csv(out / "trajectory.csv", "time,event,positions_then_masses", rows)
    final_path = write_atoms_csv(DiscreteMeasure(ps.x, ps.m), out / "final_atoms.csv")
    merges = [ev for ev in log if ev.kind == "merge"]
    summary = {
        "runtime_s": runtime,
        "n_initial": cfg.initial.atoms.n_atoms,
        "n_final": ps.n,
        "n_merge_events": len(merges),
        "final_mass": ps.total_mass,
    }
    return _write_manifest(cfg, "particles", out, [traj_path, final_path], summary)


class ChildTraceback(Exception):
    """Traceback text of an exception raised in a forked child, the cause of its re-raise."""


def _start(fn, *args):
    """Run fn(source, *args) in a forked child process; return (send, wait).

    ``source`` reads the bytes of every ``send(data)`` until ``send(None)`` or ``wait()``;
    fn may leave it unread.  ``wait()`` reaps the child and returns fn's result or raises
    its exception; ``wait(kill=True)`` kills and reaps it; once the child is reaped,
    ``wait`` does nothing.  A child that stops reading makes ``send`` raise what ``wait()``
    raises.  Without ``os.fork``, fn runs inside ``wait()`` on the bytes sent.
    """
    if not hasattr(os, "fork"):
        sent = []

        def send_inline(data):
            sent.append(b"" if data is None else bytes(data))

        def wait_inline(kill=False):
            return None if kill else fn(io.BytesIO(b"".join(sent)), *args)

        return send_inline, wait_inline
    r, w = os.pipe()
    source, sink = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns
        try:
            os.close(sink)
            try:
                with os.fdopen(source, "rb") as reader:
                    reply = (None, fn(reader, *args))
            except Exception as exc:
                reply = (traceback.format_exc(), exc)
            with os.fdopen(w, "wb") as pipe:
                pickle.dump(reply, pipe)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(w)
    os.close(source)
    pipe = os.fdopen(r, "rb")
    feed = os.fdopen(sink, "wb", buffering=0)
    reaped = []

    def wait(kill=False):
        if reaped:
            return None
        try:
            if kill:
                os.kill(pid, 9)  # SIGKILL; killed before its feed ends, a child acts on none of it
                return None
            feed.close()
            data = pipe.read()
        finally:
            pipe.close()
            feed.close()
            reaped.append(os.waitpid(pid, 0)[1])
        if reaped[0] or not data:
            raise RuntimeError(f"the child process ended without a result (wait status {reaped[0]})")
        text, value = pickle.loads(data)
        if text is not None:
            raise value from ChildTraceback(text)
        return value

    def send(data):
        if data is None:
            feed.close()
            return
        view = memoryview(data).cast("B")
        try:
            while view:
                view = view[feed.write(view) :]
        except BrokenPipeError:  # the child stopped reading: its result says why
            wait()
            raise RuntimeError("the child process stopped reading its input") from None

    return send, wait


def _oracle_series(cfg: SimConfig, n: int, times):
    """The n-label particle oracle at each time: ([(positions, masses)], atoms left, its seconds)."""
    t0 = _time.perf_counter()
    ps = _particle_system(cfg, n)
    states = []
    for t in times:
        ps = particles.advance_to(ps, t)
        states.append((ps.x, ps.m))
    return states, ps.n, _time.perf_counter() - t0


def cmd_compare(cfg: SimConfig) -> CompareResult:
    """Scheme vs particle oracle: W1 between snapshots at shared sample times."""
    cfg.validate()
    t0 = _time.perf_counter()
    _, wait = _start(lambda _feed: _oracle_series(cfg, cfg.compare_particles, cfg.schedule()))  # reads no feed
    try:
        fv_snaps, _ = _run_fv(cfg, cfg.n_cells, cfg.schedule())
    except BaseException:
        wait(kill=True)
        raise
    grid_s = _time.perf_counter() - t0
    states, atoms, oracle_s = wait()
    series = [(t, wasserstein1(fv_m, DiscreteMeasure(x, m))) for (t, fv_m), (x, m) in zip(fv_snaps, states)]
    runtime = _time.perf_counter() - t0
    out = _run_dir(cfg)
    path = write_csv(out / "w1_compare.csv", "time,w1", series)
    summary = {
        "runtime_s": runtime,
        "grid_s": grid_s,
        "oracle_s": oracle_s,
        "oracle_labels": cfg.compare_particles,
        "oracle_atoms_final": atoms,
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

    # t_end alone: a sample time before it would shorten an RK4 step and move the oracle's bits
    states, atoms, oracle_s = _oracle_series(cfg, cfg.converge_particles, [cfg.t_end])
    oracle_final = DiscreteMeasure(*states[-1])

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
        "oracle_labels": cfg.converge_particles,
        "oracle_atoms_final": atoms,
        "oracle_s": oracle_s,
        "runtimes_s": {str(r.n_cells): r.runtime_s for r in rows},
        "w1_errors": {str(r.n_cells): r.w1_error for r in rows},
        "ratios": ratios,
    }
    artifacts = _write_manifest(cfg, "converge", out, [path], summary)
    return ConvergenceReport(rows=rows, ratios=ratios, artifacts=artifacts)
