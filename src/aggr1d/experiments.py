"""Experiment drivers behind the CLI subcommands.

Each driver takes a :class:`SimConfig`, which checks itself when it is
made, runs the relevant engines, writes CSV artifacts plus a JSON run
manifest into the run directory, and returns an in-memory result object.
CSV contents are a pure function of the config (runtimes live only in the
manifest), so repeated runs of the same config produce bit-identical CSV
files.
``compare`` and ``converge`` are one study (:func:`_study`) at one grid
level or at several.  Where ``os.fork`` exists, ``simulate`` formats its
snapshot CSVs in a child (:func:`_start`) during the scheme, and a study
runs its oracle in one while the finest level runs, the two sharing the
coarser levels; without it the child's work runs after, to the same bytes.
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
from .measure import wasserstein1, write_atoms_csv, write_csv
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
    w1_sup: float


@dataclass
class ConvergenceReport:
    rows: list[ConvergenceRow]
    ratios: list[float | None]
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
        except (ValueError, LookupError, TypeError):  # a manifest cut short or of another shape lists nothing
            listed = []
        for name in listed:
            if isinstance(name, str) and Path(name).name == name and (d / name).is_file():  # a bare file name
                (d / name).unlink()
        old.unlink()
    return d


def _run_fv(cfg: SimConfig, n_cells: int, on_sample=None):
    """Run the scheme from the config's initial data on ``n_cells`` cells, sampling the schedule."""
    state0 = cfg.initial_state(n_cells)
    return fv.run(state0, cfg.make_potential(), cfg.make_law(), cfg.gamma, cfg.schedule(), on_sample=on_sample)


def _snapshot_paths(cfg: SimConfig) -> list[Path]:
    """The run directory's snapshot CSV paths, one per time of the schedule."""
    out = Path(cfg.output_dir) / cfg.label
    return [out / f"snapshot_{k:03d}_t{t:.6f}.csv" for k, t in enumerate(cfg.schedule())]


def _snapshot_files(source, cfg: SimConfig):
    """Snapshot CSVs of the densities read from ``source``, written once it ends: (paths, seconds).

    Each density arrives as n_cells float64 values, and its ``x,rho`` rows
    hold those values bit for bit, as :func:`~aggr1d.measure.write_csv`
    formats them, with the x column formatted once.  The seconds are those spent
    formatting and writing, not waiting for ``source``.
    """
    t0 = _time.perf_counter()
    grid = cfg.make_grid()
    n = grid.n_cells
    template = "x,rho\n" + ("%.17g,%%.17g\n" * n) % tuple(grid.centers.tolist())
    texts = []
    busy = _time.perf_counter() - t0
    while chunk := source.read(8 * n):
        t0 = _time.perf_counter()
        texts.append(template % tuple(np.frombuffer(chunk).tolist()))
        busy += _time.perf_counter() - t0
    t0 = _time.perf_counter()
    paths = _snapshot_paths(cfg)
    if len(texts) != len(paths):
        raise RuntimeError(f"{len(texts)} of {len(paths)} snapshot densities arrived")
    for path, text in zip(paths, texts):
        path.write_text(text)
    return paths, busy + _time.perf_counter() - t0


def cmd_simulate(cfg: SimConfig) -> RunArtifacts:
    """Run the finite-volume scheme; write snapshots, diagnostics and manifest.

    The scheme feeds each sampled density to :func:`_snapshot_files` in a
    child, which writes the snapshots once the run directory is ready.  A
    failure after that leaves the run directory empty.
    """
    a_inf = velocity_sup_bound(cfg.make_potential(), cfg.make_law())
    send, wait = _start(_snapshot_files, cfg)
    written = []  # the files this run writes, once its directory is made
    try:
        t0 = _time.perf_counter()
        _, diag = _run_fv(cfg, cfg.n_cells, on_sample=send)
        runtime = _time.perf_counter() - t0
        out = _run_dir(cfg)
        diag_path = out / "diagnostics.csv"
        written = [*_snapshot_paths(cfg), diag_path]
        send(None)  # the child writes its files while this process writes the diagnostics
        diag.write_csv(diag_path)
        files, format_s = wait()
    except BaseException:
        wait(kill=True)  # does nothing once the child is reaped
        for path in written:
            path.unlink(missing_ok=True)
        raise
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
    atoms = sample_particles(cfg.initial, n, cfg.domain)
    return particles.ParticleSystem(atoms, time=0.0, pot=cfg.make_potential(), law=cfg.make_law())


def cmd_particles(cfg: SimConfig) -> RunArtifacts:
    """Sticky-particle run on atomic initial data, with trajectory logging."""
    if not cfg.initial.is_atomic:
        raise ConfigError("the particles command requires atomic initial data")
    ps = _particle_system(cfg, n=cfg.initial.atoms.n_atoms)
    log = []
    t0 = _time.perf_counter()
    for state in particles.trajectory(ps, cfg.schedule(), log):
        log.append(particles.TrajectoryEvent(state.time, "sample", state.atoms))
    runtime = _time.perf_counter() - t0
    out = _run_dir(cfg)
    rows = ([ev.time, ev.kind, *ev.snapshot.positions, *ev.snapshot.masses] for ev in log)
    traj_path = write_csv(out / "trajectory.csv", "time,event,positions_then_masses", rows)
    final_path = write_atoms_csv(state.atoms, out / "final_atoms.csv")
    merges = [ev for ev in log if ev.kind == "merge"]
    summary = {
        "runtime_s": runtime,
        "n_initial": cfg.initial.atoms.n_atoms,
        "n_final": state.atoms.n_atoms,
        "n_merge_events": len(merges),
        "final_mass": state.atoms.total_mass,
    }
    return _write_manifest(cfg, "particles", out, [traj_path, final_path], summary)


class ChildTraceback(Exception):
    """Traceback text of an exception raised in a forked child, the cause of its re-raise."""


def _inline(fn, *args):
    """:func:`_start`'s (send, wait) without a child: fn runs inside ``wait()`` on the bytes sent."""
    sent = []

    def send(data):
        sent.append(b"" if data is None else bytes(data))

    def wait(kill=False):
        return None if kill else fn(io.BytesIO(b"".join(sent)), *args)

    return send, wait


def _start(fn, *args):
    """Run fn(source, *args) in a forked child process; return (send, wait).

    ``source`` reads the bytes of every ``send(data)`` until ``send(None)`` or ``wait()``;
    fn may leave it unread.  ``wait()`` reaps the child and returns fn's result or raises
    its exception; ``wait(kill=True)`` kills and reaps it; once the child is reaped,
    ``wait`` does nothing.  A child that stops reading makes ``send`` raise what ``wait()``
    raises.  Without ``os.fork``, fn runs inside ``wait()`` on the bytes sent.
    """
    if not hasattr(os, "fork"):
        return _inline(fn, *args)
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


def _oracle(cfg: SimConfig, n: int):
    """The n-label particle oracle at every time of the schedule: (its DiscreteMeasures, its seconds)."""
    t0 = _time.perf_counter()
    atoms = [ps.atoms for ps in particles.trajectory(_particle_system(cfg, n), cfg.schedule())]
    return atoms, _time.perf_counter() - t0


def _level(cfg: SimConfig, n_cells: int):
    """The scheme on ``n_cells`` cells: (its sampled DiscreteMeasures, its manifest record).

    The record holds ``runtimes_s``, the run's seconds, and the run's
    conservation record: ``mass_drift``, the largest |mass - 1| over its
    diagnostics rows, and ``min_rho``, its smallest density.
    """
    t0 = _time.perf_counter()
    snaps, diag = _run_fv(cfg, n_cells)
    secs = _time.perf_counter() - t0
    drift = max(abs(mass - 1.0) for mass in diag.mass)
    return [m for _, m in snaps], {"runtimes_s": secs, "mass_drift": drift, "min_rho": min(diag.min_rho)}


def _claimed(cfg: SimConfig, coarse, jobs: int):
    """Run each of the ``coarse`` levels this process claims from ``jobs``: {level: :func:`_level`'s pair}.

    ``jobs`` is the read end of a pipe that holds one byte, an index into
    ``coarse``, per level no process has claimed; reading a byte claims its
    level, so whichever process is free runs the next one.
    """
    runs = {}
    while index := os.read(jobs, 1):
        runs[coarse[index[0]]] = _level(cfg, coarse[index[0]])
    return runs


def _scored(runs, oracle):
    """{level: (its W1 series against the oracle, its record)} from {level: (its measures, its record)}."""
    return {n: ([wasserstein1(a, b) for a, b in zip(snaps, oracle)], record) for n, (snaps, record) in runs.items()}


def _oracle_then_levels(_feed, cfg: SimConfig, n: int, coarse, jobs: int):
    """The n-label oracle, then the levels claimed from ``jobs``: (the oracle, its seconds, their :func:`_scored`)."""
    oracle, oracle_s = _oracle(cfg, n)
    return oracle, oracle_s, _scored(_claimed(cfg, coarse, jobs), oracle)


def _study(cfg: SimConfig, levels, n: int):
    """W1 between the scheme at each level and the n-label oracle at every time of the schedule.

    Returns (one W1 list per level, the oracle's and the grids' summary).
    One child (:func:`_start`) runs the oracle while this process runs the
    finest level; then each takes the coarser levels, costliest first, from
    one queue (:func:`_claimed`) until none is left.  Each level divides the
    next and the CFL step scales with dx, so the finest level costs at least
    as much as the others together, and whichever side is free runs the rest.
    """
    *coarse, finest = levels
    jobs, queue = os.pipe()
    os.write(queue, bytes(range(len(coarse)))[::-1])
    os.close(queue)  # an empty queue reads as end of file
    try:
        t0 = _time.perf_counter()
        _, wait = _start(_oracle_then_levels, cfg, n, coarse, jobs)  # reads no feed
        try:
            runs = {finest: _level(cfg, finest), **_claimed(cfg, coarse, jobs)}
        except BaseException:
            wait(kill=True)
            raise
        grid_s = _time.perf_counter() - t0
        oracle, oracle_s, done = wait()
    finally:
        os.close(jobs)
    runs = {**_scored(runs, oracle), **done}
    summary = {"grid_s": grid_s, "oracle_s": oracle_s, "oracle_labels": n, "oracle_atoms_final": oracle[-1].n_atoms}
    for key in runs[finest][1]:
        summary[key] = {str(n_cells): runs[n_cells][1][key] for n_cells in levels}
    return [runs[n_cells][0] for n_cells in levels], summary


def cmd_compare(cfg: SimConfig) -> CompareResult:
    """Scheme vs particle oracle: W1 at every sample time, the one-level :func:`_study`."""
    t0 = _time.perf_counter()
    (w1,), summary = _study(cfg, [cfg.n_cells], cfg.compare_particles)
    summary.update(runtime_s=_time.perf_counter() - t0, w1_initial=w1[0], w1_final=w1[-1])
    out = _run_dir(cfg)
    path = write_csv(out / "w1_compare.csv", "time,w1", zip(cfg.schedule(), w1))
    artifacts = _write_manifest(cfg, "compare", out, [path], summary)
    return CompareResult(times=cfg.schedule(), w1=w1, artifacts=artifacts)


def cmd_converge(cfg: SimConfig) -> ConvergenceReport:
    """Grid-refinement study against a particle oracle: W1 at t_end and its sup over the schedule.

    Levels must be at least three, increasing, each dividing the next; rows
    come out coarse to fine.  A ratio is None where the coarser W1 is 0.
    """
    levels = list(cfg.levels)
    if len(levels) < 3:
        raise ConfigError("converge needs at least three refinement levels")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError("refinement levels must be strictly increasing")
    if any(b % a for a, b in zip(levels, levels[1:])):
        raise ConfigError("each refinement level must divide the next")
    w1, summary = _study(cfg, levels, cfg.converge_particles)
    rows = [ConvergenceRow(cfg.make_grid(n).dx, n, errs[-1], max(errs)) for n, errs in zip(levels, w1)]
    ratios = [b.w1_error / a.w1_error if a.w1_error else None for a, b in zip(rows, rows[1:])]
    table = [(r.dx, r.n_cells, r.w1_error, "" if q is None else q, r.w1_sup) for r, q in zip(rows, [None, *ratios])]
    out = _run_dir(cfg)
    path = write_csv(out / "convergence.csv", "dx,n_cells,w1_error,ratio,w1_sup", table)
    summary["w1_errors"] = {str(r.n_cells): r.w1_error for r in rows}
    summary["ratios"] = ratios
    artifacts = _write_manifest(cfg, "converge", out, [path], summary)
    return ConvergenceReport(rows=rows, ratios=ratios, artifacts=artifacts)
