import hashlib
import json
import math
import os
import signal
import time

import numpy as np
import pytest

from aggr1d import experiments, fv
from aggr1d.cli import main as cli_main
from aggr1d.config import ConfigError, SimConfig, example_preset, load_config
from aggr1d.experiments import cmd_compare, cmd_converge, cmd_particles, cmd_simulate
from aggr1d.initial import InitialData, builtin_initial, sample_particles
from aggr1d.measure import DiscreteMeasure
from dataclasses import replace


def test_builtin_init1_values():
    init = builtin_initial("init1")
    assert float(init.density(0.7)) == pytest.approx(1.0 + math.exp(-10 * 1.96), rel=1e-12)
    assert float(init.density(0.7)) == pytest.approx(1.00000000307488, abs=1e-11)
    x = np.linspace(-2.5, 2.5, 101)
    np.testing.assert_allclose(init.density(x), init.density(-x), atol=1e-15)  # even profile


def test_builtin_init2_values():
    init = builtin_initial("init2")
    expect = math.exp(-10 * 1.25**2) + 0.8 + math.exp(-10.0)
    assert float(init.density(0.0)) == pytest.approx(expect, rel=1e-12)
    assert float(init.density(0.0)) == pytest.approx(0.80004556, abs=1e-8)
    with pytest.raises(ValueError):
        builtin_initial("init9")


def test_initial_data_exclusive_kinds():
    with pytest.raises(ValueError):
        InitialData()
    with pytest.raises(ValueError):
        InitialData(bumps=builtin_initial("init1").bumps, atoms=DiscreteMeasure([0.0], [1.0]))


def test_sample_particles_quantiles():
    init = builtin_initial("init1")
    x, m = sample_particles(init, 64, (-2.5, 2.5))
    assert x.shape == (64,)
    np.testing.assert_allclose(m, 1.0 / 64.0)
    assert np.all(np.diff(x) > 0)
    assert abs(float(np.sum(x * m))) <= 1e-3  # even profile: center of mass at 0
    # atomic data passes through
    atoms = DiscreteMeasure([-1.0, 1.0], [0.5, 0.5])
    x2, m2 = sample_particles(InitialData(atoms=atoms), 10, (-2.5, 2.5))
    np.testing.assert_array_equal(x2, [-1.0, 1.0])


def test_config_roundtrip(tmp_path):
    cfg = example_preset(1)
    doc = cfg.to_dict()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg2 = load_config(path)
    assert cfg2.to_dict() == doc


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        SimConfig(domain=(1.0, -1.0)).validate()
    with pytest.raises(ConfigError):
        SimConfig(n_cells=5).validate()
    with pytest.raises(ConfigError):
        SimConfig(gamma=1.5).validate()
    for t_end in (math.nan, math.inf, -1.0):
        with pytest.raises(ConfigError):
            SimConfig(t_end=t_end).validate()
    with pytest.raises(ConfigError):
        SimConfig(potential_name="abs_scaled", potential_sigma=-2.0).validate()
    for bad in ({"compare_particles": 0}, {"converge_particles": -5}, {"levels": (5, 10, 20)}, {"levels": (0, 100)}):
        with pytest.raises(ConfigError):
            SimConfig(**bad).validate()


def _atoms_config(tmp_path, atoms, t_end=5.0, label="atoms", **kw):
    init = InitialData(atoms=DiscreteMeasure([a for a, _ in atoms], [b for _, b in atoms]))
    return SimConfig(
        label=label,
        potential_name="abs_half",
        domain=(-2.5, 2.5),
        n_cells=100,
        t_end=t_end,
        initial=init,
        output_dir=str(tmp_path),
        **kw,
    ).validate()


def test_cmd_particles_two_atom_merge(tmp_path):
    cfg = _atoms_config(tmp_path, [(-1.0, 0.5), (1.0, 0.5)], t_end=5.0)
    art = cmd_particles(cfg)
    assert art.manifest["summary"]["n_final"] == 1
    assert art.manifest["summary"]["n_merge_events"] == 1
    traj = (art.out_dir / "trajectory.csv").read_text().strip().splitlines()
    merge_rows = [r for r in traj if ",merge," in r]
    assert len(merge_rows) == 1
    t_merge = float(merge_rows[0].split(",")[0])
    assert t_merge == pytest.approx(4.0, abs=1e-11)


def test_cmd_particles_single_atom_no_events(tmp_path):
    cfg = _atoms_config(tmp_path, [(0.25, 1.0)], t_end=3.0, label="single")
    art = cmd_particles(cfg)
    assert art.manifest["summary"]["n_merge_events"] == 0
    assert art.manifest["summary"]["n_final"] == 1


@pytest.mark.parametrize("potential", ["exp_pointy", "abs_half"], ids=["rk4", "exact"])
def test_particles_merge_rows_come_from_the_committed_path(tmp_path, potential):
    # the merge rows of a run sampled 50 times are those of the run sampled at 0 and t_end only
    atoms = [[-401.0, 0.1], [-399.5, 0.2], [-0.5, 0.25], [1.0, 0.15], [398.0, 0.2], [400.5, 0.1]]
    law = {"name": "atan", "k": 50.0, "scale": 2.0 / math.pi}
    doc = {"potential": {"name": potential}, "velocity_law": law, "domain": [-450.0, 450.0], "t_end": 5.0}
    doc["initial"] = {"kind": "atoms", "atoms": atoms}
    merges = {}
    for label, times in (("sampled", [0.1 * k for k in range(1, 50)]), ("unsampled", [])):
        cfg = SimConfig.from_dict({**doc, "label": label, "sample_times": times, "output_dir": str(tmp_path)})
        rows = (cmd_particles(cfg).out_dir / "trajectory.csv").read_text().splitlines()[1:]
        stamps = [float(row.split(",")[0]) for row in rows]
        assert stamps == sorted(stamps)
        merges[label] = [row for row in rows if ",merge," in row]
    assert merges["sampled"] and merges["sampled"] == merges["unsampled"]


def test_cmd_particles_requires_atoms(tmp_path):
    cfg = replace(example_preset(1), output_dir=str(tmp_path), t_end=0.5)
    with pytest.raises(ConfigError):
        cmd_particles(cfg)


def test_cmd_particles_blowup_state_collapses(tmp_path):
    # atoms sampled from a concentrated peak all end in one particle
    rng = np.random.default_rng(7)
    xs = np.sort(rng.uniform(-0.02, 0.02, size=12))
    cfg = _atoms_config(tmp_path, [(float(x), 1.0 / 12.0) for x in xs], t_end=1.0, label="collapse")
    art = cmd_particles(cfg)
    assert art.manifest["summary"]["n_final"] == 1


def test_cmd_simulate_t_end_zero(tmp_path):
    cfg = replace(example_preset(1), output_dir=str(tmp_path), t_end=0.0, sample_times=(), n_cells=200)
    art = cmd_simulate(cfg)
    snaps = [p for p in art.files if p.name.startswith("snapshot_")]
    assert len(snaps) == 1
    assert "t0.000000" in snaps[0].name


def test_cmd_simulate_always_samples_t0(tmp_path):
    cfg = replace(example_preset(1), output_dir=str(tmp_path), t_end=0.25, sample_times=(0.1, 0.25), n_cells=200)
    art = cmd_simulate(cfg)
    names = sorted(p.name for p in art.files if p.name.startswith("snapshot_"))
    assert names == ["snapshot_000_t0.000000.csv", "snapshot_001_t0.100000.csv", "snapshot_002_t0.250000.csv"]


def test_cmd_simulate_deterministic_outputs(tmp_path):
    base = replace(example_preset(1), t_end=0.25, sample_times=(0.1, 0.25), n_cells=300)
    digests = []
    for sub in ("a", "b"):
        cfg = replace(base, output_dir=str(tmp_path / sub))
        art = cmd_simulate(cfg)
        blob = b"".join(p.read_bytes() for p in sorted(art.files) if p.suffix == ".csv")
        digests.append(hashlib.sha256(blob).hexdigest())
    assert digests[0] == digests[1]


def test_manifest_lists_all_outputs_with_checksums(tmp_path):
    # a run into a reused directory leaves its own outputs and the files no manifest
    # listed: a rerun with fewer sample times, then a converge after a compare under one label
    cfg = replace(example_preset(2), output_dir=str(tmp_path), t_end=0.5, sample_times=(0.25,), n_cells=200)
    shared = replace(cfg, label="shared", compare_particles=16, converge_particles=16, levels=(50, 100, 200))
    runs = (
        lambda: cmd_simulate(cfg),
        lambda: cmd_simulate(replace(cfg, sample_times=())),
        lambda: cmd_compare(shared).artifacts,
        lambda: cmd_converge(shared).artifacts,
    )
    (tmp_path / "example2").mkdir()
    (tmp_path / "example2" / "manifest.json").write_text('{"outputs": [')  # cut short
    for k, run in enumerate(runs):
        art = run()
        (art.out_dir / "notes.txt").write_text("kept")
        listed = {entry["path"]: entry["sha256"] for entry in art.manifest["outputs"]}
        produced = {p.name for p in art.out_dir.iterdir() if p.name not in ("manifest.json", "notes.txt")}
        assert set(listed) == produced, f"run {k}"
        for name, digest in listed.items():
            assert hashlib.sha256((art.out_dir / name).read_bytes()).hexdigest() == digest
    assert (tmp_path / "example2" / "notes.txt").read_text() == "kept"


def test_cmd_compare_initial_projection_error(tmp_path):
    cfg = _atoms_config(tmp_path, [(-1.0, 0.5), (1.0, 0.5)], t_end=1.0, label="cmp")
    res = cmd_compare(cfg)
    dx = 5.0 / 100
    assert res.times[0] == 0.0
    assert res.w1[0] <= dx  # cell-center displacement only


def test_cmd_compare_stationary_dirac(tmp_path):
    # atom placed exactly on a cell center: both engines keep an identical
    # stationary Dirac, so the distance vanishes for all time
    from aggr1d.fv import Grid

    center = float(Grid.from_domain(-2.5, 2.5, 100).centers[50])
    cfg = _atoms_config(tmp_path, [(center, 1.0)], t_end=2.0, label="dirac")
    cfg = replace(cfg, sample_times=(0.5, 1.0, 1.5)).validate()
    res = cmd_compare(cfg)
    assert max(res.w1) == 0.0


def test_cmd_compare_bounded_by_domain(tmp_path):
    cfg = replace(
        example_preset(1), output_dir=str(tmp_path), t_end=0.5, sample_times=(0.25, 0.5), n_cells=250, compare_particles=64
    )
    res = cmd_compare(cfg)
    assert all(np.isfinite(res.w1))
    assert max(res.w1) <= 5.0  # domain diameter


def test_cmd_compare_past_merge_time(tmp_path):
    # after full aggregation both engines hold a single Dirac near the center
    # of mass; the final distance is the initial projection error plus a
    # modest scheme error
    cfg = replace(
        example_preset(1),
        label="cmp-merge",
        potential_name="abs_half",
        potential_sigma=None,
        law_name="identity",
        law_k=None,
        law_scale=None,
        n_cells=300,
        t_end=6.0,
        sample_times=(1.0, 2.0, 4.0, 6.0),
        compare_particles=64,
        output_dir=str(tmp_path),
    ).validate()
    res = cmd_compare(cfg)
    assert res.w1[-1] <= res.w1[0] + 5e-2


# ---------------------------------------------------------------- compare's oracle process

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the oracle runs inline without os.fork")


def _compare_args(out, label):
    flags = ["--example", "1", "--cells", "200", "--particles", "64", "--t-end", "0.5"]
    return ["compare", *flags, "--label", label, "--out", str(out)]


def _compare_config(out):
    # the config of _compare_args, for direct cmd_compare calls
    return replace(example_preset(1), n_cells=200, compare_particles=64, t_end=0.5, output_dir=str(out)).validate()


def _assert_no_children():
    # every child the run started has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _spy_forks(monkeypatch):
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@needs_fork
def test_compare_forked_and_inline_write_identical_csv(tmp_path, monkeypatch):
    pids = _spy_forks(monkeypatch)
    assert cli_main(_compare_args(tmp_path, "forked")) == 0
    assert len(pids) == 1
    _assert_no_children()
    monkeypatch.delattr(os, "fork")  # the inline path
    assert cli_main(_compare_args(tmp_path, "inline")) == 0
    assert len(pids) == 1
    forked, inline = (tmp_path / label / "w1_compare.csv" for label in ("forked", "inline"))
    assert forked.read_bytes() == inline.read_bytes()
    for label in ("forked", "inline"):
        summary = json.loads((tmp_path / label / "manifest.json").read_text())["summary"]
        assert summary["oracle_labels"] == 64
        assert 1 <= summary["oracle_atoms_final"] <= 64
        assert 0.0 < summary["grid_s"] <= summary["runtime_s"]
        assert 0.0 < summary["oracle_s"] <= summary["runtime_s"]
        assert "oracle_particles" not in summary
    _assert_no_children()


def _oracle_error_reaches_caller(tmp_path, monkeypatch, command):
    # exp_pointy: both studies fork their RK4 oracle
    from aggr1d import particles

    def failing_trajectory(ps, times, log=None):
        raise RuntimeError(f"oracle stalled in process {os.getpid()}")

    monkeypatch.setattr(particles, "trajectory", failing_trajectory)
    pids = _spy_forks(monkeypatch)
    cmd = {"compare": cmd_compare, "converge": cmd_converge}[command]
    with pytest.raises(RuntimeError, match="oracle stalled in process") as info:
        cmd(replace(_compare_config(tmp_path), levels=(50, 100, 200)))
    assert len(pids) == 1
    assert type(info.value) is RuntimeError
    assert str(info.value) != f"oracle stalled in process {os.getpid()}"  # raised in the child
    cause = info.value.__cause__
    assert isinstance(cause, experiments.ChildTraceback)
    assert "Traceback (most recent call last)" in str(cause) and "failing_trajectory" in str(cause)
    _assert_no_children()
    levels = ["--levels", "50,100,200"] if command == "converge" else []
    assert cli_main([command, *_compare_args(tmp_path / "cli", "err")[1:], *levels]) == 3
    assert not (tmp_path / "cli").exists()
    _assert_no_children()


@needs_fork
def test_compare_oracle_error_in_child_reaches_caller(tmp_path, monkeypatch):
    _oracle_error_reaches_caller(tmp_path, monkeypatch, "compare")


@needs_fork
def test_converge_oracle_error_in_child_reaches_caller(tmp_path, monkeypatch):
    _oracle_error_reaches_caller(tmp_path, monkeypatch, "converge")


def test_exact_oracle_runs_without_a_child(tmp_path, monkeypatch):
    # kink-only: the exact-event oracle costs about what a fork does, so no study forks it
    pids = _spy_forks(monkeypatch)
    flags = ["--example", "2", "--cells", "100", "--particles", "64", "--t-end", "2", "--out", str(tmp_path)]
    assert cli_main(["compare", *flags]) == 0
    assert cli_main(["converge", *flags, "--levels", "50,100,200"]) == 0
    assert pids == []


@needs_fork
@pytest.mark.parametrize("death, status", [("exit", 7 << 8), ("kill", 9)])
def test_compare_child_dying_without_result_names_its_status(tmp_path, monkeypatch, death, status):
    from aggr1d import particles

    def dying_trajectory(ps, times, log=None):
        if death == "exit":
            os._exit(7)
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(particles, "trajectory", dying_trajectory)
    with pytest.raises(RuntimeError, match=f"wait status {status}\\b"):
        cmd_compare(_compare_config(tmp_path))
    assert not (tmp_path / "example1").exists()
    _assert_no_children()


@needs_fork
def test_compare_scheme_error_wins_and_kills_the_child(tmp_path, monkeypatch):
    from aggr1d import particles

    pids = _spy_forks(monkeypatch)
    monkeypatch.setattr(particles, "trajectory", lambda ps, times, log=None: time.sleep(60.0))

    def aborting_run(*args, **kwargs):
        raise fv.SchemeError("mass left the grid")

    monkeypatch.setattr(fv, "run", aborting_run)
    t0 = time.perf_counter()
    assert cli_main(_compare_args(tmp_path, "abort")) == 3
    assert time.perf_counter() - t0 < 30.0  # the sleeping child did not run out its minute
    assert len(pids) == 1
    with pytest.raises(ProcessLookupError):
        os.kill(pids[0], 0)  # killed and reaped
    assert not (tmp_path / "abort").exists()
    with pytest.raises(fv.SchemeError, match="mass left the grid"):
        cmd_compare(_compare_config(tmp_path))
    _assert_no_children()


def _hash_feed(source, tag):
    data = source.read()
    return tag, len(data), hashlib.sha256(data).hexdigest()


def _ignore_feed(source, tag):
    return tag, 0, None


def _fed_and_unfed_results():
    send, wait = experiments._start(_hash_feed, "fed")
    for k in range(5):
        send(np.full(1000, 0.5 * k))
    send(None)
    _, wait_unfed = experiments._start(_ignore_feed, "unfed")
    return wait(), wait_unfed()


@needs_fork
def test_start_fed_and_unfed_children_match_inline(monkeypatch):
    pids = _spy_forks(monkeypatch)
    forked = _fed_and_unfed_results()
    assert len(pids) == 2
    _assert_no_children()
    monkeypatch.delattr(os, "fork")  # the inline path
    assert _fed_and_unfed_results() == forked
    assert forked[0][:2] == ("fed", 5 * 8000) and forked[1] == ("unfed", 0, None)


@needs_fork
def test_start_send_to_a_child_that_stopped_reading(monkeypatch):
    pids = _spy_forks(monkeypatch)
    send, wait = experiments._start(_ignore_feed, "unfed")
    with pytest.raises(RuntimeError, match="stopped reading its input"):
        send(np.zeros(1 << 17))  # 1 MB, more than a pipe holds
    with pytest.raises(ProcessLookupError):
        os.kill(pids[0], 0)  # reaped before send raised
    assert wait() is None
    _assert_no_children()


# ---------------------------------------------------------------- simulate's snapshot formatter process


def _simulate_args(out, label, t_end="2"):
    return ["simulate", "--example", "2", "--cells", "400", "--t-end", t_end, "--label", label, "--out", str(out)]


def _csv_bytes(run_dir):
    return {p.name: p.read_bytes() for p in sorted(run_dir.glob("*.csv"))}


@needs_fork
def test_simulate_forked_and_inline_write_identical_csv(tmp_path, monkeypatch):
    pids = _spy_forks(monkeypatch)
    assert cli_main(_simulate_args(tmp_path, "forked")) == 0
    assert len(pids) == 1
    _assert_no_children()
    monkeypatch.delattr(os, "fork")  # the inline path
    assert cli_main(_simulate_args(tmp_path, "inline")) == 0
    assert len(pids) == 1
    forked, inline = (_csv_bytes(tmp_path / label) for label in ("forked", "inline"))
    assert len(forked) == 4  # t = 0, 1, 2 and diagnostics.csv
    assert forked == inline
    for label in ("forked", "inline"):
        manifest = json.loads((tmp_path / label / "manifest.json").read_text())
        assert {entry["path"] for entry in manifest["outputs"]} == set(forked)
        assert manifest["summary"]["format_s"] > 0.0
    _assert_no_children()


@needs_fork
def test_simulate_scheme_error_kills_the_formatter(tmp_path, monkeypatch):
    # the formatter has taken the t = 0 density when a step aborts the run
    assert cli_main(_simulate_args(tmp_path, "abort", t_end="0.5")) == 0
    before = _csv_bytes(tmp_path / "abort")
    manifest = (tmp_path / "abort" / "manifest.json").read_bytes()
    pids = _spy_forks(monkeypatch)
    real_step = fv.step
    calls = []

    def aborting_step(state, a, dt):
        calls.append(dt)
        if len(calls) % 5 == 0:
            raise fv.SchemeError("mass left the grid")
        return real_step(state, a, dt)

    monkeypatch.setattr(fv, "step", aborting_step)
    assert cli_main(_simulate_args(tmp_path, "abort")) == 3
    assert len(calls) == 5 and len(pids) == 1
    with pytest.raises(ProcessLookupError):
        os.kill(pids[0], 0)  # killed and reaped
    assert _csv_bytes(tmp_path / "abort") == before  # no snapshot of t = 0, 1 or 2
    assert (tmp_path / "abort" / "manifest.json").read_bytes() == manifest
    assert cli_main(_simulate_args(tmp_path / "fresh", "abort")) == 3
    assert not (tmp_path / "fresh").exists()
    _assert_no_children()


@needs_fork
@pytest.mark.parametrize("death, status", [("exit", 7 << 8), ("kill", 9), ("raise", None), ("late", 7 << 8)])
def test_simulate_formatter_death_names_its_status(tmp_path, monkeypatch, death, status):
    write_snapshots = experiments._snapshot_files

    def dying_formatter(source, cfg):
        if death == "late":  # its feed ends once the run directory is made
            write_snapshots(source, cfg)
            os._exit(7)
        if death == "exit":
            os._exit(7)
        if death == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        raise RuntimeError(f"formatter failed in process {os.getpid()}")

    monkeypatch.setattr(experiments, "_snapshot_files", dying_formatter)
    # 21 densities of 16 kB: more than a pipe holds, so the scheme sees the child go
    times = tuple(0.05 * k for k in range(20))
    cfg = replace(example_preset(2), n_cells=2000, t_end=1.0, sample_times=times, output_dir=str(tmp_path)).validate()
    match = f"wait status {status}\\b" if status is not None else "formatter failed in process"
    with pytest.raises(RuntimeError, match=match) as info:
        cmd_simulate(cfg)
    if status is None:
        assert isinstance(info.value.__cause__, experiments.ChildTraceback)
    if death == "late":  # the run directory is made, and none of this run's files is left in it
        assert list((tmp_path / "example2").iterdir()) == []
    else:
        assert not (tmp_path / "example2").exists()
    _assert_no_children()


def test_cmd_simulate_example3_aggregates_to_center_of_mass(tmp_path):
    # three bumps sharpen into Diracs and merge into one; linear dynamics
    # preserves the center of mass, which is where the survivor sits
    cfg = replace(example_preset(3), output_dir=str(tmp_path))
    art = cmd_simulate(cfg)
    grid = cfg.make_grid()
    snaps = sorted(p for p in art.files if p.name.startswith("snapshot_"))
    first = np.loadtxt(snaps[0], delimiter=",", skiprows=1)
    last = np.loadtxt(snaps[-1], delimiter=",", skiprows=1)
    x, rho0, rho1 = first[:, 0], first[:, 1], last[:, 1]
    com0 = float(np.sum(x * rho0) / np.sum(rho0))
    pk = int(np.argmax(rho1))
    near = float(np.sum(rho1[max(0, pk - 5) : pk + 6]) / np.sum(rho1))
    assert near >= 0.999
    assert abs(x[pk] - com0) <= 2.0 * grid.dx
    assert float(np.max(rho1)) >= 10.0 * float(np.max(rho0))
    # the manifest reports the CFL bound the run stepped under, lip = 1/250 here
    summary = art.manifest["summary"]
    assert summary["a_inf"] == 1.0 / 250.0
    assert summary["max_abs_velocity"] <= summary["a_inf"] + 1e-12


def test_cmd_converge_level_validation(tmp_path):
    cfg = replace(example_preset(1), output_dir=str(tmp_path), levels=(100,))
    with pytest.raises(ConfigError):
        cmd_converge(cfg)
    cfg = replace(cfg, levels=(100, 150, 200))
    with pytest.raises(ConfigError):
        cmd_converge(cfg)
    cfg = replace(cfg, levels=(200, 100, 400))
    with pytest.raises(ConfigError):
        cmd_converge(cfg)


def test_cmd_converge_small_study(tmp_path):
    cfg = SimConfig(
        label="conv",
        potential_name="abs_half",
        domain=(-2.5, 2.5),
        n_cells=100,
        t_end=0.5,
        initial=builtin_initial("init1"),
        output_dir=str(tmp_path),
        converge_particles=128,
        levels=(50, 100, 200),
    ).validate()
    rep = cmd_converge(cfg)
    errs = [r.w1_error for r in rep.rows]
    assert errs[0] > errs[1] > errs[2]
    assert all(r.w1_sup >= r.w1_error for r in rep.rows)  # the sup over the schedule, t_end included
    csv = (rep.artifacts.out_dir / "convergence.csv").read_text().splitlines()
    assert csv[0] == "dx,n_cells,w1_error,ratio,w1_sup"
    assert len(csv) == 4


def test_converge_ratio_after_an_exact_level_is_empty(tmp_path):
    # the atom sits on a centre of the 16-cell grid only, so that level's W1 is exactly 0
    doc = {"label": "zd", "domain": [-8, 8], "t_end": 0.5, "levels": [16, 32, 64]}
    p = tmp_path / "zd.json"
    p.write_text(json.dumps({**doc, "initial": {"kind": "atoms", "atoms": [[0.5, 1.0]]}}))
    assert cli_main(["converge", "--config", str(p), "--out", str(tmp_path)]) == 0

    def no_constant(token):
        raise AssertionError(f"{token} in the manifest")

    manifest = json.loads((tmp_path / "zd" / "manifest.json").read_text(), parse_constant=no_constant)
    assert manifest["summary"]["ratios"][0] is None and manifest["summary"]["w1_errors"]["16"] == 0.0
    rows = (tmp_path / "zd" / "convergence.csv").read_text().splitlines()
    assert [row.split(",")[3] for row in rows[1:3]] == ["", ""]


def test_converge_dirac_projection_bound_halves(tmp_path):
    # a stationary Dirac's only error is the projection offset: within dx/2
    # of a center at every level, and that bound halves with the mesh
    # (cell-center grids are not nested, so the realized offset need not
    # shrink monotonically for one fixed atom)
    cfg = _atoms_config(tmp_path, [(0.02, 1.0)], t_end=0.5, label="dirac-conv")
    cfg = replace(cfg, levels=(25, 50, 100), converge_particles=4).validate()
    rep = cmd_converge(cfg)
    for row in rep.rows:
        assert row.w1_error <= 0.5 * row.dx + 1e-12


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    # usage error: neither --config nor --example
    assert cli_main(["simulate", "--out", str(tmp_path)]) == 2
    # or both at once
    cfgfile = tmp_path / "both.json"
    cfgfile.write_text(json.dumps(example_preset(1).to_dict()))
    assert cli_main(["simulate", "--config", str(cfgfile), "--example", "1"]) == 2
    # config error: malformed file
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["simulate", "--config", str(bad)]) == 2
    # oracle sizes below 1 and levels below the 10-cell minimum: nothing written
    out = tmp_path / "rejected"
    for args in (
        ["compare", "--particles", "0"],
        ["compare", "--particles", "-5"],
        ["converge", "--levels", "0,100,200"],
        ["converge", "--levels", "5,10,20"],
        ["converge", "--levels", "100,200,400", "--particles", "0"],
    ):
        assert cli_main([*args, "--example", "1", "--out", str(out)]) == 2
        assert not out.exists()
    # happy path
    code = cli_main(
        ["simulate", "--example", "1", "--out", str(tmp_path), "--cells", "200", "--t-end", "0.1", "--label", "cli"]
    )
    assert code == 0
    assert (tmp_path / "cli" / "manifest.json").exists()
    # runtime abort: a scheme failure exits 3 and writes nothing
    def aborting_run(*args, **kwargs):
        raise fv.SchemeError("mass left the grid")

    monkeypatch.setattr(fv, "run", aborting_run)
    assert cli_main(["simulate", "--example", "3", "--label", "abort", "--out", str(tmp_path)]) == 3
    assert not (tmp_path / "abort").exists()


def test_cli_simulate_example3_on_a_coarse_grid(tmp_path):
    # init2's Gaussian tail reaches the end cells at 100 cells, but the
    # end-cell speeds point inward, so no mass leaves the grid
    assert cli_main(["simulate", "--example", "3", "--cells", "100", "--out", str(tmp_path)]) == 0
    diag = np.loadtxt(tmp_path / "example3" / "diagnostics.csv", delimiter=",", skiprows=1)
    assert np.max(np.abs(diag[:, 2] - 1.0)) <= 1e-12


def test_run_takes_one_step_per_sample_time():
    # 19,999 sample times cut every CFL step short, so the run takes 20,000
    # steps to t_end; it must not stop on any step count
    t_end = 5.0
    times = tuple(t_end * k / 20000 for k in range(1, 20000))
    cfg = SimConfig(label="many", domain=(-10.0, 10.0), n_cells=20, t_end=t_end, sample_times=times).validate()
    st = fv.project_initial(cfg.initial.density, cfg.make_grid())
    snaps, diag = fv.run(st, cfg.make_potential(), cfg.make_law(), cfg.t_end, cfg.gamma, cfg.schedule())
    assert diag.step_index[-1] == 20000
    assert len(snaps) == 20001 and snaps[-1][0] == t_end
    assert max(abs(m - 1.0) for m in diag.mass) <= 1e-12


def test_cli_converge_roundtrip(tmp_path):
    code = cli_main(
        [
            "converge",
            "--example",
            "1",
            "--out",
            str(tmp_path),
            "--levels",
            "50,100,200",
            "--t-end",
            "0.2",
            "--particles",
            "64",
            "--label",
            "cv",
        ]
    )
    assert code == 0
    assert (tmp_path / "cv" / "convergence.csv").exists()
    summary = json.loads((tmp_path / "cv" / "manifest.json").read_text())["summary"]
    assert summary["oracle_labels"] == 64
    assert 1 <= summary["oracle_atoms_final"] <= 64
    assert summary["oracle_s"] > 0.0


def test_converge_runs_levels_serially(tmp_path):
    cfg = SimConfig(
        label="serial",
        potential_name="abs_half",
        domain=(-2.5, 2.5),
        n_cells=100,
        t_end=0.2,
        initial=builtin_initial("init1"),
        output_dir=str(tmp_path),
        converge_particles=32,
        levels=(50, 100, 200),
    ).validate()
    rep = cmd_converge(cfg)
    assert [r.n_cells for r in rep.rows] == [50, 100, 200]
    dxs = [r.dx for r in rep.rows]
    assert dxs == sorted(dxs, reverse=True)


def test_cli_rejects_nan_t_end(tmp_path):
    doc = example_preset(1).to_dict()
    doc.update({"t_end": math.nan, "label": "nan", "output_dir": str(tmp_path / "out")})
    p = tmp_path / "nan.json"
    p.write_text(json.dumps(doc))  # written as the bare token NaN
    assert "NaN" in p.read_text()
    assert cli_main(["simulate", "--config", str(p)]) == 2
    assert not (tmp_path / "out").exists()


def test_example_preset_fields():
    cfg1 = example_preset(1)
    assert cfg1.potential_name == "exp_pointy" and cfg1.law_name == "atan"
    assert cfg1.law_k == 50.0 and cfg1.law_scale == pytest.approx(2.0 / math.pi)
    cfg2 = example_preset(2)
    assert cfg2.potential_name == "abs_scaled" and cfg2.potential_sigma == pytest.approx(1.0 / 250.0)
    cfg3 = example_preset(3)
    assert cfg3.law_name == "identity"
    assert cfg3.n_cells == 1000 and cfg3.domain == (-2.5, 2.5)
    with pytest.raises(ConfigError):
        example_preset(4)


def test_atoms_outside_domain_exit_2(tmp_path):
    for atoms in ([(-1.0, 0.5), (3.0, 0.5)], [(-2.6, 1.0)], [(2.5, 1.0)]):
        init = InitialData(atoms=DiscreteMeasure([a for a, _ in atoms], [b for _, b in atoms]))
        cfg = SimConfig(label="outside", initial=init, output_dir=str(tmp_path / "out"))
        with pytest.raises(ConfigError):
            cfg.validate()
        p = tmp_path / "outside.json"
        p.write_text(json.dumps(cfg.to_dict()))
        for command in ("simulate", "particles"):
            assert cli_main([command, "--config", str(p)]) == 2
            assert not (tmp_path / "out").exists()
    # the left edge belongs to the domain
    init = InitialData(atoms=DiscreteMeasure([-2.5, 1.0], [0.5, 0.5]))
    SimConfig(initial=init).validate()


def test_label_must_stay_inside_out_dir(tmp_path):
    out = tmp_path / "a" / "b"
    for label in ("../../x", "x/y", "..", ".", "", "x\\y"):
        args = ["simulate", "--example", "1", "--out", str(out), "--label", label, "--cells", "50", "--t-end", "0.1"]
        assert cli_main(args) == 2
        assert list(tmp_path.iterdir()) == []
    with pytest.raises(ConfigError):
        replace(example_preset(1), label="../x").validate()


@pytest.mark.parametrize(
    "label, out",
    [("a\0b", "out"), ("x" * 300, "out"), ("\u00e9" * 128, "out"), ("s\ud800", "out"), ("ok", "o\0d")],
    ids=["label-nul", "label-300-chars", "label-256-bytes", "label-lone-surrogate", "out-dir-nul"],
)
def test_cli_rejects_names_no_directory_can_take(tmp_path, label, out):
    p = tmp_path / "names.json"
    p.write_text(json.dumps({"label": label, "n_cells": 50, "t_end": 0.1}))
    assert cli_main(["simulate", "--config", str(p), "--out", str(tmp_path / out)]) == 2
    assert list(tmp_path.iterdir()) == [p]


def test_label_of_255_utf8_bytes_runs(tmp_path):
    label = "\u00e9" * 127 + "x"  # 255 bytes in UTF-8, 128 characters
    args = ["simulate", "--example", "2", "--cells", "50", "--t-end", "0.1", "--out", str(tmp_path), "--label", label]
    assert cli_main(args) == 0
    assert (tmp_path / label / "manifest.json").is_file()


@pytest.mark.parametrize(
    "command, out, label",
    [("simulate", "F", "run"), ("converge", "F/x", "run"), ("particles", ".", "F")],
    ids=["simulate-out-is-a-file", "converge-out-below-a-file", "particles-label-is-a-file"],
)
def test_cli_rejects_a_run_directory_a_file_blocks(tmp_path, command, out, label):
    # a regular file on the way to output_dir/label: the run would end in mkdir's error after its computation
    blocker = tmp_path / "F"
    blocker.write_text("not a directory\n")
    doc = {"label": label, "n_cells": 50, "t_end": 0.5, "levels": [50, 100, 200], "converge_particles": 16}
    p = tmp_path / "run.json"
    p.write_text(json.dumps({**doc, "initial": {"kind": "atoms", "atoms": [[-1.0, 0.5], [1.0, 0.5]]}}))
    assert cli_main([command, "--config", str(p), "--out", str(tmp_path / out)]) == 2
    assert sorted(tmp_path.iterdir()) == [blocker, p]
    assert blocker.read_text() == "not a directory\n"


_HALF_MASS_ATOMS = {"kind": "atoms", "atoms": [[-1.0, 0.25], [1.0, 0.25]]}
_OFF_GRID_BUMP = {"kind": "bumps", "bumps": [{"amplitude": 1.0, "center": 50.0, "width": 0.316}]}
# cell centers 5e-13 apart, closer than measure.MERGE_TOL: every snapshot would merge into one cell
_TINY_BUMP = {"kind": "bumps", "bumps": [{"amplitude": 1.0, "center": 5e-11, "width": 2e-11}]}
_NARROW_BUMPS = {
    "kind": "bumps",
    "bumps": [{"amplitude": 1.0, "center": 0.7, "width": 0.316}, {"amplitude": 1.0, "center": 0.0, "width": 1e-320}],
}
_GATE_CASES = {
    "atoms-half-mass-simulate": ("simulate", {"initial": _HALF_MASS_ATOMS}),
    "atoms-half-mass-particles": ("particles", {"initial": _HALF_MASS_ATOMS}),
    "sigma-nan": ("simulate", {"potential": {"name": "abs_scaled", "sigma": math.nan}}),
    "k-nan": ("simulate", {"velocity_law": {"name": "atan", "k": math.nan, "scale": 0.5}}),
    "k-inf": ("simulate", {"velocity_law": {"name": "atan", "k": math.inf, "scale": 0.5}}),
    "domain-inf": ("simulate", {"domain": [-2.5, math.inf]}),
    "bump-off-grid": ("simulate", {"initial": _OFF_GRID_BUMP}),
    "cells-within-merge-tol": (
        "simulate",
        {"domain": [0.0, 1e-10], "n_cells": 200, "t_end": 1e-9, "initial": _TINY_BUMP},
    ),
    "level-within-merge-tol": (
        "converge",
        {"domain": [0.0, 1e-10], "n_cells": 50, "levels": [50, 100, 200], "t_end": 1e-9, "initial": _TINY_BUMP},
    ),
    # the CFL bound a_inf = a(k*lip) underflows to 0
    "k-subnormal": ("simulate", {"velocity_law": {"name": "atan", "k": 5e-324, "scale": 0.5}}),
    # positive at the central cell centers, but every Gauss-weighted cell mass underflows to 0
    "bump-mass-underflow": (
        "simulate",
        {"initial": {"kind": "bumps", "bumps": [{"amplitude": 5e-324, "center": 0.0, "width": 0.316}]}},
    ),
    # a_inf = a(k*lip) is finite, but the law's mean overflows on the way: (k*lip)**2 > 1.8e308
    "k-overflows": ("simulate", {"velocity_law": {"name": "atan", "k": 1e300, "scale": 0.5}}),
    # ((x - center)/width)**2 overflows at the cell nodes away from the narrow bump
    "bump-width-overflows": ("simulate", {"initial": _NARROW_BUMPS}),
    "list-document": ("simulate", None),
    "domain-three-endpoints": ("simulate", {"domain": [-1.0, 0.0, 1.0]}),
    "sample-time-nan": ("simulate", {"sample_times": [math.nan, 0.25]}),
    "key-t-ned": ("simulate", {"t_ned": 9.0}),
    "key-potential-sigmaa": ("simulate", {"potential": {"name": "abs_half", "sigmaa": 0.5}}),
    "key-velocity-law-kk": ("simulate", {"velocity_law": {"name": "identity", "kk": 50.0}}),
    "key-bump-centre": (
        "simulate",
        {"initial": {"kind": "bumps", "bumps": [{"amplitude": 1.0, "centre": 0.7, "width": 0.316}]}},
    ),
    "key-mode": ("simulate", {"mode": "linear"}),
    "key-initial-normalize": (
        "simulate",
        {"initial": {"kind": "bumps", "bumps": [{"amplitude": 1.0, "center": 0.7, "width": 0.316}], "normalize": True}},
    ),
}


@pytest.mark.parametrize("command, fields", list(_GATE_CASES.values()), ids=list(_GATE_CASES))
def test_cli_input_gate(tmp_path, command, fields):
    doc = [] if fields is None else {"label": "gate", "n_cells": 50, "t_end": 0.1, **fields}
    p = tmp_path / "gate.json"
    p.write_text(json.dumps(doc))  # NaN and Infinity are written as bare tokens
    with pytest.raises(ConfigError):
        load_config(p)
    out = tmp_path / "out"
    assert cli_main([command, "--config", str(p), "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_value_error_is_not_an_abort(tmp_path, monkeypatch):
    # past the input gate a ValueError from an engine is a bug, so it surfaces
    # as a traceback instead of a runtime abort (exit 3)
    def broken_run(*args, **kwargs):
        raise ValueError("engine bug")

    monkeypatch.setattr(fv, "run", broken_run)
    with pytest.raises(ValueError, match="engine bug"):
        cli_main(["simulate", "--example", "1", "--cells", "50", "--t-end", "0.1", "--out", str(tmp_path)])
