"""Seeded config fuzzer: every config ends in exit 0, 2 or 3, never in a traceback.

Random JSON configs of at most 100 cells go through ``cli.main`` over all
four subcommands, with warnings turned into errors, as under
``python -W error``.  The draws include atoms at both ends of the domain,
domains from 0 whose cell width underflows and domains whose width
overflows, and keys that the named potential, law or initial kind does
not read (``sigma`` on ``abs_half`` or ``exp_pointy``, ``k`` or ``scale``
on ``identity``, another kind's ``initial`` key): those configs exit 2.
Exit 2 and exit 3 leave the output tree as it was, and no run leaves a
child process behind.
"""

import collections
import json
import math
import os
import random
import warnings

from aggr1d.cli import main as cli_main
from aggr1d.config import ConfigError, SimConfig
from aggr1d.particles import STEP
from aggr1d.potentials import velocity_sup_bound

SEED = 14
N_CONFIGS = 300
COMMANDS = ("simulate", "particles", "compare", "converge")
EXTREMES = (0.0, -1.0, 5e-324, 2.0**-1022, 1e-300, 1e300)
# a run's length is not an input class: t_end (and the sample times with it)
# shrinks until the finest grid takes at most GRID_STEPS steps and an RK4
# oracle at most RK4_STEPS
GRID_STEPS = 200
RK4_STEPS = 30
# initial kind -> the one key besides "kind" that it reads
INITIAL_KEYS = {"builtin": "name", "bumps": "bumps", "atoms": "atoms"}
# the share of draws given a key of each part that the part does not read
UNREAD = 0.08


def _magnitude(rng, lo=1e-8, hi=1e8):
    if rng.random() < 0.15:
        return rng.choice(EXTREMES)
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _initial(rng, lo, hi):
    kind = rng.choice(tuple(INITIAL_KEYS))
    doc = _initial_of(kind, rng, lo, hi)
    if rng.random() < UNREAD:  # another kind's key
        other = rng.choice([k for k in INITIAL_KEYS if k != kind])
        key = INITIAL_KEYS[other]
        doc[key] = _initial_of(other, rng, lo, hi)[key]
    return doc


def _initial_of(kind, rng, lo, hi):
    half = hi / 2 - lo / 2  # half the width, finite where hi - lo overflows
    if kind == "builtin":
        return {"kind": "builtin", "name": rng.choice(("init1", "init2"))}
    if kind == "bumps":
        bumps = [
            {
                "amplitude": _magnitude(rng, 1e-3, 1e3),
                "center": lo + half * rng.uniform(-0.4, 2.4),
                "width": half * (2.0 * _magnitude(rng, 1e-3, 1.0)),
            }
            for _ in range(rng.randint(1, 3))
        ]
        return {"kind": "bumps", "bumps": bumps}
    n = rng.randint(1, 4)
    masses = [rng.choice((0.0, 1.0)) if rng.random() < 0.1 else rng.random() for _ in range(n)]
    total = sum(masses) or 1.0
    # some atoms at the ends of the half-open domain [lo, hi), where rounding may put them off the grid
    ends = (lo, math.nextafter(hi, lo))
    positions = [rng.choice(ends) if rng.random() < 0.2 else lo + half * rng.uniform(-0.1, 2.1) for _ in range(n)]
    if n > 1 and rng.random() < 0.2:
        positions[1] = positions[0]  # coincident atoms
    return {"kind": "atoms", "atoms": [[x, m / total] for x, m in zip(positions, masses)]}


def _domain(rng):
    """(lo, hi), some empty, some of cells that underflow and some whose width overflows."""
    r = rng.random()
    if r < 0.05:  # hi - lo is inf
        return -1e308 * rng.uniform(1.0, 1.7), 1e308 * rng.uniform(1.0, 1.7)
    if r < 0.15:  # from 0, a tiny width is a nonempty domain whose cell width may round to 0 or be subnormal
        return 0.0, rng.choice((5e-324, 1e-320, 2.0**-1022, 1e-300, 1.0))
    width = rng.choice(EXTREMES) if rng.random() < 0.05 else 10.0 ** rng.uniform(-3.0, 3.0)
    lo = rng.uniform(-5.0, 5.0) - 0.5 * width
    return lo, lo + width


def _draw(rng):
    lo, hi = _domain(rng)
    t_end = rng.choice(EXTREMES) if rng.random() < 0.1 else 10.0 ** rng.uniform(-4.0, 1.0)
    n = rng.randint(5, 25)
    potential = rng.choice(({"name": "abs_half"}, {"name": "abs_scaled"}, {"name": "exp_pointy"}))
    if potential["name"] == "abs_scaled" or rng.random() < UNREAD:
        potential = {**potential, "sigma": _magnitude(rng)}
    law = {"name": "identity"}
    if rng.random() < 0.6:
        law = {"name": "atan", "k": _magnitude(rng), "scale": _magnitude(rng)}
    elif rng.random() < UNREAD:
        law.update(rng.choice(({"k": _magnitude(rng)}, {"scale": _magnitude(rng)}, {"k": 1.0, "scale": 1.0})))
    return {
        "label": "fuzz",
        "potential": potential,
        "velocity_law": law,
        "domain": [lo, hi],
        "n_cells": rng.randint(5, 100),
        "gamma": rng.choice(EXTREMES + (1.0, 1.5)) if rng.random() < 0.1 else rng.uniform(0.0, 1.0),
        "t_end": t_end,
        "sample_times": [t_end * rng.uniform(-0.1, 1.2) for _ in range(rng.randint(0, 3))],
        "initial": _initial(rng, lo, hi),
        "compare_particles": rng.randint(0, 48),
        "converge_particles": rng.randint(0, 48),
        "levels": [n, 2 * n, 4 * n] if rng.random() < 0.8 else [rng.randint(5, 100) for _ in range(3)],
    }


def _unread(doc):
    """The keys of a drawn config that its potential, law or initial kind does not read."""
    potential, law, initial = doc["potential"], doc["velocity_law"], doc["initial"]
    keys = [f"potential.{k}" for k in potential if k == "sigma" and potential["name"] != "abs_scaled"]
    keys += [f"velocity_law.{k}" for k in law if k in ("k", "scale") and law["name"] == "identity"]
    keys += [f"initial.{k}" for k in initial if k not in ("kind", INITIAL_KEYS[initial["kind"]])]
    return keys


def _cap_run_length(command, doc):
    """Shrink t_end and the sample times of a valid config to the step budgets."""
    try:
        cfg = SimConfig.from_dict(doc)
    except ConfigError:
        return doc
    lo, hi = cfg.domain
    cells = max(cfg.levels) if command == "converge" else cfg.n_cells
    pot = cfg.make_potential()
    a_inf = velocity_sup_bound(pot, cfg.make_law())
    steps = cfg.t_end * a_inf * (cells / (hi - lo)) / cfg.gamma  # (hi - lo) * gamma may underflow
    if command != "simulate" and pot.amp != 0.0:  # RK4 steps of STEP time units 1/(rate*a_inf)
        steps = max(steps, cfg.t_end * pot.rate * a_inf / STEP * GRID_STEPS / RK4_STEPS)
    if not steps > GRID_STEPS:
        return doc
    shrink = GRID_STEPS / steps
    return {**doc, "t_end": doc["t_end"] * shrink, "sample_times": [t * shrink for t in doc["sample_times"]]}


def _tree(path):
    return {p: p.read_bytes() if p.is_file() else None for p in sorted(path.rglob("*"))}


def _exit_code(command, doc, config):
    """The CLI's exit code on the config, with t_end capped, or the last line of its traceback."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config.write_text(json.dumps(_cap_run_length(command, doc)))
            return cli_main([command, "--config", str(config)])
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def test_random_configs_exit_0_2_or_3(tmp_path):
    rng = random.Random(SEED)
    faults = []
    codes = collections.Counter()
    unread = 0  # draws with a key that nothing reads
    for i in range(N_CONFIGS):
        command = rng.choice(COMMANDS)
        doc = _draw(rng)
        base = tmp_path / str(i)
        base.mkdir()
        if rng.random() < 0.15:  # a regular file where the run directory or one of its parents goes
            (base / "F").write_text("a regular file\n")
            out, doc["label"] = rng.choice([(base / "F", "fuzz"), (base / "F" / "x", "fuzz"), (base, "F")])
        else:
            out = base / "out"
        before = _tree(base)
        code = _exit_code(command, {**doc, "output_dir": str(out)}, tmp_path / f"{i}.json")
        codes[code] += 1
        unread += bool(_unread(doc))
        if code not in (0, 2, 3):
            faults.append((i, command, code, doc))
        elif _unread(doc) and code != 2:
            faults.append((i, command, f"exit {code} with keys nothing reads: {_unread(doc)}", doc))
        elif code and _tree(base) != before:
            faults.append((i, command, f"exit {code} changed the output tree", doc))
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            continue
        faults.append((i, command, "a child process outlived the run", doc))
    assert not faults, f"{len(faults)} of {N_CONFIGS} configs failed:\n" + "\n".join(map(repr, faults[:10]))
    assert codes[0] and codes[2], codes  # the draw reaches both runs and rejections
    assert unread, "no draw holds a key that nothing reads"
