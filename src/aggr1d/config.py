"""Experiment configuration: JSON documents, CLI overrides, named presets.

A config is one JSON object; every field has a flat, machine-checkable
form so catalogue runs are reproducible byte for byte.  Schema:

    {
      "label": "example1",
      "potential": {"name": "exp_pointy"},            # or abs_half, abs_scaled{+sigma}
      "velocity_law": {"name": "atan", "k": 50.0, "scale": 0.6366197723675814},
      "domain": [-2.5, 2.5],
      "n_cells": 1000,
      "gamma": 0.9,
      "t_end": 3.0,
      "sample_times": [0.5, 1.0, ...],                # optional; t_end always sampled
      "initial": {"kind": "builtin", "name": "init1"}
                 | {"kind": "bumps", "bumps": [{"amplitude":1,"center":0.7,"width":0.316}]}
                 | {"kind": "atoms", "atoms": [[x, mass], ...]},
      "output_dir": "out",
      "compare_particles": 256,                       # oracle size for `compare`, >= 1
      "converge_particles": 512,                      # oracle size for `converge`, >= 1
      "levels": [100, 200, 400]                       # `converge` refinement levels, >= 10 cells
    }

The identity law (the default) is the linear aggregation equation; every
law runs through the same velocity engine.  A legacy ``"mode"`` key is
still read: ``"nonlinear"`` is accepted with any law, ``"linear"`` only
with the identity law.  Bump data are always renormalized to unit mass; a
legacy ``"normalize": true`` beside the bumps is ignored and ``false`` is
an error.  The label names one directory inside ``output_dir``, and atoms
must lie in the half-open domain [lo, hi).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .fv import Grid
from .initial import GaussianBump, InitialData, builtin_initial
from .measure import DiscreteMeasure
from .potentials import PointyPotential, VelocityLaw, make_builtin_potential, make_velocity_law

__all__ = ["ConfigError", "SimConfig", "example_preset", "load_config"]


class ConfigError(Exception):
    """Invalid or inconsistent configuration (CLI exit code 2)."""


@dataclass(frozen=True)
class SimConfig:
    label: str = "run"
    potential_name: str = "abs_half"
    potential_sigma: float | None = None
    law_name: str = "identity"
    law_k: float | None = None
    law_scale: float | None = None
    domain: tuple[float, float] = (-2.5, 2.5)
    n_cells: int = 1000
    gamma: float = 0.9
    t_end: float = 1.0
    sample_times: tuple[float, ...] = ()
    initial: InitialData = field(default_factory=lambda: builtin_initial("init1"))
    output_dir: str = "out"
    compare_particles: int = 256
    converge_particles: int = 512
    levels: tuple[int, ...] = ()

    def validate(self) -> "SimConfig":
        lo, hi = self.domain
        if not hi > lo:
            raise ConfigError("domain must be a nonempty interval")
        if self.n_cells < 10:
            raise ConfigError("n_cells must be at least 10")
        if not (0.0 < self.gamma <= 1.0):
            raise ConfigError("gamma must lie in (0, 1]")
        if not (math.isfinite(self.t_end) and self.t_end >= 0.0):
            raise ConfigError("t_end must be finite and nonnegative")
        if self.label in ("", ".", "..") or "/" in self.label or "\\" in self.label:
            raise ConfigError(f"label {self.label!r} must name one directory inside output_dir")
        if self.initial.is_atomic:
            pos = self.initial.atoms.positions
            if np.any(pos < lo) or np.any(pos >= hi):
                raise ConfigError(f"atoms must lie in the domain [{lo}, {hi})")
        if self.compare_particles < 1 or self.converge_particles < 1:
            raise ConfigError("oracle particle counts must be at least 1")
        if any(n < 10 for n in self.levels):
            raise ConfigError("every refinement level must have at least 10 cells")
        try:
            self.make_potential()
            self.make_law()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return self

    def make_potential(self) -> PointyPotential:
        return make_builtin_potential(self.potential_name, sigma=self.potential_sigma)

    def make_law(self) -> VelocityLaw:
        return make_velocity_law(self.law_name, k=self.law_k, scale=self.law_scale)

    def make_grid(self, n_cells: int | None = None) -> Grid:
        lo, hi = self.domain
        return Grid.from_domain(lo, hi, n_cells if n_cells is not None else self.n_cells)

    def to_dict(self) -> dict:
        if self.initial.is_atomic:
            init = {
                "kind": "atoms",
                "atoms": [[float(x), float(m)] for x, m in zip(self.initial.atoms.positions, self.initial.atoms.masses)],
            }
        else:
            init = {
                "kind": "bumps",
                "bumps": [
                    {"amplitude": b.amplitude, "center": b.center, "width": b.width} for b in self.initial.bumps
                ],
            }
        pot: dict = {"name": self.potential_name}
        if self.potential_sigma is not None:
            pot["sigma"] = self.potential_sigma
        law: dict = {"name": self.law_name}
        if self.law_k is not None:
            law["k"] = self.law_k
        if self.law_scale is not None:
            law["scale"] = self.law_scale
        return {
            "label": self.label,
            "potential": pot,
            "velocity_law": law,
            "domain": list(self.domain),
            "n_cells": self.n_cells,
            "gamma": self.gamma,
            "t_end": self.t_end,
            "sample_times": list(self.sample_times),
            "initial": init,
            "output_dir": self.output_dir,
            "compare_particles": self.compare_particles,
            "converge_particles": self.converge_particles,
            "levels": list(self.levels),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SimConfig":
        try:
            pot = doc.get("potential", {"name": "abs_half"})
            law = doc.get("velocity_law", {"name": "identity"})
            _check_legacy_mode(doc.get("mode"), str(law["name"]))
            init = _initial_from_dict(doc.get("initial", {"kind": "builtin", "name": "init1"}))
            domain = doc.get("domain", [-2.5, 2.5])
            cfg = cls(
                label=str(doc.get("label", "run")),
                potential_name=str(pot["name"]),
                potential_sigma=_opt_float(pot.get("sigma")),
                law_name=str(law["name"]),
                law_k=_opt_float(law.get("k")),
                law_scale=_opt_float(law.get("scale")),
                domain=(float(domain[0]), float(domain[1])),
                n_cells=int(doc.get("n_cells", 1000)),
                gamma=float(doc.get("gamma", 0.9)),
                t_end=float(doc.get("t_end", 1.0)),
                sample_times=tuple(float(t) for t in doc.get("sample_times", [])),
                initial=init,
                output_dir=str(doc.get("output_dir", "out")),
                compare_particles=int(doc.get("compare_particles", 256)),
                converge_particles=int(doc.get("converge_particles", 512)),
                levels=tuple(int(n) for n in doc.get("levels", [])),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
        return cfg.validate()


def _check_legacy_mode(mode, law_name: str) -> None:
    """Accept a ``mode`` key from older configs when the law agrees with it."""
    if mode is None or mode == "nonlinear":
        return
    if mode != "linear":
        raise ConfigError("mode must be 'linear' or 'nonlinear'")
    if law_name != "identity":
        raise ConfigError(f"mode 'linear' is the identity law; it contradicts velocity_law {law_name!r}")


def _opt_float(v):
    return None if v is None else float(v)


def _initial_from_dict(doc: dict) -> InitialData:
    kind = doc.get("kind", "builtin")
    if kind == "builtin":
        return builtin_initial(str(doc["name"]))
    if kind == "bumps":
        bumps = tuple(
            GaussianBump(float(b["amplitude"]), float(b["center"]), float(b["width"])) for b in doc["bumps"]
        )
        if doc.get("normalize", True) is not True:
            raise ConfigError("bump data are always normalized to unit mass; normalize: false is not supported")
        return InitialData(bumps=bumps)
    if kind == "atoms":
        arr = np.asarray(doc["atoms"], dtype=float).reshape(-1, 2)
        return InitialData(atoms=DiscreteMeasure(arr[:, 0], arr[:, 1]))
    raise ConfigError(f"unknown initial kind {kind!r}")


def load_config(path, overrides: dict | None = None) -> SimConfig:
    """Read a JSON config file and apply flat field overrides."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    cfg = SimConfig.from_dict(doc)
    if overrides:
        cfg = replace(cfg, **overrides).validate()
    return cfg


_ATAN_SCALE = 2.0 / math.pi


def example_preset(number: int) -> SimConfig:
    """The three catalogue experiments on [-2.5, 2.5] with 1000 cells.

    1: exponential pointy potential, a(x) = (2/pi) atan(50 x), two bumps —
       each bump collapses fast, the two peaks then merge and freeze.
    2: W = -|x|/250, same atan law, two bumps — blow-up at the center.
    3: W = -|x|/250, identity law (linear speed), three bumps — the center
       bump sharpens before the outer ones.
    """
    base = SimConfig(
        domain=(-2.5, 2.5),
        n_cells=1000,
        gamma=0.9,
        compare_particles=256,
        converge_particles=512,
    )
    if number == 1:
        cfg = replace(
            base,
            label="example1",
            potential_name="exp_pointy",
            law_name="atan",
            law_k=50.0,
            law_scale=_ATAN_SCALE,
            t_end=3.0,
            sample_times=tuple(np.round(np.arange(0.0, 3.01, 0.25), 10)),
            initial=builtin_initial("init1"),
        )
    elif number == 2:
        cfg = replace(
            base,
            label="example2",
            potential_name="abs_scaled",
            potential_sigma=1.0 / 250.0,
            law_name="atan",
            law_k=50.0,
            law_scale=_ATAN_SCALE,
            t_end=15.0,
            sample_times=tuple(np.round(np.arange(0.0, 15.01, 1.0), 10)),
            initial=builtin_initial("init1"),
        )
    elif number == 3:
        cfg = replace(
            base,
            label="example3",
            potential_name="abs_scaled",
            potential_sigma=1.0 / 250.0,
            law_name="identity",
            t_end=500.0,
            sample_times=tuple(np.round(np.arange(0.0, 500.01, 25.0), 10)),
            initial=builtin_initial("init2"),
        )
    else:
        raise ConfigError("example presets are 1, 2 or 3")
    return cfg.validate()
