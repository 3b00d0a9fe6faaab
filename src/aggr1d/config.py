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
      "sample_times": [0.5, 1.0, ...],                # added to t = 0 and t_end
      "initial": {"kind": "builtin", "name": "init1"}
                 | {"kind": "bumps", "bumps": [{"amplitude":1,"center":0.7,"width":0.316}]}
                 | {"kind": "atoms", "atoms": [[x, mass], ...]},
      "output_dir": "out",
      "compare_particles": 256,                       # oracle size for `compare`, >= 1
      "converge_particles": 512,                      # oracle size for `converge`, >= 1
      "levels": [100, 200, 400]                       # `converge` refinement levels, >= 10 cells
    }

Every key may be left out: an absent key (or a null) takes the
:class:`SimConfig` field default, the one place defaults are stated.
Every time-resolved run samples t = 0, t_end and each requested sample
time in [0, t_end] (:meth:`SimConfig.schedule`).

The identity law (the default) is the linear aggregation equation; every
law runs through the same velocity engine.  Bump data are always
renormalized to unit mass.

A :class:`SimConfig` checks itself when it is made, ``dataclasses.replace``
included, so every one that exists is valid.  Validation raises
:class:`ConfigError` (CLI exit 2, nothing written) unless the document is
a JSON object whose every key is one named above, every number in it is
finite, the domain has exactly two increasing endpoints, the label names
one directory inside ``output_dir`` in at most 255 bytes, neither holds a
NUL, the nearest existing path on ``output_dir/label`` is a directory,
atoms lie in the half-open domain [lo, hi) and their masses sum to 1
within 1e-9, and on every grid the run uses the cell width is positive
and finite, the cell centers strictly increase in floating point and the
run's first state (:meth:`SimConfig.initial_state`, atoms or bumps) is
built without overflow and with a positive mass, and the CFL speed bound
a_inf is a positive normal float reached without overflow.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, astuple, dataclass, field
from pathlib import Path

import numpy as np

from .fv import FVState, Grid, project_initial
from .initial import GaussianBump, InitialData, builtin_initial
from .measure import DiscreteMeasure
from .potentials import PointyPotential, VelocityLaw, make_builtin_potential, make_velocity_law, velocity_sup_bound

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

    def __post_init__(self):
        self.validate()

    def validate(self) -> "SimConfig":
        """Raise :class:`ConfigError` unless every check of the module docstring passes; return self."""
        if len(self.domain) != 2:
            raise ConfigError("domain must have exactly two endpoints")
        init = self.initial
        numbers = [self.gamma, self.t_end, *self.domain, *self.sample_times]
        numbers += [v for v in (self.potential_sigma, self.law_k, self.law_scale) if v is not None]
        numbers += [v for b in init.bumps for v in astuple(b)]
        if init.is_atomic:
            numbers += [*init.atoms.positions, *init.atoms.masses]
        if not np.all(np.isfinite(numbers)):
            raise ConfigError("every number in the config must be finite")
        lo, hi = self.domain
        if not hi > lo:
            raise ConfigError("domain must be a nonempty interval")
        if self.n_cells < 10:
            raise ConfigError("n_cells must be at least 10")
        if not (0.0 < self.gamma <= 1.0):
            raise ConfigError("gamma must lie in (0, 1]")
        if self.t_end < 0.0:
            raise ConfigError("t_end must be nonnegative")
        try:
            label, out_dir = os.fsencode(self.label), os.fsencode(self.output_dir)
        except UnicodeEncodeError as exc:
            raise ConfigError(f"label and output_dir must be file names: {exc}") from exc
        if label in (b"", b".", b"..") or any(c in label for c in (b"/", b"\\", b"\0")) or len(label) > 255:
            raise ConfigError(f"label {self.label!r} must name one directory inside output_dir, in at most 255 bytes")
        if b"\0" in out_dir:
            raise ConfigError(f"output_dir {self.output_dir!r} contains a NUL character")
        nearest = Path(self.output_dir, self.label)
        while not os.path.lexists(nearest) and nearest != nearest.parent:
            nearest = nearest.parent
        if not nearest.is_dir():  # mkdir of the run directory would fail after the run
            raise ConfigError(f"{str(nearest)!r} is not a directory, so it cannot hold the run directory")
        if init.is_atomic:
            pos = init.atoms.positions
            if np.any(pos < lo) or np.any(pos >= hi):
                raise ConfigError(f"atoms must lie in the domain [{lo}, {hi})")
            if not init.atoms.is_probability():
                raise ConfigError(f"atom masses sum to {init.atoms.total_mass!r}, not 1")
        if self.compare_particles < 1 or self.converge_particles < 1:
            raise ConfigError("oracle particle counts must be at least 1")
        if any(n < 10 for n in self.levels):
            raise ConfigError("every refinement level must have at least 10 cells")
        for n in {self.n_cells, *self.levels}:
            try:  # a cell width of 0 or inf, zero projected mass, a bump too narrow
                with np.errstate(over="raise"):
                    centers = self.initial_state(n).grid.centers
            except (ValueError, FloatingPointError) as exc:
                raise ConfigError(f"the {n}-cell grid or the initial data on it: {exc}") from exc
            if not np.all(np.diff(centers) > 0.0):  # from_cells would make one atom of coincident cells
                raise ConfigError(f"the {n}-cell grid's cell centers do not strictly increase in floating point")
        try:
            with np.errstate(over="raise"):  # the law's mean at +-lip bounds every product the run forms
                a_inf = velocity_sup_bound(self.make_potential(), self.make_law())
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        except FloatingPointError as exc:
            raise ConfigError(f"the speed bound a_inf: {exc}") from exc
        if not (math.isfinite(a_inf) and a_inf >= sys.float_info.min):  # the CFL step divides by it
            raise ConfigError(f"the speed bound a_inf = {a_inf!r} is not a positive normal float")
        return self

    def schedule(self) -> list[float]:
        """Sample times of a run: 0, t_end and every requested time in [0, t_end], sorted."""
        return sorted({0.0, float(self.t_end)} | {float(t) for t in self.sample_times if 0.0 <= t <= self.t_end})

    def make_potential(self) -> PointyPotential:
        return make_builtin_potential(self.potential_name, sigma=self.potential_sigma)

    def make_law(self) -> VelocityLaw:
        return make_velocity_law(self.law_name, k=self.law_k, scale=self.law_scale)

    def make_grid(self, n_cells: int | None = None) -> Grid:
        lo, hi = self.domain
        return Grid.from_domain(lo, hi, n_cells if n_cells is not None else self.n_cells)

    def initial_state(self, n_cells: int | None = None) -> FVState:
        """The run's first state: the initial data projected onto the ``n_cells``-cell grid (default ``n_cells``)."""
        init = self.initial
        return project_initial(init.atoms if init.is_atomic else init.density, self.make_grid(n_cells))

    def to_dict(self) -> dict:
        doc: dict = {}
        for key, (name, _) in _KEYS.items():
            value = getattr(self, name)
            if value is None:
                continue
            *parents, leaf = key.split(".")
            node = doc
            for part in parents:
                node = node.setdefault(part, {})
            node[leaf] = _to_json(value)
        return doc

    @classmethod
    def from_dict(cls, doc) -> "SimConfig":
        if not isinstance(doc, dict):
            raise ConfigError("a config must be a JSON object")
        unknown = list(_unknown_keys(doc))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        values = {}
        try:
            for key, (name, cast) in _KEYS.items():
                value = doc
                for part in key.split("."):
                    value = None if value is None else value.get(part)
                if value is not None:
                    values[name] = cast(value)
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
        return cls(**values)


def _initial_from_dict(doc: dict) -> InitialData:
    kind = doc.get("kind", "builtin")
    if kind == "builtin":
        return builtin_initial(str(doc["name"]))
    if kind == "bumps":
        bumps = tuple(
            GaussianBump(float(b["amplitude"]), float(b["center"]), float(b["width"])) for b in doc["bumps"]
        )
        return InitialData(bumps=bumps)
    if kind == "atoms":
        arr = np.asarray(doc["atoms"], dtype=float).reshape(-1, 2)
        return InitialData(atoms=DiscreteMeasure(arr[:, 0], arr[:, 1]))
    raise ConfigError(f"unknown initial kind {kind!r}")


def _to_json(value):
    if isinstance(value, tuple):
        return list(value)
    if not isinstance(value, InitialData):
        return value
    if value.is_atomic:
        return {"kind": "atoms", "atoms": np.column_stack([value.atoms.positions, value.atoms.masses]).tolist()}
    return {"kind": "bumps", "bumps": [asdict(b) for b in value.bumps]}


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _ints(values) -> tuple[int, ...]:
    return tuple(int(v) for v in values)


# JSON key (a dot steps into a nested object) -> SimConfig field, cast from JSON
_KEYS = {
    "label": ("label", str),
    "potential.name": ("potential_name", str),
    "potential.sigma": ("potential_sigma", float),
    "velocity_law.name": ("law_name", str),
    "velocity_law.k": ("law_k", float),
    "velocity_law.scale": ("law_scale", float),
    "domain": ("domain", _floats),
    "n_cells": ("n_cells", int),
    "gamma": ("gamma", float),
    "t_end": ("t_end", float),
    "sample_times": ("sample_times", _floats),
    "initial": ("initial", _initial_from_dict),
    "output_dir": ("output_dir", str),
    "compare_particles": ("compare_particles", int),
    "converge_particles": ("converge_particles", int),
    "levels": ("levels", _ints),
}


# every path a document may hold: the _KEYS paths and the objects on them and
# the initial object's keys (a bump's inside its list)
_DOC_PATHS = {*_KEYS, "potential", "velocity_law"}
_DOC_PATHS |= {f"initial.{k}" for k in ("kind", "name", "bumps", "atoms")}
_DOC_PATHS |= {f"initial.bumps.{k}" for k in ("amplitude", "center", "width")}


def _unknown_keys(node: dict, prefix: str = ""):
    """Yield the dotted path of every key that no field reads, in nested objects and lists of them too."""
    for key, value in node.items():
        path = prefix + str(key)
        if path not in _DOC_PATHS:
            yield path
            continue
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, dict):
                yield from _unknown_keys(item, path + ".")


def load_config(path) -> SimConfig:
    """Read and validate a JSON config file."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return SimConfig.from_dict(doc)


def _sample_grid(stop: float, step: float) -> tuple[float, ...]:
    return tuple(np.round(np.arange(0.0, stop, step), 10))


def example_preset(number: int) -> SimConfig:
    """The three catalogue experiments on [-2.5, 2.5] with 1000 cells.

    1: exponential pointy potential, a(x) = (2/pi) atan(50 x), two bumps —
       each bump collapses fast, the two peaks then merge and freeze.
    2: W = -|x|/250, same atan law, two bumps — blow-up at the center.
    3: W = -|x|/250, identity law (linear speed), three bumps — the center
       bump sharpens before the outer ones.
    """
    atan = {"law_name": "atan", "law_k": 50.0, "law_scale": 2.0 / math.pi}
    kink = {"potential_name": "abs_scaled", "potential_sigma": 1.0 / 250.0}
    presets = {
        1: {"potential_name": "exp_pointy", **atan, "t_end": 3.0, "sample_times": _sample_grid(3.01, 0.25)},
        2: {**kink, **atan, "t_end": 15.0, "sample_times": _sample_grid(15.01, 1.0)},
        3: {**kink, "t_end": 500.0, "sample_times": _sample_grid(500.01, 25.0), "initial": builtin_initial("init2")},
    }
    if number not in presets:
        raise ConfigError("example presets are 1, 2 or 3")
    return SimConfig(label=f"example{number}", **presets[number])
