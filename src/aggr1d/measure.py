"""Discrete measures on the line and the exact 1D Wasserstein-1 distance.

A :class:`DiscreteMeasure` is a finite list of weighted atoms and is the
common currency between the particle dynamics and the finite-volume grid:
cell averages are reconstructed as atoms at cell centers, particle states
are atoms outright, and every cross-validation happens in W1.

W1 between two atomic probability measures is computed exactly by merging
the cumulative-mass breakpoints of both quantile functions (both are
piecewise constant), not by quadrature; the acceptance tolerances are too
tight for sampled integrals.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "DiscreteMeasure",
    "from_cells",
    "quantile",
    "wasserstein1",
    "first_moment",
    "merge_runs",
    "write_atoms_csv",
    "write_csv",
]

# Atoms closer than this are merged on construction; particle collisions
# produce exactly coincident positions and must yield one quantile breakpoint.
MERGE_TOL = 1e-12

PROBABILITY_TOL = 1e-9
MASS_MATCH_TOL = 1e-10


def merge_runs(x: np.ndarray, m: np.ndarray, linked: np.ndarray, *values: np.ndarray):
    """Merge the runs of atoms that ``linked`` joins: linked[i] joins atom i to atom i + 1.

    Each run becomes one atom carrying the summed mass at the mass-weighted
    mean position; each array in ``values`` (one entry per atom) is
    mass-averaged over the run likewise.  Every mean is clamped into the
    range spanned by the run's first and last entries: a rounded mean may
    fall an ulp outside it, and sorted positions must stay strictly
    increasing from run to run.  A lone atom therefore keeps its entries
    bit for bit.  Returns (x, m, merged, *values); with no link the inputs
    come back unchanged and merged is False.
    """
    if not np.any(linked):
        return (x, m, False, *values)
    starts = np.concatenate([[True], ~linked])
    group = np.cumsum(starts) - 1
    first = np.flatnonzero(starts)
    last = np.append(first[1:] - 1, x.size - 1)
    gm = np.bincount(group, weights=m)

    def run_mean(y):
        lo, hi = y[first], y[last]
        return np.clip(np.bincount(group, weights=m * y) / gm, np.minimum(lo, hi), np.maximum(lo, hi))

    return (run_mean(x), gm, True, *map(run_mean, values))


@dataclass(frozen=True)
class DiscreteMeasure:
    """Atoms (position, mass) with strictly increasing positions.

    Construction sorts atoms, merges positions closer than ``MERGE_TOL``
    (masses summed, position mass-averaged) and drops zero-mass atoms.
    Negative masses are rejected.  Instances are immutable.
    """

    positions: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        pos = np.atleast_1d(np.asarray(self.positions, dtype=float)).ravel()
        mas = np.atleast_1d(np.asarray(self.masses, dtype=float)).ravel()
        if pos.shape != mas.shape:
            raise ValueError("positions and masses must have equal length")
        if np.any(mas < 0.0):
            raise ValueError("atom masses must be nonnegative")
        keep = mas > 0.0
        pos, mas = pos[keep], mas[keep]
        order = np.argsort(pos, kind="stable")
        pos, mas = pos[order], mas[order]
        pos, mas, _ = merge_runs(pos, mas, np.diff(pos) <= MERGE_TOL)
        _set_atoms(self, pos, mas)

    @property
    def n_atoms(self) -> int:
        return int(self.positions.size)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.masses)

    def is_probability(self) -> bool:
        return abs(self.total_mass - 1.0) <= PROBABILITY_TOL


def _set_atoms(m: DiscreteMeasure, pos: np.ndarray, mas: np.ndarray) -> DiscreteMeasure:
    """Freeze and install atoms that already satisfy the class invariants."""
    pos.setflags(write=False)
    mas.setflags(write=False)
    object.__setattr__(m, "positions", pos)
    object.__setattr__(m, "masses", mas)
    return m


def from_cells(grid_origin: float, dx: float, densities) -> DiscreteMeasure:
    """Atomize cell-average data: one atom of mass rho_i*dx at each center.

    ``grid_origin`` is the first cell center; zero cells are dropped.
    """
    if dx <= 0.0:
        raise ValueError("dx must be positive")
    rho = np.atleast_1d(np.asarray(densities, dtype=float))
    if np.any(rho < 0.0):
        raise ValueError("densities must be nonnegative")
    centers = grid_origin + dx * np.arange(rho.size)
    mass = rho * dx
    if centers.size > 1 and np.min(np.diff(centers)) <= MERGE_TOL:
        return DiscreteMeasure(centers, mass)
    # sorted centers farther apart than MERGE_TOL: the constructor's sort and
    # merge scan would only drop the zero cells
    keep = mass > 0.0
    return _set_atoms(object.__new__(DiscreteMeasure), centers[keep], mass[keep])


def quantile(m: DiscreteMeasure, z):
    """Generalized inverse F^{-1}(z) = inf{x : F(x) > z} of the cumulative F.

    Right-continuous and nondecreasing; defined for probability measures and
    z in the open unit interval.
    """
    if not m.is_probability():
        raise ValueError("quantile requires a probability measure")
    zz = np.asarray(z, dtype=float)
    if np.any(zz <= 0.0) or np.any(zz >= 1.0):
        raise ValueError("quantile argument must lie in (0, 1)")
    cum = m.cumulative()
    idx = np.minimum(np.searchsorted(cum, zz, side="right"), m.n_atoms - 1)
    out = m.positions[idx]
    return float(out) if np.isscalar(z) else out


def wasserstein1(m1: DiscreteMeasure, m2: DiscreteMeasure) -> float:
    """Exact W1 distance: integral over (0,1) of |F1^{-1} - F2^{-1}|.

    Both quantile functions are piecewise constant with breakpoints at the
    cumulative masses, so the integral is a finite sum over the merged
    breakpoint partition.  Total masses must agree to ``MASS_MATCH_TOL``.
    """
    if abs(m1.total_mass - m2.total_mass) > MASS_MATCH_TOL:
        raise ValueError("wasserstein1 requires equal total masses")
    if m1.n_atoms == 0 and m2.n_atoms == 0:
        return 0.0
    if m1.n_atoms == 0 or m2.n_atoms == 0:
        raise ValueError("wasserstein1 between an empty and a nonempty measure")
    c1 = m1.cumulative()
    c2 = m2.cumulative()
    edges = np.unique(np.concatenate([[0.0], c1, c2]))
    mids = 0.5 * (edges[1:] + edges[:-1])
    dz = np.diff(edges)
    q1 = m1.positions[np.minimum(np.searchsorted(c1, mids, side="right"), m1.n_atoms - 1)]
    q2 = m2.positions[np.minimum(np.searchsorted(c2, mids, side="right"), m2.n_atoms - 1)]
    return float(np.sum(np.abs(q1 - q2) * dz))


def first_moment(m: DiscreteMeasure) -> float:
    """Sum of mass*|position| over the atoms."""
    if m.n_atoms == 0:
        return 0.0
    return float(np.sum(m.masses * np.abs(m.positions)))


def write_csv(path, header: str, rows) -> Path:
    """Write the header line and one comma-separated line per row.

    Floats, numpy floats included, are written with 17 significant digits,
    which round-trips every double; every other value is written with str.
    ``rows`` may also be a 2-D float array, formatted in one pass with the
    same 17 digits; an integral value below 10**17 in it reads as str of
    the int would.  This is the one CSV format of the package's artifacts.
    """
    if isinstance(rows, np.ndarray):
        n, k = rows.shape
        text = header + "\n" + (",".join(["%.17g"] * k) + "\n") * n % tuple(rows.ravel().tolist())
    else:
        lines = [header] + [
            ",".join([f"{v:.17g}" if isinstance(v, (float, np.floating)) else str(v) for v in row]) for row in rows
        ]
        text = "\n".join(lines) + "\n"
    path = Path(path)
    path.write_text(text)
    return path


def write_atoms_csv(m: DiscreteMeasure, path) -> Path:
    """Dump atoms as ``position,mass`` lines."""
    return write_csv(path, "position,mass", np.column_stack([m.positions, m.masses]))
