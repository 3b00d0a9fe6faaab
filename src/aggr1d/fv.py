"""Upwind finite-volume scheme on measure data.

The density update is the conservative upwind step

    rho_i^{n+1} = rho_i^n - (dt/dx) * (J_{i+1/2} - J_{i-1/2}),
    J_{i+1/2}   = (a_i)_+ rho_i + (a_{i+1})_- rho_{i+1},

run under the CFL restriction a_inf * dt / dx <= 1 with a_inf =
max(|a(-lip)|, |a(lip)|), lip = sup|W'|: every interface gradient below
lies in [-lip, lip] for unit mass (the proof is in ``velocity_sup_bound``).
The restriction makes the update a convex combination of neighboring
cells: densities stay nonnegative exactly and the cumulative mass
function is total-variation diminishing.
The update is evaluated in that convex-combination form (not as a flux
difference) so positivity survives floating point.

The grid stands in for the whole line: the flux that leaves the two end
cells is dropped, so the mass recorded at each step is exactly what the
grid still holds.  With an attractive potential the end-cell speeds point
inward and nothing leaves.  :func:`run` alone aborts, on its diagnostics rows:
lost mass above ``BOUNDARY_MASS_TOL``, a non-finite max|a|, a CFL violation.

Cell i's speed is the mean of the speed law a over [s_{i-1/2}, s_{i+1/2}],
between two interface values of the cumulative primitive gradient
s = d/dx (W * rho); the law states that mean itself, as ``law.mean``, in a
closed form exact for every interval length.  The gradients come from the
conservation relation per cell

    s_{i+1/2} - s_{i-1/2} = dx * (nu_i - c * rho_i),

where nu_i discretizes (w * rho)(x_i) with a kernel whose two-term
averages are the exact cell integrals of w; w is one exponential, so the
kernel is too, and nu is two one-sided exponential sums in O(N).  The left
anchor of the cumulative solve is the value of W' * rho left of the grid:
the -infinity limit u_inf * mass plus a correction for the w-mass that the
grid-limited nu sum cannot see, one weight per source cell that the kernel
stores with its values.
Every grid-only term is built once per grid, so a step evaluates no exponential.
With this anchor the identity law
a = id, whose mean is the interface midpoint, reproduces the
direct sum a_i = sum_{j != i} W'(x_i - x_j) rho_j dx of the linear
aggregation equation to machine precision on any grid, so the linear
equation needs no engine of its own; and for even data the interface
gradients are exactly antisymmetric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measure import DiscreteMeasure, from_cells, write_csv
from .potentials import PointyPotential, VelocityLaw, block_exp_sums, exp_blocks, velocity_sup_bound

__all__ = [
    "Grid",
    "FVState",
    "NuKernel",
    "DiagnosticsReport",
    "SchemeError",
    "project_initial",
    "build_nu_kernel",
    "compute_nu",
    "solve_s_gradient",
    "velocity_from_gradients",
    "nonlinear_velocity",
    "cfl_dt",
    "step",
    "run",
]

# run() aborts once the grid has lost this much mass through its two end cells
BOUNDARY_MASS_TOL = 1e-8

# 5-point Gauss-Legendre rule on [-1, 1], the values of
# numpy.polynomial.legendre.leggauss(5) bit for bit (the closed form 128/225
# of the middle weight differs in the last bit)
GAUSS5_NODES = (-0.906179845938664, -0.5384693101056831, 0.0, 0.5384693101056831, 0.906179845938664)
GAUSS5_WEIGHTS = (0.23692688505618928, 0.4786286704993663, 0.5688888888888887, 0.4786286704993663, 0.23692688505618928)


class SchemeError(RuntimeError):
    """Abort of :func:`run`: non-finite speed, CFL violation, mass lost at the grid edge, stalled time."""


@dataclass(frozen=True)
class Grid:
    """Uniform grid of cell centers x_i = x_min + i*dx, cells [x_i - dx/2, x_i + dx/2)."""

    x_min: float
    dx: float
    n_cells: int

    def __post_init__(self):
        if self.dx <= 0.0:
            raise ValueError("dx must be positive")
        if self.n_cells < 2:
            raise ValueError("need at least two cells")

    @classmethod
    def from_domain(cls, lo: float, hi: float, n_cells: int) -> "Grid":
        if hi <= lo:
            raise ValueError("empty domain")
        dx = (hi - lo) / n_cells
        return cls(x_min=lo + 0.5 * dx, dx=dx, n_cells=n_cells)

    @property
    def centers(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_cells)

    @property
    def left_edge(self) -> float:
        return self.x_min - 0.5 * self.dx


@dataclass(frozen=True)
class FVState:
    grid: Grid
    rho: np.ndarray
    time: float = 0.0
    step_index: int = 0

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        if rho.shape != (self.grid.n_cells,):
            raise ValueError("density length must match the grid")
        if np.any(rho < 0.0):
            raise ValueError("densities must be nonnegative")
        rho = rho.copy()
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    @property
    def mass(self) -> float:
        return float(self.rho.sum() * self.grid.dx)


def _stepped(grid: Grid, rho: np.ndarray, time: float, step_index: int) -> FVState:
    """FVState around a density this module built nonnegative: no scan, no copy."""
    rho.setflags(write=False)
    state = object.__new__(FVState)
    for name, value in (("grid", grid), ("rho", rho), ("time", time), ("step_index", step_index)):
        object.__setattr__(state, name, value)
    return state


@dataclass(frozen=True)
class NuKernel:
    """Discretization kernel g for nu_i = dx * sum_k rho_k g_{i-k}.

    ``values[j + half_width]`` is the weight at cell offset j, one for every
    offset of the grid.  For w = amp*e^{-rate|x|} it is geometric,
    g_j = beta*e^{-rate|j|dx}, and :func:`compute_nu` sums it in O(N) from
    g_0 = beta and ``blocks``, the position-only part of the one-sided sums
    (:func:`~aggr1d.potentials.exp_blocks` on the offsets 0, dx, 2 dx, ...).

    ``tail[j]`` is source cell j's left-anchor weight: its w-mass left of
    the first cell center, int_{-inf}^{-j dx} w, minus dx/2 times the
    kernel weight at offset -j.  It is all zeros for kink-only potentials,
    whose kernel is the point kernel [0].
    """

    values: np.ndarray
    half_width: int
    tail: np.ndarray
    blocks: tuple = ()


def project_initial(initial, grid: Grid) -> FVState:
    """Project initial data onto cell averages and renormalize to unit mass.

    Atomic data (a :class:`DiscreteMeasure`, which must pass
    ``is_probability``) assigns each atom's full mass to its containing
    cell (atoms on a cell interface go right); callable densities
    are integrated per cell with 5-point Gauss-Legendre.  The projected
    mass is renormalized to 1 exactly at t = 0.
    """
    dx = grid.dx
    rho = np.zeros(grid.n_cells)
    if isinstance(initial, DiscreteMeasure):
        if not initial.is_probability():
            raise ValueError("atomic initial data must carry unit mass")
        idx = np.floor((initial.positions - grid.left_edge) / dx).astype(int)
        if np.any(idx < 0) or np.any(idx >= grid.n_cells):
            raise ValueError("atom support extends outside the grid")
        np.add.at(rho, idx, initial.masses / dx)
    elif callable(initial):
        centers = grid.centers
        for xi, wi in zip(GAUSS5_NODES, GAUSS5_WEIGHTS):
            vals = np.asarray(initial(centers + 0.5 * dx * xi), dtype=float)
            if np.any(vals < -1e-13):
                raise ValueError("initial density must be nonnegative")
            rho += 0.5 * wi * np.maximum(vals, 0.0)
    else:
        raise TypeError("initial data must be a DiscreteMeasure or a callable density")
    total = float(np.sum(rho) * dx)
    if total <= 0.0:
        raise ValueError("projected initial mass is zero")
    rho /= total
    return FVState(grid=grid, rho=rho, time=0.0, step_index=0)


def build_nu_kernel(pot: PointyPotential, grid: Grid) -> NuKernel:
    """Kernel of the w-convolution, from exact per-cell integrals of w.

    The weights solve the two-term averages (g_j + g_{j+1})/2 = (1/dx) *
    int w over the offset cell [j dx, (j+1) dx] for every offset; for
    w = amp*e^{-rate|x|} the symmetric solution is g_j = w(j dx) *
    tanh(h)/h with h = rate*dx/2.  On a uniform grid the weights depend
    only on the offset i - k, so one kernel serves every cell.  The
    left-anchor weights ``tail`` are built here too, so no step evaluates w.
    """
    dx = grid.dx
    n = grid.n_cells
    if pot.amp == 0.0:
        return NuKernel(values=np.zeros(1), half_width=0, tail=np.zeros(n))
    h = 0.5 * pot.rate * dx
    g = pot.w_eval(dx * np.arange(1 - n, n)) * (np.tanh(h) / h)
    tail = pot.w_left_integral(-dx * np.arange(n)) - 0.5 * dx * g[n - 1 :: -1]  # g at offsets 0, -1, ..., 1 - n
    blocks = exp_blocks(dx * np.arange(n), pot.rate)  # the grid is its own mirror image
    return NuKernel(values=g, half_width=n - 1, tail=tail, blocks=blocks)


def compute_nu(state: FVState, kernel: NuKernel) -> np.ndarray:
    """Discrete w-convolution nu_i = dx * sum_k rho_k g_{i-k}.

    A point kernel (``half_width == 0``, kink-only potentials) is a plain
    scale.  A geometric kernel gives nu = g_0 * (P + Q + m) with cell
    masses m = rho*dx and the one-sided sums P_i = sum_{k<i} m_k
    e^{-rate (i-k) dx}, Q_i = sum_{k>i} likewise: O(N) per call.
    """
    k = kernel.half_width
    rho = state.rho
    dx = state.grid.dx
    if k == 0:
        return rho * kernel.values[0] * dx
    if rho.size != k + 1:
        raise ValueError("the nu kernel was built for another grid")
    m = rho * dx
    sums = block_exp_sums(kernel.blocks, m) + block_exp_sums(kernel.blocks, m[::-1])[::-1]
    return kernel.values[k] * (sums + m)


def solve_s_gradient(state: FVState, pot: PointyPotential, nu: np.ndarray | None, kernel: NuKernel) -> np.ndarray:
    """Interface gradients of the primitive: n+1 values s_{i-1/2}, i = 0..n.

    Cumulative solve of  s_{i+1/2} = s_{i-1/2} + dx*(nu_i - c*rho_i),
    anchored left of the grid at the exact value of W' * rho there,
    u_inf*mass + sum_j m_j tail_j with the kernel's stored left-anchor
    weights.  Those use the kernel's own left-edge values, so the
    telescoped interface gradients agree with the direct convolution
    identically.  The point kernel's nu and tail are all zeros, so there
    ``nu`` is not read (``None`` will do) and the sums run on -c*rho*dx.
    """
    dx = state.grid.dx
    rho = state.rho
    cell_mass = rho * dx
    u_left = pot.u_inf * float(cell_mass.sum())
    rhs = pot.c * rho
    if kernel.half_width:
        u_left += float(cell_mass.dot(kernel.tail))
        np.subtract(nu, rhs, out=rhs)
        rhs *= dx
    else:
        rhs *= -dx
    s = np.empty(state.grid.n_cells + 1)
    s[0] = u_left
    rhs.cumsum(out=s[1:])
    s[1:] += u_left
    return s


def velocity_from_gradients(law: VelocityLaw, s: np.ndarray) -> np.ndarray:
    """Per-cell speed from interface gradients: the mean of a over [s_{i-1/2}, s_{i+1/2}]."""
    return law.mean(s[:-1], s[1:])


def nonlinear_velocity(state: FVState, pot: PointyPotential, law: VelocityLaw, kernel: NuKernel) -> np.ndarray:
    """Per-cell speeds a_i for any speed law, as an array, with the grid's nu kernel."""
    nu = compute_nu(state, kernel) if kernel.half_width else None
    return velocity_from_gradients(law, solve_s_gradient(state, pot, nu, kernel))


def cfl_dt(vel_bound: float, dx: float, gamma: float) -> float:
    """Time step gamma * dx / a_inf."""
    if dx <= 0.0 or not (0.0 < gamma <= 1.0):
        raise ValueError("need dx > 0 and gamma in (0, 1]")
    if not vel_bound > 0.0:
        raise ValueError("velocity bound must be positive")
    return gamma * dx / vel_bound


def step(state: FVState, a: np.ndarray, dt: float) -> FVState:
    """One upwind step with per-cell speeds ``a``, in positivity-preserving form.

    Cell i sends the share s_i = min((dt/dx)|a_i|, 1) of its content to the
    side a_i points to and keeps the rest:

    rho_i^{n+1} = rho_i (1 - s_i) + s_{i-1} rho_{i-1} [a_{i-1} > 0]
                  + s_{i+1} rho_{i+1} [a_{i+1} < 0].

    Every addend is nonnegative and no cell sends more than it holds, so for
    finite speeds and dt >= 0 the step conserves mass and keeps min rho >= 0
    exactly; :func:`run` checks CFL, and the cap binds only in its 1e-9 slack.
    """
    if dt < 0.0:
        raise ValueError("dt must be nonnegative")
    rho = state.rho
    share = dt / state.grid.dx * np.abs(a)
    np.minimum(share, 1.0, out=share)
    new = 1.0 - share
    new *= rho
    share *= rho  # becomes the mass each cell sends
    new[1:] += share[:-1] * (a[:-1] > 0.0)
    new[:-1] += share[1:] * (a[1:] < 0.0)
    return _stepped(state.grid, new, state.time + dt, state.step_index + 1)


@dataclass
class DiagnosticsReport:
    """Per-time-level scheme diagnostics, one row per level (including t=0).

    ``abs_x`` holds |x_i| on the run's grid, the weights of ``moment1``.
    """

    abs_x: np.ndarray
    step_index: list[int] = field(default_factory=list)
    time: list[float] = field(default_factory=list)
    mass: list[float] = field(default_factory=list)
    min_rho: list[float] = field(default_factory=list)
    max_abs_a: list[float] = field(default_factory=list)
    moment1: list[float] = field(default_factory=list)
    support_lo: list[int] = field(default_factory=list)
    support_hi: list[int] = field(default_factory=list)

    def record(self, state: FVState, a: np.ndarray) -> None:
        rho = state.rho
        positive = rho > 0.0
        lo = int(positive.argmax())
        hi = rho.size - 1 - int(positive[::-1].argmax())
        if not positive[lo]:
            lo = hi = -1
        self.step_index.append(state.step_index)
        self.time.append(state.time)
        self.mass.append(state.mass)
        self.min_rho.append(float(rho.min()))
        self.max_abs_a.append(float(np.abs(a).max()))
        self.moment1.append(float((self.abs_x * rho * state.grid.dx).sum()))
        self.support_lo.append(lo)
        self.support_hi.append(hi)

    @property
    def support_cells(self) -> list[int]:
        return [hi - lo + 1 if lo >= 0 else 0 for lo, hi in zip(self.support_lo, self.support_hi)]

    def write_csv(self, path) -> None:
        header = "step,time,mass,min_rho,max_abs_a,moment1,support_cells"
        columns = (self.step_index, self.time, self.mass, self.min_rho, self.max_abs_a, self.moment1, self.support_cells)
        write_csv(path, header, np.column_stack(columns))


def run(
    state0: FVState,
    pot: PointyPotential,
    law: VelocityLaw,
    t_end: float,
    gamma: float,
    sample_times=(),
    on_sample=None,
):
    """Advance the scheme to t_end, sampling snapshots at the requested times.

    Speeds are recomputed every step; the step is the CFL step shortened to
    land exactly on sample times and on t_end.  Returns (snapshots,
    diagnostics) with snapshots a list of (time, DiscreteMeasure).  Right
    after a snapshot is taken, ``on_sample``, if given, is called with its
    density, the read-only cell array it was taken from.  The
    upwind step conserves mass except for the flux leaving the two end
    cells, so the recorded mass measures the outflow exactly: the run aborts
    (SchemeError) once it has fallen more than ``BOUNDARY_MASS_TOL`` below
    the initial mass, when the recorded max|a| is not finite or makes
    dt*max|a|/dx exceed 1 + 1e-9, or when a step does not advance the time.
    """
    if t_end < 0.0:
        raise ValueError("t_end must be nonnegative")
    dt_cfl = cfl_dt(velocity_sup_bound(pot, law), state0.grid.dx, gamma)
    kernel = build_nu_kernel(pot, state0.grid)

    targets = sorted({float(t) for t in sample_times if 0.0 <= t <= t_end} | {float(t_end)})
    time_tol = 1e-9 * max(1.0, t_end)

    snapshots: list[tuple[float, DiscreteMeasure]] = []
    diag = DiagnosticsReport(abs_x=np.abs(state0.grid.centers))
    state = state0
    while True:
        a = nonlinear_velocity(state, pot, law, kernel)
        diag.record(state, a)
        amax = diag.max_abs_a[-1]
        if not np.isfinite(amax):
            raise SchemeError(f"non-finite mean speed at t = {state.time:.6g}")
        lost = diag.mass[0] - diag.mass[-1]
        if lost > BOUNDARY_MASS_TOL:
            raise SchemeError(f"mass {lost:.3g} left the grid by t = {state.time:.6g}; enlarge the domain")
        while targets and state.time >= targets[0] - time_tol:
            snapshots.append((targets[0], from_cells(state.grid.x_min, state.grid.dx, state.rho)))
            if on_sample is not None:
                on_sample(state.rho)
            targets.pop(0)
        if not targets:
            break
        t = state.time
        dt = min(dt_cfl, targets[0] - t)
        if dt / state.grid.dx * amax > 1.0 + 1e-9:
            raise SchemeError(f"CFL violation: dt*max|a|/dx = {dt / state.grid.dx * amax:.6g} > 1")
        state = step(state, a, dt)
        if not state.time > t:
            raise SchemeError(f"step {state.step_index} did not advance the time from t = {t!r}")
        if abs(state.time - targets[0]) < 1e-12:
            state = _stepped(state.grid, state.rho, targets[0], state.step_index)  # land on the sample time exactly
    return snapshots, diag
