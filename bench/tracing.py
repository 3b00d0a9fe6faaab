"""Span tracer that wraps aggr1d's layer functions from outside the package.

``install`` replaces each function named in ``LAYERS`` by a wrapper that
records one span per call: id, name, start, end, parent span and thread.
Every module of the package that imported the function by name gets the
wrapper too, so ``experiments.sample_particles`` is traced like
``initial.sample_particles``.  A layer that no longer exists is skipped
and reads 0.  A few wrappers also count work from their arguments or
results (convolution operations, kernel width, matrix bytes, merges).

Self time is computed per thread: a span's duration minus the durations
of its children on the same thread.  The ``experiments.cmd_*`` spans are
roots, not layers.  With P(t) the number of threads inside some layer
span at time t, the summed layer self time is the integral of P,
``trace.overlap_s`` the integral of max(P - 1, 0) and
``trace.unattributed_s`` the traced wall time with P = 0, so

    trace.self_sum_s - trace.overlap_s + trace.unattributed_s = trace.wall_s

exactly.  Unattributed time is driver code outside any wrapped layer
(config handling, inline CSV formatting) plus, in ``converge``, the
pool's start-up and join.
"""

from __future__ import annotations

import functools
import itertools
import pathlib
import sys
import threading
import time
from collections import defaultdict

# (module, attribute) of every wrapped layer.  Helpers that a layer calls
# and that are not listed here count in that layer's self time.
LAYERS = (
    ("fv", "project_initial"),
    ("fv", "build_nu_kernel"),
    ("fv", "_wprime_matrix"),
    ("fv", "linear_velocity"),
    ("fv", "nonlinear_velocity"),
    ("fv", "compute_nu"),
    ("fv", "solve_s_gradient"),
    ("fv", "velocity_from_gradients"),
    ("fv", "entropy_residual"),
    ("fv", "cfl_dt"),
    ("fv", "step"),
    ("fv", "_boundary_mass"),
    ("fv", "snapshot_measure"),
    ("fv", "DiagnosticsReport.record"),
    ("fv", "DiagnosticsReport.write_csv"),
    ("fv", "run"),
    ("particles", "advance_to"),
    ("particles", "_rk4"),
    ("particles", "_linear_vel"),
    ("particles", "_nonlinear_vel"),
    ("particles", "_wtilde_sums"),
    ("particles", "_merge_contacts"),
    ("particles", "snapshot"),
    ("measure", "wasserstein1"),
    ("measure", "from_cells"),
    ("measure", "write_atoms_csv"),
    ("initial", "sample_particles"),
    ("experiments", "_particle_system"),
    ("experiments", "_write_snapshot_csv"),
    ("experiments", "_write_manifest"),
)
ROOTS = ("cmd_simulate", "cmd_particles", "cmd_compare", "cmd_converge")
# every artifact write the drivers make, including inline ``Path.write_text``
WRITERS = (
    "experiments.write_snapshot_csv",
    "fv.DiagnosticsReport.write_csv",
    "experiments.write_manifest",
    "measure.write_atoms_csv",
    "io.write_text",
)
VEL_EVALS = ("particles.linear_vel", "particles.nonlinear_vel")
ORACLE = ("experiments.particle_system", "particles.advance_to")


def label(module: str, attr: str) -> str:
    return f"{module}.{attr.lstrip('_')}"


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _on_cfl_dt(st, args, kwargs, result):
    st.dt_cfl = result


def _on_step(st, args, kwargs, result):
    if _arg(args, kwargs, 2, "dt") < st.dt_cfl * (1.0 - 1e-12):
        st.counts["fv.shortened_steps"] += 1


def _on_compute_nu(st, args, kwargs, result):
    st.counts["fv.compute_nu.ops"] += _arg(args, kwargs, 0, "state").rho.size * _arg(args, kwargs, 1, "kernel").values.size


def _on_build_nu_kernel(st, args, kwargs, result):
    st.counts["fv.kernel_half_width"] = max(st.counts["fv.kernel_half_width"], result.half_width)


def _on_wprime_matrix(st, args, kwargs, result):
    st.counts["fv.wprime_matrix.bytes"] += result.nbytes


def _on_merge_contacts(st, args, kwargs, result):
    st.counts["particles.merges"] += int(bool(result[2]))


def _on_wasserstein1(st, args, kwargs, result):
    st.counts["measure.atoms"] += args[0].n_atoms + args[1].n_atoms


HOOKS = {
    "fv.cfl_dt": _on_cfl_dt,
    "fv.step": _on_step,
    "fv.compute_nu": _on_compute_nu,
    "fv.build_nu_kernel": _on_build_nu_kernel,
    "fv.wprime_matrix": _on_wprime_matrix,
    "particles.merge_contacts": _on_merge_contacts,
    "measure.wasserstein1": _on_wasserstein1,
}


class _ThreadState(threading.local):
    def __init__(self):
        self.tid = threading.get_ident()
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.dt_cfl = float("inf")
        self.registered = False


class Tracer:
    """Records spans in memory; ``summary`` turns them into layer metrics."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id or -1, thread id)
        self.installed: set[str] = set()
        self._ids = itertools.count()
        self._state = _ThreadState()
        self._thread_counts: list[dict] = []
        self._lock = threading.Lock()

    def _thread_state(self) -> _ThreadState:
        st = self._state
        if not st.registered:
            with self._lock:
                self._thread_counts.append(st.counts)
            st.registered = True
        return st

    def wrap(self, name: str, fn):
        spans, ids, hook = self.spans, self._ids, HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._thread_state()
            sid = next(ids)
            parent = st.stack[-1] if st.stack else -1
            st.stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                st.stack.pop()
                spans.append((sid, name, t0, t1, parent, st.tid))
            if hook is not None:
                hook(st, args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "aggr1d") -> None:
        """Wrap every layer that exists, plus the roots and ``Path.write_text``."""
        mods = {n: m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")}
        targets = list(LAYERS) + [("experiments", r) for r in ROOTS]
        for module, attr in targets:
            owner = mods.get(f"{package}.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                continue
            name = label(module, attr)
            wrapped = self.wrap(name, fn)
            setattr(owner, leaf, wrapped)
            if not path:  # rebind names other modules imported with ``from x import f``
                for m in mods.values():
                    for k, v in list(vars(m).items()):
                        if v is fn:
                            setattr(m, k, wrapped)
            self.installed.add(name)
        pathlib.Path.write_text = self.wrap("io.write_text", pathlib.Path.write_text)

    def counts(self) -> dict[str, float]:
        total: dict[str, float] = defaultdict(float)
        for c in self._thread_counts:
            for k, v in c.items():
                total[k] = max(total[k], v) if k == "fv.kernel_half_width" else total[k] + v
        return total

    def summary(self, t0: float, t1: float, main_tid: int) -> dict[str, float]:
        """Layer metrics for the traced interval [t0, t1] (see the module docstring)."""
        by_id = {s[0]: s for s in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for sid, name, a, b, parent, tid in self.spans:
            if parent >= 0:
                child_time[parent] += b - a
        is_root = {label("experiments", r) for r in ROOTS}
        self_s: dict[str, float] = defaultdict(float)
        incl: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        outer: list[tuple[float, float, int]] = []  # outermost layer spans: (start, end, thread)
        write_s = 0.0
        for sid, name, a, b, parent, tid in self.spans:
            calls[name] += 1
            incl[name] += b - a
            if name in is_root:
                continue
            self_s[name] += b - a - child_time[sid]
            if parent < 0 or by_id[parent][1] in is_root:
                outer.append((a, b, tid))
            if name in WRITERS and not self._has_ancestor(by_id, parent, WRITERS):
                write_s += b - a
        direct_vel = sum(
            1 for s in self.spans if s[1] in VEL_EVALS and s[4] >= 0 and by_id[s[4]][1] == "particles.advance_to"
        )
        counts = self.counts()
        steps = calls["fv.step"]
        self_sum = sum(self_s.values())
        covered = _union_length([(a, b) for a, b, _ in outer])
        out = {label(m, a) + ".self_s": self_s[label(m, a)] for m, a in LAYERS}
        out["io.write_text.self_s"] = self_s["io.write_text"]
        out.update(
            {
                "fv.steps": steps,
                "fv.shortened_steps": counts["fv.shortened_steps"],
                "fv.us_per_step": 1e6 * incl["fv.run"] / steps if steps else 0.0,
                "fv.compute_nu.ops": counts["fv.compute_nu.ops"],
                "fv.kernel_half_width": counts["fv.kernel_half_width"],
                "fv.wprime_matrix.bytes": counts["fv.wprime_matrix.bytes"],
                "particles.steps": direct_vel,
                "particles.rk4_calls": calls["particles.rk4"],
                "particles.bisect_rk4_calls": max(0, calls["particles.rk4"] - direct_vel),
                "particles.vel_evals": sum(calls[n] for n in VEL_EVALS),
                "particles.merges": counts["particles.merges"],
                "measure.wasserstein1.calls": calls["measure.wasserstein1"],
                "measure.atoms_per_call": (
                    counts["measure.atoms"] / calls["measure.wasserstein1"] if calls["measure.wasserstein1"] else 0.0
                ),
                "experiments.write_s": write_s,
                "experiments.pool_s": _union_length([(a, b) for a, b, tid in outer if tid != main_tid]),
                "experiments.oracle_s": sum(incl[n] for n in ORACLE),
                "trace.wall_s": t1 - t0,
                "trace.self_sum_s": self_sum,
                "trace.overlap_s": self_sum - covered,
                "trace.unattributed_s": (t1 - t0) - covered,
                "trace.spans": len(self.spans),
                "trace.layers_missing": sum(1 for m, a in LAYERS if label(m, a) not in self.installed),
            }
        )
        return out

    @staticmethod
    def _has_ancestor(by_id, sid: int, names) -> bool:
        while sid >= 0:
            _, name, _, _, parent, _ = by_id[sid]
            if name in names:
                return True
            sid = parent
        return False


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total
