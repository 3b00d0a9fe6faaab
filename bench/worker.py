"""One benchmark process: either set-up alone, or one cmd_* call and its checks.

    python3 bench/worker.py --src SRC --workload NAME --seed N --out DIR --mode run|trace|setup

Prints one JSON object as its last line of standard output and exits 0
only if every output check passed.

``--mode setup`` times set-up (``setup_s``): from the import of numpy and
aggr1d to the end of the grid-only precomputation, that is config
validation, ``fv.project_initial`` and the nu kernel (nonlinear mode) or
the W' matrix (linear mode) on every grid the command uses, and
``initial.sample_particles`` for the oracle.  The other modes import the
package untimed and time the ``cmd_*`` call alone (``wall_s``), which
repeats that set-up and writes the artifacts.  Set-up runs in its own
process so that its allocations do not count in the run's peak RSS.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import threading
import time
import traceback
from pathlib import Path

import workloads

MASS_TOL = 1e-12
# W1 between the final state and the workload's reference must not exceed:
W1_BOUND = {
    "compare-exp": 0.01,  # observed 0.00125 = dx/2: both engines end in one central Dirac
    "simulate-kink": 1.25e-3,  # one cell; observed dx/2 = 6.25e-4
    "converge-linear": 0.005,  # finest level, observed about 0.0015
}
# per-level convergence ratio, the acceptance-suite bound
CONVERGE_RATIO_MAX = 0.75


def _prepare(cfg, command: str, fv, initial) -> None:
    """The grid-only precomputation that the command call repeats."""
    pot = cfg.make_potential()
    init = cfg.initial.atoms if cfg.initial.is_atomic else cfg.initial.density
    linear = getattr(cfg, "mode", None) == "linear" and hasattr(fv, "_wprime_matrix")
    for n in cfg.levels if command == "converge" else (cfg.n_cells,):
        grid = cfg.make_grid(n)
        fv.project_initial(init, grid)
        if linear:
            fv._wprime_matrix(pot, grid)
        else:
            fv.build_nu_kernel(pot, grid)
    if command != "simulate":
        n = cfg.compare_particles if command == "compare" else cfg.converge_particles
        initial.sample_particles(cfg.initial, n, cfg.domain)


def _check(name: str, command: str, result, fv_runs, measure) -> tuple[list[str], float]:
    """Output checks of one run; returns (errors, w1_error)."""
    import numpy as np

    errors = []
    if not fv_runs:
        errors.append("fv.run was never called")
    for _, diag in fv_runs:
        mass_err = float(np.max(np.abs(np.asarray(diag.mass) - 1.0)))
        if not mass_err <= MASS_TOL:
            errors.append(f"mass drifted from 1 by {mass_err:.3g}")
        if not float(np.min(diag.min_rho)) >= 0.0:
            errors.append("negative density")
    art = result if command == "simulate" else result.artifacts
    manifest = json.loads((art.out_dir / "manifest.json").read_text())
    if not manifest["outputs"]:
        errors.append("manifest lists no outputs")
    for entry in manifest["outputs"]:
        digest = hashlib.sha256((art.out_dir / entry["path"]).read_bytes()).hexdigest()
        if digest != entry["sha256"]:
            errors.append(f"sha256 mismatch for {entry['path']}")
    if command == "compare":
        w1 = float(result.w1[-1])
    elif command == "simulate":
        final = fv_runs[-1][0][-1][1]
        w1 = measure.wasserstein1(final, measure.DiscreteMeasure([0.0], [final.total_mass]))
    else:
        errs = [r.w1_error for r in result.rows]
        w1 = float(errs[-1])
        if not all(b < a for a, b in zip(errs, errs[1:])):
            errors.append(f"W1 errors do not decrease under refinement: {errs}")
        if not all(r <= CONVERGE_RATIO_MAX for r in result.ratios):
            errors.append(f"convergence ratios above {CONVERGE_RATIO_MAX}: {result.ratios}")
    if not w1 <= W1_BOUND[name]:
        errors.append(f"w1_error {w1:.6g} above the bound {W1_BOUND[name]}")
    return errors, w1


def run(args) -> dict:
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (set-up includes the numpy import)

    import aggr1d
    from aggr1d import experiments, fv, initial, measure

    if Path(aggr1d.__file__).resolve().parent != src / "aggr1d":
        raise RuntimeError(f"imported aggr1d from {aggr1d.__file__}, not from {src}")
    command = workloads.WORKLOADS[args.workload]
    out_dir = Path(args.out)
    cfg = workloads.make_config(args.workload, args.seed, str(out_dir)).validate()
    if args.mode == "setup":
        _prepare(cfg, command, fv, initial)
        return {"setup_s": time.perf_counter() - t0}

    fv_runs = []  # (snapshots, diagnostics) of every fv.run call, for the checks
    fv_run = fv.run

    def capture(*a, **k):
        out = fv_run(*a, **k)
        fv_runs.append(out)
        return out

    fv.run = capture
    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    cmd = getattr(experiments, f"cmd_{command}")
    t1 = time.perf_counter()
    result = cmd(cfg)
    t2 = time.perf_counter()
    if tracer is not None:  # before the checks, which call traced functions
        layers = tracer.summary(t1, t2, threading.main_thread().ident)
        spans = [[sid, name, a - t1, b - t1, parent, tid] for sid, name, a, b, parent, tid in tracer.spans]
    errors, w1 = _check(args.workload, command, result, fv_runs, measure)
    record = {
        "wall_s": t2 - t1,
        "w1_error": w1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "errors": errors,
    }
    if tracer is not None:
        layers["experiments.write_bytes"] = sum(p.stat().st_size for p in (out_dir / cfg.label).iterdir())
        record["layers"] = layers
        (out_dir / "spans.json").write_text(json.dumps(spans))
    return record


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--src", required=True)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("run", "trace", "setup"), default="run")
    args = p.parse_args()
    try:
        record = run(args)
    except Exception as exc:  # the parent counts the run as failed
        traceback.print_exc()
        record = {"errors": [f"{type(exc).__name__}: {exc}"]}
    print(json.dumps(record))
    return 1 if record.get("errors") else 0


if __name__ == "__main__":
    sys.exit(main())
