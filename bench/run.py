"""aggr1d benchmark: one workload as a closed loop of fresh-process runs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory, and every file the runs write goes under ``.bench_out/``.
One client, one run at a time: each run is a new ``bench/worker.py``
process that makes one ``aggr1d.experiments.cmd_*`` call and checks the
outputs.  Each run is followed by a set-up-only process (``--trace 0``)
or a traced run (``--trace 1``); pairs start while the previous pair's
duration still fits in ``--seconds``, at least ``MIN_PAIRS`` of them.
With ``--trace 0`` set-up-only processes then fill the rest of
``--seconds``, at least up to ``SETUP_SAMPLES`` set-up samples.

``--trace 0`` reports the end-to-end metrics with tracing off, each the
median over the successful processes.  ``--trace 1`` reports the layer
metrics of the traced run with the (lower) median wall time, and the
tracing overhead as the traced minus the untraced median wall time.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts the
processes that exited non-zero or failed a check; failed runs are not
timed.  Environment and per-run values go to the lines before it and to
``.bench_out/result-<workload>-trace<k>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

MIN_PAIRS = 2
SETUP_SAMPLES = 15
# no process runs past this point, so that the benchmark ends within 180 s
HARD_LIMIT_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "w1_error": "length"}


def _layer_unit(name: str) -> str:
    if name.endswith("us_per_step"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("half_width"):
        return "cells"
    if name.endswith("atoms_per_call"):
        return "atoms"
    return "count"


def environment() -> dict:
    import numpy as np

    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "AGGR_THREADS": os.environ.get("AGGR_THREADS"),
        "git_commit": "unknown",
    }
    try:
        env["openblas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version", "unknown")
    except (KeyError, TypeError):
        env["openblas"] = "unknown"
    env["blas_threads"] = _blas_threads(np)
    if (ROOT / ".git").exists():
        try:
            env["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return env


def _blas_threads(np):
    """Thread count of the OpenBLAS that numpy loaded, through its own entry point."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return "unknown"


def child(workload: str, seed: int, mode: str, index: int, timeout_s: float) -> dict | None:
    """Run one worker process to completion; its record, or None if it failed."""
    out = OUT / f"{workload}-{index}"
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC), "--workload", workload]
    cmd += ["--seed", str(seed), "--out", str(out), "--mode", mode]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout_s, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"{mode} run {index} timed out", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        return None
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"errors": ["no result line"]}
    record["process_s"] = time.perf_counter() - t0
    if mode == "trace" and (out / "spans.json").exists():
        (out / "spans.json").replace(OUT / f"spans-{workload}.json")
    shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0 or record.get("errors"):
        sys.stderr.write(proc.stderr)
        print(f"{mode} run {index} failed (exit {proc.returncode}): {record.get('errors')}", file=sys.stderr)
        return None
    return record


class Loop:
    """Closed loop over fresh processes with the attempt/failure tally."""

    def __init__(self, workload: str, seed: int, seconds: float, hard_end: float):
        self.workload, self.seed = workload, seed
        self.deadline = time.perf_counter() + seconds
        self.hard_end = hard_end
        self.attempted = self.failed = 0
        self.records: dict[str, list[dict]] = {"run": [], "trace": [], "setup": []}

    def go(self, mode: str) -> None:
        self.attempted += 1
        record = child(self.workload, self.seed, mode, self.attempted, self.hard_end - time.perf_counter())
        if record is None:
            self.failed += 1
        else:
            self.records[mode].append(record)

    def fits(self, n_done: int, minimum: int, cost_s: float) -> bool:
        """Whether to start work expected to take ``cost_s``."""
        end = time.perf_counter() + cost_s
        return end <= self.hard_end and (n_done < minimum or end <= self.deadline)


def main() -> int:
    p = argparse.ArgumentParser(description="aggr1d benchmark (one workload)")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "aggr1d" / "__init__.py").is_file():
        print(f"package source not found at {SRC / 'aggr1d'}", file=sys.stderr)
        return 2
    hard_end = time.perf_counter() + HARD_LIMIT_S
    OUT.mkdir(exist_ok=True)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    # warm-up, untimed: bytecode cache and page cache
    if child(args.workload, args.seed, "setup", 0, hard_end - time.perf_counter()) is None:
        print("warm-up run failed", file=sys.stderr)
        return 1

    loop = Loop(args.workload, args.seed, args.seconds, hard_end)
    partner = "trace" if args.trace else "setup"
    pairs, pair_s = 0, 0.0
    while loop.fits(pairs, MIN_PAIRS, pair_s):
        t0 = time.perf_counter()
        loop.go("run")
        loop.go(partner)
        pairs, pair_s = pairs + 1, time.perf_counter() - t0
    while not args.trace and loop.fits(len(loop.records["setup"]), SETUP_SAMPLES, 0.0):
        loop.go("setup")

    runs, traced = loop.records["run"], loop.records["trace"]
    if not runs or (args.trace and not traced):
        print("no successful run", file=sys.stderr)
        return 1
    samples = {k: [r[k] for r in runs] for k in ("wall_s", "peak_rss_mb", "w1_error")}
    samples["setup_s"] = [r["setup_s"] for r in loop.records["setup"]]
    if args.trace == 0 and not samples["setup_s"]:
        print("no successful set-up run", file=sys.stderr)
        return 1
    print(f"failed_frac {loop.failed / loop.attempted:.6g} 1 ({loop.failed} of {loop.attempted} processes)")
    for k, v in samples.items():
        if not v:
            continue
        print(f"{k} median {statistics.median(v):.6g} {END_TO_END[k]} (n={len(v)}, min {min(v):.6g}, max {max(v):.6g})")

    if args.trace == 0:
        metrics = {k: {"value": statistics.median(samples[k]), "unit": u} for k, u in END_TO_END.items()}
    else:
        walls = [r["wall_s"] for r in traced]
        chosen = traced[walls.index(statistics.median_low(walls))]
        layers = dict(chosen["layers"])
        layers["trace.untraced_wall_s"] = statistics.median(samples["wall_s"])
        layers["trace.overhead_s"] = statistics.median(walls) - layers["trace.untraced_wall_s"]
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in sorted(layers.items())}
        print(f"traced wall_s {walls} untraced {samples['wall_s']}")

    result = {"correct": loop.failed == 0, "attempted": loop.attempted, "failed": loop.failed, "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed, env=env, runs=loop.records)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
