"""Command-line entry point.

Subcommands: simulate | particles | compare | converge.  A run is defined
by either a JSON config (--config) or a preset (--example 1|2|3), not
both; the other flags override individual fields.  Exit codes: 0 success,
2 configuration or usage error, 3 runtime abort (CFL/boundary/diagnostic
failure).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import ConfigError, SimConfig, example_preset, load_config
from .experiments import cmd_compare, cmd_converge, cmd_particles, cmd_simulate
from .fv import SchemeError


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--example", type=int, choices=(1, 2, 3), help="catalogue preset")
    p.add_argument("--out", help="output directory")
    p.add_argument("--label", help="run label (output subdirectory name)")
    p.add_argument("--cells", type=int, help="override n_cells")
    p.add_argument("--gamma", type=float, help="override CFL fraction")
    p.add_argument("--t-end", type=float, dest="t_end", help="override final time")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aggr1d", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "finite-volume run with snapshot/diagnostic CSVs"),
        ("particles", "sticky-particle run on atomic initial data"),
        ("compare", "W1 between the scheme and a particle oracle over time"),
        ("converge", "grid-refinement study against a particle oracle"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "converge":
            p.add_argument("--levels", help="comma-separated cell counts, e.g. 100,200,400")
        if name in ("compare", "converge"):
            p.add_argument("--particles", type=int, dest="oracle_particles", help="oracle particle count")
    return parser


def _config_from_args(args) -> SimConfig:
    if args.config is None and args.example is None:
        raise ConfigError("provide --config or --example")
    overrides = {}
    if args.out is not None:
        overrides["output_dir"] = args.out
    if args.label is not None:
        overrides["label"] = args.label
    if args.cells is not None:
        overrides["n_cells"] = args.cells
    if args.gamma is not None:
        overrides["gamma"] = args.gamma
    if args.t_end is not None:
        overrides["t_end"] = args.t_end
    if getattr(args, "levels", None):
        try:
            overrides["levels"] = tuple(int(v) for v in args.levels.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --levels value {args.levels!r}") from exc
    if getattr(args, "oracle_particles", None) is not None:
        if args.command == "converge":
            overrides["converge_particles"] = args.oracle_particles
        else:
            overrides["compare_particles"] = args.oracle_particles
    if args.config is not None and args.example is not None:
        raise ConfigError("use either --config or --example, not both")
    if args.config is not None:
        return load_config(args.config, overrides)
    cfg = example_preset(args.example)
    return replace(cfg, **overrides).validate() if overrides else cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "simulate":
            art = cmd_simulate(cfg)
        elif args.command == "particles":
            art = cmd_particles(cfg)
        elif args.command == "compare":
            art = cmd_compare(cfg).artifacts
        else:
            art = cmd_converge(cfg).artifacts
        print(f"wrote {len(art.files)} files to {art.out_dir}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SchemeError, RuntimeError, ValueError) as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
