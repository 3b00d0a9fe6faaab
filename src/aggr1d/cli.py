"""Command-line entry point.

Subcommands: simulate | particles | compare | converge.  A run is defined
by either a JSON config (--config) or a preset (--example 1|2|3), not
both; the other flags override individual fields.  Exit codes: 0 success,
2 configuration or usage error (nothing is written), 3 runtime abort (CFL
violation, a step that does not advance the time, non-finite speed,
particle-oracle failure).  Any other exception is a bug and surfaces as a
traceback.  Every potential is attractive, so the grid is a closed box:
no mass leaves it.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import ConfigError, SimConfig, example_preset, load_config
from .experiments import cmd_compare, cmd_converge, cmd_particles, cmd_simulate

_COMMANDS = {
    "simulate": (cmd_simulate, "finite-volume run with snapshot/diagnostic CSVs"),
    "particles": (cmd_particles, "sticky-particle run on atomic initial data"),
    "compare": (cmd_compare, "W1 between the scheme and a particle oracle over time"),
    "converge": (cmd_converge, "grid-refinement study against a particle oracle"),
}
_ALL = tuple(_COMMANDS)


def _cell_counts(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


# flag, the SimConfig field it overrides, its type, help, the subcommands that take it
_OVERRIDES = (
    ("--out", "output_dir", str, "output directory", _ALL),
    ("--label", "label", str, "run label (output subdirectory name)", _ALL),
    ("--cells", "n_cells", int, "override n_cells", ("simulate", "compare")),
    ("--gamma", "gamma", float, "override CFL fraction", ("simulate", "compare", "converge")),
    ("--t-end", "t_end", float, "override final time", _ALL),
    ("--levels", "levels", _cell_counts, "comma-separated cell counts, e.g. 100,200,400", ("converge",)),
    ("--particles", "compare_particles", int, "oracle particle count", ("compare",)),
    ("--particles", "converge_particles", int, "oracle particle count", ("converge",)),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aggr1d", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--example", type=int, choices=(1, 2, 3), help="catalogue preset")
        for flag, dest, type_, flag_help, commands in _OVERRIDES:
            if name in commands:
                p.add_argument(flag, dest=dest, type=type_, help=flag_help, metavar=flag.lstrip("-").upper())
    return parser


def _config_from_args(args) -> SimConfig:
    if (args.config is None) == (args.example is None):
        raise ConfigError("give exactly one of --config and --example")
    cfg = load_config(args.config) if args.config is not None else example_preset(args.example)
    overrides = {dest: getattr(args, dest) for _, dest, *_ in _OVERRIDES if getattr(args, dest, None) is not None}
    return replace(cfg, **overrides)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        result = _COMMANDS[args.command][0](_config_from_args(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # SchemeError and the particle oracle's failures
        print(f"run aborted: {exc}", file=sys.stderr)
        return 3
    art = getattr(result, "artifacts", result)
    print(f"wrote {len(art.files)} files to {art.out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
