"""Benchmark workloads: seeded configs built from the catalogue presets.

Seed 0 gives the catalogue data exactly (``init1``: two bumps at +-0.7).
Any other seed moves every bump centre away from (or towards) the origin
by the same offset, drawn uniformly from [-CENTRE_JITTER, CENTRE_JITTER].
Mirrored bumps stay mirrored, so the data stay even and the delta_0
reference of ``simulate-kink`` holds.  Amplitudes are not jittered: the
only profile used is one symmetric pair, the pair must keep equal
amplitudes to stay even, and a common amplitude factor is removed by the
unit-mass normalisation, so it would change nothing.  With the outermost
centre at 0.72 the Gaussian tail beyond |x| = 2.45, which holds the 5-cell
boundary guard of every grid used (1000 cells or more), carries about
e^-30 of the mass, far below the 1e-8 abort threshold.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

CENTRE_JITTER = 0.02

# workload name -> the cmd_* driver that runs it; why each was chosen is in README.md
WORKLOADS = {
    "compare-exp": "compare",
    "simulate-kink": "simulate",
    "converge-linear": "converge",
}


def jittered_init1(seed: int):
    from aggr1d.initial import GaussianBump, InitialData, builtin_initial

    base = builtin_initial("init1")
    if seed == 0:
        return base
    shift = random.Random(seed).uniform(-CENTRE_JITTER, CENTRE_JITTER)
    bumps = tuple(GaussianBump(b.amplitude, b.center + math.copysign(shift, b.center), b.width) for b in base.bumps)
    return InitialData(bumps=bumps)


def make_config(name: str, seed: int, output_dir: str):
    """The workload's SimConfig, before validation (validation is part of set-up).

    aggr1d is imported here, not at module level, so that the parent process
    can list the workloads without importing the package under test.
    """
    from aggr1d.config import example_preset

    init = jittered_init1(seed)
    if name == "compare-exp":
        return replace(
            example_preset(1), label=name, n_cells=2000, compare_particles=256, initial=init, output_dir=output_dir
        )
    if name == "simulate-kink":
        return replace(example_preset(2), label=name, n_cells=4000, initial=init, output_dir=output_dir)
    if name == "converge-linear":
        # acceptance criterion 5 (abs_half, identity law, init1, t = 1), refined
        return replace(
            example_preset(3),
            label=name,
            potential_name="abs_half",
            potential_sigma=None,
            initial=init,
            t_end=1.0,
            sample_times=(),
            levels=(1000, 2000, 4000),
            converge_particles=512,
            output_dir=output_dir,
        )
    raise KeyError(name)
