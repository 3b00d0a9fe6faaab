"""The equation's two exact symmetries, with power-of-two factors.

Time, identity law only: W -> MU*W makes the dynamics MU times faster,
rho_mu(t) = rho(MU*t).  Space, any law: x -> LAM*x with W -> LAM*W(x/LAM),
that is c kept and amp, rate divided by LAM, and
rho_lam(t, x) = rho(t/LAM, x/LAM)/LAM.  With powers of two every floating
point operation of the grid and of the exact kink-only oracle scales
exactly, except where a density is subnormal.
"""

from aggr1d.potentials import PointyPotential, make_velocity_law

MU = 2.0**3
LAM = 2.0**-2


def rescaling(cfg, symmetry):
    """(law, rescaled potential, length factor, time factor) of the config's run under one symmetry.

    The reference run takes the config's potential under the returned law;
    the rescaled run samples every time of the schedule times the time factor.
    """
    pot = cfg.make_potential()
    if symmetry == "time":
        return make_velocity_law("identity"), PointyPotential("time-scaled", MU * pot.c, MU * pot.amp, pot.rate), 1.0, 1.0 / MU
    return cfg.make_law(), PointyPotential("space-scaled", pot.c, pot.amp / LAM, pot.rate / LAM), LAM, LAM
