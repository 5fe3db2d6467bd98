"""Dual-shell oracles for the sums the package takes on the primal side.

The indicator weight's exact variance and lattice sum, and the binary
volume variance, are finite primal sums in the package.  Here they are
summed the original way, over dual shells with the closed-form
transforms and the adaptive truncation of convergent_dual_sum, so the
two routes share only the lattice sieve.  Every term of the variance
sums is positive, so a dual partial sum approaches the primal value from
below and stops short of it by at most its own tail bound.
"""

import math

import numpy as np

from greyvar.psf import sphere_area
from greyvar.spectral import AnnulusFourier, ball_indicator_fourier
from greyvar.variance import convergent_dual_sum


def annulus_variance_raw(r_in, r_out, lattice, b, *, xi_cap,
                         tail_tol=1e-3):
    """sum over nonzero dual xi of |F(1_{r_in <= |x| <= r_out})(xi/b)|^2,
    with its truncation record."""
    layer = AnnulusFourier(r_in, r_out, lattice.dim)
    return convergent_dual_sum(lattice, lambda q: layer.at(q / b) ** 2,
                               decay_power=lattice.dim + 1.0,
                               tail_tol=tail_tol, xi_cap=xi_cap)


def ball_variance_raw(radius, lattice, b, *, xi_cap, tail_tol=1e-4):
    """Binary volume variance: sum of |F(1_B)(xi/b)|^2."""
    d = lattice.dim
    return convergent_dual_sum(
        lattice, lambda q: ball_indicator_fourier(radius, d, q / b) ** 2,
        decay_power=d + 1.0, tail_tol=tail_tol, xi_cap=xi_cap)


def indicator_lattice_sum(w, lattice, *, xi_cap=1024.0, tail_tol=1e-12):
    """LS of an indicator band of profile width w: sum of
    sin^2(pi q w) / (pi q)^2 q^{-(d-1)} over dual shells to xi_cap, plus
    the analytic mean of the shells beyond (sin^2 averaging to 1/2)."""
    d = lattice.dim

    def summand(q):
        return (np.sin(math.pi * q * w) / (math.pi * q)) ** 2 \
            * q ** (-(d - 1.0))

    total, info = convergent_dual_sum(lattice, summand, decay_power=d + 1.0,
                                      tail_tol=tail_tol, xi_cap=xi_cap)
    total += (lattice.cell_volume * sphere_area(d)
              / (2.0 * math.pi ** 2 * info.xi_max))
    return total, info
