"""Dual-shell oracles for the sums the package takes on the primal side.

The indicator weight's exact variance, the binary volume variance and
the lattice sum LS of every weight are finite primal sums in the
package.  Here they are summed the original way, over dual shells with
the closed-form transforms (or, for the LS of a smooth weight, the
oscillatory quadrature of spectral.profile_fourier_1d) and the adaptive
truncation of convergent_dual_sum, so the two routes share only the
lattice sieve.  Every term of these sums is positive, so a dual partial
sum approaches the primal value from below and stops short of it by at
most its own tail bound.

dual_points enumerates dual vectors by brute force, the oracle for the
package's shell lister.
"""

import math

import numpy as np

from greyvar.errors import TruncationError
from greyvar.psf import sphere_area
from greyvar.spectral import (AnnulusFourier, ball_indicator_fourier,
                              profile_fourier_1d)
from greyvar.variance import ShellSumInfo, convergent_dual_sum


def dual_points(lattice, xi_max):
    """Nonzero dual vectors A^{-T} k with norm <= xi_max, from every
    integer k in the box |k_i| <= |A| xi_max + 1 (k = A^T xi)."""
    d = lattice.dim
    reach = int(np.ceil(np.linalg.norm(lattice.basis, 2) * xi_max)) + 1
    span = np.arange(-reach, reach + 1)
    k = np.stack([g.ravel() for g in np.meshgrid(*([span] * d),
                                                 indexing="ij")], axis=1)
    pts = k[np.any(k != 0, axis=1)] @ np.linalg.inv(lattice.basis)
    return pts[np.linalg.norm(pts, axis=1) <= xi_max + 1e-12]


def _require_tail_under_1pct(info: ShellSumInfo, total: float,
                             xi_cap: float) -> None:
    """A capped sum is still reportable while the tail bound stays under
    1% of the partial sum; beyond that the result is not trustworthy."""
    if info.tail_bound > 0.01 * total:
        raise TruncationError(
            f"dual-sum tail bound {info.tail_bound:.3e} exceeds 1% of the "
            f"partial sum {total:.3e} at xi_cap={xi_cap:g}; raise xi_cap "
            f"(try {2.0 * xi_cap:g})")


def annulus_variance_raw(r_in, r_out, lattice, b, *, xi_cap,
                         tail_tol=1e-3):
    """sum over nonzero dual xi of |F(1_{r_in <= |x| <= r_out})(xi/b)|^2,
    with its truncation record."""
    layer = AnnulusFourier(r_in, r_out, lattice.dim)
    return convergent_dual_sum(lattice, lambda q: layer.at(q / b) ** 2,
                               tail_tol=tail_tol, xi_cap=xi_cap)


def ball_variance_raw(radius, lattice, b, *, xi_cap, tail_tol=1e-4):
    """Binary volume variance: sum of |F(1_B)(xi/b)|^2."""
    d = lattice.dim
    return convergent_dual_sum(
        lattice, lambda q: ball_indicator_fourier(radius, d, q / b) ** 2,
        tail_tol=tail_tol, xi_cap=xi_cap)


def indicator_lattice_sum(w, lattice, *, xi_cap=1024.0, tail_tol=1e-12):
    """LS of an indicator band of profile width w: sum of
    sin^2(pi q w) / (pi q)^2 q^{-(d-1)} over dual shells to xi_cap, plus
    the analytic mean of the shells beyond (sin^2 averaging to 1/2)."""
    d = lattice.dim

    def summand(q):
        return (np.sin(math.pi * q * w) / (math.pi * q)) ** 2 \
            * q ** (-(d - 1.0))

    total, info = convergent_dual_sum(lattice, summand, tail_tol=tail_tol,
                                      xi_cap=xi_cap)
    total += (lattice.cell_volume * sphere_area(d)
              / (2.0 * math.pi ** 2 * info.xi_max))
    return total, info


def profile_lattice_sum(f, profile, lattice, *, tail_tol=1e-3,
                        xi_cap=4096.0):
    """LS of any weight: sum of |F1(f o theta_H)(q)|^2 q^{-(d-1)} over
    dual shells, F1 by oscillatory quadrature split at the knot images,
    truncated by tail_tol and xi_cap (at most 4096);
    refused while the tail bound of a capped sum exceeds 1% of the
    partial sum."""
    d = lattice.dim
    xi_cap = min(xi_cap, 4096.0)

    def summand(q):
        return np.abs(profile_fourier_1d(f, profile, q)) ** 2 \
            * q ** (-(d - 1.0))

    total, info = convergent_dual_sum(lattice, summand, tail_tol=tail_tol,
                                      xi_cap=xi_cap)
    if not info.converged:
        _require_tail_under_1pct(info, total, xi_cap)
    return total, info
