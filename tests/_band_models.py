"""The band-regime models the package no longer ships, kept as oracles
for the exact layer transform.

band_cycles counts the kernel oscillations across the grey band; when
it is small the band is thin against the oscillation and the weighted
layer's transform is alpha * a times the sphere-surface oscillation
(flat_band_square).  The opposite regime, many oscillations across the
band, is sharp_band_square.
"""

import math

import numpy as np

from greyvar.psf import HalfspaceProfile
from greyvar.spectral import nu_phase


def band_cycles(f, profile: HalfspaceProfile, a: float, q: float) -> float:
    """Number of kernel oscillations across the grey band: a q times the
    band width in profile coordinates.  Large values mean the sharp-band
    model applies, small values the flat-band model."""
    width = profile.phi(f.knots[0]) - profile.phi(f.knots[-1])
    return a * q * width


def flat_band_square(radius: float, alpha: float, a: float, q, dim: int,
                     *, envelope: bool = False):
    """Squared-amplitude model for band_cycles << 1 (band thin against
    the oscillation): 4 a^2 q^{-d+1} R^{d-1} alpha^2 cos^2(2 pi q R + nu).
    With envelope=True the cos^2 factor is replaced by its peak value 1."""
    q = np.asarray(q, dtype=float)
    osc = 1.0 if envelope else np.cos(
        2.0 * math.pi * q * radius + nu_phase(dim)) ** 2
    return (4.0 * a * a * q ** (-(dim - 1.0)) * radius ** (dim - 1)
            * alpha * alpha * osc)


def sharp_band_square(radius: float, profile: HalfspaceProfile, f,
                      a: float, q, dim: int):
    """Squared-amplitude model for many kernel oscillations across the
    grey band, a q (phi(beta) - phi(omega)) >> 1: only the weight's edge
    jumps survive,

        pi^{-2} q^{-d-1} R^{d-1} (f(beta) sin X_b - f(omega) sin X_w)^2,

    X_y = 2 pi q (R + a phi(y)) + nu.  Identically zero for weights that
    vanish at their band edges."""
    q = np.asarray(q, dtype=float)
    beta, omega = f.knots[0], f.knots[-1]
    fb, fw = f.boundary_values
    nu = nu_phase(dim)
    xb = 2.0 * math.pi * q * (radius + a * profile.phi(beta)) + nu
    xw = 2.0 * math.pi * q * (radius + a * profile.phi(omega)) + nu
    amp = fb * np.sin(xb) - fw * np.sin(xw)
    return (radius ** (dim - 1) * q ** (-dim - 1.0) * amp ** 2
            / math.pi ** 2)
