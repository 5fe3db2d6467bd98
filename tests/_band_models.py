"""The band-regime models the package no longer ships, kept as oracles
for the exact layer transform.

band_cycles counts the kernel oscillations across the grey band; when
it is small the band is thin against the oscillation and the weighted
layer's transform is alpha * a times the sphere-surface oscillation
(flat_band_square).  The opposite regime, many oscillations across the
band, is spectral.sharp_band_square.
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
