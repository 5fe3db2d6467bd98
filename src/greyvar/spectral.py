"""Radial Fourier analysis for grey-value weight layers.

For a radial function g on R^d the Fourier transform (convention
F(g)(xi) = int g(x) exp(-2 pi i x.xi) dx) is again radial and reduces to
a one-dimensional Hankel-type integral

    F(g)(q) = 2 pi q^{-(d-2)/2} int_0^inf g(r) J_{d/2-1}(2 pi q r) r^{d/2} dr.

The estimator's variance is driven by such transforms of the weighted
grey layer g(r) = f(theta_a(B(R))(r)), a thin shell around r = R.  Large
arguments turn the Bessel kernel into a cosine with phase shift
nu = -(d-1) pi/4, giving an oscillatory main term with explicit envelope;
the two band regimes (many oscillations across the grey band versus a
band much thinner than the oscillation period) have elementary closed
models used for cross-checks and scaling predictions.

Only dimensions 2 and 3 are supported, so the Hankel kernels have the
orders 0, 1/2, 1 and 3/2 (bessel_j); the closed-form transforms of the
compact kernels and the ball take scipy's jv at d/2 + k.  Both import
scipy.special where they call it, so the Gaussian edge profile and the
indicator weight's closed forms run without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._quad import oscillatory_nodes, panel_nodes
from .errors import DomainError
from .psf import (HalfspaceProfile, Psf, _compact_power, ball_volume,
                  sphere_area)

_Q_CHUNK = 128


def bessel_j(order: float, x):
    """Bessel J of the first kind for the orders this package needs.

    Integer orders go through scipy's j0/j1; half-integer orders use the
    spherical-Bessel reduction J_{n+1/2}(x) = sqrt(2x/pi) j_n(x), which
    is stable down to x = 0.
    """
    from scipy import special
    x = np.asarray(x, dtype=float)
    if order == 0.0:
        return special.j0(x)
    if order == 1.0:
        return special.j1(x)
    if order in (0.5, 1.5):
        n = int(order - 0.5)
        ax = np.abs(x)
        return np.sqrt(2.0 * ax / np.pi) * special.spherical_jn(n, ax)
    raise DomainError(f"unsupported Bessel order {order}")


def nu_phase(dim: int) -> float:
    """Asymptotic phase shift of J_{d/2-1}: nu = -(d-1) pi / 4."""
    if dim not in (2, 3):
        raise DomainError("dim must be 2 or 3")
    return -(dim - 1) * math.pi / 4.0


@dataclass(frozen=True)
class RadialFourier:
    """Hankel-quadrature transform of a radial function with compact
    support [r_lo, r_hi].

    `min_panels` fixes the base resolution for the non-oscillatory
    factor; the node count then grows with the largest requested
    frequency so that every panel spans at most a quarter oscillation.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    r_lo: float
    r_hi: float
    dim: int
    min_panels: int = 8
    order: int = 15

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise DomainError("dim must be 2 or 3")
        if not (0.0 <= self.r_lo < self.r_hi):
            raise DomainError("need 0 <= r_lo < r_hi")

    def volume_integral(self) -> float:
        """F at q = 0: the full d-dimensional integral of the function."""
        r, w = panel_nodes((self.r_lo, self.r_hi),
                           max(self.min_panels, 16), self.order)
        val = float(np.dot(self.fn(r) * r ** (self.dim - 1), w))
        return sphere_area(self.dim) * val

    def at(self, q, *, refine: int = 1):
        """Transform values at nonnegative frequencies q (vectorized).

        `refine` multiplies the panel count; doubling it is the standard
        self-consistency check for quadrature error.
        """
        q = np.asarray(q, dtype=float)
        scalar = q.ndim == 0
        q = np.atleast_1d(q)
        if np.any(q < 0):
            raise DomainError("frequencies must be nonnegative")
        out = np.empty_like(q)
        zero = q == 0.0
        if np.any(zero):
            out[zero] = self.volume_integral()
        live = ~zero
        if np.any(live):
            out[live] = self._at_positive(q[live], refine)
        return float(out[0]) if scalar else out

    def _at_positive(self, q, refine):
        qmax = float(q.max())
        nodes, w = oscillatory_nodes(
            (self.r_lo, self.r_hi), freq=qmax,
            order=self.order, min_panels=self.min_panels * refine)
        gv = self.fn(nodes) * nodes ** (self.dim / 2.0) * w
        nu = self.dim / 2.0 - 1.0
        pref = 2.0 * math.pi * q ** (-(self.dim - 2) / 2.0)
        out = np.empty_like(q)
        for i in range(0, len(q), _Q_CHUNK):
            qb = q[i:i + _Q_CHUNK]
            kern = bessel_j(nu, 2.0 * math.pi * np.outer(qb, nodes))
            out[i:i + _Q_CHUNK] = kern @ gv
        return pref * out


@dataclass(frozen=True)
class AnnulusFourier:
    """Closed-form radial transform of an annulus indicator
    1_{r_in <= |x| <= r_out}: the difference of two ball transforms.

    This is the exact weighted-layer transform whenever the weight is an
    indicator band, since f(theta(r)) is then itself 0/1 with the band
    edges as its jump radii.  Mirrors the RadialFourier interface.
    """

    r_lo: float
    r_hi: float
    dim: int

    def __post_init__(self):
        if not (0.0 <= self.r_lo < self.r_hi):
            raise DomainError("need 0 <= r_lo < r_hi")

    def volume_integral(self) -> float:
        inner = ball_volume(self.dim, self.r_lo) if self.r_lo > 0 else 0.0
        return ball_volume(self.dim, self.r_hi) - inner

    def at(self, q, *, refine: int = 1):
        del refine  # closed form: nothing to refine
        q = np.asarray(q, dtype=float)
        out = ball_indicator_fourier(self.r_hi, self.dim, q)
        if self.r_lo > 0.0:
            out = out - ball_indicator_fourier(self.r_lo, self.dim, q)
        return out


# below x = 2 the compact transform takes its power series; for nu >= 1
# the first term left out is under 1e-18
_SERIES_X, _SERIES_TERMS = 2.0, 17


def _compact_fourier(nu: float, radius: float, q):
    """Gamma(nu+1) x^{-nu} J_nu(2 x), x = pi R q, at frequencies q >= 0:
    the transform of (1 - |y|^2/R^2)_+^k on R^d divided by its integral,
    for nu = d/2 + k (Bochner-Riesz; Stein & Weiss, Introduction to
    Fourier Analysis on Euclidean Spaces, 1971, Thm IV.4.15).

    Below x = 2 it sums the series sum_m (-x^2)^m / (m! (nu+1)_m), which
    is exactly 1 at q = 0 and keeps the digits that x^{-nu} J_nu(2 x)
    loses at small x; from there on scipy's jv."""
    from scipy import special
    x = math.pi * radius * np.atleast_1d(np.asarray(q, dtype=float))
    if np.any(x < 0):
        raise DomainError("frequencies must be nonnegative")
    out = np.empty_like(x)
    small = x < _SERIES_X
    step = -x[small] ** 2
    term = np.ones_like(step)
    total = term.copy()
    for m in range(1, _SERIES_TERMS):
        term *= step / (m * (nu + m))
        total += term
    out[small] = total
    xb = x[~small]
    out[~small] = math.gamma(nu + 1.0) * xb ** -nu * special.jv(nu, 2.0 * xb)
    return float(out[0]) if np.ndim(q) == 0 else out


def ball_indicator_fourier(radius: float, dim: int, q):
    """Closed-form transform of the ball indicator:
    F(1_B(R))(q) = R^{d/2} q^{-d/2} J_{d/2}(2 pi R q), its volume at 0."""
    if radius <= 0:
        raise DomainError("radius must be positive")
    return ball_volume(dim, radius) * _compact_fourier(dim / 2.0, radius, q)


def psf_fourier(psf: Psf, q):
    """Transform of the unscaled kernel rho; the physical kernel rho_a
    satisfies F(rho_a)(q) = F(rho)(a q).  Closed forms: the Gaussian is
    its own transform, and a compact kernel ~ (1 - |x|^2/D^2)^k has the
    Bochner-Riesz transform of order d/2 + k (see _compact_fourier)."""
    if psf.compact:
        return _compact_fourier(psf.dim / 2.0 + _compact_power(psf),
                                psf.support_radius, q)
    q = np.asarray(q, dtype=float)
    out = np.exp(-2.0 * math.pi ** 2 * q * q)
    return float(out) if out.ndim == 0 else out


def knot_images(f, profile: HalfspaceProfile):
    """Sorted phi(knots): the profile layer f(theta_H(t)) lives between
    the outer two and is only as smooth as f at each of them, so
    quadrature rules over t split there."""
    return np.sort([profile.phi(y) for y in f.knots])


def profile_fourier_1d(f, profile: HalfspaceProfile, q, *,
                       refine: int = 1):
    """One-dimensional transform of the weighted edge profile,
    F1(q) = int f(theta_H(t)) exp(-2 pi i q t) dt, supported on
    [phi(omega), phi(beta)].  Returns complex values."""
    q = np.asarray(q, dtype=float)
    scalar = q.ndim == 0
    q = np.atleast_1d(q)
    nodes, w = oscillatory_nodes(knot_images(f, profile),
                                 freq=float(np.abs(q).max()),
                                 min_panels=8 * refine)
    fv = f(profile.theta(nodes)) * w
    out = np.empty(q.shape, dtype=complex)
    for i in range(0, len(q), _Q_CHUNK):
        qb = q[i:i + _Q_CHUNK]
        phase = 2.0 * math.pi * np.outer(qb, nodes)
        out[i:i + _Q_CHUNK] = (np.cos(phase) - 1j * np.sin(phase)) @ fv
    return complex(out[0]) if scalar else out


def band_cycles(f, profile: HalfspaceProfile, a: float, q: float) -> float:
    """Number of kernel oscillations across the grey band: a q times the
    band width in profile coordinates.  Large values mean the sharp-band
    model applies, small values the flat-band model."""
    width = profile.phi(f.knots[0]) - profile.phi(f.knots[-1])
    return a * q * width


def ball_main_term(radius: float, profile: HalfspaceProfile, f, a: float,
                   q, dim: int, *, refine: int = 1):
    """Leading oscillatory amplitude of F(f(theta_a(B(R))))(q):

        2 q^{-(d-1)/2} a int f(theta_H(t)) cos(2 pi q (R + a t) + nu)
                             (R + a t)^{(d-1)/2} dt.

    Signed; square it for the variance summand model.  Valid once
    2 pi q (R - a T) is large and a is small against R.
    """
    q = np.asarray(q, dtype=float)
    scalar = q.ndim == 0
    q = np.atleast_1d(q)
    if np.any(q <= 0):
        raise DomainError("main term needs positive frequencies")
    nodes, w = oscillatory_nodes(knot_images(f, profile),
                                 freq=a * float(q.max()),
                                 min_panels=4 * refine)
    base = f(profile.theta(nodes)) * w
    rad = radius + a * nodes
    nu = nu_phase(dim)
    out = np.empty_like(q)
    for i in range(0, len(q), _Q_CHUNK):
        qb = q[i:i + _Q_CHUNK]
        osc = np.cos(2.0 * math.pi * np.outer(qb, rad) + nu)
        out[i:i + _Q_CHUNK] = osc @ (base * rad ** ((dim - 1) / 2.0))
    out *= 2.0 * a * q ** (-(dim - 1) / 2.0)
    return float(out[0]) if scalar else out


def sharp_band_square(radius: float, profile: HalfspaceProfile, f,
                      a: float, q, dim: int):
    """Squared-amplitude model for band_cycles >> 1 (oscillation much
    faster than the band): only the weight's edge jumps survive,

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
