"""Radial point-spread functions and their half-space edge profiles.

A PSF is a nonnegative radial probability density rho on R^d; blurring at
scale a uses rho_a(x) = a^{-d} rho(x/a).  The half-space edge profile

    theta_H(t) = integral of rho over { x : <x, u> >= t }
               = int_t^inf m(s) ds,

with m the 1-D marginal of rho along any unit direction u, describes the
grey value at signed distance a*t from a flat interface.  It decreases
from 1 to 0, and its inverse phi places grey thresholds at signed
distances from the interface.

Three kernels are provided:

* ``gaussian``       - standard normal density (unbounded support, smooth);
* ``bump``           - C^2 compactly supported polynomial bump
                       rho(x) = c_d (1 - |x|^2/D^2)^3 on |x| <= D;
* ``ball_indicator`` - uniform density on a ball (discontinuous; only
                       suitable for volume-estimator baselines).

All three have theta_H, m, phi and the radial mass in closed form.  The
Gaussian marginal is the standard normal, so theta_H(t) = erfc(t/sqrt 2)/2
and phi is minus the normal quantile, both from the standard library;
its ball mass, the regularized gamma P(d/2, r^2/2), is 1 - e^{-x} in
d=2 and erf(sqrt x) - 2 sqrt(x/pi) e^{-x} in d=3, x = r^2/2.  The compact
kernels are rho ~ (1 - |x|^2/D^2)^k (k = 3 for the bump, k = 0 for the
ball indicator); their marginal is ~ (1 - s^2/D^2)^p with
p = k + (d-1)/2, which makes theta_H a regularized incomplete beta
function of (1 - t/D)/2 and the ball mass betainc(d/2, k+1, (r/D)^2);
the private module _special evaluates both, and the inverse, in numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from . import _special
from .errors import DomainError

_KINDS = ("gaussian", "bump", "ball_indicator")

#: working support half-width of the Gaussian (tail beyond is < 1e-15)
GAUSSIAN_T = 8.0

_STANDARD_NORMAL = NormalDist()


def sphere_area(d: int) -> float:
    """Surface measure of the unit sphere S^{d-1}."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def ball_volume(d: int, r: float = 1.0) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * r ** d


@dataclass(frozen=True)
class Psf:
    """Radial PSF descriptor.

    Parameters
    ----------
    kind : {"gaussian", "bump", "ball_indicator"}
    dim : ambient dimension d (2 or 3)
    support_radius : support radius D of the compact kinds.  A Gaussian
        takes none and reads GAUSSIAN_T = 8.0, its working cutoff (mass
        outside is ~6e-15); any other value raises DomainError.
    """

    kind: str
    dim: int
    support_radius: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown psf kind '{self.kind}'")
        if self.dim not in (2, 3):
            raise DomainError("only dimensions 2 and 3 are supported")
        if self.kind == "gaussian":
            if self.support_radius not in (0.0, GAUSSIAN_T):
                raise DomainError("a gaussian PSF takes no support radius")
            object.__setattr__(self, "support_radius", GAUSSIAN_T)
        if not 0.0 < self.support_radius < math.inf:
            raise DomainError("support_radius must be positive and finite")

    @property
    def compact(self) -> bool:
        return self.kind in ("bump", "ball_indicator")


def gaussian(dim: int) -> Psf:
    return Psf("gaussian", dim)


def compact_bump(dim: int, support_radius: float = 1.0) -> Psf:
    return Psf("bump", dim, support_radius)


def ball_indicator(dim: int, support_radius: float = 1.0) -> Psf:
    return Psf("ball_indicator", dim, support_radius)


def _bump_norm(d: int, D: float) -> float:
    # int rho = c * omega_d * D^d * B(d/2, 4)/2  =>  c = 1/(...)
    beta = math.gamma(d / 2.0) * math.gamma(4.0) / math.gamma(d / 2.0 + 4.0)
    return 1.0 / (sphere_area(d) * D ** d * 0.5 * beta)


def eval_rho(psf: Psf, r):
    """Radial density value rho(|x|) at radius r >= 0 (vectorized)."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise DomainError("radius must be nonnegative")
    d, D = psf.dim, psf.support_radius
    if psf.kind == "gaussian":
        return (2.0 * math.pi) ** (-d / 2.0) * np.exp(-0.5 * r * r)
    if psf.kind == "bump":
        c = _bump_norm(d, D)
        t = 1.0 - (r / D) ** 2
        return c * np.where(t > 0.0, t, 0.0) ** 3
    # ball_indicator
    return np.where(r <= D, 1.0 / ball_volume(d, D), 0.0)


def _compact_power(psf: Psf) -> int:
    """Exponent k of a compact kernel rho ~ (1 - |x|^2/D^2)^k."""
    return 3 if psf.kind == "bump" else 0


def _erfc(x):
    """math.erfc elementwise over an array."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    return np.fromiter(map(math.erfc, flat), float, flat.size).reshape(x.shape)


def radial_mass(psf: Psf, r: float) -> float:
    """Mass of rho inside the centered ball of radius r."""
    if r <= 0:
        return 0.0
    d = psf.dim
    if psf.compact:
        x = min(r / psf.support_radius, 1.0) ** 2
        return float(_special.betainc(d / 2.0, _compact_power(psf) + 1.0, x))
    # the regularized gamma P(d/2, x), x = r^2/2
    x = 0.5 * r * r
    if d == 2:
        return -math.expm1(-x)
    return math.erf(math.sqrt(x)) - 2.0 * math.sqrt(x / math.pi) * math.exp(-x)


def _integration_radius(psf: Psf) -> float:
    """Radius beyond which rho is (numerically) zero."""
    return psf.support_radius if psf.compact else 20.0


class HalfspaceProfile:
    """Closed-form edge profile theta_H with derivative and inverse.

    Gaussian: theta = erfc(t / sqrt 2) / 2 (math.erfc, elementwise),
    dtheta = -(standard normal density) and phi = minus the standard
    normal quantile of y (statistics.NormalDist).  Compact kernels: with
    p = k + (d-1)/2, (1 - s/D)/2 is Beta(p+1, p+1) distributed under the
    marginal, so
    theta = betainc(p+1, p+1, (1 - t/D)/2), dtheta is minus the marginal
    density and phi = D (1 - 2 betaincinv(p+1, p+1, y)).  theta is
    exactly 1 for t <= -T and 0 for t >= T, where T is the support radius
    (GAUSSIAN_T for the Gaussian, whose tail beyond it is < 1e-15).
    """

    def __init__(self, psf: Psf):
        self.psf = psf
        self.T = psf.support_radius
        if psf.compact:
            p = self._p = _compact_power(psf) + 0.5 * (psf.dim - 1)
            # marginal m(s) = c (1 - s^2/D^2)^p, where the integral of
            # (1 - s^2/D^2)^p over [-D, D] is D * B(1/2, p+1)
            self._c = math.gamma(p + 1.5) / (
                self.T * math.gamma(0.5) * math.gamma(p + 1.0))

    def theta(self, t):
        """Edge profile value(s); clamps to {1, 0} at and beyond -T, T."""
        t = np.asarray(t, dtype=float)
        if self.psf.compact:
            x = np.clip(0.5 * (1.0 - t / self.T), 0.0, 1.0)
            out = _special.betainc(self._p + 1.0, self._p + 1.0, x)
        else:
            out = np.where(t <= -self.T, 1.0,
                           np.where(t >= self.T, 0.0,
                                    0.5 * _erfc(t / math.sqrt(2.0))))
        return float(out) if out.ndim == 0 else out

    def dtheta(self, t):
        """Profile derivative -m(t) (vectorized); 0 for |t| >= T."""
        t = np.asarray(t, dtype=float)
        inside = np.abs(t) < self.T
        if self.psf.compact:
            u = np.where(inside, 1.0 - (t / self.T) ** 2, 0.0)
            out = -self._c * u ** self._p
        else:
            out = np.where(inside, -np.exp(-0.5 * t * t)
                           / math.sqrt(2.0 * math.pi), 0.0)
        return float(out) if out.ndim == 0 else out

    def phi(self, y: float) -> float:
        """Inverse profile: the t with theta(t) = y, for y in (0, 1)."""
        if not (0.0 < y < 1.0):
            raise DomainError(f"phi is defined on (0,1); got {y!r}")
        if self.psf.compact:
            # from the smaller tail, so that phi(1 - y) = -phi(y) exactly
            # and mirror knots give mirror breakpoints
            t = self.T * (1.0 - 2.0 * _beta_quantile(self._p + 1.0,
                                                     min(y, 1.0 - y)))
            return t if y <= 0.5 else -t
        return -_STANDARD_NORMAL.inv_cdf(y)


@lru_cache(maxsize=64)
def _beta_quantile(a: float, y: float) -> float:
    """betaincinv(a, a, y), cached: every transform and intensity model
    of a run asks phi for the same few weight knots, and each inverse
    takes several Newton steps."""
    return float(_special.betaincinv(a, a, y))


@lru_cache(maxsize=16)
def halfspace_profile(psf: Psf) -> HalfspaceProfile:
    """Cached constructor for the edge profile of a PSF."""
    return HalfspaceProfile(psf)
