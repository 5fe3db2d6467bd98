"""Test phantoms (balls, half-spaces) and their blurred grey images.

A phantom is a Ball(dim, radius, center), the compact body with
nonvanishing curvature that the variance theory is about, or a
HalfSpace(dim, normal, offset), its local model at a boundary point.
Each answers contains(points) and carries its own geometry; a ball's
grey values depend only on the distance from its centre.  The exact and
Monte Carlo variance engines read only the radius: under a stationary
random lattice the estimator's law does not depend on where the ball
sits.

The grey image of a set X under a PSF rho at scale a is the convolution
theta_a = 1_X * rho_a with rho_a(x) = a^{-d} rho(x/a).  For a ball the
convolution reduces to a 1-D radial integral: the sphere of radius s
around an evaluation point meets the ball in a spherical cap whose
normalized area is

    capfrac(r, s, R),  cos(polar angle) = (r^2 + s^2 - R^2) / (2 r s),

so   theta_a(B(R))(x) = int_0^inf rho(w) * surf(S^{d-1}) w^{d-1}
                          * capfrac(|x|, a*w, R) dw.

In d=2 the cap fraction has square-root behaviour where the cap appears
or disappears; the quadrature substitutes w = w_edge + zeta^2 there, which
removes the singularity and grades nodes toward the edge.  The evaluation
is vectorized over points, so a Chebyshev radial intensity model is cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import Chebyshev

from . import psf as psf_mod
from ._quad import panel_nodes
from .errors import DomainError, TruncationError
from .psf import Psf, eval_rho, halfspace_profile, sphere_area


@dataclass(frozen=True)
class Phantom:
    dim: int

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise DomainError("only dimensions 2 and 3 are supported")

    # Ball shadows these with its fields; any other phantom is refused
    # where a ball model asks for them
    @property
    def radius(self) -> float:
        raise DomainError(f"unsupported phantom {self!r}: not a ball")

    @property
    def center(self) -> tuple:
        raise DomainError(f"unsupported phantom {self!r}: not a ball")


@dataclass(frozen=True)
class Ball(Phantom):
    """Closed ball of radius R about a finite centre (the origin by
    default)."""

    radius: float = 1.0
    center: tuple = ()

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.radius < math.inf:
            raise DomainError("ball radius must be positive and finite")
        c = tuple(float(v) for v in self.center) or (0.0,) * self.dim
        if len(c) != self.dim or not all(map(math.isfinite, c)):
            raise DomainError("center must be a finite d-vector")
        object.__setattr__(self, "center", c)

    @property
    def surface_area(self) -> float:
        return sphere_area(self.dim) * self.radius ** (self.dim - 1)

    @property
    def volume(self) -> float:
        return psf_mod.ball_volume(self.dim, self.radius)

    def contains(self, points) -> np.ndarray:
        """Membership of each row of `points` (vectorized)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.linalg.norm(pts - self.center, axis=1) <= self.radius


@dataclass(frozen=True)
class HalfSpace(Phantom):
    """Half-space {y : <y, normal> <= offset}."""

    normal: tuple = ()
    offset: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        n = np.asarray(self.normal if self.normal else
                       (1.0,) + (0.0,) * (self.dim - 1), dtype=float)
        if (n.shape != (self.dim,) or not np.all(np.isfinite(n))
                or not np.linalg.norm(n) > 0):
            raise DomainError("normal must be a finite nonzero d-vector")
        if not math.isfinite(self.offset):
            raise DomainError("offset must be finite")
        n = n / np.linalg.norm(n)
        object.__setattr__(self, "normal", tuple(n))

    def contains(self, points) -> np.ndarray:
        """Membership of each row of `points` (vectorized)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts @ np.asarray(self.normal) <= self.offset


def capfrac(r, s, R: float, d: int):
    """Fraction of the sphere of radius s centered at distance r from the
    origin that lies inside the centered ball of radius R (vectorized)."""
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = (r * r + s * s - R * R) / (2.0 * r * s)
    mu = np.where(np.isfinite(mu), mu, np.where(s <= R, -1.0, 1.0))
    mu = np.clip(mu, -1.0, 1.0)
    if d == 2:
        return np.arccos(mu) / math.pi
    return 0.5 * (1.0 - mu)


# quadrature layout for the radial cap integral (see _ball_intensity_radii)
_N_CORE = 24        # panels on [0, w1] (cap fraction constant there)
_N_EDGE = 16        # zeta-panels per transition half
# transition radii per block: its (32, 240) temporaries stay under glibc's
# 128 KiB mmap threshold, so a model build (81 radii) reuses heap pages
# instead of mapping and faulting fresh ones for every temporary
_ROW_BLOCK = 32


def _ball_intensity_radii(psf: Psf, a: float, R: float, radii) -> np.ndarray:
    """Grey values of a centered ball at the given radii (vectorized)."""
    d = psf.dim
    W = psf_mod._integration_radius(psf)
    r = np.atleast_1d(np.asarray(radii, dtype=float))
    out = np.zeros_like(r)

    tiny = 1e-9 * (R + a)
    central = r < tiny
    if np.any(central):
        out[central] = psf_mod.radial_mass(psf, min(R / a, W))

    rest = ~central
    if not np.any(rest):
        return out
    rr = r[rest]
    w1 = np.abs(R - rr) / a
    w2 = (R + rr) / a

    vals = np.zeros_like(rr)

    # core segment [0, min(w1, W)], cap fraction is 1 inside / 0 outside
    inside = rr < R
    core_hi = np.minimum(w1, W)
    if np.any(inside):
        v, w = panel_nodes((0.0, 1.0), _N_CORE, order=15)
        hi = core_hi[inside]
        nodes = hi[:, None] * v[None, :]
        f = eval_rho(psf, nodes) * nodes ** (d - 1)
        vals[inside] += sphere_area(d) * hi * (f @ w)

    # transition segment [w1, min(w2, W)], graded toward the cap edges,
    # _ROW_BLOCK radii at a time (each row's sum is the same either way)
    lo = w1
    hi = np.minimum(w2, W)
    rows = np.flatnonzero(hi > lo)
    z, zw = panel_nodes((0.0, 1.0), _N_EDGE, order=15)
    for start in range(0, rows.size, _ROW_BLOCK):
        sel = rows[start:start + _ROW_BLOCK]
        li, hi_, ri = lo[sel], hi[sel], rr[sel]
        mid = 0.5 * (li + hi_)
        contrib = np.zeros_like(li)
        for seg_lo, seg_hi, anchor_lo in ((li, mid, True), (mid, hi_, False)):
            span = seg_hi - seg_lo
            # w = anchor +/- (sqrt(span) * z)^2 grades nodes toward the
            # anchor edge and removes the d=2 arccos sqrt singularity
            zz = np.sqrt(span)[:, None] * z[None, :]
            if anchor_lo:
                nodes = seg_lo[:, None] + zz * zz
            else:
                nodes = seg_hi[:, None] - zz * zz
            jac = 2.0 * np.sqrt(span)[:, None] * zw[None, :] * zz
            f = (eval_rho(psf, nodes) * nodes ** (d - 1)
                 * capfrac(ri[:, None], a * nodes, R, d))
            contrib += (f * jac).sum(axis=1)
        vals[sel] += sphere_area(d) * contrib

    out[rest] = vals
    return np.clip(out, 0.0, 1.0)


# degree of a ball's Chebyshev intensity model (see _radial_model) and
# the Newton steps a level radius may take before it is refused
_CHEB_DEGREE = 80
_NEWTON_STEPS = 8


@lru_cache(maxsize=64)
def _radial_model(psf: Psf, a: float, R: float) -> Chebyshev:
    """Chebyshev interpolant of the cap quadrature of B(R) on R -/+ a T,
    T the edge profile's half-width; theta is 1 or 0 outside it."""
    T = halfspace_profile(psf).T
    return Chebyshev.interpolate(
        lambda r: _ball_intensity_radii(psf, a, R, r), _CHEB_DEGREE,
        domain=[max(R - a * T, 0.0), R + a * T])


def _level_radius(psf: Psf, a: float, R: float, level: float) -> float:
    """Radius where the grey value of the centered ball B(R) falls
    through `level`: Newton steps on the exact cap quadrature with the
    model's slope, from the crossing of the model's samples."""
    theta = _radial_model(psf, a, R)
    r, v = theta.linspace(_CHEB_DEGREE + 1)
    j = int(np.argmax(v < level))
    if not (j > 0 and v[j] < level):
        raise DomainError(
            f"level {level:g} not bracketed in the transition zone")
    x = r[j - 1] + (r[j] - r[j - 1]) * (v[j - 1] - level) / (v[j - 1] - v[j])
    slope = theta.deriv()
    for _ in range(_NEWTON_STEPS):
        step = (_ball_intensity_radii(psf, a, R, [x])[0] - level) / slope(x)
        x -= step
        if abs(step) < 1e-13:
            return float(x)
    raise TruncationError(f"level {level:g} radius: Newton did not converge")


def ball_band_radii(radius: float, psf: Psf, a: float, beta: float,
                    omega: float) -> tuple[float, float]:
    """Radii (r_in, r_out) of the centered ball B(radius) between which
    its grey value lies in [beta, omega].  r_in is the inner end of the
    transition zone (0 for a wide blur) when the grey value there is
    already at most omega."""
    if not 0 < a < math.inf:
        raise DomainError("blur scale a must be positive and finite")
    theta = _radial_model(psf, a, radius)
    r_lo = theta.domain[0]
    theta0 = theta(r_lo)
    if theta0 <= beta:
        raise DomainError("blur swamps the ball: grey band never reached")
    r_in = r_lo if theta0 <= omega else _level_radius(psf, a, radius, omega)
    return r_in, _level_radius(psf, a, radius, beta)


class IntensityModel:
    """Fast vectorized grey-value evaluator for a (phantom, psf, a) triple.

    Balls read the cached degree-80 Chebyshev model of the transition
    zone (_radial_model), which ball_band_radii shares, and are 1 or 0
    outside it (within 6e-16 for the Gaussian).  Its largest error
    against the quadrature, on 20001 radii at a = 0.1 and 0.0125, is
    1.6e-13 for the Gaussian (also against its chi-square closed form),
    the bump and the d=3 disc, and 4.7e-7 for the d=2 disc, whose
    square-root edge converges slowly.  Half-spaces evaluate through the
    edge profile directly.
    """

    def __init__(self, phantom: Phantom, psf: Psf, a: float):
        if not 0 < a < math.inf:
            raise DomainError("blur scale a must be positive and finite")
        if psf.dim != phantom.dim:
            raise DomainError("psf and phantom dimensions differ")
        self.phantom = phantom
        self.psf = psf
        self.a = a
        self.dim = phantom.dim

        if isinstance(phantom, HalfSpace):
            self._profile = halfspace_profile(psf)
            self._kind = "halfspace"
            self._normal = np.asarray(phantom.normal)
            self._offset = phantom.offset
            return

        self._kind = "ball"
        self.R = phantom.radius
        self._center = np.asarray(phantom.center)
        self._theta = _radial_model(psf, a, self.R)

    @property
    def table_range(self) -> tuple[float, float]:
        """Radius interval of the modelled transition zone (balls only)."""
        if self._kind != "ball":
            raise DomainError("table_range is only defined for ball phantoms")
        return tuple(map(float, self._theta.domain))

    def radial(self, r):
        """Grey value at radius r from the ball center (balls only)."""
        if self._kind != "ball":
            raise DomainError("radial() is only defined for ball phantoms")
        r = np.asarray(r, dtype=float)
        lo, hi = self._theta.domain
        out = np.where(r < lo, 1.0, 0.0)
        mid = (r >= lo) & (r < hi)
        if np.any(mid):
            out[mid] = np.clip(self._theta(r[mid]), 0.0, 1.0)
        return out

    def __call__(self, points):
        """Grey values at an (n, d) array of points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self._kind == "halfspace":
            t = (pts @ self._normal - self._offset) / self.a
            return self._profile.theta(t)
        radii = np.linalg.norm(pts - self._center, axis=1)
        return self.radial(radii)


@lru_cache(maxsize=64)
def intensity_model(phantom: Phantom, psf: Psf, a: float) -> IntensityModel:
    return IntensityModel(phantom, psf, a)


def intensity(phantom: Phantom, psf: Psf, a: float, x) -> float:
    """Grey value theta_a(X)(x) at a single point (exact 1-D quadrature).

    Absolute accuracy ~1e-10; balls go through the radial cap integral,
    half-spaces through the edge profile.
    """
    if not 0 < a < math.inf:
        raise DomainError("blur scale a must be positive and finite")
    x = np.asarray(x, dtype=float)
    if x.shape != (phantom.dim,):
        raise DomainError("point has wrong dimension")
    if isinstance(phantom, HalfSpace):
        prof = halfspace_profile(psf)
        return float(prof.theta((float(x @ np.asarray(phantom.normal))
                                 - phantom.offset) / a))
    r = float(np.linalg.norm(x - np.asarray(phantom.center)))
    return float(_ball_intensity_radii(psf, a, phantom.radius, [r])[0])


@dataclass(frozen=True)
class TransitionOffsets:
    """Signed normal offsets where the grey value crosses omega / beta."""

    t_minus: float
    t_plus: float


def transition_offsets(phantom: Phantom, psf: Psf, a: float,
                       beta: float, omega: float) -> TransitionOffsets:
    """Offsets t with theta_a(X) = beta (t_plus, outside) and = omega
    (t_minus, inside) along the outward normal at a boundary point.

    For half-spaces these are exactly a*phi(beta), a*phi(omega).
    """
    if not (0.0 < beta < omega < 1.0):
        raise DomainError("need 0 < beta < omega < 1")
    prof = halfspace_profile(psf)
    if isinstance(phantom, HalfSpace):
        return TransitionOffsets(t_minus=a * prof.phi(omega),
                                 t_plus=a * prof.phi(beta))
    R = phantom.radius
    return TransitionOffsets(t_minus=_level_radius(psf, a, R, omega) - R,
                             t_plus=_level_radius(psf, a, R, beta) - R)
