"""Test phantoms (balls, half-spaces) and their blurred grey images.

A phantom is a Ball(dim, radius, center), the compact body with
nonvanishing curvature that the variance theory is about, or a
HalfSpace(dim, normal, offset), its local model at a boundary point.
Each answers contains(points) and grey_values(psf, a, points) and
carries its own geometry; a ball's grey values depend only on the
distance from its centre, read from the cached IntensityModel of the
centered ball of its radius.  The exact and Monte Carlo variance
engines read only the radius: under a stationary random lattice the
estimator's law does not depend on where the ball sits.

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
is vectorized over points.  The radii where the grey value crosses given
levels (the band radii, the weight's knot radii) are solved on this
quadrature directly, a few radii per call; only IntensityModel, which
reads grey values everywhere in the transition zone, fits a Chebyshev
model of it.
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
from .lattice import as_points
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
        pts = np.atleast_2d(as_points(points, self.dim))
        return np.linalg.norm(pts - self.center, axis=1) <= self.radius

    def grey_values(self, psf: Psf, a: float, points) -> np.ndarray:
        """Grey values at the rows of `points`: the cached model of the
        centered ball of this radius, at the distances from the centre."""
        pts = np.atleast_2d(as_points(points, self.dim))
        model = intensity_model(Ball(self.dim, self.radius), psf, a)
        return model.radial(np.linalg.norm(pts - self.center, axis=1))


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
        pts = np.atleast_2d(as_points(points, self.dim))
        return pts @ np.asarray(self.normal) <= self.offset

    def grey_values(self, psf: Psf, a: float, points):
        """Grey values at the rows of `points` (a float at one point):
        the edge profile at the signed distance over a."""
        _check_blur(self, psf, a)
        t = (as_points(points, self.dim) @ np.asarray(self.normal)
             - self.offset) / a
        return halfspace_profile(psf).theta(t)


def _check_blur(phantom: Phantom, psf: Psf, a: float) -> None:
    """Refuse a blur scale outside (0, inf) and a PSF of another dim."""
    if not 0 < a < math.inf:
        raise DomainError("blur scale a must be positive and finite")
    if psf.dim != phantom.dim:
        raise DomainError("psf and phantom dimensions differ")


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
# their rules on [0, 1], built once: nodes and weights of each
_CORE_RULE = panel_nodes((0.0, 1.0), _N_CORE)
_EDGE_RULE = panel_nodes((0.0, 1.0), _N_EDGE)
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
        v, w = _CORE_RULE
        hi = core_hi[inside]
        nodes = hi[:, None] * v[None, :]
        f = eval_rho(psf, nodes) * nodes ** (d - 1)
        vals[inside] += sphere_area(d) * hi * (f @ w)

    # transition segment [w1, min(w2, W)], graded toward the cap edges,
    # _ROW_BLOCK radii at a time (each row's sum is the same either way)
    lo = w1
    hi = np.minimum(w2, W)
    rows = np.flatnonzero(hi > lo)
    z, zw = _EDGE_RULE
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


# degree of a ball's Chebyshev intensity model (see IntensityModel)
_CHEB_DEGREE = 80


def _fit_radial_model(psf: Psf, a: float, R: float) -> Chebyshev:
    """Chebyshev interpolant of the cap quadrature of B(R) on R -/+ a T,
    T the edge profile's half-width; theta is 1 or 0 outside it."""
    T = halfspace_profile(psf).T
    return Chebyshev.interpolate(
        lambda r: _ball_intensity_radii(psf, a, R, r), _CHEB_DEGREE,
        domain=[max(R - a * T, 0.0), R + a * T])

# the level solver's forward-difference step, in units of a, and the
# steps (Newton or bisection) a level radius may take before it is
# refused
_SLOPE_STEP = 1e-8
_SOLVER_STEPS = 40


def _level_radii(psf: Psf, a: float, R: float, levels):
    """Radii where the grey value of the centered ball B(R) falls through
    each of `levels`, and theta at r_lo = max(R - a T, 0), the inner end
    of the transition zone [r_lo, R + a T]; a level at or above theta(r_lo)
    gets r_lo.

    Each level starts at its half-space radius R + a phi(level) and takes
    Newton steps on the cap quadrature with a forward-difference slope,
    all levels in one vectorized quadrature call per step (the first also
    reads theta(r_lo)).  A step that leaves the level's bracket, which
    every evaluation narrows, is replaced by bisection.  A level stops
    when its step falls below 1e-13; one still moving after _SOLVER_STEPS
    raises TruncationError.
    """
    profile = halfspace_profile(psf)
    levels = np.asarray(levels, dtype=float)
    n = levels.size
    r_lo, r_hi = max(R - a * profile.T, 0.0), R + a * profile.T
    h = _SLOPE_STEP * a
    x = np.clip([R + a * profile.phi(y) for y in levels], r_lo, r_hi)
    lo, hi = np.full(n, r_lo), np.full(n, r_hi)
    v = _ball_intensity_radii(psf, a, R, np.concatenate((x, x + h, [r_lo])))
    theta_lo = v[-1]
    x[levels >= theta_lo] = r_lo
    live = np.flatnonzero(levels < theta_lo)
    theta, ahead = v[:n][live], v[n:2 * n][live]
    for _ in range(_SOLVER_STEPS):
        xl, gap = x[live], theta - levels[live]
        # theta falls with r: the crossing lies beyond a radius above it
        lo[live] = np.where(gap > 0.0, xl, lo[live])
        hi[live] = np.where(gap < 0.0, xl, hi[live])
        with np.errstate(divide="ignore", invalid="ignore"):
            new = xl - gap * h / (ahead - theta)
        stray = ~((new > lo[live]) & (new < hi[live]) | (new == xl))
        new[stray] = 0.5 * (lo[live] + hi[live])[stray]
        x[live] = new
        live = live[np.abs(new - xl) >= 1e-13]
        if live.size == 0:
            return float(theta_lo), x
        v = _ball_intensity_radii(psf, a, R,
                                  np.concatenate((x[live], x[live] + h)))
        theta, ahead = v[:live.size], v[live.size:]
    raise TruncationError(
        f"level {levels[live[0]]:g} radius: Newton did not converge")


def ball_knot_radii(radius: float, psf: Psf, a: float,
                    knots) -> tuple[float, ...]:
    """Radii where the grey value of the centered ball B(radius) falls
    through each of the ascending weight knots, innermost (the largest
    knot's) first, solved afresh on the cap quadrature (_level_radii).  A
    knot at or above the grey value at the inner end of the transition
    zone gets that end (0 for a wide blur); a blur that keeps it at or
    below the smallest knot is refused."""
    if not 0 < a < math.inf:
        raise DomainError("blur scale a must be positive and finite")
    if not 0.0 < knots[0] < knots[-1] < 1.0:
        raise DomainError("need 0 < beta < omega < 1")
    theta_lo, radii = _level_radii(psf, a, radius, knots[::-1])
    if theta_lo <= knots[0]:
        raise DomainError("blur swamps the ball: grey band never reached")
    return tuple(map(float, radii))


# ball_knot_radii through a process cache: the exact and Monte Carlo
# routes of one row ask for the same radii
cached_knot_radii = lru_cache(maxsize=64)(ball_knot_radii)


class IntensityModel:
    """Chebyshev model of a ball's grey value against the distance from
    its centre, for one (ball, psf, a); any other phantom is refused.

    A degree-80 Chebyshev interpolant of the transition zone
    (_fit_radial_model), the only fit of the cap quadrature; the grey
    value is 1 or 0 outside it (within 6e-16 for the Gaussian).
    intensity_model caches the models per radius and blur.  Its largest
    error against the quadrature, on 20001 radii at a = 0.1 and 0.0125,
    is 1.6e-13 for the Gaussian (also against its chi-square closed
    form), the bump and the d=3 disc, and 4.7e-7 for the d=2 disc, whose
    square-root edge converges slowly.
    """

    def __init__(self, phantom: Phantom, psf: Psf, a: float):
        _check_blur(phantom, psf, a)
        self._theta = _fit_radial_model(psf, a, phantom.radius)

    @property
    def table_range(self) -> tuple[float, float]:
        """Radius interval of the modelled transition zone."""
        return tuple(map(float, self._theta.domain))

    def radial(self, r):
        """Grey value at radius r from the ball center."""
        r = np.asarray(r, dtype=float)
        lo, hi = self._theta.domain
        out = np.where(r < lo, 1.0, 0.0)
        mid = (r >= lo) & (r < hi)
        if np.any(mid):
            out[mid] = np.clip(self._theta(r[mid]), 0.0, 1.0)
        return out


@lru_cache(maxsize=64)
def intensity_model(phantom: Phantom, psf: Psf, a: float) -> IntensityModel:
    return IntensityModel(phantom, psf, a)


def intensity(phantom: Phantom, psf: Psf, a: float, x) -> float:
    """Grey value theta_a(X)(x) at a single point (exact 1-D quadrature).

    Absolute accuracy ~1e-10; balls go through the radial cap integral,
    half-spaces through their grey_values.
    """
    _check_blur(phantom, psf, a)
    x = np.asarray(x, dtype=float)
    if x.shape != (phantom.dim,):
        raise DomainError("point has wrong dimension")
    if isinstance(phantom, HalfSpace):
        return phantom.grey_values(psf, a, x)
    r = float(np.linalg.norm(x - np.asarray(phantom.center)))
    return float(_ball_intensity_radii(psf, a, phantom.radius, [r])[0])
