"""Test phantoms (balls, half-spaces) and their blurred grey images.

A phantom is a Ball(dim, radius, center), the compact body with
nonvanishing curvature that the variance theory is about, or a
HalfSpace(dim, normal, offset), its local model at a boundary point.
Each answers contains(points) and grey_values(psf, a, points) and
carries its own geometry; a ball's grey values depend only on the
distance from its centre, read from the IntensityModel of its radius,
cached per (radius, psf, a) by intensity_model.  The exact and Monte
Carlo variance engines read only the radius: under a stationary random
lattice the estimator's law does not depend on where the ball sits.

The grey image of a set X under a PSF rho at scale a is the convolution
theta_a = 1_X * rho_a with rho_a(x) = a^{-d} rho(x/a).  For a ball the
convolution reduces to a 1-D radial integral: the sphere of radius s
about a point at distance r from the centre meets B(R) in a spherical
cap whose normalized area c(s) has

    cos(polar angle) = ((r - R)(r + R) + s^2) / (2 r s),

so   theta_a(B(R))(r) = int_0^inf c(s) dM(s),

M(s) the mass of rho_a in the centered ball of radius s.  Every (PSF,
d) pair takes it in closed form (_ball_intensity_radii): in d=3 c is
rational in s, so the Gaussian's integral is elementary and a
polynomial PSF's is exact under a short Gauss-Legendre rule; in d=2 the
disc's grey value is a lens area, and the Gaussian's and bump's come
from one rule in the angle chi at the ball's centre.  By parts in s, and
with t = s^2 = (R - r)^2 + 4 r R sin^2 chi,

    theta = F(S) [S < R + r]
            + (2R/pi) int_0^chi_hi q(t) ((R - r) + 2 r sin^2 chi) dchi,

q = M(sqrt t)/t, S the kernel's support aD (infinite for the Gaussian),
chi_hi the angle where t reaches S^2 (at most pi/2), and F(S) the cap
fraction at S, atan2(R sin 2chi_hi, (r - R) + 2R sin^2 chi_hi)/pi.  The
integrand has no square-root edge, unlike c: the bump's is a trig
polynomial and the Gaussian's is entire (_angle_rule).  Each form
states a rounding bound, and the tests keep the quadrature of the cap
integral as their oracle.  All are vectorized over points.  The radii
where the grey value crosses given levels (the band radii, the
weight's knot radii) are solved on these grey values directly, a few
radii per call; only IntensityModel, which reads grey values everywhere
in the transition zone, fits a Chebyshev model of them, in a variable
where they are analytic, to the degree its coefficients choose, and
states the error it measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _special, psf as psf_mod
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
        _check_blur(self, psf, a)
        pts = np.atleast_2d(as_points(points, self.dim))
        model = intensity_model(self.radius, psf, a)
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


# (x - sin x) / x^3 = sum_k (-1)^k x^{2k} / (2k + 3)!; the ninth term is
# under 1e-17 of the first for x < 1
_SIN_SERIES = [(-1) ** k / math.factorial(2 * k + 3) for k in range(9)]


def _x_minus_sin(x):
    """x - sin x (x >= 0, an array), below 1 by its Taylor series, where
    the difference cancels."""
    out = x - np.sin(x)
    small = x < 1.0
    out[small] = x[small] ** 3 * np.polynomial.polynomial.polyval(
        x[small] ** 2, _SIN_SERIES)
    return out


def _lens(r1: float, r2: float, s, dim: int):
    """Measure of the intersection of two balls of radii r1, r2 whose
    centres are s apart (vectorized over s >= 0): the closed-form
    circle-circle area (d=2) or sphere-sphere volume (d=3).

    The circle case adds the two circles' segments beyond the common
    chord, (r^2/2)(2 alpha - sin 2 alpha) with alpha the half-angle of
    each, taken by atan2 from the half chord h and the centre's distance
    to the chord, (s^2 - r_other^2 + r^2)/(2 s) with s^2 - r_other^2 as a
    product.  Both segments are positive and _x_minus_sin does not
    cancel, so the area keeps a few ulps of itself, near tangency and
    for a small circle on a large one too.
    """
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    out[s <= abs(r1 - r2)] = psf_mod.ball_volume(dim, min(r1, r2))
    mid = (s > abs(r1 - r2)) & (s < r1 + r2)
    t = s[mid]
    if dim == 2:
        h = np.sqrt((r1 - t + r2) * (t + r1 - r2) * (t - r1 + r2)
                    * (r1 + r2 + t)) / (2.0 * t)
        out[mid] = sum(0.5 * r * r * _x_minus_sin(2.0 * np.arctan2(
            h, ((t - q) * (t + q) + r * r) / (2.0 * t)))
            for r, q in ((r1, r2), (r2, r1)))
    else:
        out[mid] = (math.pi * (r1 + r2 - t) ** 2
                    * (t * t + 2.0 * t * (r1 + r2) - 3.0 * (r1 - r2) ** 2)
                    / (12.0 * t))
    return out


def _gaussian_ball_3d(psf: Psf, a: float, R: float, r):
    """Grey values of B(R) under the d=3 Gaussian at radii r > 0, and the
    sum of their terms' magnitudes:

        Phi((R - r)/a) - Phi(-(R + r)/a)
            - (2a / (r sqrt(2 pi))) e^{-(R^2 + r^2)/2a^2} sinh(R r/a^2),

    the last term written as (a / (r sqrt(2 pi))) e^{-(R - r)^2/2a^2}
    (1 - e^{-2 R r/a^2}) by expm1, which neither overflows at R r >> a^2
    nor cancels at r << a."""
    s = a * math.sqrt(2.0)
    inner = 0.5 * psf_mod._erfc((r - R) / s)
    outer = 0.5 * psf_mod._erfc((R + r) / s)
    tail = (a / math.sqrt(2.0 * math.pi) * np.exp(-((R - r) / s) ** 2)
            * -np.expm1(-2.0 * R * r / (a * a)) / r)
    return inner - outer - tail, inner + outer + tail


def _compact_ball_3d(psf: Psf, a: float, R: float, r):
    """Grey values of B(R) under the d=3 bump or disc at radii r > 0, and
    the sum of their terms' magnitudes: 4 pi int rho(w) w^2 c dw over
    the core [0, (R - r)+ / a], where the cap fraction c is 1, and over
    the transition [|R - r| / a, (R + r) / a], where

        c = 1/2 - ((r - R)(r + R) + (a w)^2) / (4 r a w),

    each piece cut at the support D.  rho ~ (1 - w^2/D^2)^k makes each
    integrand a polynomial in w of degree at most 2k + 3, which k + 2
    Gauss-Legendre nodes integrate exactly: no antiderivative and no
    1/r cancellation.  The magnitudes add c's three terms apart."""
    D, order = psf.support_radius, psf_mod._compact_power(psf) + 2

    def piece(lo, hi):
        """Nodes on [lo, hi] cut at D, and 4 pi rho w^2 times weights."""
        w, wt = panel_nodes(np.minimum(np.stack((lo, hi), axis=-1), D), 1,
                            order)
        return w, sphere_area(3) * eval_rho(psf, w) * w * w * wt

    core = piece(np.zeros_like(r), np.maximum(R - r, 0.0) / a)[1].sum(1)
    w, mass = piece(np.abs(R - r) / a, (R + r) / a)
    rc, aw = r[:, None], a * w
    gap, den = (rc - R) * (rc + R), 4.0 * rc * aw
    return (core + (mass * (0.5 - (gap + aw * aw) / den)).sum(1),
            core + (mass * (0.5 + (np.abs(gap) + aw * aw) / den)).sum(1))


def _disc_ball_2d(psf: Psf, a: float, R: float, r):
    """Grey values of B(R) under the d=2 disc at radii r, the area of the
    lens of B(R) and the disc of radius aD about the point over that
    disc's area, and the sum of their terms' magnitudes: the value
    itself, as both of the lens's terms are positive (_lens)."""
    theta = _lens(R, a * psf.support_radius, r, 2) / (
        math.pi * (a * psf.support_radius) ** 2)
    return theta, theta


# Gauss-Legendre nodes per panel of the centre-angle rule: they integrate
# the bump's trig polynomial and each graded panel of the Gaussian's to
# rounding
_ANGLE_ORDER = 12


def _angle_rule(R: float, r, edges, q):
    """(2R/pi) int q(t) ((R - r) + 2 r sin^2 chi) dchi, t = (R - r)^2 +
    4 r R sin^2 chi, over the panels between each row of `edges`, and the
    sum of its terms' magnitudes: the cap integral's part beyond its
    boundary term, in the angle chi at the ball's centre (module
    docstring)."""
    chi, wt = panel_nodes(edges, 1, _ANGLE_ORDER)
    rc = r[:, None]
    sin2 = np.sin(chi) ** 2
    t = (R - rc) ** 2 + 4.0 * R * rc * sin2
    terms = q(t) * ((R - rc) + 2.0 * rc * sin2) * wt
    scale = 2.0 * R / math.pi
    return scale * terms.sum(1), scale * np.abs(terms).sum(1)


def _bump_ball_2d(psf: Psf, a: float, R: float, r):
    """Grey values of B(R) under the d=2 bump at radii r > 0, and the sum
    of their terms' magnitudes: the boundary term F(S), S = aD, plus the
    centre-angle rule up to chi_hi, where the kernel's support ends
    (t = S^2) or chi = pi/2.  With M = 1 - (1 - t/S^2)^{k+1},
    q = S^{-2} sum_{j<=k} (1 - t/S^2)^j, so the integrand is a trig
    polynomial and one panel integrates it."""
    S, k = a * psf.support_radius, psf_mod._compact_power(psf)
    gap = np.abs(R - r)
    sin2_hi = np.clip((S - gap) * (S + gap) / (4.0 * r * R), 0.0, 1.0)
    chi_hi = np.arcsin(np.sqrt(sin2_hi))
    theta, size = _angle_rule(
        R, r, np.stack((np.zeros_like(r), chi_hi), axis=-1),
        lambda t: sum((1.0 - t / S ** 2) ** j for j in range(k + 1)) / S ** 2)
    edge = np.where(S < R + r, np.arctan2(
        R * np.sin(2.0 * chi_hi), (r - R) + 2.0 * R * sin2_hi) / math.pi, 0.0)
    return theta + edge, size + edge


def _gaussian_ball_2d(psf: Psf, a: float, R: float, r):
    """Grey values of B(R) under the d=2 Gaussian at radii r > 0, and the
    sum of their terms' magnitudes: the centre-angle rule over [0, pi/2]
    with q = -expm1(-t/2a^2)/t.  The integrand is entire but turns over
    within w = a / sqrt(r R) of chi = 0, so the panels end at w, 2w, 4w,
    ... up to pi/2, as many as the call's narrowest layer needs."""
    half = 0.5 * math.pi
    w = a / np.sqrt(r * R)
    n = max(1, math.ceil(math.log2(half / np.min(w, initial=half))) + 1)
    edges = np.minimum(w[:, None] * np.append(0.0, 2.0 ** np.arange(n)),
                       half)
    edges[:, -1] = half
    return _angle_rule(R, r, edges,
                       lambda t: -np.expm1(-t / (2.0 * a * a)) / t)


# the grey values of a centered ball for each (PSF kind, dimension)
_CLOSED_FORMS = {("gaussian", 3): _gaussian_ball_3d,
                 ("bump", 3): _compact_ball_3d,
                 ("ball_indicator", 3): _compact_ball_3d,
                 ("gaussian", 2): _gaussian_ball_2d,
                 ("bump", 2): _bump_ball_2d,
                 ("ball_indicator", 2): _disc_ball_2d}


def _closed_form(psf: Psf):
    """The closed-form grey values of a centered ball for the PSF's kind
    and dimension."""
    return _CLOSED_FORMS[psf.kind, psf.dim]


# a closed form's rounding bound, in ulps of the sum of its terms'
# magnitudes
_ROUNDING_ULPS = 8
_EPS = float(np.finfo(float).eps)


def _ball_intensity_radii(psf: Psf, a: float, R: float, radii):
    """Grey values of a centered ball at the given radii (vectorized) and
    a bound on the rounding of each: the closed form of the PSF's kind
    and dimension (_closed_form), _ROUNDING_ULPS ulps of its terms'
    magnitudes.  Radii under 1e-9 (R + a) read the PSF's mass in
    B(R/a)."""
    r = np.atleast_1d(np.asarray(radii, dtype=float))
    closed = _closed_form(psf)
    theta, size = np.empty_like(r), np.ones_like(r)
    central = r < 1e-9 * (R + a)
    if central.any():
        theta[central] = psf_mod.radial_mass(psf, R / a)
    theta[~central], size[~central] = closed(psf, a, R, r[~central])
    return np.clip(theta, 0.0, 1.0), _ROUNDING_ULPS * _EPS * size


# the intensity fit (IntensityModel): Chebyshev-Lobatto grids of
# _FIT_NODES intervals, doubling up to _FIT_NODES_MAX, each kept once
# its chopped series is within _FIT_TOL of the grey values at the
# midpoints between its nodes; the chop drops the trailing coefficients
# whose absolute sum stays under _CHOP_TOL.  The stated error is twice
# the largest gap at the midpoints plus the grey values' largest
# rounding bound, which together bound the gap to the exact grey value
# there: on 20,001 radii (R in {0.7, 1, 2.5}, a from 0.005 to 0.3, every
# PSF in d = 2 and 3) the gap to the grey values reached 1.7 times the
# checked one and 0.63 of the stated error
_FIT_NODES, _FIT_NODES_MAX = 16, 256
_FIT_TOL, _CHOP_TOL = 1e-13, 1e-14


def _lobatto_coefs(values) -> np.ndarray:
    """Chebyshev coefficients of the interpolant through `values` at the
    n + 1 Chebyshev-Lobatto points cos(j pi / n), j = 0..n: the DCT-I
    c_k = (2/n) sum'' v_j cos(j k pi / n), first and last halved."""
    n = len(values) - 1
    jk = np.outer(np.arange(n + 1), np.arange(n + 1)) % (2 * n)
    v = values * (2.0 / n)
    v[[0, -1]] *= 0.5
    c = np.cos(jk * (math.pi / n)) @ v
    c[[0, -1]] *= 0.5
    return c


def _chop(coefs) -> np.ndarray:
    """The leading coefficients, without the longest tail whose absolute
    sum (a bound on its value on [-1, 1]) stays under _CHOP_TOL."""
    tail = np.cumsum(np.abs(coefs[::-1]))[::-1]
    keep = int(np.count_nonzero(tail > _CHOP_TOL))
    return coefs[:max(keep, 1)]


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
    Newton steps on the grey values (_ball_intensity_radii) with a
    forward-difference slope, all levels in one vectorized call per step
    (the first also reads theta(r_lo)).  A step that leaves the level's
    bracket, which every evaluation narrows, is replaced by bisection.  A
    level stops when its step falls below 1e-13; one still moving after
    _SOLVER_STEPS raises TruncationError.
    """
    profile = halfspace_profile(psf)
    levels = np.asarray(levels, dtype=float)
    n = levels.size
    r_lo, r_hi = max(R - a * profile.T, 0.0), R + a * profile.T
    h = _SLOPE_STEP * a
    x = np.clip([R + a * profile.phi(y) for y in levels], r_lo, r_hi)
    lo, hi = np.full(n, r_lo), np.full(n, r_hi)
    v, _ = _ball_intensity_radii(psf, a, R,
                                 np.concatenate((x, x + h, [r_lo])))
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
        v, _ = _ball_intensity_radii(psf, a, R,
                                     np.concatenate((x[live], x[live] + h)))
        theta, ahead = v[:live.size], v[live.size:]
    raise TruncationError(
        f"level {levels[live[0]]:g} radius: Newton did not converge")


def ball_knot_radii(radius: float, psf: Psf, a: float,
                    knots) -> tuple[float, ...]:
    """Radii where the grey value of the centered ball B(radius) falls
    through each of the ascending weight knots, innermost (the largest
    knot's) first, solved afresh on the closed-form grey values of every
    (PSF, d) pair (_level_radii).  A knot at or above the grey value at
    the inner end of the transition zone gets that end (0 for a wide
    blur); a blur that keeps it at or below the smallest knot is
    refused."""
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
_cached_knot_radii = lru_cache(maxsize=64)(ball_knot_radii)


def cached_knot_radii(radius: float, psf: Psf, a: float,
                      knots) -> tuple[float, ...]:
    """ball_knot_radii from a process cache of 64 entries, keyed on the
    knots, any sequence (a tuple, a list or a numpy array), as a tuple
    of floats."""
    return _cached_knot_radii(radius, psf, a, tuple(map(float, knots)))


cached_knot_radii.cache_clear = _cached_knot_radii.cache_clear


class IntensityModel:
    """Chebyshev model of the grey value of the centered ball B(radius)
    against the distance r from its centre, for one (radius, psf, a); a
    radius or blur scale outside (0, inf) is refused.

    The chopped series sum c_k T_k(x) of the grey values
    (_ball_intensity_radii) over the transition zone table_range =
    R -/+ a T (T the edge profile's half-width; the grey value is 1 or 0
    outside it), the only fit of them, in a variable x in [-1, 1] where
    they are analytic.  A compact PSF's grey value has a (gap)^{3/2}
    edge at each end of the zone (the d=2 disc's) or a smoother one;
    r = mid + half sin(pi x/2) makes the gap quadratic in x there and
    the edge analytic.  The Gaussian has no edge and is fitted in
    r = mid + half x.  On the grid of n + 1 Chebyshev-Lobatto points,
    n = _FIT_NODES, 2 _FIT_NODES, ..., the chopped interpolant is
    checked at the n midpoints in angle, which are the odd points of the
    next grid, so each grey value is taken once.  The first series
    within _FIT_TOL of every check is kept; none by n = _FIT_NODES_MAX
    raises TruncationError.

    `error` bounds its gap to the exact grey values: twice the sum of
    the largest gap where it was checked and the largest rounding bound
    of the grey values it read.  `degree` is the degree its coefficients
    chose.  intensity_model caches the models per (radius, psf, a).
    """

    def __init__(self, radius: float, psf: Psf, a: float):
        if not 0.0 < radius < math.inf:
            raise DomainError("ball radius must be positive and finite")
        if not 0 < a < math.inf:
            raise DomainError("blur scale a must be positive and finite")
        T = halfspace_profile(psf).T
        lo, hi = self.table_range = max(radius - a * T, 0.0), radius + a * T
        self._mid, self._half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        self._angular = psf.compact
        rounding = [0.0]

        def theta(j, n):
            x = np.cos(j * (math.pi / n))
            values, bound = _ball_intensity_radii(
                psf, a, radius, self._mid + self._half * (
                    np.sin(0.5 * math.pi * x) if self._angular else x))
            rounding.append(float(bound.max()))
            return values

        n = _FIT_NODES
        values = theta(np.arange(2 * n + 1), 2 * n)
        while True:
            self.coefs = _chop(_lobatto_coefs(values[0::2]))
            gap = float(np.max(np.abs(
                _special._clenshaw(self.coefs, np.cos(np.arange(1, 2 * n, 2)
                                                      * (math.pi / (2 * n))))
                - values[1::2])))
            if gap <= _FIT_TOL:
                break
            if 2 * n > _FIT_NODES_MAX:
                raise TruncationError(
                    f"intensity model of B({radius:g}) at a = {a:g} misses "
                    f"its bound {_FIT_TOL:g} by {gap:.3e} on {n + 1} nodes, "
                    f"the most allowed")
            n *= 2
            finer = np.empty(2 * n + 1)
            finer[0::2] = values
            finer[1::2] = theta(np.arange(1, 2 * n, 2), 2 * n)
            values = finer
        self.error = 2.0 * (gap + max(rounding))
        self.degree = len(self.coefs) - 1

    def radial(self, r):
        """Grey value at radius r from the ball center."""
        r = np.asarray(r, dtype=float)
        lo, hi = self.table_range
        # the readers' radii (a band table's, a Hankel rule's) all lie in
        # the zone: no masks then
        if r.ndim and r.size and lo <= r.min() and r.max() < hi:
            return self._series(r)
        out = np.where(r < lo, 1.0, 0.0)
        mid = (r >= lo) & (r < hi)
        if np.any(mid):
            out[mid] = self._series(r[mid])
        return out

    def _series(self, r):
        """The series at radii r (a 1-D array) in the zone, read at
        x = (r - mid) / half, or its arcsine map, and clipped to [0, 1]."""
        x = np.subtract(r, self._mid)
        x /= self._half
        if self._angular:
            np.clip(x, -1.0, 1.0, out=x)
            np.arcsin(x, out=x)
            x *= 2.0 / math.pi
        theta = _special._clenshaw(self.coefs, x)
        return np.clip(theta, 0.0, 1.0, out=theta)


@lru_cache(maxsize=64)
def intensity_model(radius: float, psf: Psf, a: float) -> IntensityModel:
    """The IntensityModel of B(radius) under psf at scale a, cached: the
    exact and Monte Carlo routes of a row, and every ball of one radius,
    share one fit."""
    return IntensityModel(radius, psf, a)


def intensity(phantom: Phantom, psf: Psf, a: float, x) -> float:
    """Grey value theta_a(X)(x) at a single point.

    Balls read _ball_intensity_radii, the closed form of their PSF and
    dimension, within its rounding bound of a few ulps; half-spaces read
    their grey_values.
    """
    _check_blur(phantom, psf, a)
    x = np.asarray(x, dtype=float)
    if x.shape != (phantom.dim,):
        raise DomainError("point has wrong dimension")
    if isinstance(phantom, HalfSpace):
        return phantom.grey_values(psf, a, x)
    r = float(np.linalg.norm(x - np.asarray(phantom.center)))
    return float(_ball_intensity_radii(psf, a, phantom.radius, [r])[0][0])
