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
model of it, in a variable where it is analytic, to the degree its
coefficients choose, and states the error it measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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


# the intensity fit (_fit_radial_model): Chebyshev-Lobatto grids of
# _FIT_NODES intervals, doubling up to _FIT_NODES_MAX, each kept once
# its chopped series is within _FIT_TOL of the cap quadrature at the
# midpoints between its nodes; the chop drops the trailing coefficients
# whose absolute sum stays under _CHOP_TOL.  The stated error is twice
# the largest gap at the midpoints plus _FIT_FLOOR: on 20,001 radii (R
# in {0.7, 1, 2.5}, a from 0.005 to 0.3, every PSF in d = 2 and 3) the
# gap to the quadrature reached 2.1 times the checked one, where both
# were at the quadrature's own rounding of a few 1e-15
_FIT_NODES, _FIT_NODES_MAX = 16, 256
_FIT_TOL, _CHOP_TOL, _FIT_FLOOR = 1e-13, 1e-14, 1e-14


@dataclass(frozen=True)
class _RadialFit:
    """sum c_k T_k(x) on the transition zone [lo, hi] = mid -/+ half,
    r = mid + half sin(pi x / 2) (compact PSFs) or r = mid + half x (the
    Gaussian), x in [-1, 1], and its stated error against the cap
    quadrature."""

    coefs: np.ndarray
    lo: float
    hi: float
    angular: bool
    error: float

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def half(self) -> float:
        return 0.5 * (self.hi - self.lo)

    def radius(self, x):
        """r at Chebyshev variable(s) x."""
        return self.mid + self.half * (np.sin(0.5 * math.pi * x)
                                       if self.angular else x)

    def variable(self, r):
        """x at radii r (a 1-D array) inside the zone."""
        x = np.subtract(r, self.mid)
        x /= self.half
        if self.angular:
            np.clip(x, -1.0, 1.0, out=x)
            np.arcsin(x, out=x)
            x *= 2.0 / math.pi
        return x


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


def _fit_radial_model(psf: Psf, a: float, R: float) -> _RadialFit:
    """Chopped Chebyshev series of the cap quadrature of B(R) on the
    transition zone R -/+ a T (T the edge profile's half-width; theta is
    1 or 0 outside it), in a variable where theta is analytic.

    A compact PSF's grey value has a (gap)^{3/2} edge at each end of the
    zone (the d=2 disc's) or a smoother one; r = mid + half sin(pi x/2)
    makes the gap quadratic in x there and the edge analytic.  The
    Gaussian has no edge and is fitted in r.  On the grid of n + 1
    Chebyshev-Lobatto points, n = _FIT_NODES, 2 _FIT_NODES, ..., the
    chopped interpolant is checked at the n midpoints in angle, which are
    the odd points of the next grid, so each quadrature value is taken
    once.  The first series within _FIT_TOL of every check is kept,
    stating twice its largest gap plus _FIT_FLOOR as its error; none by
    n = _FIT_NODES_MAX raises TruncationError.
    """
    T = halfspace_profile(psf).T
    # the zone and its map; the series and its error come last
    fit = _RadialFit(np.zeros(1), max(R - a * T, 0.0), R + a * T,
                     psf.compact, math.nan)
    theta = lambda j, n: _ball_intensity_radii(
        psf, a, R, fit.radius(np.cos(j * (math.pi / n))))
    n = _FIT_NODES
    values = theta(np.arange(2 * n + 1), 2 * n)
    while True:
        coefs = _chop(_lobatto_coefs(values[0::2]))
        error = float(np.max(np.abs(
            _special._clenshaw(coefs, np.cos(np.arange(1, 2 * n, 2)
                                             * (math.pi / (2 * n))))
            - values[1::2])))
        if error <= _FIT_TOL:
            return replace(fit, coefs=coefs,
                           error=2.0 * error + _FIT_FLOOR)
        if 2 * n > _FIT_NODES_MAX:
            raise TruncationError(
                f"intensity model of B({R:g}) at a = {a:g} misses its "
                f"bound {_FIT_TOL:g} by {error:.3e} on {n + 1} nodes, the "
                f"most allowed")
        n *= 2
        finer = np.empty(2 * n + 1)
        finer[0::2] = values
        finer[1::2] = theta(np.arange(1, 2 * n, 2), 2 * n)
        values = finer

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

    The chopped series of the cap quadrature over the transition zone
    (_fit_radial_model), the only fit of the quadrature; the grey value
    is 1 or 0 outside it.  `error` bounds its gap to the quadrature, from
    the largest gap where it was checked, and `degree` is the degree its
    coefficients chose.  intensity_model caches the models
    per radius and blur.
    """

    def __init__(self, phantom: Phantom, psf: Psf, a: float):
        _check_blur(phantom, psf, a)
        self._fit = _fit_radial_model(psf, a, phantom.radius)
        self.error = self._fit.error
        self.degree = len(self._fit.coefs) - 1

    @property
    def table_range(self) -> tuple[float, float]:
        """Radius interval of the modelled transition zone."""
        return self._fit.lo, self._fit.hi

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
        """The series at radii r (a 1-D array) in the zone, clipped to
        [0, 1]."""
        theta = _special._clenshaw(self._fit.coefs, self._fit.variable(r))
        return np.clip(theta, 0.0, 1.0, out=theta)


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
