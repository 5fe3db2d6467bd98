"""Variance of lattice-sampled estimators: exact lattice sums, asymptotic
models, and Monte Carlo over stationary random lattices.

For a placement b Q (A Z^d + U) with U uniform over the fundamental cell,
Parseval on the cell turns the variance of the normalized surface
estimator into a sum over the dual lattice,

    Var(S_hat) = (a alpha_f)^{-2} sum_{xi in dual, xi != 0}
                 avg_{S^{d-1}} |F(g_a)(|xi| u / b)|^2,

with g_a = f(theta_a(X)).  For a ball the transform is radial, the
spherical average is the value itself, and the Haar rotation drops out
exactly, so the sum is one-dimensional over dual shells.  The volume
estimators obey the same identity with g_a replaced by the set indicator
(binary) or the intensity itself (grey).

Read the other way round, the same identity is a primal sum of the
layer's autocorrelation C_g,

    Var_raw = b^d det(A) sum_z C_g(|b A z|) - (int g)^2,

which is finite because g has compact support.  Where C_g has a closed
form (the indicator weight's annulus and the binary volume's ball,
whose autocorrelations are circle-circle or sphere-sphere intersection
measures) the exact variance is this finite sum, and the lattice sum LS
of every weight is a short primal sum of the profile layer's
autocorrelation plus Epstein zeta constants.  Both come out converged,
with xi_max = inf and a certified bound.

The other exact variances (smooth weights and the grey volume) keep the
dual sums, whose transforms decay fast.  Shells are accumulated in
geometric blocks until both the newest block and an envelope-fitted
tail bound C |xi|^{-p} (integrated over the remaining frequencies,
safety factor 2) fall below a fixed relative tolerance.  A sum that has
not converged by |xi| = max(2e3 b / a, 64) is refused with a
TruncationError, so every returned report is converged and carries its
tail bound.

Monte Carlo uses the shift-only fast path for balls, a fixed number of
batches with seeds spawned from one root seed, and a reduction ordered
by batch index, so results are bit-identical for any worker count.  Its
kernel scores squared radii |p + o|^2, one matrix product per chunk of
shifts o: the indicator weight and the binary volume compare them with
squared band radii (f(theta(r)) = 1[r_in <= r <= r_out] exactly, as
the annulus autocorrelation of the exact engine uses), and any other
weight takes f(theta(r)) of the intensity model inside the band, 0 outside.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
# numpy loads numpy.random on first use; load it with this module, not
# inside the first Monte Carlo call
import numpy.random

from . import lattice as lat
from ._quad import panel_nodes
from .errors import DomainError, TruncationError
from .estimator import Indicator, alpha_f, weight_tv
from .lattice import Lattice
from .phantom import Ball, ball_band_radii, intensity_model
from .psf import (HalfspaceProfile, Psf, ball_volume, halfspace_profile,
                  sphere_area)
# profile_fourier_1d is unused here: perfbench/spans.py wraps it by name
from .spectral import (AnnulusFourier, RadialFourier, ball_indicator_fourier,
                       knot_images, profile_fourier_1d, psf_fourier)

# bytes of one (N, K) float64 array of squared radii in the Monte Carlo
# kernel; the chunk width K follows from it (at least one column)
_MC_CHUNK_BYTES = 8 << 20

# rounding allowance of a finite primal sum, in units of eps times the
# magnitude of every term: each term is a few dozen floating-point
# operations on O(1) inputs, summed exactly by math.fsum
_ROUNDING_ULPS = 64
_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# convergent sums over dual shells

@dataclass(frozen=True)
class ShellSumInfo:
    """Truncation record of an adaptive dual-lattice sum, or of a finite
    primal sum (xi_max = inf, tail_bound its rounding or remainder
    bound); immutable, so a cached record can be shared."""

    xi_max: float
    n_shells: int
    tail_bound: float
    converged: bool


def _octave_eval(fn, q):
    """Evaluate fn on ascending q, splitting into blocks of bounded
    dynamic range so oscillatory node counts track the local frequency."""
    out = np.empty_like(q)
    i = 0
    while i < len(q):
        j = int(np.searchsorted(q, 2.0 * q[i], side="right"))
        out[i:j] = fn(q[i:j])
        i = j
    return out


def convergent_dual_sum(lattice: Lattice, summand, *, decay_power: float,
                        tail_tol: float, xi_cap: float = 4096.0):
    """Sum summand(|xi|) * multiplicity over nonzero dual shells.

    `summand` maps an ascending array of shell norms to nonnegative
    values; `decay_power` p is the envelope exponent used for the tail
    bound 2 C_fit * cell_volume * omega_d * Xi^{d-p} / (p - d) with
    C_fit fitted to the last block.  Blocks end at |xi| = 6, growing
    1.7-fold, until the sum converges or reaches xi_cap; the record says
    which.
    """
    d = lattice.dim
    if decay_power <= d:
        raise DomainError("tail bound needs decay_power > dim")
    total = 0.0
    n_shells = 0
    xi_prev = 0.0
    xi = min(6.0, xi_cap)
    tail = math.inf
    converged = False
    while True:
        norms, counts = lat.dual_shells(lattice, xi, xi_prev)
        if len(norms):
            vals = _octave_eval(summand, norms)
            block = float(counts @ vals)
            total += block
            n_shells += len(norms)
            # fit C so that C |xi|^{-p} matches the newest block on
            # average (multiplicity-weighted), then integrate the
            # envelope outward with a safety factor of 2
            c_fit = float((counts @ (vals * norms ** decay_power))
                          / counts.sum())
            tail = (2.0 * c_fit * lattice.cell_volume * sphere_area(d)
                    * xi ** (d - decay_power) / (decay_power - d))
            scale = abs(total) + 1e-300
            if tail <= tail_tol * scale and block <= tail_tol * scale:
                converged = True
                break
        if xi >= xi_cap:
            break
        xi_prev = xi
        xi = min(xi * 1.7, xi_cap)
    return total, ShellSumInfo(xi_max=xi, n_shells=n_shells,
                               tail_bound=tail, converged=converged)


def _refusing_dual_sum(lattice: Lattice, summand, a: float, b: float,
                       tail_tol: float):
    """convergent_dual_sum of a squared radial transform, or a
    TruncationError.

    The summand varies on the frequency scale b / a, so the search
    stops at |xi| = max(2e3 b / a, 64); that limit only decides when to
    refuse, never which number is returned.
    """
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise DomainError("scales a and b must be positive and finite")
    total, info = convergent_dual_sum(
        lattice, summand, decay_power=lattice.dim + 1.0, tail_tol=tail_tol,
        xi_cap=max(2e3 * b / a, 64.0))
    if not info.converged:
        raise TruncationError(
            f"dual-shell sum did not converge by dual radius "
            f"{info.xi_max:g}: tail bound {info.tail_bound:.3e} against a "
            f"tolerance of {tail_tol:g} of the partial sum {total:.3e}")
    return total, info


# ---------------------------------------------------------------------------
# exact variance for balls

@dataclass
class VarianceReport:
    """Exact variance value with its truncation record; shells is
    always converged."""

    value: float
    a: float
    b: float
    alpha: float
    shells: ShellSumInfo


def _ball_radius(phantom) -> float:
    if not isinstance(phantom, Ball):
        raise DomainError("variance engines take ball phantoms only")
    return phantom.radius


def weighted_layer(radius: float, psf: Psf, a: float, f):
    """Radial transform of the weighted grey layer r -> f(theta(r)) of a
    ball, supported exactly between the radii where theta crosses the
    outer band edges of f.

    An indicator weight makes the layer an annulus indicator, whose
    transform is the closed-form difference of two ball transforms and
    needs no grey values; any other weight goes through Hankel
    quadrature of the (cached) intensity model.
    """
    r_in, r_out = ball_band_radii(radius, psf, a, f.knots[0], f.knots[-1])
    if isinstance(f, Indicator):
        return AnnulusFourier(r_in, r_out, psf.dim)
    model = intensity_model(Ball(psf.dim, radius), psf, a)
    return RadialFourier(lambda r: f(model.radial(r)), r_in, r_out, psf.dim)


def _lens(r1: float, r2: float, s, dim: int):
    """Measure of the intersection of two balls of radii r1, r2 whose
    centres are s apart (vectorized over s >= 0): the closed-form
    circle-circle area (d=2) or sphere-sphere volume (d=3).

    The circle case takes both half-angles by atan2 from the one half
    chord h, so that near tangency, where the area is far smaller than
    its pieces, the pieces' rounding cancels with them.
    """
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    out[s <= abs(r1 - r2)] = ball_volume(dim, min(r1, r2))
    mid = (s > abs(r1 - r2)) & (s < r1 + r2)
    t = s[mid]
    if dim == 2:
        h = np.sqrt((r1 + r2 - t) * (t + r1 - r2) * (t - r1 + r2)
                    * (r1 + r2 + t)) / (2.0 * t)
        d1 = (t * t + r1 * r1 - r2 * r2) / (2.0 * t)
        out[mid] = (r1 * r1 * np.arctan2(h, d1)
                    + r2 * r2 * np.arctan2(h, t - d1) - t * h)
    else:
        out[mid] = (math.pi * (r1 + r2 - t) ** 2
                    * (t * t + 2.0 * t * (r1 + r2) - 3.0 * (r1 - r2) ** 2)
                    / (12.0 * t))
    return out


def _primal_variance(lattice: Lattice, b: float, pieces, mass: float):
    """Var_raw = b^d det(A) sum_z C(|b A z|) - mass^2 for the
    autocorrelation C(s) = sum_k c_k _lens(r1_k, r2_k, s) given as pieces
    (c_k, r1_k, r2_k); the sum is finite, |b A z| < max(r1_k + r2_k).

    Terms are summed exactly (math.fsum) in shell order; the cancellation
    against mass^2 costs digits, so the report carries a rounding bound
    of _ROUNDING_ULPS ulps of every term's magnitude as its tail bound.
    """
    d = lattice.dim
    norms, counts = lat.point_shells(
        lattice, max(r1 + r2 for _, r1, r2 in pieces) / b)
    autocorr = lambda s: sum(c * _lens(r1, r2, s, d) for c, r1, r2 in pieces)
    cell = b ** d * lattice.cell_volume
    # C(0) is the integral of g^2 = g, the mass
    terms = cell * np.concatenate(([mass], counts * autocorr(b * norms)))
    raw = math.fsum(terms.tolist() + [-mass * mass])
    size = sum(abs(c) * ball_volume(d, max(r1, r2)) for c, r1, r2 in pieces)
    bound = (_ROUNDING_ULPS * _EPS * size
             * (cell * (1 + int(counts.sum())) + mass))
    return raw, ShellSumInfo(xi_max=math.inf, n_shells=len(norms),
                             tail_bound=bound, converged=True)


def variance_exact_ball(phantom, psf: Psf, f, a: float, lattice: Lattice,
                        b: float) -> VarianceReport:
    """Exact variance of the normalized surface estimator for a ball
    phantom.

    An indicator weight makes the grey layer an annulus indicator, whose
    autocorrelation is closed-form: the variance is the finite primal
    sum over |b A z| < 2 r_out, converged with xi_max = inf and a
    rounding bound (raw units) as tail_bound.  Any other weight takes
    the dual-shell sum of squared layer transforms to a relative
    tolerance of 1e-3, or raises TruncationError if it does not
    converge (see _refusing_dual_sum).
    """
    if lattice.dim != psf.dim:
        raise DomainError("lattice and psf dimensions differ")
    radius = _ball_radius(phantom)
    layer = weighted_layer(radius, psf, a, f)
    alpha = alpha_f(f, halfspace_profile(psf))
    if isinstance(layer, AnnulusFourier):
        r_in, r_out = layer.r_lo, layer.r_hi
        pieces = [(1.0, r_out, r_out)]
        if r_in > 0.0:
            pieces += [(-2.0, r_out, r_in), (1.0, r_in, r_in)]
        total, info = _primal_variance(lattice, b, pieces,
                                       layer.volume_integral())
    else:
        total, info = _refusing_dual_sum(
            lattice, lambda q: layer.at(q / b) ** 2, a, b, 1e-3)
    value = total / (a * alpha) ** 2
    return VarianceReport(value=value, a=a, b=b, alpha=alpha, shells=info)


def volume_variance_exact(radius: float, lattice: Lattice, b: float, *,
                          psf: Psf | None = None,
                          a: float | None = None) -> VarianceReport:
    """Exact variance of the volume estimators for a centered ball.

    Binary (psf=None): the finite primal sum of the ball's
    autocorrelation lens(R, R, s), converged with a rounding bound.
    Grey: the dual sum of |F(1_B)(|xi|/b)|^2 |F(rho)(a |xi| / b)|^2 over
    nonzero dual shells to a relative tolerance of 1e-4, or a
    TruncationError if it does not converge (see _refusing_dual_sum).
    """
    d = lattice.dim
    if psf is None:
        total, info = _primal_variance(lattice, b, [(1.0, radius, radius)],
                                       ball_volume(d, radius))
        return VarianceReport(value=total, a=math.nan, b=b, alpha=1.0,
                              shells=info)
    if a is None:
        raise DomainError("grey volume variance needs the blur scale a")

    def summand(xi):
        q = xi / b
        return (ball_indicator_fourier(radius, d, q) ** 2
                * psf_fourier(psf, a * q) ** 2)

    total, info = _refusing_dual_sum(lattice, summand, a, b, 1e-4)
    return VarianceReport(value=total, a=a, b=b, alpha=1.0, shells=info)


# ---------------------------------------------------------------------------
# asymptotic models

@dataclass
class AsymptoticReport:
    """Isotropic asymptotic variance: a^{d-1} * prefactor * (LS + Z) with
    the oscillating Z bounded by the lattice sum LS in the limit, so the
    predicted band is [0, 2 * main]."""

    main: float
    envelope: float
    lattice_sum: float
    prefactor: float
    a: float
    shells: ShellSumInfo


def profile_lattice_sum(f, profile: HalfspaceProfile,
                        lattice: Lattice) -> tuple[float, ShellSumInfo]:
    """LS = sum over nonzero dual xi of |F1(f o theta_H)(|xi|)|^2
    |xi|^{-(d-1)}; the scale-free factor of matched-resolution variance.

    Summed on the primal side for every weight (see _lattice_sum):
    converged, xi_max = inf, and a tail_bound in the units of LS.  LS
    does not depend on the scales a and b, so results are cached per
    (f, profile, lattice), as halfspace_profile caches per PSF; a weight
    that cannot be hashed is summed afresh each call.
    """
    try:
        hash(f)
    except TypeError:
        return _lattice_sum(f, profile, lattice)
    return _cached_lattice_sum(f, profile, lattice)


# the d=2 lattice sum adds the remainder directly out to _LS_REACH times
# the larger of the band width and the cell diameter
_LS_REACH = 64.0
# Gauss-Legendre panels per smooth piece, and their order, of every rule
# behind LS; the certificate compares against half as many panels
_LS_PANELS, _LS_ORDER = 2, 10


def _layer_autocorrelation(f, profile: HalfspaceProfile):
    """Phi(t, n_panels) = int h(s) h(s + t) ds for t in [0, w], h = f o
    theta_H on [phi(omega), phi(beta)] of width w, and the breakpoints
    of Phi: 0, the distances between knot images, and w.  An indicator's
    Phi is the triangle (w - |t|)_+; any other weight takes a Gauss rule
    in s split at the knot images and their shifts by -t."""
    knots = knot_images(f, profile)
    w = knots[-1] - knots[0]
    # sorted distinct distances; np.unique would import numpy.ma
    dist = np.sort(np.abs(knots[:, None] - knots[None, :]), axis=None)
    breaks = dist[np.concatenate(([True], dist[1:] != dist[:-1]))]
    if isinstance(f, Indicator):
        return (lambda t, n: np.maximum(w - np.abs(t), 0.0)), breaks

    def autocorr(t, n_panels):
        t = np.asarray(t, dtype=float)[..., None]
        edges = np.sort(np.concatenate(
            [np.broadcast_to(knots, t.shape[:-1] + knots.shape),
             knots - t], axis=-1), axis=-1)
        s, v = panel_nodes(np.clip(edges, knots[0], knots[-1] - t),
                           n_panels, _LS_ORDER)
        # clipped breakpoints leave empty panels; skip their nodes
        live = v > 0.0
        s, shift = s[live], np.broadcast_to(t, v.shape)[live]
        v[live] *= f(profile.theta(s)) * f(profile.theta(s + shift))
        return v.sum(axis=-1)

    return autocorr, breaks


def _lattice_sum(f, profile, lattice):
    """LS of any weight by Poisson summation the other way round.

    |F1|^2 is the transform of Phi (_layer_autocorrelation), so LS is
    (omega_d / 2) sum_{xi != 0} of the transform of g(z) = avg_u
    Phi(<z, u>) = int_0^{pi/2} Phi(|z| sin phi) K_d(phi) dphi, K_2 = 2/pi
    and K_3 = cos, which Poisson turns into det(A) sum_z g(z).  With
    m_k = int_0^w t^k Phi, the power law sum_p c_p r^{-p} of g is summed
    with Epstein zeta constants Z(p) (lattice.epstein_zeta) and the rest
    g_c over a few shells:

        LS = (omega_d / 2) [det(A) (Phi(0) + sum_p c_p Z(p)
                                    + sum_{z != 0} g_c(z)) + B].

    d=3: c_1 = m_0 and B = 2 pi m_2; g_c vanishes beyond w.
    d=2: c_1 = 2 m_0 / pi, c_3 = m_2 / pi; from 2w on, g_c is taken as
        R(r) = (2/pi) int_0^w Phi(t) k(t/r) / r dt, k(x) =
        1/sqrt(1 - x^2) - 1 - x^2/2 written without cancellation, and the
        sum stops at |z| = K.  For a nonnegative weight R_lo =
        3 m_4 / (4 pi r^5) <= R <= R_lo / (1 - w^2/r^2), and each cell
        (diameter D) lies within D/2 of its point, so the tail lies
        between the integrals of R_lo(r + D/2) beyond K + D/2 and
        R_hi(r - D/2) beyond K - D/2: B is its midpoint, and tail_bound
        takes its half-width.

    tail_bound adds rounding and the gap to rules with half the panels.
    """
    autocorr, breaks = _layer_autocorrelation(f, profile)
    w, d, diam = float(breaks[-1]), lattice.dim, lattice.cell_diameter
    reach = w if d == 3 else _LS_REACH * max(w, diam)
    norms, counts = lat.point_shells(lattice, reach)
    powers = (1,) if d == 3 else (1, 3)
    zeta = [lat.epstein_zeta(lattice, p) for p in powers]
    close = norms < 2.0 * w

    def summed(n_panels):
        rule = lambda edges: panel_nodes(edges, n_panels, _LS_ORDER)
        t, v = rule(breaks)
        phi_t = v * autocorr(t, n_panels)
        m0, m2, m4 = (float(phi_t @ t ** k) for k in (0, 2, 4))
        coefs = (m0,) if d == 3 else (2.0 * m0 / math.pi, m2 / math.pi)
        power = sum(c / norms ** p for c, p in zip(coefs, powers))
        g_c = np.empty_like(norms)
        # the angular integral, split where r sin(phi) meets a breakpoint
        r = norms[close, None]
        phi, u = rule(np.arcsin(np.clip(breaks / r, 0.0, 1.0)))
        u *= np.cos(phi) if d == 3 else 2.0 / math.pi
        g_c[close] = (np.sum(u * autocorr(r * np.sin(phi), n_panels), axis=1)
                      - power[close])
        x = t / norms[~close, None]
        s = np.sqrt(1.0 - x * x)
        k = x ** 4 * (2.0 + s) / (2.0 * s * (1.0 + s) ** 2)
        g_c[~close] = (2.0 / math.pi) * (k @ phi_t) / norms[~close]
        background, half_width = 2.0 * math.pi * m2, 0.0
        if d == 2:
            lo, hi, c = reach + diam, reach - diam, 1.5 * m4
            tail_lo = c * (1.0 / (3.0 * lo ** 3) - diam / (8.0 * lo ** 4))
            tail_hi = (c * (1.0 / (3.0 * hi ** 3) + diam / (8.0 * hi ** 4))
                       / (1.0 - (w / hi) ** 2))
            background = 0.5 * (tail_lo + tail_hi)
            half_width = 0.5 * (tail_hi - tail_lo)
        phi0 = float(autocorr(np.zeros(1), n_panels)[0])
        far = math.fsum(c * z for c, z in zip(coefs, zeta))
        half = 0.5 * sphere_area(d)
        ls = half * (lattice.cell_volume * math.fsum(
            [phi0, far, math.fsum((counts * g_c).tolist())]) + background)
        size = half * (lattice.cell_volume * (
            phi0 + abs(far) + counts @ (np.abs(g_c) + power))
            + background + half_width)
        return ls, size, half * half_width

    ls, size, half_width = summed(_LS_PANELS)
    gap = abs(ls - summed(_LS_PANELS // 2)[0])
    bound = half_width + _ROUNDING_ULPS * _EPS * size + gap
    return ls, ShellSumInfo(xi_max=math.inf, n_shells=len(norms),
                            tail_bound=bound, converged=True)


_cached_lattice_sum = lru_cache(maxsize=64)(_lattice_sum)


def variance_asymptotic_isotropic(surface_area: float, psf: Psf, f,
                                  lattice: Lattice,
                                  a: float) -> AsymptoticReport:
    """Matched-resolution (b = a) asymptotic variance for a set with
    surface area S:

        Var ~ 2 a^{d-1} omega_d^{-1} alpha_f^{-2} S (LS + Z(a)),

    returned as the main term (Z = 0) plus the envelope 2 * main that
    bounds the oscillation band.
    """
    profile = halfspace_profile(psf)
    ls, info = profile_lattice_sum(f, profile, lattice)
    alpha = alpha_f(f, profile)
    pref = (2.0 / sphere_area(psf.dim) / alpha ** 2) * surface_area
    main = a ** (psf.dim - 1) * pref * ls
    return AsymptoticReport(main=main, envelope=2.0 * main, lattice_sum=ls,
                            prefactor=pref, a=a, shells=info)


@dataclass(frozen=True)
class RadiusDensity:
    """C^3 bump density on [s0, s1], proportional to
    (s - s0)^4 (s1 - s)^4; the smooth random scaling that averages the
    oscillating variance term away."""

    s0: float = 1.0
    s1: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.s0 < self.s1:
            raise DomainError("need 0 < s0 < s1")

    def pdf(self, s):
        s = np.asarray(s, dtype=float)
        w = self.s1 - self.s0
        x = np.clip((s - self.s0) / w, 0.0, 1.0)
        inside = (s > self.s0) & (s < self.s1)
        return np.where(inside, 630.0 * x ** 4 * (1.0 - x) ** 4 / w, 0.0)

    def sample(self, rng: np.random.Generator, n: int):
        from scipy import special
        u = rng.random(n)
        return self.s0 + (self.s1 - self.s0) * special.betaincinv(5.0, 5.0, u)

    def mean_power(self, k: int) -> float:
        """E[s^k] for s = s0 + w X, X ~ Beta(5,5), w = s1 - s0: the
        binomial sum of C(k,j) s0^{k-j} w^j E[X^j], with
        E[X^j] = prod_{i<j} (5+i)/(10+i)."""
        w = self.s1 - self.s0
        total, moment = 0.0, 1.0
        for j in range(k + 1):
            total += math.comb(k, j) * self.s0 ** (k - j) * w ** j * moment
            moment *= (5.0 + j) / (10.0 + j)
        return total


def variance_asymptotic_random_radius(psf: Psf, f, lattice: Lattice,
                                      a: float, density: RadiusDensity
                                      ) -> AsymptoticReport:
    """Random-radius asymptotics: the ball radius is random with the
    given density, the oscillation averages out, and the mean conditional
    variance tends to 2 a^{d-1} omega_d^{-1} alpha_f^{-2} E[S(B(s))] LS."""
    d = psf.dim
    mean_surface = sphere_area(d) * density.mean_power(d - 1)
    rep = variance_asymptotic_isotropic(mean_surface, psf, f, lattice, a)
    return replace(rep, envelope=rep.main)


# ---------------------------------------------------------------------------
# Monte Carlo over stationary random lattices

@dataclass
class MCResult:
    """Batched Monte Carlo summary.  The variance estimate is the mean
    of per-batch sample variances; standard errors come from the spread
    across batches."""

    n: int
    n_batches: int
    mean: float
    mean_se: float
    variance: float
    variance_se: float
    batch_means: np.ndarray
    batch_variances: np.ndarray


def _reduce_batches(means, variances, n):
    means = np.asarray(means)
    variances = np.asarray(variances)
    k = len(means)
    return MCResult(
        n=n, n_batches=k,
        mean=float(means.mean()),
        mean_se=float(means.std(ddof=1) / math.sqrt(k)),
        variance=float(variances.mean()),
        variance_se=float(variances.std(ddof=1) / math.sqrt(k)),
        batch_means=means, batch_variances=variances)


@dataclass
class _RadialSampler:
    """Shift-only sampler for a centered ball: precomputed lattice points
    restricted to those that can meet the evaluation band.

    Each chunk of shifts o gets its squared radii |p + o|^2 = |p|^2 +
    2 p.o + |o|^2 from one BLAS product of the lifted points [p, |p|^2,
    1] (built once) with the columns [2 o, 1, |o|^2]; `evaluate` maps
    those squared radii to weights.  The expansion can round a little
    below 0 near the origin, so a weight that needs radii clamps first.
    """

    base_points: np.ndarray  # (N, d) scaled lattice points b A k
    basis_b: np.ndarray      # b A, mapping a unit-cell shift to an offset
    evaluate: callable       # squared radii (N, K) -> weights (N, K)
    scale: float             # multiplies the summed weights
    lifted: np.ndarray = field(init=False, repr=False)  # (N, d + 2)

    def __post_init__(self):
        pts = self.base_points
        self.lifted = np.column_stack(
            [pts, np.einsum("ij,ij->i", pts, pts), np.ones(len(pts))])

    def run_batch(self, seed, n_reps) -> tuple[float, float]:
        rng = np.random.default_rng(seed)
        d = len(self.basis_b)
        # successive draws concatenate, so the shifts do not depend on
        # the chunk width
        width = max(1, _MC_CHUNK_BYTES // (8 * max(len(self.lifted), 1)))
        vals = np.empty(n_reps)
        for i0 in range(0, n_reps, width):
            k = min(width, n_reps - i0)
            offs = rng.random((k, d)) @ self.basis_b.T
            cols = np.vstack([2.0 * offs.T, np.ones(k),
                              np.einsum("ij,ij->i", offs, offs)])
            w = self.evaluate(self.lifted @ cols)
            vals[i0:i0 + k] = self.scale * w.sum(axis=0)
        return float(vals.mean()), float(vals.var(ddof=1))


def _annulus_points(lattice: Lattice, b: float, r_lo: float, r_hi: float):
    """All b A k whose shifted copies b A (k + u), u in [0, 1)^d, can fall
    in [r_lo, r_hi]: every copy lies within half a cell diameter of the
    cell centre b A (k + 1/2)."""
    reach = 0.5 * b * lattice.cell_diameter
    window = lat.centered_box(((r_hi + 2.0 * reach),) * lattice.dim)
    ks = lat.integer_cover(lat.LatticePlacement(lattice, b), window,
                           any_shift=True)
    basis = np.asarray(lattice.basis)
    # the integer box freed once cast, and arithmetic in place: no more
    # than two (N, d) arrays are alive at once, within the 32 d bytes per
    # box point that integer_cover budgets for
    pts = ks.astype(float)
    del ks
    pts = pts @ basis.T
    pts *= b
    sq = pts + 0.5 * b * basis.sum(axis=1)
    sq *= sq
    rc = sq.sum(axis=1)
    del sq
    np.sqrt(rc, out=rc)
    keep = (rc >= r_lo - reach - 1e-12) & (rc <= r_hi + reach + 1e-12)
    return pts[keep]


def _surface_sampler(radius, psf, f, a, lattice, b, alpha) -> _RadialSampler:
    r_in, r_out = ball_band_radii(radius, psf, a, f.knots[0], f.knots[-1])
    pts = _annulus_points(lattice, b, r_in, r_out)
    scale = (lattice.cell_volume / alpha) * b ** psf.dim / a
    # f(theta(r)) vanishes outside [r_in, r_out]; a band reaching the
    # centre (r_in = 0) must also take squared radii rounded below 0
    lo = r_in * r_in if r_in > 0.0 else -math.inf
    hi = r_out * r_out
    if isinstance(f, Indicator):
        evaluate = lambda rsq: (rsq >= lo) & (rsq <= hi)
    else:
        model = intensity_model(Ball(psf.dim, radius), psf, a)

        def evaluate(rsq):
            band = (rsq >= lo) & (rsq <= hi)
            w = np.zeros(rsq.shape)
            w[band] = f(model.radial(np.sqrt(np.maximum(rsq[band], 0.0))))
            return w
    return _RadialSampler(base_points=pts,
                          basis_b=b * np.asarray(lattice.basis),
                          evaluate=evaluate, scale=scale)


def _run_batches(run_batch, n_items, seed, n_batches, workers):
    """Split n_items over n_batches seeds spawned from seed, run
    run_batch(seed, size) -> (mean, variance) for each, on a thread pool
    when workers > 1, and reduce in batch order."""
    seeds = np.random.SeedSequence(seed).spawn(n_batches)
    sizes = np.full(n_batches, n_items // n_batches)
    sizes[:n_items % n_batches] += 1
    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            out = list(pool.map(run_batch, seeds, sizes))
    else:
        out = [run_batch(s, n) for s, n in zip(seeds, sizes)]
    means = [m for m, _ in out]
    variances = [v for _, v in out]
    return _reduce_batches(means, variances, int(sizes.sum()))


def mc_surface(phantom, psf: Psf, f, a: float, lattice: Lattice, b: float,
               n_reps: int, seed, *, n_batches: int = 20,
               workers: int = 1) -> MCResult:
    """Monte Carlo distribution of the surface estimator for a ball over
    the stationary random lattice.

    Rotation is omitted: for a ball the estimator depends on the
    placement only through point radii, whose joint law under a uniform
    cell shift is rotation invariant, so the Haar factor integrates out
    exactly rather than approximately.
    """
    if n_batches < 2 or n_reps < 2 * n_batches:
        raise DomainError("need at least 2 batches and 2 reps per batch")
    radius = _ball_radius(phantom)
    alpha = alpha_f(f, halfspace_profile(psf))
    sampler = _surface_sampler(radius, psf, f, a, lattice, b, alpha)
    return _run_batches(sampler.run_batch, n_reps, seed, n_batches, workers)


def mc_volume_binary(phantom, lattice: Lattice, b: float, n_reps: int,
                     seed, *, n_batches: int = 20,
                     workers: int = 1) -> MCResult:
    """Monte Carlo distribution of the binary volume estimator for a
    ball: points whose membership cannot depend on the shift are counted
    once, only the boundary shell is re-tested per shift."""
    radius = _ball_radius(phantom)
    d = lattice.dim
    pad = b * lattice.cell_diameter
    window = lat.centered_box(((radius + 2 * pad),) * d)
    ks = lat.integer_cover(lat.LatticePlacement(lattice, b), window,
                           any_shift=True)
    pts = b * (ks @ np.asarray(lattice.basis).T)
    r_all = np.linalg.norm(pts, axis=1)
    always_in = r_all < radius - pad - 1e-12
    undecided = ~always_in & (r_all <= radius + pad + 1e-12)
    n_core = int(np.count_nonzero(always_in))
    vol_cell = b ** d * lattice.cell_volume

    sampler = _RadialSampler(base_points=pts[undecided],
                             basis_b=b * np.asarray(lattice.basis),
                             evaluate=lambda rsq: rsq <= radius * radius,
                             scale=vol_cell)
    res = _run_batches(sampler.run_batch, n_reps, seed, n_batches, workers)
    core_vol = vol_cell * n_core
    return MCResult(
        n=res.n, n_batches=res.n_batches,
        mean=res.mean + core_vol, mean_se=res.mean_se,
        variance=res.variance, variance_se=res.variance_se,
        batch_means=res.batch_means + core_vol,
        batch_variances=res.batch_variances)


def mc_random_radius(psf: Psf, f, a: float, lattice: Lattice, b: float,
                     density: RadiusDensity, n_radii: int, n_shifts: int,
                     seed, *, n_batches: int = 20,
                     workers: int = 1) -> MCResult:
    """Mean conditional variance of the surface estimator when the ball
    radius is random.

    Each sampled radius contributes one conditional sample variance over
    its own batch of uniform shifts; those are averaged within and then
    across radius batches.  The conditional (not total) variance is the
    quantity with an a^{d-1} limit: the radius spread itself contributes
    an O(1) variance of the conditional means that would swamp it.
    """
    if n_batches < 2 or n_radii < n_batches:
        raise DomainError("need at least one radius per batch")
    alpha = alpha_f(f, halfspace_profile(psf))

    def run_batch(bseed, n_r):
        rng = np.random.default_rng(bseed)
        radii = density.sample(rng, n_r)
        cond_vars = np.empty(n_r)
        cond_means = np.empty(n_r)
        for i, s in enumerate(radii):
            sampler = _surface_sampler(float(s), psf, f, a, lattice, b,
                                       alpha)
            m, v = sampler.run_batch(rng.integers(0, 2 ** 63), n_shifts)
            cond_means[i] = m
            cond_vars[i] = v
        return float(cond_means.mean()), float(cond_vars.mean())

    res = _run_batches(run_batch, n_radii, seed, n_batches, workers)
    return replace(res, n=res.n * n_shifts)


# ---------------------------------------------------------------------------
# cross-checks

def envelope_check(report: VarianceReport, asym: AsymptoticReport, *,
                   slack: float = 0.05) -> bool:
    """Exact variance must lie inside the oscillation band
    [0, 2 * main] up to the stated relative slack."""
    upper = asym.envelope * (1.0 + slack)
    return -slack * asym.main <= report.value <= upper


@dataclass
class BoundReport:
    """Exact variance against its structural envelope.

    implied_constant is the quotient the general bound says stays bounded;
    its actual size depends on the body and lattice, so sweeps compare it
    across scales rather than against an absolute number.
    """

    variance: float
    structural: float
    implied_constant: float
    a: float
    b: float
    regime: str


def variance_bound_check(phantom, psf: Psf, f, a: float, lattice: Lattice,
                         b: float, *,
                         regime: str = "general") -> BoundReport:
    """Divide the exact variance by the structural part of its upper bound.

    regime "general" uses the a^{-1} b^d R^{d-1} envelope with the weight
    factor alpha_{|f|}/alpha_f^2 * (|f(beta)| + |f(omega)| + TV(f o theta)).
    regime "fast_b" (b much smaller than a) uses a^{-2} b^{d+1} R^{d-1}
    with the squared boundary values; it needs a weight that does not
    vanish at the band edges.
    """
    dim = psf.dim
    radius = _ball_radius(phantom)
    profile = halfspace_profile(psf)
    alpha = alpha_f(f, profile)
    f_lo, f_hi = (abs(v) for v in f.boundary_values)
    if regime == "general":
        # weights are nonnegative, so alpha_{|f|} = alpha_f
        weight_factor = (f_lo + f_hi + weight_tv(f)) / alpha
        structural = (b ** dim / a) * radius ** (dim - 1) * weight_factor
    elif regime == "fast_b":
        if f_lo == 0.0 and f_hi == 0.0:
            raise DomainError(
                "fast_b envelope needs a weight with nonzero band-edge "
                "values; got boundary values (0, 0)")
        structural = (b ** (dim + 1) / a ** 2) * radius ** (dim - 1) * (
            f_lo ** 2 + f_hi ** 2) / alpha ** 2
    else:
        raise DomainError(f"unknown bound regime {regime!r}")
    report = variance_exact_ball(phantom, psf, f, a, lattice, b)
    return BoundReport(variance=report.value, structural=structural,
                       implied_constant=report.value / structural,
                       a=a, b=b, regime=regime)
