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
by batch index.  Each batch draws its shifts in one call.  Consecutive
batches are scored together, in chunks of one working-set budget that
run across batch ends, by groups that the batch sizes and the budget
fix, so results are bit-identical for any worker count.  The indicator
weight scores a shift by the number of shifted lattice points in the
annulus r_in <= r <= r_out (f(theta(r)) = 1[r_in <= r <= r_out] exactly,
as the annulus autocorrelation of the exact engine uses), counted in
closed form one lattice line at a time (_LineSampler).  The binary
volume is the same count with r_in = 0, the lattice points in the ball.
A smooth weight scores squared radii |p + o|^2, one matrix product per
chunk of shifts o, read only where they fall in the band of squared
radii that can score, from a cubic table of f(theta(sqrt s)) over the
squared radius s, certified against the intensity model (_BandTable).
Both kernels take their lattice lines or points from the package's one
enumerator of the cells near a ball's band, lattice.cells_near.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
# numpy loads numpy.random on first use; load it with this module, not
# inside the first Monte Carlo call
import numpy.random

from . import _special, lattice as lat
from ._quad import panel_nodes
from .errors import DomainError, TruncationError
from .estimator import Indicator, alpha_f, weight_lipschitz, weight_tv
from .lattice import Lattice
from .phantom import Ball, cached_knot_radii, intensity_model
from .psf import (HalfspaceProfile, Psf, ball_volume, halfspace_profile,
                  sphere_area)
# profile_fourier_1d is unused here: perfbench/spans.py wraps it by name
from .spectral import (AnnulusFourier, RadialFourier, ball_indicator_fourier,
                       knot_images, profile_fourier_1d, psf_fourier)

# working set of one Monte Carlo chunk: a smooth weight's (N, K) float64
# squared radii for K shifts, or the line kernel's four (lines, K)
# arrays; K = _MC_CHUNK_BYTES // sampler.column_bytes, at least 1, and
# chunks run across batch ends.  On a 2-core Xeon with 2 MiB of L2, the
# benchmark's smooth rows ran equally fast from 512 KiB to 1 MiB, up to
# twice as fast as one chunk per 40-shift batch, and its line kernel
# (1,396 lines) ran 10% slower at 512 KiB (11 columns) than from 768 KiB
# to 2 MiB (17 to 46 columns).  At 1.5 and 2 MiB some smooth runs took
# 5x longer, none with one BLAS thread; 768 KiB keeps the smooth product
# (N, d+2) x (d+2, K) at m n k <= 2^19 for d <= 3, within which OpenBLAS
# multiplies on one thread.
_MC_CHUNK_BYTES = 768 << 10
# a group of consecutive batches, the unit a worker scores, closes once
# it holds this many chunks of shifts, so at most one chunk in that many
# is partial
_GROUP_CHUNKS = 8

# rounding allowance of a finite primal sum, in units of eps times the
# magnitude of every term: each term is a few dozen floating-point
# operations on O(1) inputs, summed exactly by math.fsum
_ROUNDING_ULPS = 64
_EPS = float(np.finfo(float).eps)


def _check_dims(**parts) -> None:
    """Refuse a phantom, PSF and lattice of different dimensions: the
    sums and samplers below would mix them and still return a number."""
    dims = {name: part.dim for name, part in parts.items()}
    if len(set(dims.values())) > 1:
        raise DomainError("dimensions differ: " + ", ".join(
            f"{name} {dim}" for name, dim in dims.items()))


def _check_scales(**scales) -> None:
    """Refuse a scale a or b that is not positive and finite."""
    for k, v in scales.items():
        if not 0 < v < math.inf:
            raise DomainError(f"scale {k} = {v!r} is not positive and finite")


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


def convergent_dual_sum(lattice: Lattice, summand, *, tail_tol: float,
                        xi_cap: float = 4096.0):
    """Sum summand(|xi|) * multiplicity over nonzero dual shells.

    `summand` maps an ascending array of shell norms to nonnegative
    values, once per block (a rule sized by the block's largest norm is
    at least as accurate at its smaller ones).  The tail bound
    integrates the envelope C_fit |xi|^{-p}, with p = d + 1 the decay of
    a squared transform of a layer with a jump (faster decay only
    loosens it) and C_fit fitted to the last block: 2 C_fit *
    cell_volume * omega_d * Xi^{d-p} / (p - d).  Blocks end at |xi| = 6,
    growing 1.7-fold, until the sum converges or reaches xi_cap; the
    record says which.
    """
    d = lattice.dim
    p = d + 1.0
    total = 0.0
    n_shells = 0
    xi_prev = 0.0
    xi = min(6.0, xi_cap)
    tail = math.inf
    converged = False
    while True:
        norms, counts = lat.dual_shells(lattice, xi, xi_prev)
        if len(norms):
            vals = summand(norms)
            block = float(counts @ vals)
            total += block
            n_shells += len(norms)
            # fit C so that C |xi|^{-p} matches the newest block on
            # average (multiplicity-weighted), then integrate the
            # envelope outward with a safety factor of 2
            c_fit = float((counts @ (vals * norms ** p)) / counts.sum())
            tail = (2.0 * c_fit * lattice.cell_volume * sphere_area(d)
                    * xi ** (d - p) / (p - d))
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
    total, info = convergent_dual_sum(lattice, summand, tail_tol=tail_tol,
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


def weighted_layer(radius: float, psf: Psf, a: float, f):
    """Radial transform of the weighted grey layer r -> f(theta(r)) of a
    ball, supported exactly between the radii where theta crosses the
    outer band edges of f.

    An indicator weight makes the layer an annulus indicator, whose
    transform is the closed-form difference of two ball transforms and
    needs no grey values; any other weight goes through Hankel
    quadrature of the (cached) intensity model, split at the radii
    where theta crosses the inner knots of f, which the solve of the
    band radii returns with them.
    """
    r_in, *splits, r_out = cached_knot_radii(radius, psf, a, f.knots)
    if isinstance(f, Indicator):
        return AnnulusFourier(r_in, r_out, psf.dim)
    model = intensity_model(Ball(psf.dim, radius), psf, a)
    return RadialFourier(lambda r: f(model.radial(r)), r_in, r_out, psf.dim,
                         tuple(splits))


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


def _model_drift(layer: RadialFourier, lattice: Lattice, b: float,
                 eta: float) -> float:
    """How far the raw estimator b^d det(A) sum_z g(z) can move when the
    layer is off by at most eta at every radius: eta at each lattice
    point of its band, and there are at most vol / (b^d det A) of those,
    vol the band's volume widened by half a cell diameter on each side
    (each point's own cell lies in it).  The standard deviation moves by
    at most as much, so the variance by at most drift (2 sd + drift)."""
    d, reach = layer.dim, 0.5 * b * lattice.cell_diameter
    return eta * (ball_volume(d, layer.r_hi + reach)
                  - ball_volume(d, max(layer.r_lo - reach, 0.0)))


def variance_exact_ball(phantom, psf: Psf, f, a: float, lattice: Lattice,
                        b: float) -> VarianceReport:
    """Exact variance of the normalized surface estimator for a ball
    phantom.

    An indicator weight makes the grey layer an annulus indicator, whose
    autocorrelation is closed-form: the variance is the finite primal
    sum over |b A z| < 2 r_out, converged with xi_max = inf and a
    rounding bound as tail_bound.  Any other weight takes the dual-shell
    sum of squared layer transforms to a relative tolerance of 1e-3, or
    raises TruncationError if it does not converge (see
    _refusing_dual_sum), and its tail_bound adds what the intensity
    model's error moves the variance by (_model_drift).  The sum and
    its tail_bound are both divided by (a alpha_f)^2, so the bound is in
    the units of the value.
    """
    _check_dims(phantom=phantom, psf=psf, lattice=lattice)
    _check_scales(a=a, b=b)
    radius = phantom.radius
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
        # the layer reads f of the intensity model, within Lip(f) eps of
        # f(theta) at every radius
        eps = intensity_model(Ball(psf.dim, radius), psf, a).error
        drift = _model_drift(layer, lattice, b, weight_lipschitz(f) * eps)
        info = replace(info, tail_bound=info.tail_bound + drift * (
            2.0 * math.sqrt(max(total, 0.0)) + drift))
    scale = (a * alpha) ** 2
    return VarianceReport(value=total / scale, a=a, b=b, alpha=alpha,
                          shells=replace(info,
                                         tail_bound=info.tail_bound / scale))


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
    _check_scales(b=b)
    if psf is None:
        total, info = _primal_variance(lattice, b, [(1.0, radius, radius)],
                                       ball_volume(d, radius))
        return VarianceReport(value=total, a=math.nan, b=b, alpha=1.0,
                              shells=info)
    if a is None:
        raise DomainError("grey volume variance needs the blur scale a")
    _check_dims(psf=psf, lattice=lattice)
    _check_scales(a=a)

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
# bytes of one (shells, nodes) temporary of the d=2 far-shell remainder
_LS_BLOCK_BYTES = 64 << 10


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
        # R(r) of the far shells, in row blocks whose temporaries stay
        # under glibc's mmap threshold and so reuse heap pages
        rows = max(1, _LS_BLOCK_BYTES // (8 * len(t)))
        outer = np.flatnonzero(~close)
        for i in range(0, len(outer), rows):
            sel = outer[i:i + rows]
            x = t / norms[sel, None]
            s = np.sqrt(1.0 - x * x)
            k = x ** 4 * (2.0 + s) / (2.0 * s * (1.0 + s) ** 2)
            g_c[sel] = (2.0 / math.pi) * (k @ phi_t) / norms[sel]
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
    _check_dims(psf=psf, lattice=lattice)
    _check_scales(a=a)
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
        if not 0.0 < self.s0 < self.s1 < math.inf:
            raise DomainError("need 0 < s0 < s1 < inf")

    def pdf(self, s):
        s = np.asarray(s, dtype=float)
        w = self.s1 - self.s0
        x = np.clip((s - self.s0) / w, 0.0, 1.0)
        inside = (s > self.s0) & (s < self.s1)
        return np.where(inside, 630.0 * x ** 4 * (1.0 - x) ** 4 / w, 0.0)

    def sample(self, rng: np.random.Generator, n: int):
        u = rng.random(n)
        return self.s0 + (self.s1 - self.s0) * _special.betaincinv(5.0, 5.0, u)

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
    across batches.

    n_points is the number of lattice points the kernel can score per
    shift, or of lattice lines for an indicator weight and the binary
    volume (the largest over the radii of mc_random_radius).  Those
    counts are exact integers.  A smooth weight reads a table within
    _BAND_TOL of f(theta(r)) of the intensity model, at the points whose
    squared radius lies in the table's band (every other point reads
    exactly 0), so each batch mean is within scale * n_points * _BAND_TOL
    of the one that reads the model itself, scale = cell_volume b^d /
    (a alpha_f) the factor on the summed weights.
    """

    n: int
    n_batches: int
    n_points: int
    mean: float
    mean_se: float
    variance: float
    variance_se: float
    batch_means: np.ndarray
    batch_variances: np.ndarray


def _reduce_batches(means, variances, n, n_points):
    means = np.asarray(means)
    variances = np.asarray(variances)
    k = len(means)
    return MCResult(
        n=n, n_batches=k, n_points=n_points,
        mean=float(means.mean()),
        mean_se=float(means.std(ddof=1) / math.sqrt(k)),
        variance=float(variances.mean()),
        variance_se=float(variances.std(ddof=1) / math.sqrt(k)),
        batch_means=means, batch_variances=variances)


class _RadialSampler:
    """Smooth-weight sampler for a centered ball: the lattice points b A k
    whose shifted copies b A (k + u), u in [0, 1)^d, can fall in the
    weight's band [r_in, r_out] (lattice.cells_near in the Gram norm of
    A); a point left out scores 0 under every shift.

    Each chunk of shifts o gets its squared radii |p + o|^2 = |p|^2 +
    2 p.o + |o|^2 from one BLAS product of the lifted points [p, |p|^2,
    1] (built once) with the columns [2 o, 1, |o|^2], written into the
    thread's workspace.  The table reads exactly 0 at every squared
    radius outside table.band, so only the entries inside it are read.
    The expansion can round a little below 0 near the origin, which the
    table reads as s = 0.
    """

    def __init__(self, lattice: Lattice, b: float, r_in: float,
                 r_out: float, table: _BandTable, scale: float):
        basis = lattice.basis
        cells = lat.cells_near(basis.T @ basis, r_in / b, r_out / b,
                               f"of lattice points within {r_out / b:g} "
                               f"cells of a ball's centre")
        self.base_points = pts = cells @ basis.T  # (N, d): b A k
        pts *= b
        self.basis_b = b * basis  # b A: a unit-cell shift to an offset
        self.table = table  # squared radii (n,) -> weights (n,)
        self.scale = scale  # multiplies the summed weights
        self.lifted = np.column_stack(  # (N, d + 2)
            [pts, np.einsum("ij,ij->i", pts, pts), np.ones(len(pts))])

    @property
    def n_points(self) -> int:
        return len(self.base_points)

    def score(self, u: np.ndarray) -> np.ndarray:
        """The estimator for each shift u (rows, in [0, 1)^d)."""
        offs = u @ self.basis_b.T
        cols = np.vstack([2.0 * offs.T, np.ones(len(u)),
                          np.einsum("ij,ij->i", offs, offs)])
        # numpy multiplies one column by a matrix-vector product, which
        # rounds a third of these entries other than the matrix product
        # of two or more columns does: a lone shift is scored twice
        if len(u) == 1:
            cols = np.repeat(cols, 2, axis=1)
        k = cols.shape[1]
        rsq = _workspace(len(self.lifted) * k).reshape(-1, k)
        np.matmul(self.lifted, cols, out=rsq)
        return self.scale * self.column_sums(rsq)[:len(u)]

    def column_sums(self, rsq: np.ndarray) -> np.ndarray:
        """table(rsq).sum(axis=0) of an (N, K) array of squared radii,
        reading only the entries inside the band.  The entries left out
        read exactly 0, and bincount adds each column's entries in row
        order, as that sum does for K >= 2, so the two agree bit for bit
        (numpy sums a single column pairwise, which agrees to rounding).

        The band masks, then the in-band values and the table's
        temporaries, live in the thread's second workspace, so a chunk
        allocates only its in-band indices and its sums."""
        lo, hi = self.table.band
        n, k = rsq.size, rsq.shape[1]
        masks = _workspace(-(-n // 4), 1).view(np.bool_)[:2 * n]
        inside, below = masks.reshape(2, *rsq.shape)
        np.greater_equal(rsq, lo, out=inside)
        np.less_equal(rsq, hi, out=below)
        inside &= below
        idx = np.flatnonzero(inside)
        work = _workspace(4 * len(idx), 1).reshape(4, -1)
        weights = self.table(np.take(rsq.ravel(), idx, out=work[0],
                                     mode="clip"), work[1:])
        # idx % k, as idx - (idx // k) k: numpy's floor division by a
        # scalar ran four times as fast as its remainder (16 against 76 us
        # for 20,000 indices)
        cols = np.floor_divide(idx, k, out=work[1].view(np.intp))
        cols *= -k
        cols += idx
        return np.bincount(cols, weights, minlength=k)

    @property
    def dim(self) -> int:
        return len(self.basis_b)

    @property
    def column_bytes(self) -> int:
        """Bytes of the squared radii of one shift."""
        return 8 * len(self.lifted)


# two float64 buffers per thread for the Monte Carlo kernels' arrays,
# grown as needed and reused by every chunk and sampler of that thread:
# a chunk's squared radii or line arrays (slot 0), and the smooth
# kernel's band masks and in-band arrays (slot 1).  Allocated afresh,
# arrays over malloc's mmap threshold (128 KiB to start with) would fault
# in new pages on every chunk.
_buffers = threading.local()


def _workspace(n: int, slot: int = 0) -> np.ndarray:
    bufs = getattr(_buffers, "bufs", None)
    if bufs is None:
        bufs = _buffers.bufs = [np.empty(0), np.empty(0)]
    if len(bufs[slot]) < n:
        bufs[slot] = np.empty(n)
    return bufs[slot][:n]


class _LineSampler:
    """Indicator-weight and binary-volume sampler for a centered ball:
    the number of shifted lattice points b A (k + u) in the annulus
    r_in <= r <= r_out (the ball r <= r_out when r_in = 0), counted one
    lattice line at a time.

    Split k = (k', m) along the last basis vector, with G = A^T A, g =
    G[d, :d-1] and the Schur complement S = G' - g g^T / G_dd.  Then
    |b A (k + u)|^2 = b^2 G_dd [(m + y)^2 + C] with y = u_d + g.(k' +
    u') / G_dd and C = (k' + u')^T S (k' + u') / G_dd, so with tau =
    sqrt(r^2 / (b^2 G_dd) - C) the line k' holds

        floor(tau - y) + floor(tau + y) + 1   points with |.| <= r,
        ceil(tau - y) + ceil(tau + y) - 1     points with |.| < r,

    and none where the radicand is negative.  The annulus count is the
    first at r_out less the second at r_in (none when r_in = 0).  Each
    chunk of shifts takes y and the radicands at r_out from one batched
    product of the lifted lines [k', k'^T S k' / G_dd, 1] with per-shift
    columns, and those at r_in by subtracting a constant.  The arrays
    live in one workspace per thread.  A negative radicand's
    square root is NaN, which the clamps np.fmax(., -1) and np.fmax(., 1)
    turn into a count of 0.  Every count is a sum of integers, exact in
    floating point, so batches do not depend on the chunk width.
    """

    def __init__(self, lattice: Lattice, b: float, r_in: float,
                 r_out: float, scale: float):
        gram = lattice.basis.T @ lattice.basis
        gdd, g = gram[-1, -1], gram[-1, :-1]
        schur = gram[:-1, :-1] - np.outer(g, g) / gdd
        lines = lat.cells_near(schur, 0.0, r_out / b,
                               f"of lattice lines within {r_out / b:g} "
                               f"cells of a ball's centre")
        # g and S divided by G_dd, squared radii by b^2 G_dd
        self.g, self.schur = g / gdd, schur / gdd
        self.rho_sq = (r_out / b) ** 2 / gdd
        self.gap = ((r_out / b) ** 2 - (r_in / b) ** 2) / gdd
        self.inner = r_in > 0.0
        self.scale = scale
        self.lifted = np.column_stack(
            [lines, np.einsum("ij,jk,ik->i", lines, self.schur, lines),
             np.ones(len(lines))])
        self.ones = np.ones(len(lines))

    @property
    def n_points(self) -> int:
        return len(self.lifted)

    @property
    def dim(self) -> int:
        return self.lifted.shape[1] - 1

    @property
    def column_bytes(self) -> int:
        """Bytes of the four line arrays of one shift."""
        return 32 * len(self.lifted)

    def score(self, u: np.ndarray) -> np.ndarray:
        return self.scale * self.counts(u)

    def counts(self, u: np.ndarray) -> np.ndarray:
        """Points in the annulus for each shift u (rows, in [0, 1)^d)."""
        n_lines, k = len(self.lifted), len(u)
        up, ud = u[:, :-1], u[:, -1]
        su = up @ self.schur
        # columns of the radicands at r_out and of y, against the lifted
        # lines [k', k'^T S k' / G_dd, 1]
        cols = np.zeros((2, len(self.g) + 2, k))
        cols[0, :-2] = -2.0 * su.T
        cols[0, -2] = -1.0
        cols[0, -1] = self.rho_sq - np.einsum("ij,ij->i", su, up)
        cols[1, :-2] = self.g[:, None]
        cols[1, -1] = ud + up @ self.g
        work = _workspace(4 * n_lines * k).reshape(4, n_lines, k)
        np.matmul(self.lifted, cols, out=work[:2])
        rad, y, tau, lo = work
        with np.errstate(invalid="ignore"):
            np.sqrt(rad, out=tau)
        np.subtract(tau, y, out=lo)
        tau += y
        np.floor(work[2:], out=work[2:])
        lo += tau
        np.fmax(lo, -1.0, out=lo)
        # sums of small integers, exact in any order
        total = self.ones @ lo
        total += n_lines
        if self.inner:
            rad -= self.gap
            with np.errstate(invalid="ignore"):
                np.sqrt(rad, out=tau)
            np.subtract(tau, y, out=lo)
            tau += y
            np.ceil(work[2:], out=work[2:])
            lo += tau
            np.fmax(lo, 1.0, out=lo)
            total -= self.ones @ lo
            total += n_lines
        return total


# the smooth-weight table (_BandTable): its stated absolute error per
# point, and the cell counts its doubling starts from and may not pass
_BAND_TOL = 2e-12
_BAND_CELLS, _BAND_CELLS_MAX = 256, 1 << 15
# the inverse Vandermonde matrix of the Chebyshev-Lobatto nodes 0, 1/4,
# 3/4, 1 of a unit cell: values there -> coefficients of 1, u, u^2, u^3
_BAND_FIT = np.array([[3.0, 0.0, 0.0, 0.0], [-19.0, 24.0, -8.0, 3.0],
                      [32.0, -56.0, 40.0, -16.0],
                      [-16.0, 32.0, -32.0, 16.0]]) / 3.0


class _BandTable:
    """g(s) = f(theta(sqrt s)) of a smooth weight on the squared radii s
    of a ball's band [lo, hi] = [r_in^2, r_out^2], read as a callable on
    an array of squared radii, which it overwrites.

    M uniform cells of width h each hold the cubic through g at the
    cell's Chebyshev-Lobatto nodes (neighbours share their end values),
    with one constant cell below the band and one above.  A read is
    t = (s - lo) / h + 1 clipped to [0, M + 1], the cell floor(t), and
    Horner in t - floor(t): no sqrt, no mask and no model read.  The
    cells outside the band hold 0, so every s outside [lo, hi] reads
    exactly 0, except that a band reaching the centre (r_in = 0) holds
    g(0) below it, for squared radii rounded below 0.  `band` is the
    interval outside which a read is exactly 0: [lo, hi] widened by
    1e-12 hi at each end, past the few ulps by which the rounding of t
    can carry an s outside [lo, hi] into a band cell, and open below
    when r_in = 0.

    M doubles from _BAND_CELLS until the table is within _BAND_TOL of
    f(model.radial(sqrt s)) at every cell midpoint, where the
    interpolation error's node polynomial peaks, or raises
    TruncationError past _BAND_CELLS_MAX cells.  The nodes and midpoints
    of M cells are the grid of M quarter cells, which the next doubling
    keeps, so a table costs 4M + 1 model reads in all.  `error` states
    the table's distance from f(theta(sqrt s)) itself: _BAND_TOL plus
    the model's error carried through f, Lip(f) * model.error.
    """

    def __init__(self, model, f, r_in, r_out):
        self.error = _BAND_TOL + weight_lipschitz(f) * model.error
        self.lo = lo = r_in * r_in
        hi = r_out * r_out
        width = hi - lo
        self.band = (-math.inf if r_in == 0.0 else lo - 1e-12 * hi,
                     hi + 1e-12 * hi)
        g = lambda j, n: f(model.radial(np.sqrt(lo + width * (j / n))))
        cells = _BAND_CELLS
        quarters = g(np.arange(4 * cells + 1), 4 * cells)
        while True:
            self.inv_h = cells / width
            self.coefs = np.zeros((4, cells + 2))
            self.coefs[:, 1:-1] = _BAND_FIT @ np.stack(
                [quarters[0:-1:4], quarters[1::4], quarters[3::4],
                 quarters[4::4]])
            if r_in == 0.0:
                self.coefs[0, 0] = quarters[0]
            mid = lo + width * ((np.arange(cells) + 0.5) / cells)
            error = float(np.max(np.abs(self(mid) - quarters[2::4])))
            if error <= _BAND_TOL:
                return
            if 2 * cells > _BAND_CELLS_MAX:
                raise TruncationError(
                    f"smooth-weight table misses its bound {_BAND_TOL:g} "
                    f"by {error:.3e} at {cells} cells, the most allowed")
            cells *= 2
            finer = np.empty(4 * cells + 1)
            finer[0::2] = quarters
            finer[1::2] = g(np.arange(1, 4 * cells, 2), 4 * cells)
            quarters = finer

    def __call__(self, rsq, work=None):
        """Read the table at rsq; work, a float64 array of three of its
        shape, holds the cells, the result and a temporary (allocated
        when None)."""
        if work is None:
            work = np.empty((3, *rsq.shape))
        t = rsq
        t -= self.lo
        t *= self.inv_h
        t += 1.0
        np.clip(t, 0.0, self.coefs.shape[1] - 1, out=t)
        cell, w, tmp = work[0].view(np.intp), work[1], work[2]
        np.copyto(cell, t, casting="unsafe")
        t -= cell
        c0, c1, c2, c3 = self.coefs
        np.take(c3, cell, out=w, mode="clip")
        for c in (c2, c1, c0):
            w *= t
            w += np.take(c, cell, out=tmp, mode="clip")
        return w


def _surface_sampler(radius, psf, f, a, lattice, b, alpha):
    """The Monte Carlo sampler of the surface estimator for a centered
    ball, on its cached band radii: lines for an indicator weight, points
    and a band table (of the cached model, built afresh) for any other."""
    radii = cached_knot_radii(radius, psf, a, f.knots)
    r_in, r_out = radii[0], radii[-1]
    scale = (lattice.cell_volume / alpha) * b ** psf.dim / a
    if isinstance(f, Indicator):
        # f(theta(r)) = 1[r_in <= r <= r_out] exactly
        return _LineSampler(lattice, b, r_in, r_out, scale)
    model = intensity_model(Ball(psf.dim, radius), psf, a)
    return _RadialSampler(lattice, b, r_in, r_out,
                          _BandTable(model, f, r_in, r_out), scale)


def _chunk_width(sampler) -> int:
    """Shifts per chunk: as many as _MC_CHUNK_BYTES holds, at least 1."""
    return max(1, _MC_CHUNK_BYTES // max(sampler.column_bytes, 1))


def _shift_moments(sampler, seeds, sizes):
    """Means and sample variances of sampler.score(u) over the batches
    of uniform cell shifts u, sizes[j] of them drawn from seeds[j] in
    one call.  The batches are scored one after the other in chunks of
    _chunk_width(sampler) shifts that span batch ends."""
    width = _chunk_width(sampler)
    shifts = np.concatenate([np.random.default_rng(s).random((n, sampler.dim))
                             for s, n in zip(seeds, sizes)])
    vals = np.empty(len(shifts))
    for i0 in range(0, len(vals), width):
        vals[i0:i0 + width] = sampler.score(shifts[i0:i0 + width])
    # each run of equal batch sizes as the rows of one array: a row's sum
    # adds pairwise as numpy sums the batch alone, so the moments agree
    # bit for bit
    means, variances, i0 = [], [], 0
    for n, run in itertools.groupby(int(n) for n in sizes):
        rows = vals[i0:i0 + n * len(list(run))].reshape(-1, n)
        means += rows.mean(axis=1).tolist()
        variances += rows.var(axis=1, ddof=1).tolist()
        i0 += rows.size
    return means, variances


def _batch_plan(n_items, seed, n_batches):
    """n_batches seeds spawned from seed, and n_items split over them."""
    sizes = np.full(n_batches, n_items // n_batches)
    sizes[:n_items % n_batches] += 1
    return np.random.SeedSequence(seed).spawn(n_batches), sizes


def _ordered_map(fn, items, workers):
    """[fn(*item) for item in items], on a thread pool when workers > 1."""
    if workers and workers > 1:
        # imported here: it loads logging, which a serial run never needs
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda item: fn(*item), items))
    return [fn(*item) for item in items]


def _batch_groups(sizes, width):
    """(start, stop) of each group of consecutive batches: a group closes
    once it holds _GROUP_CHUNKS chunks of width shifts, and the last one
    takes the batches left."""
    bounds, held = [0], 0
    for j, n in enumerate(sizes, 1):
        held += n
        if held >= _GROUP_CHUNKS * width or j == len(sizes):
            bounds.append(j)
            held = 0
    return list(zip(bounds[:-1], bounds[1:]))


def _run_shifts(sampler, n_reps, seed, n_batches, workers):
    """Monte Carlo of sampler.score over n_reps uniform shifts in
    n_batches batches, each group of _batch_groups scored by
    _shift_moments, on a thread pool when workers > 1.  The groups
    follow from the batch sizes and the chunk width alone, so the result
    does not depend on workers."""
    seeds, sizes = _batch_plan(n_reps, seed, n_batches)
    out = _ordered_map(
        lambda lo, hi: _shift_moments(sampler, seeds[lo:hi], sizes[lo:hi]),
        _batch_groups(sizes, _chunk_width(sampler)), workers)
    return _reduce_batches([m for means, _ in out for m in means],
                           [v for _, variances in out for v in variances],
                           n_reps, sampler.n_points)


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
    _check_dims(phantom=phantom, psf=psf, lattice=lattice)
    _check_scales(a=a, b=b)
    if n_batches < 2 or n_reps < 2 * n_batches:
        raise DomainError("need at least 2 batches and 2 reps per batch")
    radius = phantom.radius
    alpha = alpha_f(f, halfspace_profile(psf))
    sampler = _surface_sampler(radius, psf, f, a, lattice, b, alpha)
    return _run_shifts(sampler, n_reps, seed, n_batches, workers)


def mc_volume_binary(phantom, lattice: Lattice, b: float, n_reps: int,
                     seed, *, n_batches: int = 20,
                     workers: int = 1) -> MCResult:
    """Monte Carlo distribution of the binary volume estimator for a
    ball: b^d det(A) times the number of shifted lattice points in the
    ball, counted one lattice line at a time (_LineSampler with r_in =
    0), so n_points is the number of lines."""
    _check_dims(phantom=phantom, lattice=lattice)
    if n_batches < 2 or n_reps < 2 * n_batches:
        raise DomainError("need at least 2 batches and 2 reps per batch")
    _check_scales(b=b)
    sampler = _LineSampler(lattice, b, 0.0, phantom.radius,
                           b ** lattice.dim * lattice.cell_volume)
    return _run_shifts(sampler, n_reps, seed, n_batches, workers)


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
    an O(1) variance of the conditional means that would swamp it.  Each
    radius reads its band radii, and for a smooth weight its intensity
    model, through the process caches: pure functions of their keys, so
    what the caches hold does not change the result.
    """
    _check_dims(psf=psf, lattice=lattice)
    _check_scales(a=a, b=b)
    if n_batches < 2 or n_radii < n_batches:
        raise DomainError("need at least one radius per batch")
    if n_shifts < 2:
        raise DomainError("need at least 2 shifts per radius")
    alpha = alpha_f(f, halfspace_profile(psf))
    n_points = []

    def run_batch(bseed, n_r):
        rng = np.random.default_rng(bseed)
        radii = density.sample(rng, n_r)
        cond_vars = np.empty(n_r)
        cond_means = np.empty(n_r)
        for i, s in enumerate(radii):
            sampler = _surface_sampler(float(s), psf, f, a, lattice, b, alpha)
            (cond_means[i],), (cond_vars[i],) = _shift_moments(
                sampler, [rng.integers(0, 2 ** 63)], [n_shifts])
            n_points.append(sampler.n_points)
        return float(cond_means.mean()), float(cond_vars.mean())

    seeds, sizes = _batch_plan(n_radii, seed, n_batches)
    out = _ordered_map(run_batch, zip(seeds, sizes), workers)
    return _reduce_batches([m for m, _ in out], [v for _, v in out],
                           n_radii * n_shifts, max(n_points))


# ---------------------------------------------------------------------------
# cross-checks

def envelope_check(report: VarianceReport, asym: AsymptoticReport) -> bool:
    """Exact variance must lie inside the oscillation band [0, 2 * main]
    up to a relative slack of 5%: [-0.05 main, 1.05 envelope]."""
    return -0.05 * asym.main <= report.value <= 1.05 * asym.envelope


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
    _check_scales(a=a, b=b)
    dim = psf.dim
    radius = phantom.radius
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
