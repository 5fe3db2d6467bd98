"""Radial Fourier analysis for grey-value weight layers.

For a radial function g on R^d the Fourier transform (convention
F(g)(xi) = int g(x) exp(-2 pi i x.xi) dx) is again radial and reduces to
a one-dimensional Hankel-type integral

    F(g)(q) = 2 pi q^{-(d-2)/2} int_0^inf g(r) J_{d/2-1}(2 pi q r) r^{d/2} dr.

The estimator's variance is driven by such transforms of the weighted
grey layer g(r) = f(theta_a(B(R))(r)), a thin shell around r = R.  Large
arguments turn the Bessel kernel into a cosine with phase shift
nu = -(d-1) pi/4, giving an oscillatory main term with explicit envelope.

Only dimensions 2 and 3 are supported, so the Hankel kernels have the
orders 0, 1/2, 1 and 3/2 (bessel_j), and the closed-form transforms of
the compact kernels and the ball take the orders d/2 + k in {1, 3/2, 4,
9/2}.  All of them come from the private module _special, in numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _special
from ._quad import gap_nodes, oscillatory_nodes, oscillatory_panels
from .errors import DomainError
from .psf import (HalfspaceProfile, Psf, _compact_power, ball_volume,
                  sphere_area)

_Q_CHUNK = 128


def bessel_j(nu: float, x):
    """Bessel J_nu of the first kind for the orders nu this package needs.

    J0 and J1 are Cephes-style fits (_special.j0, _special.j1).  The
    half-integer orders are (x/2)^nu / Gamma(nu+1) times the normalized
    kernel _special.bessel_lambda: its power series below x = 5 and the
    elementary sin/cos forms above, so both are accurate down to x = 0.
    Half-integer orders are evaluated at |x|.
    """
    x = np.asarray(x, dtype=float)
    if nu == 0.0:
        return _special.j0(x)
    if nu == 1.0:
        return _special.j1(x)
    if nu in (0.5, 1.5):
        ax = np.abs(x)
        return ((0.5 * ax) ** nu / math.gamma(nu + 1.0)
                * _special.bessel_lambda(nu, ax))
    raise DomainError(f"unsupported Bessel order {nu}")


def nu_phase(dim: int) -> float:
    """Asymptotic phase shift of J_{d/2-1}: nu = -(d-1) pi / 4."""
    if dim not in (2, 3):
        raise DomainError("dim must be 2 or 3")
    return -(dim - 1) * math.pi / 4.0


@dataclass(frozen=True)
class RadialFourier:
    """Hankel-quadrature transform of a radial function with compact
    support [r_lo, r_hi], smooth between the radii `splits` inside it.

    `flats` holds pairs (i, c): the function is the constant c over gap
    i between consecutive edges (r_lo, the splits, r_hi), a gap of
    positive width.  That gap's share of the transform is c times the
    closed-form annulus transform (AnnulusFourier), at q = 0 too, and
    the quadrature runs over the other gaps only.

    One Gauss-Legendre rule of order 15 over each of those gaps: at
    least 8 panels for the non-oscillatory factor, more as the largest
    requested frequency grows, so that every panel spans at most one
    oscillation (16 panels per gap at q = 0).  Each tuple of per-gap
    panel counts builds its nodes and fn(nodes) r^{d/2} w once and keeps
    them on the transform, so the calls of one dual sum that ask for the
    same counts share one rule.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    r_lo: float
    r_hi: float
    dim: int
    splits: tuple = ()
    flats: tuple = ()
    _rules: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise DomainError("dim must be 2 or 3")
        if not (0.0 <= self.r_lo < self.r_hi):
            raise DomainError("need 0 <= r_lo < r_hi")
        edges = self.edges
        if not np.all(np.diff(edges) >= 0.0):
            raise DomainError("splits must be sorted within [r_lo, r_hi]")
        if not all(0 <= i < len(edges) - 1 and edges[i] < edges[i + 1]
                   for i, _ in self.flats):
            raise DomainError("a flat must be a gap of positive width")

    @property
    def edges(self) -> tuple:
        """r_lo, the splits and r_hi: the breakpoints of every rule."""
        return (self.r_lo, *self.splits, self.r_hi)

    def _annuli(self):
        """(c, annulus transform) of each flat gap."""
        edges = self.edges
        return [(c, AnnulusFourier(edges[i], edges[i + 1], self.dim))
                for i, c in self.flats]

    def _panels(self, panels) -> tuple:
        """Per-gap panel counts with the flat gaps' set to 0."""
        flat = {i for i, _ in self.flats}
        return tuple(0 if i in flat else n for i, n in enumerate(panels))

    def volume_integral(self) -> float:
        """F at q = 0: the full d-dimensional integral of the function."""
        r, w = gap_nodes(self.edges,
                         self._panels([16] * (len(self.edges) - 1)))
        val = float(np.dot(self.fn(r) * r ** (self.dim - 1), w))
        return sphere_area(self.dim) * val + sum(
            c * ann.volume_integral() for c, ann in self._annuli())

    def at(self, q):
        """Transform values at nonnegative frequencies q (vectorized)."""
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
            out[live] = self._at_positive(q[live])
        return float(out[0]) if scalar else out

    def _rule(self, panels: tuple):
        """Nodes and fn(nodes) r^{d/2} w of the rule with panels[i]
        panels over gap i, built on the first call for those counts."""
        rule = self._rules.get(panels)
        if rule is None:
            nodes, w = gap_nodes(self.edges, panels)
            rule = self._rules[panels] = (
                nodes, self.fn(nodes) * nodes ** (self.dim / 2.0) * w)
        return rule

    def _at_positive(self, q):
        nodes, gv = self._rule(self._panels(oscillatory_panels(
            self.edges, float(q.max()), 8)))
        nu = self.dim / 2.0 - 1.0
        pref = 2.0 * math.pi * q ** (-(self.dim - 2) / 2.0)
        out = np.empty_like(q)
        for i in range(0, len(q), _Q_CHUNK):
            qb = q[i:i + _Q_CHUNK]
            kern = bessel_j(nu, 2.0 * math.pi * np.outer(qb, nodes))
            out[i:i + _Q_CHUNK] = kern @ gv
        out = pref * out
        for c, ann in self._annuli():
            out += c * ann.at(q)
        return out


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

    def at(self, q):
        q = np.asarray(q, dtype=float)
        out = ball_indicator_fourier(self.r_hi, self.dim, q)
        if self.r_lo > 0.0:
            out = out - ball_indicator_fourier(self.r_lo, self.dim, q)
        return out


def _compact_fourier(nu: float, radius: float, q):
    """Gamma(nu+1) x^{-nu} J_nu(2 x), x = pi R q, at frequencies q >= 0:
    the transform of (1 - |y|^2/R^2)_+^k on R^d divided by its integral,
    for nu = d/2 + k (Bochner-Riesz; Stein & Weiss, Introduction to
    Fourier Analysis on Euclidean Spaces, 1971, Thm IV.4.15).

    That is _special.bessel_lambda at 2 x: below 2 x = 5 the series
    sum_m (-x^2)^m / (m! (nu+1)_m), which is exactly 1 at q = 0 and keeps
    the digits that x^{-nu} J_nu(2 x) loses at small x; from there on
    the elementary forms (nu = 3/2, 9/2), 2 J1(2x)/(2x) (nu = 1) or the
    recurrence from J0 and J1 (nu = 4)."""
    x = math.pi * radius * np.atleast_1d(np.asarray(q, dtype=float))
    if np.any(x < 0):
        raise DomainError("frequencies must be nonnegative")
    out = _special.bessel_lambda(nu, 2.0 * x)
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


def profile_fourier_1d(f, profile: HalfspaceProfile, q):
    """One-dimensional transform of the weighted edge profile,
    F1(q) = int f(theta_H(t)) exp(-2 pi i q t) dt, supported on
    [phi(omega), phi(beta)].  Returns complex values."""
    q = np.asarray(q, dtype=float)
    scalar = q.ndim == 0
    q = np.atleast_1d(q)
    nodes, w = oscillatory_nodes(knot_images(f, profile),
                                 freq=float(np.abs(q).max()),
                                 min_panels=8)
    fv = f(profile.theta(nodes)) * w
    out = np.empty(q.shape, dtype=complex)
    for i in range(0, len(q), _Q_CHUNK):
        qb = q[i:i + _Q_CHUNK]
        phase = 2.0 * math.pi * np.outer(qb, nodes)
        out[i:i + _Q_CHUNK] = (np.cos(phase) - 1j * np.sin(phase)) @ fv
    return complex(out[0]) if scalar else out


def ball_main_term(radius: float, profile: HalfspaceProfile, f, a: float,
                   q, dim: int):
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
                                 min_panels=4)
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
