"""Grey-value weight functions and lattice-sampled surface/volume estimators.

The raw surface statistic on a placement b Q (A Z^d + c) is

    S0 = a^{-1} b^d  sum_z  f(theta_a(X)(z)),

summing a weight f of the grey value over lattice points.  Its asymptotic
mean is cell_volume^{-1} * S(X) * alpha_f with the profile normalization

    alpha_f = int f(theta_H(t)) dt,

so the normalized estimator  S_hat = cell_volume * alpha_f^{-1} * S0  is
asymptotically unbiased for the surface area S(X).  Volume baselines count
lattice points in X (binary) or sum the grey values themselves (grey).

Weight functions vanish outside a grey band [beta, omega] with
0 < beta < omega < 1; the estimators therefore only see lattice points in
a tube around the boundary of X, and any window containing that tube
yields the identical sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import panel_nodes
from .errors import (CoverageError, DomainError, NormalizationError,
                     TruncationError)
from .lattice import Box, LatticePlacement, enumerate_points
from .phantom import Ball, HalfSpace, Phantom, intensity_model
from .psf import HalfspaceProfile, Psf, effective_radius, halfspace_profile
from .spectral import knot_images


def smoothstep7(t):
    """Seventh-order smoothstep: C^3 ramp from 0 to 1 on [0, 1]."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    return t ** 4 * (35.0 - 84.0 * t + 70.0 * t * t - 20.0 * t ** 3)


@dataclass(frozen=True)
class Indicator:
    """Indicator weight of the closed grey band [beta, omega]."""

    beta: float = 0.3
    omega: float = 0.7

    def __post_init__(self):
        if not (0.0 < self.beta < self.omega < 1.0):
            raise DomainError("need 0 < beta < omega < 1")

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        return ((y >= self.beta) & (y <= self.omega)).astype(float)

    @property
    def knots(self):
        return (self.beta, self.omega)

    @property
    def boundary_values(self):
        """One-sided values f(beta), f(omega) at the band edges."""
        return (1.0, 1.0)


@dataclass(frozen=True)
class SmoothPlateau:
    """C^3 plateau weight: smoothstep up on [beta, beta_inner], 1 on the
    plateau, smoothstep down on [omega_inner, omega]."""

    beta: float = 0.3
    beta_inner: float = 0.4
    omega_inner: float = 0.6
    omega: float = 0.7

    def __post_init__(self):
        if not (0.0 < self.beta < self.beta_inner
                <= self.omega_inner < self.omega < 1.0):
            raise DomainError(
                "need 0 < beta < beta_inner <= omega_inner < omega < 1")

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        up = smoothstep7((y - self.beta) / (self.beta_inner - self.beta))
        down = smoothstep7((self.omega - y) / (self.omega - self.omega_inner))
        out = np.where(y < self.beta_inner, up, 1.0)
        out = np.where(y > self.omega_inner, down, out)
        out = np.where((y <= self.beta) | (y >= self.omega), 0.0, out)
        return out

    @property
    def knots(self):
        return (self.beta, self.beta_inner, self.omega_inner, self.omega)

    @property
    def boundary_values(self):
        return (0.0, 0.0)


def default_weight() -> Indicator:
    return Indicator(0.3, 0.7)


# alpha_f's rule: panels per gap between knot images, and the largest
# gap it allows to the rule with half the panels (absolute, on an O(1)
# value)
_ALPHA_PANELS, _ALPHA_TOL = 8, 1e-11


def alpha_f(f, profile: HalfspaceProfile) -> float:
    """Profile normalization alpha_f = int f(theta_H(t)) dt.

    The integrand is supported on [phi(omega), phi(beta)] and is smooth
    between the images of the weight knots: a composite Gauss-Legendre
    rule of 8 panels per gap between them, checked against 4 panels.
    Raises TruncationError if the two differ by more than 1e-11.
    """
    knots = knot_images(f, profile)
    lo, hi = knots[0], knots[-1]
    if hi <= lo:
        raise NormalizationError("weight band collapses under the profile")

    def rule(n_panels):
        t, w = panel_nodes(knots, n_panels)
        return float(np.dot(f(profile.theta(t)), w))

    val = rule(_ALPHA_PANELS)
    gap = abs(val - rule(_ALPHA_PANELS // 2))
    if gap > _ALPHA_TOL:
        raise TruncationError(
            f"alpha_f rule moved by {gap:.3g} when its panels were halved")
    if abs(val) < 1e-9 * (hi - lo):
        raise NormalizationError("alpha_f is numerically degenerate")
    return val


def weight_tv(f) -> float:
    """Total variation of t -> f(theta_H(t)), continuous part only:
    sum |f(k_{i+1}) - f(k_i)| over consecutive knots, exact because
    theta_H is strictly monotone and f monotone between its knots.

    Boundary jumps at the band edges are reported separately through
    f.boundary_values (for the indicator this sum is exactly 0)."""
    return float(np.abs(np.diff(f(np.asarray(f.knots, dtype=float)))).sum())


@dataclass
class EstimateResult:
    """A single estimator evaluation on one placement."""

    value: float
    raw_sum: float
    normalization: float
    n_points: int
    n_support: int
    a: float
    b: float
    window: Box


def _phantom_bbox(phantom: Phantom, pad: float) -> Box:
    if not isinstance(phantom, Ball):
        raise CoverageError(
            "phantom has unbounded boundary; pass an explicit window")
    c, r = np.asarray(phantom.center), phantom.radius + pad
    return Box(tuple(c - r), tuple(c + r))


def _collect(phantom, psf, placement, window, reach):
    """Placement points in the window, and the window.  The default
    window is the phantom's box dilated by `reach` and two cells; a given
    one must contain the box dilated by `reach`, except for a half-space,
    which is read in any finite window."""
    if psf is not None and psf.dim != phantom.dim:
        raise DomainError("psf and phantom dimensions differ")
    if window is None:
        cells = 2.0 * placement.b * placement.lattice.cell_diameter
        window = _phantom_bbox(phantom, reach + cells)
    elif window.dim != phantom.dim:
        raise DomainError("window dimension mismatch")
    elif not isinstance(phantom, HalfSpace):
        tube = _phantom_bbox(phantom, reach)
        if (np.any(np.asarray(window.lo) > np.asarray(tube.lo) + 1e-12) or
                np.any(np.asarray(window.hi) < np.asarray(tube.hi) - 1e-12)):
            raise CoverageError(
                f"window {window} does not cover the phantom tube {tube}")
    return enumerate_points(placement, window), window


def estimate_surface(phantom: Phantom, psf: Psf, f, a: float,
                     placement: LatticePlacement,
                     window: Box | None = None) -> EstimateResult:
    """Surface-area estimate on one placement.

    Returns both the raw statistic S0 and the normalized estimate
    cell_volume * alpha_f^{-1} * S0.
    """
    if not 0 < a < math.inf:
        raise DomainError("blur scale a must be positive and finite")
    beta, omega = f.knots[0], f.knots[-1]
    d_eff = effective_radius(psf, 1e-6 * min(beta, 1.0 - omega))
    pts, window = _collect(phantom, psf, placement, window, a * d_eff)
    model = intensity_model(phantom, psf, a)
    weights = f(model(pts)) if len(pts) else np.zeros(0)
    raw = a ** (-1.0) * placement.b ** phantom.dim * float(weights.sum())
    alpha = alpha_f(f, halfspace_profile(psf))
    value = placement.lattice.cell_volume / alpha * raw
    return EstimateResult(
        value=value, raw_sum=raw, normalization=alpha,
        n_points=int(len(pts)), n_support=int(np.count_nonzero(weights)),
        a=a, b=placement.b, window=window)


def estimate_volume_grey(phantom: Phantom, psf: Psf, a: float,
                         placement: LatticePlacement,
                         window: Box | None = None) -> EstimateResult:
    """Grey volume estimate b^d * cell_volume * sum theta_a(X)(z)."""
    if not 0 < a < math.inf:
        raise DomainError("blur scale a must be positive and finite")
    reach = a * effective_radius(psf, 1e-9)
    pts, window = _collect(phantom, psf, placement, window, reach)
    model = intensity_model(phantom, psf, a)
    grey = model(pts) if len(pts) else np.zeros(0)
    vol = placement.b ** phantom.dim * placement.lattice.cell_volume
    return EstimateResult(
        value=vol * float(grey.sum()), raw_sum=float(grey.sum()),
        normalization=1.0, n_points=int(len(pts)),
        n_support=int(np.count_nonzero(grey)), a=a, b=placement.b,
        window=window)


def estimate_volume_binary(phantom: Phantom, placement: LatticePlacement,
                           window: Box | None = None) -> EstimateResult:
    """Binary volume estimate b^d * cell_volume * #(X intersect points)."""
    pts, window = _collect(phantom, None, placement, window, 0.0)
    count = int(np.count_nonzero(phantom.contains(pts)))
    vol = placement.b ** phantom.dim * placement.lattice.cell_volume
    return EstimateResult(
        value=vol * count, raw_sum=float(count), normalization=1.0,
        n_points=int(len(pts)), n_support=count, a=math.nan, b=placement.b,
        window=window)
