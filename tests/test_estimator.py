"""Weight functions, normalization constants, and the point estimators.

The Gaussian kernel gives alpha_f in closed form for the indicator
weight (a two-sided normal quantile), and an axis-aligned half-space on
the unit lattice lets the whole surface statistic be recomputed by hand.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.stats import norm

from _windows import centered_box
from greyvar import estimator
from greyvar._quad import panel_nodes
from greyvar.errors import CoverageError, DomainError, TruncationError
from greyvar.estimator import (EstimateResult, Indicator, SmoothPlateau,
                               alpha_f, estimate_surface,
                               estimate_volume_binary, estimate_volume_grey,
                               smoothstep7, weight_tv)
from greyvar.lattice import (Box, LatticePlacement, random_placement,
                             unit_lattice)
from greyvar.phantom import Ball, HalfSpace
from greyvar.psf import (ball_indicator, compact_bump, gaussian,
                         halfspace_profile)


def test_smoothstep7_is_c3():
    # endpoints and midpoint symmetry
    assert smoothstep7(0.0) == 0.0
    assert smoothstep7(1.0) == 1.0
    assert smoothstep7(0.5) == pytest.approx(0.5, abs=1e-15)
    t = np.linspace(0.0, 1.0, 101)
    np.testing.assert_allclose(smoothstep7(t) + smoothstep7(1.0 - t), 1.0,
                               atol=1e-14)
    # first three derivatives vanish at both ends
    coeffs = np.array([0, 0, 0, 0, 35, -84, 70, -20], dtype=float)
    p = np.polynomial.Polynomial(coeffs)
    for _ in range(3):
        p = p.deriv()
        assert p(0.0) == pytest.approx(0.0, abs=1e-12)
        assert p(1.0) == pytest.approx(0.0, abs=1e-12)


def test_smoothstep7_clamps():
    assert smoothstep7(-3.0) == 0.0
    assert smoothstep7(7.0) == 1.0


def test_indicator_weight_shape():
    f = Indicator(0.3, 0.7)
    y = np.array([0.0, 0.2999, 0.3, 0.5, 0.7, 0.7001, 1.0])
    np.testing.assert_array_equal(f(y), [0, 0, 1, 1, 1, 0, 0])
    assert f.knots == (0.3, 0.7)
    assert f.boundary_values == (1.0, 1.0)


def test_plateau_weight_shape():
    f = SmoothPlateau(0.3, 0.4, 0.6, 0.7)
    assert f(0.5) == 1.0
    assert f(0.4) == 1.0
    assert f(0.3) == 0.0
    assert f(0.7) == 0.0
    assert f(0.35) == pytest.approx(0.5, abs=1e-15)  # mid-ramp
    # symmetric knots give a symmetric weight
    y = np.linspace(0.0, 1.0, 401)
    np.testing.assert_allclose(f(y), f(1.0 - y), atol=1e-14)
    assert f.boundary_values == (0.0, 0.0)


def test_weight_validation():
    with pytest.raises(DomainError):
        Indicator(0.7, 0.3)
    with pytest.raises(DomainError):
        Indicator(0.0, 0.5)
    with pytest.raises(DomainError):
        SmoothPlateau(0.3, 0.2, 0.6, 0.7)


def test_alpha_indicator_gaussian_closed_form():
    """theta_H(t) = Phi(-t) for the Gaussian kernel, so the indicator
    weight is 1 exactly on |t| <= Phi^{-1}(omega) when omega = 1 - beta,
    and alpha_f = 2 Phi^{-1}(0.7)."""
    profile = halfspace_profile(gaussian(2))
    got = alpha_f(Indicator(0.3, 0.7), profile)
    assert got == pytest.approx(2.0 * norm.ppf(0.7), rel=1e-9)


@pytest.mark.parametrize("make", [gaussian, compact_bump])
@pytest.mark.parametrize("beta,omega", [(0.3, 0.7), (0.2, 0.55)])
def test_alpha_indicator_is_phi_gap(make, beta, omega):
    # for any kernel, f = 1_[beta,omega] composed with theta_H is the
    # indicator of [phi(omega), phi(beta)]
    profile = halfspace_profile(make(2))
    want = profile.phi(beta) - profile.phi(omega)
    assert alpha_f(Indicator(beta, omega), profile) == pytest.approx(
        want, rel=1e-10)


def test_alpha_plateau_gaussian_quadrature_oracle():
    profile = halfspace_profile(gaussian(2))
    f = SmoothPlateau(0.3, 0.4, 0.6, 0.7)
    lo, hi = norm.ppf(0.3), norm.ppf(0.7)
    want, err = quad(lambda t: float(f(norm.sf(t))), lo, hi,
                     points=[norm.ppf(0.4), norm.ppf(0.6)])
    assert err < 1e-10
    assert alpha_f(f, profile) == pytest.approx(want, rel=1e-9)
    assert want == pytest.approx(0.7714236491324105, rel=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("support", [0.5, 2.0])
def test_alpha_plateau_bump_quadrature_oracle(dim, support):
    """alpha_f of the plateau under the bump, against scipy's adaptive
    quadrature of a profile built from the bump's marginal
    (1 - s^2/D^2)^p, p = 3 + (d-1)/2, and inverted by brentq."""
    f = SmoothPlateau(0.3, 0.4, 0.6, 0.7)
    p = 3.0 + 0.5 * (dim - 1)
    marginal = lambda s: (1.0 - (s / support) ** 2) ** p
    mass, _ = quad(marginal, -support, support, epsabs=0, epsrel=1e-13)
    theta = lambda t: quad(marginal, t, support, epsabs=0,
                           epsrel=1e-13)[0] / mass
    cuts = [brentq(lambda t: theta(t) - y, -support, support, xtol=1e-15)
            for y in f.knots]
    want, err = quad(lambda t: float(f(theta(t))), cuts[-1], cuts[0],
                     points=cuts[1:-1], epsabs=1e-13)
    assert err < 1e-12
    got = alpha_f(f, halfspace_profile(compact_bump(dim, support)))
    assert got == pytest.approx(want, rel=1e-13)


def test_alpha_refuses_a_rule_that_moves_when_halved(monkeypatch):
    """alpha_f compares its 8-panel rule with the 4-panel one and raises
    TruncationError, not a number, when they disagree."""
    profile = halfspace_profile(gaussian(2))
    f = SmoothPlateau()
    alpha_f(f, profile)  # the true rule passes its own check

    def skewed(edges, n_panels, order=15):
        nodes, weights = panel_nodes(edges, n_panels, order)
        return nodes, weights * (1.0 + 1e-9 * (n_panels == 4))

    # the first call cached its value; the patched rule must run
    estimator._cached_alpha_f.cache_clear()
    monkeypatch.setattr(estimator, "panel_nodes", skewed)
    with pytest.raises(TruncationError, match="halved"):
        alpha_f(f, profile)


def test_weight_tv_values():
    # the plateau ramps monotonically 0 -> 1 -> 0: total variation 2
    assert weight_tv(SmoothPlateau()) == 2.0
    # the indicator has no continuous variation at all
    assert weight_tv(Indicator()) == 0.0


def _placement(b, seed=None, dim=2):
    lat = unit_lattice(dim)
    if seed is None:
        return LatticePlacement(lattice=lat, b=b)
    return random_placement(lat, b, np.random.default_rng(seed))


def test_halfspace_statistic_recomputed_by_hand():
    """Axis-aligned half-space, identity placement: the raw statistic is
    a product of a 1-D weight sum and a column count."""
    a, b = 0.1, 0.05
    psf = gaussian(2)
    phantom = HalfSpace(normal=(1.0, 0.0), offset=0.0, dim=2)
    placement = _placement(b)
    window = Box((-1.0, -1.0), (1.0, 1.0))
    res = estimate_surface(phantom, psf, Indicator(0.3, 0.7), a,
                           placement, window=window)

    k = np.arange(math.ceil(-1.0 / b), math.ceil(1.0 / b))
    theta = norm.sf(k * b / a)
    fsum = np.sum((theta >= 0.3) & (theta <= 0.7))
    n_cols = len(k)
    want_raw = b ** 2 / a * fsum * n_cols
    assert res.raw_sum == pytest.approx(want_raw, rel=1e-12)
    assert res.value == pytest.approx(want_raw / (2.0 * norm.ppf(0.7)),
                                      rel=1e-9)
    assert res.n_points == n_cols ** 2
    assert res.n_support == fsum * n_cols


def test_surface_window_invariance():
    # any window containing the boundary tube gives the same sum
    psf = gaussian(2)
    phantom = Ball(radius=1.0, dim=2)
    placement = _placement(0.05, seed=3)
    f = Indicator(0.3, 0.7)
    r1 = estimate_surface(phantom, psf, f, 0.05, placement,
                          window=centered_box((1.8, 1.8)))
    r2 = estimate_surface(phantom, psf, f, 0.05, placement,
                          window=centered_box((2.6, 3.1)))
    r3 = estimate_surface(phantom, psf, f, 0.05, placement)  # auto window
    assert r1.value == r2.value == r3.value
    assert r1.n_support == r2.n_support == r3.n_support


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kernel", [gaussian, compact_bump])
@pytest.mark.parametrize("f", [Indicator(0.1, 0.7),
                               SmoothPlateau(0.1, 0.2, 0.6, 0.7)])
def test_surface_window_at_the_band_reach(dim, kernel, f):
    """A ball lies in its tangent half-space, so theta_B <= theta_H and
    no point farther than a phi(beta) outside it is weighted: a window
    exactly R + a phi(beta) wide reads the auto window's sum, and one a
    cell narrower, still wider than the ball, is refused."""
    psf, a = kernel(dim), 0.2
    placement = _placement(0.05, seed=4, dim=dim)
    phantom = Ball(dim, 1.0)
    reach = 1.0 + a * halfspace_profile(psf).phi(f.knots[0])
    assert reach - placement.b > 1.0
    auto = estimate_surface(phantom, psf, f, a, placement)
    tight = estimate_surface(phantom, psf, f, a, placement,
                             window=centered_box((reach,) * dim))
    assert tight.n_points < auto.n_points
    assert tight.value == auto.value and tight.n_support == auto.n_support
    short = centered_box((reach - placement.b,) * dim)
    with pytest.raises(CoverageError):
        estimate_surface(phantom, psf, f, a, placement, window=short)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kernel", [gaussian, compact_bump, ball_indicator])
def test_volume_grey_window_is_the_whole_model(dim, kernel):
    """A ball's grey value is exactly 0 beyond R + a T, so a window
    exactly that wide, the auto window and one 0.5 wider read the same
    value bit for bit, and a window one cell narrower is refused."""
    psf, a = kernel(dim), 0.05
    placement = _placement(0.05, seed=4, dim=dim)
    ball = Ball(dim, 1.0)
    reach = 1.0 + a * psf.support_radius
    runs = [estimate_volume_grey(ball, psf, a, placement, window=w)
            for w in (None, centered_box((reach,) * dim),
                      centered_box((reach + 0.5,) * dim))]
    assert runs[1].n_points < runs[0].n_points < runs[2].n_points
    assert len({(r.value, r.n_support) for r in runs}) == 1
    with pytest.raises(CoverageError):
        estimate_volume_grey(ball, psf, a, placement,
                             window=centered_box((reach - 0.05,) * dim))


def test_surface_mean_near_perimeter():
    # 30 random placements at a = b = 0.02: the mean should sit within a
    # few percent of the circle perimeter 2 pi
    rng = np.random.default_rng(42)
    psf = gaussian(2)
    phantom = Ball(radius=1.0, dim=2)
    f = Indicator(0.3, 0.7)
    vals = [estimate_surface(phantom, psf, f, 0.02,
                             random_placement(unit_lattice(2), 0.02, rng)
                             ).value
            for _ in range(30)]
    assert np.mean(vals) == pytest.approx(2.0 * math.pi, rel=0.02)


def test_surface_rotation_equivariance():
    # rotating the placement while keeping the phantom spherical cannot
    # change the distribution; with the same shift expressed in the
    # rotated frame the value is identical
    psf = gaussian(2)
    phantom = Ball(radius=1.0, dim=2)
    f = SmoothPlateau()
    c, s = math.cos(0.35), math.sin(0.35)
    Q = np.array([[c, -s], [s, c]])
    shift = np.array([0.21, 0.47])
    p1 = LatticePlacement(lattice=unit_lattice(2), b=0.05, shift=shift)
    p2 = LatticePlacement(lattice=unit_lattice(2), b=0.05, shift=shift,
                          rotation=Q)
    r1 = estimate_surface(phantom, psf, f, 0.05, p1)
    r2 = estimate_surface(phantom, psf, f, 0.05, p2)
    assert r2.value == pytest.approx(r1.value, rel=1e-12)
    assert r2.n_support == r1.n_support


def test_surface_coverage_error():
    psf = gaussian(2)
    phantom = Ball(radius=1.0, dim=2)
    with pytest.raises(CoverageError):
        estimate_surface(phantom, psf, Indicator(), 0.05, _placement(0.05),
                         window=centered_box((0.9, 0.9)))


def test_surface_validation():
    psf = gaussian(2)
    for bad in (-0.1, math.inf, math.nan):
        with pytest.raises(DomainError):
            estimate_surface(Ball(radius=1.0, dim=2), psf, Indicator(), bad,
                             _placement(0.05))
        with pytest.raises(DomainError):
            estimate_volume_grey(Ball(radius=1.0, dim=2), psf, bad,
                                 _placement(0.05))
    with pytest.raises(DomainError):
        estimate_surface(Ball(radius=1.0, dim=3), psf, Indicator(), 0.05,
                         _placement(0.05))
    # a half-space reads any window, but only a finite one
    with pytest.raises(DomainError, match="finite"):
        estimate_surface(HalfSpace(2), psf, Indicator(), 0.1,
                         _placement(0.05),
                         window=Box((-math.inf, -1.0), (math.inf, 1.0)))


def test_volume_binary_ball():
    rng = np.random.default_rng(9)
    vals = [estimate_volume_binary(
        Ball(radius=1.0, dim=2),
        random_placement(unit_lattice(2), 0.02, rng)).value
        for _ in range(10)]
    assert np.mean(vals) == pytest.approx(math.pi, rel=1e-3)


def test_volume_binary_is_point_count():
    res = estimate_volume_binary(Ball(radius=1.0, dim=2), _placement(0.1))
    assert res.value == pytest.approx(0.1 ** 2 * res.raw_sum, rel=1e-12)
    assert res.raw_sum == res.n_support


def test_volume_binary_moved_ball_and_half_space():
    # a ball moved by a lattice vector holds as many points
    shift = np.array([0.21, 0.47])
    place = LatticePlacement(unit_lattice(2), 0.1, shift=shift)
    centred = estimate_volume_binary(Ball(2, 1.0), place)
    moved = estimate_volume_binary(Ball(2, 1.0, center=(0.3, -0.2)), place)
    assert moved.raw_sum == centred.raw_sum
    assert moved.window.lo == pytest.approx(
        (centred.window.lo[0] + 0.3, centred.window.lo[1] - 0.2))
    # a window that just covers the ball reads the same count
    window = centered_box((1.0, 1.0))
    assert estimate_volume_binary(Ball(2, 1.0), place,
                                  window).raw_sum == centred.raw_sum
    # an unbounded phantom needs a window, in which it counts its points
    with pytest.raises(CoverageError):
        estimate_volume_binary(HalfSpace(2), place)
    half = estimate_volume_binary(HalfSpace(2), _placement(0.1), window)
    assert half.raw_sum == 11 * 20  # x = -1.0, -0.9, ..., 0.0 on 20 rows


def test_volume_grey_ball():
    # grey counting is unbiased for Lebesgue volume at every scale; the
    # per-placement spread at b = 0.04 is already tiny
    rng = np.random.default_rng(10)
    psf = gaussian(2)
    vals = [estimate_volume_grey(
        Ball(radius=1.0, dim=2), psf, 0.04,
        random_placement(unit_lattice(2), 0.04, rng)).value
        for _ in range(10)]
    assert np.mean(vals) == pytest.approx(math.pi, rel=1e-3)


def test_result_fields():
    res = estimate_surface(Ball(radius=1.0, dim=2), gaussian(2),
                           Indicator(), 0.05, _placement(0.05, seed=1))
    assert isinstance(res, EstimateResult)
    assert 0 < res.n_support <= res.n_points
    assert res.a == 0.05 and res.b == 0.05
    assert res.normalization == pytest.approx(2.0 * norm.ppf(0.7), rel=1e-9)
