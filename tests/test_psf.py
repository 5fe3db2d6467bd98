"""PSF kernels and half-space edge profiles against closed forms.

The closed-form profiles are checked against erfc and the circular
segment area, the Gaussian's standard-library forms against
scipy.special (which shares no code with them), and every kind against
a direct quadrature of rho over the half-space; the kernels themselves
are checked for normalization, support, and smoothness class.
"""

import math

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from greyvar.errors import DomainError
from greyvar.psf import (GAUSSIAN_T, Psf, ball_indicator, ball_volume,
                         compact_bump, eval_rho, gaussian, halfspace_profile,
                         radial_mass, sphere_area)

ALL_KINDS = [gaussian, compact_bump, ball_indicator]


def _gauss_theta(t):
    # theta_H(t) = P(Z > t) for a standard normal coordinate
    return 0.5 * math.erfc(t / math.sqrt(2.0))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("make", ALL_KINDS)
def test_rho_integrates_to_one(make, dim):
    psf = make(dim)
    hi = psf.support_radius if psf.compact else 12.0
    total, err = quad(lambda r: eval_rho(psf, r) * r ** (dim - 1), 0.0, hi,
                      limit=200)
    assert err < 1e-10
    assert sphere_area(dim) * total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("make", ALL_KINDS)
def test_radial_mass_saturates(make, dim):
    psf = make(dim)
    assert radial_mass(psf, 1e3) == pytest.approx(1.0, abs=1e-10)
    assert radial_mass(psf, 0.0) == 0.0


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("make", ALL_KINDS)
def test_radial_mass_matches_quadrature(make, dim):
    psf = make(dim)
    for r in (0.2, 0.5, 0.9, 1.7):
        hi = min(r, psf.support_radius) if psf.compact else r
        want, _ = quad(lambda u: sphere_area(dim) * u ** (dim - 1)
                       * float(eval_rho(psf, u)), 0.0, hi,
                       epsabs=1e-14, epsrel=1e-13)
        assert radial_mass(psf, r) == pytest.approx(want, abs=1e-12)


def test_bump_is_c2_at_the_edge():
    psf = compact_bump(2, 1.0)
    assert eval_rho(psf, 1.0) == 0.0
    # (1 - r^2)^3 vanishes to second order at r = 1
    eps = 1e-5
    assert eval_rho(psf, 1.0 - eps) < 1e-13
    r = np.array([0.0, 0.3, 0.9, 1.0, 1.7])
    assert np.all(eval_rho(psf, r) >= 0.0)


def test_ball_indicator_is_uniform():
    psf = ball_indicator(3, 0.5)
    level = 1.0 / ball_volume(3, 0.5)
    assert eval_rho(psf, 0.3) == pytest.approx(level, rel=1e-14)
    assert eval_rho(psf, 0.6) == 0.0


def test_eval_rho_rejects_negative_radius():
    with pytest.raises(DomainError):
        eval_rho(gaussian(2), -0.1)


@pytest.mark.parametrize("dim", [2, 3])
def test_gaussian_marginal_is_standard_normal(dim):
    s = np.linspace(-5.0, 5.0, 41)
    expected = np.exp(-0.5 * s * s) / math.sqrt(2.0 * math.pi)
    marginal = -halfspace_profile(gaussian(dim)).dtheta(s)
    np.testing.assert_allclose(marginal, expected, atol=1e-12)


@pytest.mark.parametrize("make", ALL_KINDS)
def test_marginal_normalizes(make):
    psf = make(2)
    hi = psf.support_radius if psf.compact else 10.0
    prof = halfspace_profile(psf)
    total, _ = quad(lambda s: -prof.dtheta(s), -hi, hi, limit=200)
    assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("dim", [2, 3])
def test_gaussian_profile_matches_erfc(dim):
    prof = halfspace_profile(gaussian(dim))
    for t in (-3.0, -1.0, -0.2, 0.0, 0.4, 1.3, 2.5):
        assert prof.theta(t) == pytest.approx(_gauss_theta(t), abs=1e-11)
        assert prof.dtheta(t) == pytest.approx(
            -math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi), abs=1e-10)


def test_gaussian_profile_and_inverse_match_scipy():
    prof = halfspace_profile(gaussian(3))
    # open interval: theta is clamped to 1 and 0 at -T and T
    t = np.linspace(-GAUSSIAN_T, GAUSSIAN_T, 20001)[1:-1]
    np.testing.assert_allclose(prof.theta(t), special.ndtr(-t),
                               rtol=1.3e-14, atol=0.0)
    y = np.concatenate([np.logspace(-15.0, math.log10(0.49), 3000),
                        1.0 - np.logspace(-12.0, math.log10(0.49), 3000)])
    np.testing.assert_allclose([prof.phi(v) for v in y], -special.ndtri(y),
                               rtol=1.1e-15, atol=0.0)


@pytest.mark.parametrize("dim", [2, 3])
def test_gaussian_mass_and_radius_match_scipy(dim):
    psf = gaussian(dim)
    r = np.linspace(0.0, 40.0, 4001)
    mass = [radial_mass(psf, v) for v in r]
    np.testing.assert_allclose(mass, special.gammainc(dim / 2.0, 0.5 * r * r),
                               rtol=0.0, atol=2.2e-15)


def test_disc_profile_closed_form():
    # circular-segment area: theta(t) = (acos t - t sqrt(1-t^2)) / pi
    prof = halfspace_profile(ball_indicator(2, 1.0))
    for t in (-0.8, -0.3, 0.0, 0.5, 0.9):
        expected = (math.acos(t) - t * math.sqrt(1 - t * t)) / math.pi
        assert prof.theta(t) == pytest.approx(expected, abs=1e-12)


def _halfspace_mass(psf, t):
    """theta_H(t) = int sphere_area r^{d-1} rho(r) P(U_1 >= t/r) dr, with
    U uniform on the unit sphere: the mass of rho beyond the plane
    <x, u> = t, summed over spherical shells."""
    d = psf.dim

    def cap(s):
        s = min(max(s, -1.0), 1.0)
        return math.acos(s) / math.pi if d == 2 else 0.5 * (1.0 - s)

    def shell(r):
        return (sphere_area(d) * r ** (d - 1) * float(eval_rho(psf, r))
                * cap(t / r))

    R = psf.support_radius if psf.compact else 40.0
    # the integrand is not smooth at r = |t|, where the shell starts to
    # cross the plane
    points = [abs(t)] if 0.0 < abs(t) < R else None
    total, _ = quad(shell, 0.0, R, points=points, limit=200,
                    epsabs=1e-14, epsrel=1e-13)
    return total


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("make", ALL_KINDS)
def test_profile_matches_halfspace_quadrature(make, dim):
    psf = make(dim)
    prof = halfspace_profile(psf)
    for t in (-0.95, -0.6, -0.25, 0.0, 0.1, 0.45, 0.8, 0.99):
        assert prof.theta(t) == pytest.approx(_halfspace_mass(psf, t),
                                              abs=1e-12)


@pytest.mark.parametrize("make", ALL_KINDS)
def test_profile_shape(make):
    prof = halfspace_profile(make(2))
    T = prof.T
    tol = 1e-10
    assert prof.theta(-T - 1.0) == 1.0
    assert prof.theta(T + 1.0) == 0.0
    assert prof.theta(0.0) == pytest.approx(0.5, abs=tol)
    t = np.linspace(-T, T, 257)
    theta = prof.theta(t)
    assert np.all(np.diff(theta) <= 1e-14)
    # symmetric kernels give symmetric profiles
    np.testing.assert_allclose(theta + prof.theta(-t), 1.0, atol=10 * tol)


@pytest.mark.parametrize("make", ALL_KINDS)
def test_phi_round_trip(make):
    prof = halfspace_profile(make(2))
    for y in (0.05, 0.3, 0.5, 0.7, 0.95):
        assert prof.theta(prof.phi(y)) == pytest.approx(y, abs=1e-9)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("make", [compact_bump, ball_indicator])
def test_compact_phi_is_odd_about_one_half(make, dim):
    """Mirror levels get mirror images exactly, so the layer's knot
    images stay symmetric and its breakpoints do not split."""
    prof = halfspace_profile(make(dim))
    for y in (0.125, 0.25, 0.3125, 0.4):
        assert 1.0 - (1.0 - y) == y
        assert prof.phi(1.0 - y) == -prof.phi(y)


def test_phi_rejects_levels_outside_unit_interval():
    prof = halfspace_profile(gaussian(2))
    for y in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(DomainError):
            prof.phi(y)


def test_profile_total_mass():
    prof = halfspace_profile(gaussian(2))
    assert prof.T == GAUSSIAN_T


def test_gaussian_takes_no_support_radius():
    """A Gaussian's profile always cuts off at GAUSSIAN_T, so another
    support radius would be ignored; it is refused instead."""
    with pytest.raises(DomainError):
        Psf("gaussian", 2, 3.0)
    assert Psf("gaussian", 2, GAUSSIAN_T) == gaussian(2)


def test_psf_validation():
    with pytest.raises(DomainError):
        gaussian(4)
    with pytest.raises(DomainError):
        compact_bump(2, -1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            compact_bump(2, bad)
        with pytest.raises(DomainError):
            Psf("gaussian", 2, bad)
