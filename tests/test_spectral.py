"""Radial Fourier machinery against series, closed forms, and models.

Bessel evaluations are checked against the defining power series (an
implementation-independent oracle), the Hankel quadrature against the
Gaussian self-transform and the ball closed form, and the two band
models against exact layer transforms in their regimes of validity.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from greyvar._quad import oscillatory_nodes
from greyvar.errors import DomainError, TruncationError
from greyvar.estimator import Indicator, SmoothPlateau, alpha_f
from greyvar.phantom import Ball, intensity_model, transition_offsets
from greyvar.psf import (ball_indicator, ball_volume, compact_bump,
                         eval_rho, gaussian, halfspace_profile)
from greyvar.spectral import (AnnulusFourier, RadialFourier, ball_main_term,
                              ball_indicator_fourier, band_cycles, bessel_j,
                              flat_band_square, nu_phase, profile_fourier_1d,
                              psf_fourier, sharp_band_square)
from greyvar import variance
from greyvar.variance import weighted_layer


def _series_j(order, x, terms=60):
    """Power series J_nu(x) = sum (-1)^m (x/2)^{2m+nu} / (m! G(m+nu+1))."""
    total = 0.0
    for m in range(terms):
        total += ((-1.0) ** m * (x / 2.0) ** (2 * m + order)
                  / (math.factorial(m) * math.gamma(m + order + 1.0)))
    return total


@pytest.mark.parametrize("order", [0.0, 0.5, 1.0, 1.5])
def test_bessel_matches_power_series(order):
    for x in [0.05, 0.3, 1.0, 2.7, 5.0, 10.0]:
        want = _series_j(order, x)
        assert bessel_j(order, x) == pytest.approx(want, abs=1e-11)


def test_bessel_half_integer_closed_forms():
    x = np.linspace(0.2, 12.0, 60)
    np.testing.assert_allclose(bessel_j(0.5, x),
                               np.sqrt(2.0 / (math.pi * x)) * np.sin(x),
                               rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(
        bessel_j(1.5, x),
        np.sqrt(2.0 / (math.pi * x)) * (np.sin(x) / x - np.cos(x)),
        rtol=1e-12, atol=1e-15)


def test_bessel_j0_first_zero():
    root = brentq(lambda x: bessel_j(0.0, x), 2.0, 3.0, xtol=1e-14)
    assert root == pytest.approx(2.404825557695773, abs=1e-10)


def test_bessel_unsupported_order():
    with pytest.raises(DomainError):
        bessel_j(2.0, 1.0)


def test_nu_phase():
    assert nu_phase(2) == pytest.approx(-math.pi / 4.0)
    assert nu_phase(3) == pytest.approx(-math.pi / 2.0)
    with pytest.raises(DomainError):
        nu_phase(4)


@pytest.mark.parametrize("dim", [2, 3])
def test_gaussian_self_transform(dim):
    """The standard Gaussian kernel is its own transform up to scale:
    F(rho)(q) = exp(-2 pi^2 q^2), checked to 1e-8 relative."""
    psf = gaussian(dim)
    rf = RadialFourier(
        lambda r: (2.0 * math.pi) ** (-dim / 2.0) * np.exp(-r * r / 2.0),
        0.0, 14.0, dim, min_panels=24)
    q = np.array([0.0, 0.05, 0.1, 0.2, 0.35, 0.5])
    want = np.exp(-2.0 * math.pi ** 2 * q * q)
    np.testing.assert_allclose(rf.at(q, refine=2), want, rtol=1e-8)
    # the dedicated kernel-transform path uses the closed form
    np.testing.assert_allclose(psf_fourier(psf, q), want, rtol=1e-14)


@pytest.mark.parametrize("dim", [2, 3])
def test_ball_closed_form_vs_quadrature(dim):
    R = 1.3
    rf = RadialFourier(lambda r: np.ones_like(r), 0.0, R, dim,
                       min_panels=24)
    q = np.array([0.0, 0.3, 1.0, 2.4, 5.7])
    np.testing.assert_allclose(ball_indicator_fourier(R, dim, q),
                               rf.at(q, refine=2), rtol=0, atol=1e-10)


def test_ball_transform_small_q_continuity():
    # q -> 0 limit is the ball volume, with no kink across the series
    # switchover
    R, dim = 0.9, 3
    assert ball_indicator_fourier(R, dim, 0.0) == pytest.approx(
        ball_volume(dim, R), rel=1e-14)
    lo = ball_indicator_fourier(R, dim, 1e-10)
    hi = ball_indicator_fourier(R, dim, 1e-8)
    assert lo == pytest.approx(ball_volume(dim, R), rel=1e-9)
    assert hi == pytest.approx(ball_volume(dim, R), rel=1e-9)


def test_annulus_matches_quadrature():
    ann = AnnulusFourier(0.8, 1.2, 2)
    rf = RadialFourier(lambda r: np.ones_like(r), 0.8, 1.2, 2,
                       min_panels=24)
    q = np.array([0.2, 1.0, 3.3, 8.0])
    np.testing.assert_allclose(ann.at(q), rf.at(q, refine=2),
                               rtol=0, atol=1e-10)
    assert ann.volume_integral() == pytest.approx(
        math.pi * (1.2 ** 2 - 0.8 ** 2), rel=1e-14)


def test_radial_fourier_refinement_stable():
    # doubling the panel count must not move converged values
    rf = RadialFourier(lambda r: np.exp(-3.0 * r) * r, 0.1, 2.0, 2,
                       min_panels=16)
    q = np.array([0.5, 2.0, 7.0])
    np.testing.assert_allclose(rf.at(q, refine=1), rf.at(q, refine=4),
                               rtol=0, atol=1e-11)


def test_radial_fourier_validation():
    with pytest.raises(DomainError):
        RadialFourier(lambda r: r, 1.0, 0.5, 2)
    with pytest.raises(DomainError):
        RadialFourier(lambda r: r, 0.0, 1.0, 4)
    rf = RadialFourier(lambda r: np.ones_like(r), 0.0, 1.0, 2)
    with pytest.raises(DomainError):
        rf.at(-1.0)
    with pytest.raises(DomainError):
        AnnulusFourier(1.2, 0.8, 2)
    with pytest.raises(DomainError):
        ball_indicator_fourier(-1.0, 2, 1.0)


def test_psf_fourier_normalized_at_zero():
    for make in (gaussian, compact_bump, ball_indicator):
        psf = make(2)
        assert psf_fourier(psf, 0.0) == 1.0


@pytest.mark.parametrize("make, atol", [(compact_bump, 2e-15),
                                        (ball_indicator, 1e-15)])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("support", [0.5, 1.0])
def test_compact_psf_fourier_matches_hankel_quadrature(make, atol, dim,
                                                      support):
    """The Bochner-Riesz closed form of a compact kernel's transform
    against Hankel quadrature of its density, from q = 0 (the kernel's
    mass, 1) across the series switchover to q = 300."""
    psf = make(dim, support)
    rf = RadialFourier(lambda r: eval_rho(psf, r), 0.0, support, dim,
                       min_panels=12)
    q = np.concatenate([np.geomspace(1e-6, 1.0, 25),
                        np.linspace(0.0, 300.0, 301)])
    np.testing.assert_allclose(psf_fourier(psf, q), rf.at(q), rtol=0,
                               atol=atol)
    assert isinstance(psf_fourier(psf, 1.7), float)


def test_profile_fourier_indicator_closed_form():
    """For the indicator weight the edge-profile transform is the
    transform of an interval: (exp(-2 pi i q lo) - exp(-2 pi i q hi)) /
    (2 pi i q)."""
    profile = halfspace_profile(gaussian(2))
    f = Indicator(0.3, 0.7)
    lo, hi = profile.phi(0.7), profile.phi(0.3)
    q = np.array([0.3, 1.1, 4.0, 9.5])
    want = ((np.exp(-2j * math.pi * q * lo)
             - np.exp(-2j * math.pi * q * hi))
            / (2j * math.pi * q))
    got = profile_fourier_1d(f, profile, q)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
    # q = 0 recovers the band width, which equals alpha for this weight
    assert profile_fourier_1d(f, profile, 0.0).real == pytest.approx(
        alpha_f(f, profile), rel=1e-9)


def test_band_cycles_formula():
    profile = halfspace_profile(gaussian(2))
    f = Indicator(0.3, 0.7)
    width = profile.phi(0.3) - profile.phi(0.7)
    assert band_cycles(f, profile, 0.05, 40.0) == pytest.approx(
        0.05 * 40.0 * width, rel=1e-12)


def test_main_term_tracks_exact_layer():
    """The oscillatory main term approaches the exact layer transform as
    R q grows with a q fixed; the gap at q = 80 must be far below the
    gap at q = 10."""
    psf = gaussian(2)
    f = SmoothPlateau()
    R = 1.0
    profile = halfspace_profile(psf)
    gaps = []
    for q in (10.0, 80.0):
        a = 0.5 / q
        layer = weighted_layer(R, psf, a, f)
        qs = np.linspace(q * 0.96, q * 1.04, 41)
        exact = layer.at(qs)
        main = ball_main_term(R, profile, f, a, qs, 2)
        scale = math.sqrt(float(np.mean(exact ** 2)))
        gaps.append(math.sqrt(float(np.mean((exact - main) ** 2))) / scale)
    assert gaps[1] < gaps[0] / 4.0
    assert gaps[1] < 0.02


def test_sharp_band_model_band_averaged():
    """With many oscillations across the band only the edge jumps
    matter; the model matches the exact annulus transform after
    averaging |F|^2 over a frequency window covering a few beat
    periods."""
    psf = gaussian(2)
    f = Indicator(0.3, 0.7)
    R, a = 1.0, 0.05
    off = transition_offsets(Ball(2, R), psf, a, 0.3, 0.7)
    ann = AnnulusFourier(R + off.t_minus, R + off.t_plus, 2)
    profile = halfspace_profile(psf)
    qs = np.linspace(100.0, 140.0, 4001)
    assert band_cycles(f, profile, a, float(qs[0])) > 5.0
    exact_avg = float(np.mean(ann.at(qs) ** 2))
    model_avg = float(np.mean(sharp_band_square(R, profile, f, a, qs, 2)))
    assert model_avg == pytest.approx(exact_avg, rel=0.1)


def test_sharp_band_vanishes_for_smooth_weight():
    profile = halfspace_profile(gaussian(2))
    vals = sharp_band_square(1.0, profile, SmoothPlateau(), 0.05,
                             np.array([10.0, 20.0]), 2)
    np.testing.assert_array_equal(vals, 0.0)


def test_flat_band_model_small_cycles():
    """When the band is thin against the oscillation the layer transform
    is alpha * a times the sphere-surface oscillation; compare the exact
    plateau layer against the model away from the cosine zeros."""
    psf = gaussian(2)
    f = SmoothPlateau()
    R, a = 1.0, 0.01
    profile = halfspace_profile(psf)
    alpha = alpha_f(f, profile)
    layer = weighted_layer(R, psf, a, f)
    nu = nu_phase(2)
    for q in (3.0, 5.0, 8.0):
        assert band_cycles(f, profile, a, q) < 0.1
        if abs(math.cos(2.0 * math.pi * q * R + nu)) < 0.5:
            continue
        exact = layer.at(q) ** 2
        model = flat_band_square(R, alpha, a, q, 2)
        assert model == pytest.approx(exact, rel=0.08)
    # the envelope dominates the oscillating model everywhere
    qv = np.linspace(2.0, 9.0, 200)
    env = flat_band_square(R, alpha, a, qv, 2, envelope=True)
    osc = flat_band_square(R, alpha, a, qv, 2)
    assert np.all(env >= osc - 1e-15)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kernel", [gaussian, compact_bump])
def test_profile_rules_split_at_knot_images(kernel, dim):
    """A smooth weight's profile layer is only C^3 at its knot images;
    rules split there are exact to rounding at the base panel count, so
    refine=1 matches refine=16 (unsplit, they were 4e-9 to 2e-8 apart
    at q <= 40)."""
    f, R, a = SmoothPlateau(), 1.0, 0.05
    profile = halfspace_profile(kernel(dim))
    qs = np.geomspace(1.0, 40.0, 30)
    for fn in (lambda r: ball_main_term(R, profile, f, a, qs, dim, refine=r),
               lambda r: profile_fourier_1d(f, profile, a * qs, refine=r)):
        coarse, fine = fn(1), fn(16)
        assert np.max(np.abs(coarse - fine)) <= 1e-12 * np.max(np.abs(fine))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kernel", [gaussian, compact_bump])
def test_smooth_layer_refinement_gap(kernel, dim):
    """The Hankel rule of a smooth weight's layer, evaluated in the
    octave blocks of the dual sum out to q = 30/a, moves by under 2e-9
    of its peak when refined 16-fold (measured up to 8.2e-10, with the
    bump kernel, at the lowest frequencies): its panels are not split at
    the knot radii.  The exact variance sums its squares to a relative
    tolerance of 1e-3."""
    a = 0.05
    layer = weighted_layer(1.0, kernel(dim), a, SmoothPlateau())
    qs = np.linspace(0.5, 30.0 / a, 2000)
    coarse, fine = (variance._octave_eval(
        lambda q: layer.at(q, refine=r), qs) for r in (1, 16))
    assert np.max(np.abs(coarse - fine)) <= 2e-9 * np.max(np.abs(fine))


def test_main_term_rejects_nonpositive_q():
    profile = halfspace_profile(gaussian(2))
    with pytest.raises(DomainError):
        ball_main_term(1.0, profile, Indicator(), 0.05, 0.0, 2)


def test_oscillatory_rule_over_budget_is_truncation_error():
    # the node budget is checked before any node is allocated
    with pytest.raises(TruncationError):
        oscillatory_nodes((0.0, 1.0), freq=1e9)
