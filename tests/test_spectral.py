"""Radial Fourier machinery against series, closed forms, and models.

Bessel evaluations are checked against the defining power series (an
implementation-independent oracle), the Hankel quadrature against the
Gaussian self-transform, the ball closed form and scipy's adaptive
quadrature, the profile rules against QUADPACK's oscillatory-weight
rule, and the two band models against exact layer transforms in their
regimes of validity.
"""

import inspect
import math

import numpy as np
import pytest
from scipy import integrate, special
from scipy.optimize import brentq

from _band_models import band_cycles, flat_band_square, sharp_band_square
from greyvar._quad import oscillatory_nodes
from greyvar.errors import DomainError, TruncationError
from greyvar.estimator import Indicator, SmoothPlateau, alpha_f
from greyvar.phantom import cached_knot_radii
from greyvar.psf import (ball_indicator, ball_volume, compact_bump,
                         eval_rho, gaussian, halfspace_profile)
from greyvar.spectral import (AnnulusFourier, RadialFourier, ball_main_term,
                              ball_indicator_fourier, bessel_j, nu_phase,
                              profile_fourier_1d, psf_fourier)
import greyvar
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
        0.0, 14.0, dim)
    q = np.array([0.0, 0.05, 0.1, 0.2, 0.35, 0.5])
    want = np.exp(-2.0 * math.pi ** 2 * q * q)
    np.testing.assert_allclose(rf.at(q), want, rtol=1e-8)
    # the dedicated kernel-transform path uses the closed form
    np.testing.assert_allclose(psf_fourier(psf, q), want, rtol=1e-14)


@pytest.mark.parametrize("dim", [2, 3])
def test_ball_closed_form_vs_quadrature(dim):
    R = 1.3
    rf = RadialFourier(lambda r: np.ones_like(r), 0.0, R, dim)
    q = np.array([0.0, 0.3, 1.0, 2.4, 5.7])
    np.testing.assert_allclose(ball_indicator_fourier(R, dim, q),
                               rf.at(q), rtol=0, atol=1e-10)


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
    rf = RadialFourier(lambda r: np.ones_like(r), 0.8, 1.2, 2)
    q = np.array([0.2, 1.0, 3.3, 8.0])
    np.testing.assert_allclose(ann.at(q), rf.at(q), rtol=0, atol=1e-10)
    assert ann.volume_integral() == pytest.approx(
        math.pi * (1.2 ** 2 - 0.8 ** 2), rel=1e-14)


def test_radial_fourier_matches_adaptive_quadrature():
    """The Hankel rule against scipy's adaptive quad of the d=2 Hankel
    integrand 2 pi g(r) J_0(2 pi q r) r (measured gap 3e-17)."""
    g = lambda r: np.exp(-3.0 * r) * r
    rf = RadialFourier(g, 0.1, 2.0, 2)
    q = np.array([0.5, 2.0, 7.0])
    want = [2.0 * math.pi * integrate.quad(
        lambda r: g(r) * special.j0(2.0 * math.pi * qv * r) * r, 0.1, 2.0,
        epsabs=1e-15, epsrel=1e-13, limit=200)[0] for qv in q]
    np.testing.assert_allclose(rf.at(q), want, rtol=0, atol=1e-11)


def test_radial_fourier_validation():
    with pytest.raises(DomainError):
        RadialFourier(lambda r: r, 1.0, 0.5, 2)
    with pytest.raises(DomainError):
        RadialFourier(lambda r: r, 0.0, 1.0, 4)
    for splits in ((0.7, 0.3), (1.5,)):
        with pytest.raises(DomainError, match="splits"):
            RadialFourier(lambda r: r, 0.0, 1.0, 2, splits)
    rf = RadialFourier(lambda r: np.ones_like(r), 0.0, 1.0, 2)
    with pytest.raises(DomainError):
        rf.at(-1.0)
    for flats in (((0, 1.0),), ((3, 1.0),)):  # zero width; no such gap
        with pytest.raises(DomainError, match="flat"):
            RadialFourier(lambda r: r, 0.0, 1.0, 2, (0.0, 0.5), flats)
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
    rf = RadialFourier(lambda r: eval_rho(psf, r), 0.0, support, dim)
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
    ann = AnnulusFourier(*cached_knot_radii(R, psf, a, (0.3, 0.7)), 2)
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


def _oscillatory_quad(fn, edges, omega, kind):
    """int fn(t) cos(omega t) (kind 'cos') or sin(omega t) dt over
    [edges[0], edges[-1]] by QUADPACK's oscillatory-weight rule, one call
    per gap between consecutive edges."""
    return sum(integrate.quad(fn, lo, hi, weight=kind, wvar=omega,
                              epsabs=1e-14, epsrel=1e-13, limit=200)[0]
               for lo, hi in zip(edges[:-1], edges[1:]))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kernel", [gaussian, compact_bump])
def test_profile_rules_split_at_knot_images(kernel, dim):
    """A smooth weight's profile layer is only C^3 at its knot images;
    the rules split there match QUADPACK's oscillatory-weight rule over
    each gap between knot images to 1e-12 of the peak (measured up to
    1.4e-15; unsplit, the rules were 4e-9 to 2e-8 off at q <= 40)."""
    f, R, a = SmoothPlateau(), 1.0, 0.05
    profile = halfspace_profile(kernel(dim))
    qs = np.geomspace(1.0, 40.0, 30)
    edges = sorted(profile.phi(y) for y in f.knots)
    layer = lambda t: float(f(profile.theta(t)))
    rad = (dim - 1) / 2.0
    main = lambda t: layer(t) * (R + a * t) ** rad
    want_1d, want_main = [], []
    for q in qs:
        omega, phase = 2.0 * math.pi * a * q, 2.0 * math.pi * q * R
        phase -= (dim - 1) * math.pi / 4.0
        want_1d.append(_oscillatory_quad(layer, edges, omega, "cos")
                       - 1j * _oscillatory_quad(layer, edges, omega, "sin"))
        want_main.append(2.0 * a * q ** -rad * (
            math.cos(phase) * _oscillatory_quad(main, edges, omega, "cos")
            - math.sin(phase) * _oscillatory_quad(main, edges, omega, "sin")))
    for got, want in ((profile_fourier_1d(f, profile, a * qs), want_1d),
                      (ball_main_term(R, profile, f, a, qs, dim), want_main)):
        want = np.asarray(want)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kernel", [gaussian, compact_bump])
def test_smooth_layer_refinement_gap(kernel, dim):
    """The Hankel rule of a smooth weight's layer, split at the knot radii
    and evaluated on 2,000 frequencies out to q = 30/a in one call (ten
    octaves, the rule sized by the largest), is within 1e-13 of its peak
    of scipy's adaptive quad_vec split there too (measured up to
    7.4e-15; 8.2e-10 before the rule was split).  The inner knot radii
    here come from their own band-radii solve."""
    a, f, psf = 0.05, SmoothPlateau(), kernel(dim)
    layer = weighted_layer(1.0, psf, a, f)
    qs = np.linspace(0.5, 30.0 / a, 2000)
    got = layer.at(qs)
    edges = [layer.r_lo, *cached_knot_radii(1.0, psf, a, f.knots[1:3]),
             layer.r_hi]
    if dim == 2:  # 2 pi J_0(2 pi q r) r
        kernel_at = lambda r: (2.0 * math.pi * r
                               * special.j0(2.0 * math.pi * qs * r))
    else:  # 2 pi q^{-1/2} J_{1/2}(2 pi q r) r^{3/2} = 2 sin(2 pi q r) r / q
        kernel_at = lambda r: 2.0 * r * np.sin(2.0 * math.pi * qs * r) / qs
    want = sum(integrate.quad_vec(
        lambda r: layer.fn(r) * kernel_at(r), lo, hi, epsabs=1e-16,
        epsrel=1e-14, norm="max", limit=2000)[0]
        for lo, hi in zip(edges[:-1], edges[1:]))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_main_term_rejects_nonpositive_q():
    profile = halfspace_profile(gaussian(2))
    with pytest.raises(DomainError):
        ball_main_term(1.0, profile, Indicator(), 0.05, 0.0, 2)


def test_public_api_has_no_accuracy_knobs():
    """The transforms, the oscillatory rule under them and the envelope
    check each run at one fixed accuracy, so no public function, class
    or method takes a knob to change it, and the rule takes only the
    panel floor its two callers set differently."""
    knobs = {"refine", "min_panels", "order", "max_nodes", "slack"}
    found = []
    for obj in (getattr(greyvar, name) for name in greyvar.__all__):
        fns = ([m for m in vars(obj).values() if inspect.isfunction(m)]
               if inspect.isclass(obj) else [obj])
        for fn in fns:
            taken = knobs & set(inspect.signature(fn).parameters)
            found += [f"{fn.__qualname__}({name})" for name in taken]
    assert found == []
    assert list(inspect.signature(oscillatory_nodes).parameters) == [
        "edges", "freq", "min_panels"]


def test_oscillatory_rule_gives_each_gap_one_panel_per_period():
    """Each gap gets max(min_panels, ceil(gap * freq)) panels of 15
    nodes, so no panel spans more than one period, and each gap's rule
    integrates cos(2 pi freq t) to rounding."""
    edges, freq = (0.0, 0.25, 2.5, 2.55), 40.0
    nodes, w = oscillatory_nodes(edges, freq, min_panels=8)
    panels = (10, 90, 8)
    assert nodes.size == w.size == 15 * sum(panels)
    start = 0
    for lo, hi, n in zip(edges[:-1], edges[1:], panels):
        gap = slice(start, start + 15 * n)
        start += 15 * n
        assert lo < nodes[gap].min() and nodes[gap].max() < hi
        got = w[gap] @ np.cos(2 * math.pi * freq * nodes[gap])
        want = (math.sin(2 * math.pi * freq * hi)
                - math.sin(2 * math.pi * freq * lo)) / (2 * math.pi * freq)
        assert got == pytest.approx(want, abs=1e-13)


def test_oscillatory_rule_over_budget_is_truncation_error():
    # the node budget is checked before any node is allocated
    with pytest.raises(TruncationError):
        oscillatory_nodes((0.0, 1.0), freq=1e9, min_panels=8)
