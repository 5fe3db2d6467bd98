"""End-to-end acceptance runs, one test per claim the library makes.

Each test exercises a full pipeline (estimator, exact variance, Monte
Carlo, asymptotics) at desk scale and checks it against an independent
yardstick: the known surface area, the scipy-only spatial oracle, batch
Monte Carlo error bars, or a predicted scaling exponent.  Seeds are
frozen so every run reproduces the numbers below; the tolerances are the
acceptance targets, far looser than the agreement observed when the
seeds were chosen.

The Monte Carlo z-scores were whitened across seeds before freezing:
with 20 batches the standard error of the variance estimate is itself
noisy (the batch variances are chi-square-ish with few degrees of
freedom), which can inflate |z| well past 3 for an ordinary draw.  The
d = 3 runs therefore use 50 batches, and the frozen seed sits near the
center of the cross-seed spread, not at a lucky edge.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from _spatial_oracle import spatial_variance
from greyvar.estimator import Indicator, SmoothPlateau
from greyvar.lattice import unit_lattice
from greyvar.phantom import Ball
from greyvar.psf import compact_bump, gaussian, halfspace_profile
from greyvar.spectral import RadialFourier, ball_main_term, bessel_j
from greyvar.variance import (RadiusDensity, envelope_check,
                              mc_random_radius, mc_surface,
                              variance_asymptotic_isotropic,
                              variance_asymptotic_random_radius,
                              variance_exact_ball, volume_variance_exact,
                              weighted_layer)

Z2 = unit_lattice(2)
GAUSS2 = gaussian(2)
TWO_PI = 2.0 * math.pi


def test_c01_mean_converges_to_surface_area():
    """Matched resolution a = b: the Monte Carlo mean bias against the
    true circumference 2 pi shrinks along the grid and ends below 2%."""
    biases = []
    for a in (0.1, 0.05, 0.025):
        mc = mc_surface(Ball(2, 1.0), GAUSS2, Indicator(0.3, 0.7), a,
                        Z2, a, 2000, seed=101)
        biases.append(abs(mc.mean - TWO_PI))
    assert biases[0] > biases[1] > biases[2]
    assert biases[2] <= 0.02 * TWO_PI


def test_c02_dual_sum_equals_spatial_oracle():
    """The package's dual-shell variance against the scipy-only
    autocorrelation route (no Fourier analysis): same number to 1e-3
    relative, observed agreement ~3.5e-6 at the dual sum's 1e-3
    tolerance."""
    R, a, b = 1.0, 0.05, 0.05
    f = SmoothPlateau()
    oracle = spatial_variance(f, R, a, b)
    rep = variance_exact_ball(Ball(2, R), GAUSS2, f, a, Z2, b)
    assert rep.shells.converged
    assert rep.value == pytest.approx(oracle, rel=1e-3)


def test_c03_exact_variance_within_mc_error():
    """Exact lattice-sum variance vs 1e4-replicate Monte Carlo, within
    3 batch standard errors for Gaussian and compact-bump kernels in
    d = 2 and d = 3."""
    configs = [(gaussian(2), 2), (gaussian(3), 3),
               (compact_bump(2), 2), (compact_bump(3), 3)]
    for psf, d in configs:
        latt = unit_lattice(d)
        ex = variance_exact_ball(Ball(d, 1.0), psf, Indicator(0.3, 0.7),
                                 0.05, latt, 0.05)
        mc = mc_surface(Ball(d, 1.0), psf, Indicator(0.3, 0.7), 0.05,
                        latt, 0.05, 10000, seed=99, n_batches=50)
        z = (mc.variance - ex.value) / mc.variance_se
        assert abs(z) < 3.0, f"dim={d} kernel={psf.kind}: z={z:+.2f}"


def test_c04_variance_slope_is_dimension_minus_one():
    """Empirical variance ~ a^{d-1} at matched resolution; the fitted
    log-log slope lands within 0.3 of d - 1 for d = 2 and d = 3.  The
    exact slope is not (d-1) on any finite grid (the oscillating factor
    moves individual points), so the window is genuinely needed."""
    grid = np.array([0.1, 0.05, 0.025])
    for d in (2, 3):
        latt = unit_lattice(d)
        vals = [mc_surface(Ball(d, 1.0), gaussian(d), Indicator(0.3, 0.7),
                           a, latt, a, 2000, seed=303).variance
                for a in grid]
        slope = np.polyfit(np.log(grid), np.log(vals), 1)[0]
        assert slope == pytest.approx(d - 1, abs=0.3), f"dim={d}"


def test_c05_fine_lattice_slope_is_two_d():
    """With b = a^2 the exact variance scales like a^{-2} b^{d+1} =
    a^{2d}; the fitted slope over a four-point grid is 4 +- 0.4 in
    d = 2."""
    grid = np.array([0.12, 0.1, 0.08, 0.06])
    vals = []
    for a in grid:
        rep = variance_exact_ball(Ball(2, 1.0), GAUSS2, Indicator(0.3, 0.7),
                                  a, Z2, a * a)
        assert rep.shells.converged
        vals.append(rep.value)
    slope = np.polyfit(np.log(grid), np.log(vals), 1)[0]
    assert slope == pytest.approx(4.0, abs=0.4)


def test_c06_random_radius_matches_lattice_sum():
    """Random ball radius with a C^3 bump density on [1, 2]: the mean
    conditional Monte Carlo variance lands within 15% of the closed
    lattice-sum prediction (the oscillating term has been averaged
    away, so the prediction is a number, not a band)."""
    a = 0.025
    density = RadiusDensity(1.0, 2.0)
    asym = variance_asymptotic_random_radius(GAUSS2, Indicator(0.3, 0.7),
                                             Z2, a, density)
    mc = mc_random_radius(GAUSS2, Indicator(0.3, 0.7), a, Z2, a, density,
                          n_radii=200, n_shifts=200, seed=11)
    assert mc.variance / a == pytest.approx(asym.main / a, rel=0.15)


def test_c07_layer_transform_main_term_rate():
    """The stationary-phase main term closes on the exact weighted-layer
    transform at rate ~(Rq)^{-1} or better: windowed RMS gaps over
    q in {10, 20, 40, 80} (with a q fixed) fit a decay rate >= 0.8."""
    psf, f, R = GAUSS2, SmoothPlateau(), 1.0
    profile = halfspace_profile(psf)
    centers = np.array([10.0, 20.0, 40.0, 80.0])
    gaps = []
    for q in centers:
        a = 0.5 / q
        layer = weighted_layer(R, psf, a, f)
        qs = np.linspace(q * 0.96, q * 1.04, 41)
        exact = layer.at(qs)
        main = ball_main_term(R, profile, f, a, qs, 2)
        scale = math.sqrt(float(np.mean(exact ** 2)))
        gaps.append(math.sqrt(float(np.mean((exact - main) ** 2))) / scale)
    rate = -np.polyfit(np.log(centers), np.log(gaps), 1)[0]
    assert rate >= 0.8
    assert gaps[-1] < gaps[0]


def test_c08_volume_baselines():
    """Binary volume variance scales like b^{d+1} (slope 3 +- 0.4 in
    d = 2); blurring before thresholding can only help, so the grey
    variance stays at or below the binary one at every resolution."""
    bs = np.array([0.04, 0.02, 0.01])
    binary, grey = [], []
    for b in bs:
        rb = volume_variance_exact(1.0, Z2, b)
        rg = volume_variance_exact(1.0, Z2, b, psf=GAUSS2, a=b / 2.0)
        binary.append(rb.value)
        grey.append(rg.value)
    slope = np.polyfit(np.log(bs), np.log(binary), 1)[0]
    assert slope == pytest.approx(3.0, abs=0.4)
    for g, v in zip(grey, binary):
        assert 0.0 < g <= v


def test_c09_radial_kernel_oracles():
    """The Hankel-type quadrature reproduces the Gaussian's analytic
    transform to 1e-8, and the Bessel evaluator puts the first J_0 zero
    where the classical tables do."""
    q = np.array([0.0, 0.05, 0.1, 0.2, 0.35, 0.5])
    want = np.exp(-2.0 * math.pi ** 2 * q * q)
    for dim in (2, 3):
        rf = RadialFourier(
            lambda r: (2.0 * math.pi) ** (-dim / 2.0) * np.exp(-r * r / 2.0),
            0.0, 14.0, dim)
        np.testing.assert_allclose(rf.at(q), want, rtol=1e-8)
    zero = brentq(lambda x: float(bessel_j(0.0, x)), 2.0, 3.0, xtol=1e-13)
    assert zero == pytest.approx(2.404825557695773, abs=1e-10)


def test_c10_oscillation_stays_in_envelope():
    """Over a dense a-grid near 0.05 the rescaled exact variance stays
    inside the band [0, 2 * main] (5% slack) and its running maximum
    climbs to within 10% of the upper edge: the oscillation is real,
    bounded, and nearly attains the envelope."""
    f = SmoothPlateau()
    rel = []
    for a in np.linspace(0.04, 0.06, 161):
        rep = variance_exact_ball(Ball(2, 1.0), GAUSS2, f, a, Z2, a)
        asym = variance_asymptotic_isotropic(TWO_PI, GAUSS2, f, Z2, a)
        assert envelope_check(rep, asym)
        rel.append(rep.value / asym.main)
    assert max(rel) >= 0.9 * 2.0
