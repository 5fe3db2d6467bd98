"""Variance engine against independent oracles.

The load-bearing check is the spatial-domain route: the estimator on a
shifted lattice is a periodic function of the shift, so its variance is
an autocorrelation lattice sum with no Fourier analysis involved.  That
number, built here from the noncentral chi-square intensity and plain
Gauss quadrature, must match the package's dual-shell sum.  The dual-sum
engine itself is pinned by the Jacobi theta identity, and the asymptotic
and bound layers by frozen constants and structural properties.
"""

import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad, quad_vec
from scipy.optimize import brentq
from scipy.special import j0
from scipy.stats import ncx2, norm

from greyvar import cli, lattice, phantom, spectral, variance
from greyvar.errors import DomainError, TruncationError
from greyvar.estimator import Indicator, SmoothPlateau, weight_lipschitz
from greyvar.lattice import Lattice, hexagonal_lattice, unit_lattice
from greyvar.phantom import Ball, HalfSpace, cached_knot_radii
from greyvar.psf import (ball_indicator, ball_volume, compact_bump, gaussian,
                         halfspace_profile, sphere_area)
from greyvar.spectral import AnnulusFourier
from greyvar.variance import (AsymptoticReport, RadiusDensity,
                              ShellSumInfo, VarianceReport,
                              convergent_dual_sum, mc_random_radius,
                              mc_surface, mc_volume_binary,
                              profile_lattice_sum,
                              variance_asymptotic_isotropic,
                              variance_asymptotic_random_radius,
                              variance_bound_check, variance_exact_ball,
                              volume_variance_exact, weighted_layer)

Z2 = unit_lattice(2)
Z3 = unit_lattice(3)
GAUSS2 = gaussian(2)


# the coordinate-loop, sqrt and model-intensity Monte Carlo kernel
import _mc_oracle as mc_oracle
# the dual-shell sums of the indicator and binary-volume variances and LS
import _dual_oracle as dual_oracle
# the radial cap quadrature of a ball's grey values
from _cap_oracle import cap_quadrature
# independent grey-layer pieces built on scipy only; shared with the
# acceptance suite
from _spatial_oracle import (alpha_quad as _alpha_quad,
                             crossing as _crossing,
                             spatial_variance as _spatial_variance,
                             theta_ball as _theta_ball)


# ---------------------------------------------------------------------------
# the dual-sum engine

def test_dual_sum_matches_theta_identity():
    """sum_{xi in Z^2, xi != 0} exp(-|xi|^2) has the closed form
    theta_3(e^{-1})^2 - 1."""
    s1 = 1.0 + 2.0 * sum(math.exp(-k * k) for k in range(1, 12))
    want = s1 * s1 - 1.0
    got, info = convergent_dual_sum(Z2, lambda q: np.exp(-q * q),
                                    tail_tol=1e-12)
    assert info.converged
    assert got == pytest.approx(want, rel=1e-13)


def test_dual_sum_hexagonal_vs_enumeration():
    hexl = hexagonal_lattice()
    pts = dual_oracle.dual_points(hexl, 9.0)
    want = float(np.exp(-np.sum(pts ** 2, axis=1)).sum())
    got, _ = convergent_dual_sum(hexl, lambda q: np.exp(-q * q),
                                 tail_tol=1e-12)
    assert got == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------------------
# exact variance against the spatial-domain oracle

def test_spatial_autocorrelation_oracle():
    """The variance of the estimator over a uniform lattice shift,
    computed with no Fourier analysis at all:

        Var = (a alpha)^{-2} (b^d sum_{w in Z^d} C_g(b|w|) - (int g)^2),

    C_g the autocorrelation of the grey layer.  This is the independent
    check of the whole dual-shell pathway; the two routes agreed to
    3e-8 relative when frozen."""
    R, a, b = 1.0, 0.05, 0.05
    f = SmoothPlateau()
    var_spatial = _spatial_variance(f, R, a, b)
    rep = variance_exact_ball(Ball(2, R), GAUSS2, f, a, Z2, b)
    assert rep.shells.converged
    assert rep.value == pytest.approx(var_spatial, rel=1e-4)


def test_weighted_layer_indicator_is_annulus():
    """For the indicator weight the grey layer is exactly the indicator
    of the annulus between the intensity's band-edge crossings."""
    R, a = 1.0, 0.05
    layer = weighted_layer(R, GAUSS2, a, Indicator(0.3, 0.7))
    assert isinstance(layer, AnnulusFourier)
    assert layer.r_lo == pytest.approx(_crossing(0.7, R, a), abs=1e-9)
    assert layer.r_hi == pytest.approx(_crossing(0.3, R, a), abs=1e-9)


def _plateau_layer_quad(R, psf, a, f, qs):
    """The layer transform of f(theta(r)) by scipy's adaptive quad_vec
    split at the knot radii.  The Gaussian's grey value is the
    noncentral chi-square cdf with d degrees of freedom, the bump's the
    point evaluation `intensity`; the knot radii are their brentq
    roots."""
    dim = psf.dim
    if psf.compact:
        theta = lambda r: phantom.intensity(Ball(dim, R), psf, a,
                                            np.eye(dim)[0] * r)
    else:
        theta = lambda r: ncx2.cdf((R / a) ** 2, df=dim, nc=(r / a) ** 2)
    cuts = sorted(brentq(lambda r: theta(r) - y, R - 8 * a, R + 8 * a,
                         xtol=1e-15) for y in f.knots)
    if dim == 2:  # 2 pi J_0(2 pi q r) r
        kernel = lambda r: 2 * math.pi * r * j0(2 * math.pi * qs * r)
    else:  # 2 pi q^{-1/2} J_{1/2}(2 pi q r) r^{3/2} = 4 pi r^2 sinc(2 q r)
        kernel = lambda r: 4 * math.pi * r * r * np.sinc(2 * qs * r)
    return sum(quad_vec(lambda r: float(f(theta(r))) * kernel(r), lo, hi,
                        epsabs=1e-16, epsrel=1e-14, norm="max",
                        limit=2000)[0]
               for lo, hi in zip(cuts[:-1], cuts[1:]))


def test_weighted_layer_plateau_vs_quad():
    """Hankel quadrature of the plateau layer against scipy's adaptive
    quad_vec split at the knot radii (_plateau_layer_quad), to 1e-12
    relative (and 1e-12 of the largest value where the transform is
    small)."""
    R, a, f = 1.0, 0.05, SmoothPlateau()
    qs = np.array([7.0, 30.0, 212.0])
    for psf in (GAUSS2, gaussian(3), compact_bump(2), compact_bump(3)):
        want = _plateau_layer_quad(R, psf, a, f, qs)
        got = weighted_layer(R, psf, a, f).at(qs)
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("f,flats", [
    (SmoothPlateau(), ((1, 1.0),)),
    (SmoothPlateau(0.3, 0.5, 0.5, 0.7), ())])
def test_weighted_layer_takes_flats_in_closed_form(dim, f, flats):
    """The plateau is 1 at both inner knots, so the layer is 1 on the
    gap between their radii: that gap is a closed-form annulus and only
    the ramps take quadrature.  A zero-width gap (beta_inner ==
    omega_inner) is no flat.  Either way the layer agrees with the
    quadrature of the whole layer (_plateau_layer_quad) to 1e-12, at
    q = 0 too."""
    R, a, psf = 1.0, 0.05, gaussian(dim)
    layer = weighted_layer(R, psf, a, f)
    assert layer.flats == flats
    qs = np.array([0.0, 7.0, 30.0, 212.0])
    want = _plateau_layer_quad(R, psf, a, f, qs)
    np.testing.assert_allclose(layer.at(qs), want, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(want)))
    assert layer.at(0.0) == pytest.approx(want[0], rel=1e-12)


def test_dual_sum_builds_one_rule_per_panel_counts(monkeypatch):
    """The rungs of a dual sum that ask the layer for the same per-gap
    panel counts share one rule: the layer reads its intensity model
    once per distinct tuple of counts, not once per rung."""
    a, f = 0.0125, SmoothPlateau()
    layer = weighted_layer(1.0, compact_bump(2), a, f)
    reads, panels = [], []
    radial = phantom.IntensityModel.radial
    monkeypatch.setattr(phantom.IntensityModel, "radial",
                        lambda self, r: reads.append(r) or radial(self, r))
    counts = spectral.oscillatory_panels
    monkeypatch.setattr(spectral, "oscillatory_panels", lambda *args: (
        panels.append(layer._panels(counts(*args))) or counts(*args)))
    convergent_dual_sum(Z2, lambda q: layer.at(q / a) ** 2, tail_tol=1e-3)
    assert len(panels) > len(set(panels)) >= 1
    assert len(reads) == len(set(panels))
    # a second sum reads the model no more
    convergent_dual_sum(Z2, lambda q: layer.at(q / a) ** 2, tail_tol=1e-3)
    assert len(reads) == len(set(panels))


def test_variance_scale_identity():
    """Scaling the ball by R and the resolutions by 1/R multiplies the
    layer transform by R^d at frequency R q and the variance by
    R^{2(d-1)}; both identities hold to quadrature accuracy."""
    R, a, b = 1.7, 0.05, 0.05
    f = SmoothPlateau()
    lay_R = weighted_layer(R, GAUSS2, a, f)
    lay_1 = weighted_layer(1.0, GAUSS2, a / R, f)
    qs = np.array([3.0, 11.0, 29.0, 57.0])
    np.testing.assert_allclose(lay_R.at(qs), R ** 2 * lay_1.at(R * qs),
                               rtol=1e-6)
    v_R = variance_exact_ball(Ball(2, R), GAUSS2, f, a, Z2, b)
    v_1 = variance_exact_ball(Ball(2, 1.0), GAUSS2, f, a / R, Z2, b / R)
    assert v_R.value == pytest.approx(R ** 2 * v_1.value, rel=1e-6)


def test_exact_variance_frozen_value():
    # indicator weight, a = b = 0.05: the finite primal sum.  The dual
    # sum approaches it like 1/xi from below: 0.0338311, 0.0338384 and
    # 0.0338420 at xi = 2000, 4000 and 8000, extrapolating to 0.0338456
    rep = variance_exact_ball(Ball(2, 1.0), GAUSS2, Indicator(), 0.05,
                              Z2, 0.05)
    assert rep.value == pytest.approx(3.384560e-2, rel=1e-4)
    assert rep.shells.converged
    assert rep.alpha == pytest.approx(2.0 * norm.ppf(0.7), rel=1e-9)


# ---------------------------------------------------------------------------
# finite primal sums against the dual-shell oracle

@pytest.mark.parametrize("latt, xi_cap", [(Z2, 1000.0),
                                          (hexagonal_lattice(), 256.0),
                                          (unit_lattice(3), 300.0)])
def test_indicator_primal_sum_vs_dual(latt, xi_cap):
    """Every dual term is positive, so the capped dual sum falls short
    of the primal value by no more than its own tail bound."""
    d, a = latt.dim, 0.1
    psf = gaussian(d)
    rep = variance_exact_ball(Ball(d, 1.0), psf, Indicator(), a, latt, a)
    assert rep.shells.converged and rep.shells.xi_max == math.inf
    scale = (a * rep.alpha) ** 2
    r_in, r_out = cached_knot_radii(1.0, psf, a, (0.3, 0.7))
    dual, info = dual_oracle.annulus_variance_raw(r_in, r_out, latt, a,
                                                  xi_cap=xi_cap)
    rounding = rep.shells.tail_bound * scale
    primal = rep.value * scale
    assert -rounding <= primal - dual <= info.tail_bound + rounding


@pytest.mark.parametrize("latt, xi_cap", [(Z2, 1000.0),
                                          (unit_lattice(3), 300.0)])
def test_binary_volume_primal_sum_vs_dual(latt, xi_cap):
    rep = volume_variance_exact(1.0, latt, 0.05)
    assert rep.shells.converged
    dual, info = dual_oracle.ball_variance_raw(1.0, latt, 0.05,
                                               xi_cap=xi_cap)
    rounding = rep.shells.tail_bound
    assert -rounding <= rep.value - dual <= info.tail_bound + rounding


@pytest.mark.parametrize("latt, xi_cap", [(Z2, 1024.0),
                                          (hexagonal_lattice(), 256.0),
                                          (unit_lattice(3), 1024.0)])
@pytest.mark.parametrize("kernel", [gaussian, compact_bump])
def test_indicator_lattice_sum_vs_dual(latt, xi_cap, kernel):
    """The closed-form LS against the mean-corrected dual sum.  The dual
    tail bound is loose; the two agreed to 1.1e-6 relative or better
    (the hexagonal lattice at xi = 256) when written."""
    profile = halfspace_profile(kernel(latt.dim))
    w = profile.phi(0.3) - profile.phi(0.7)
    ls, info = profile_lattice_sum(Indicator(), profile, latt)
    assert info.converged and info.xi_max == math.inf
    dual, dual_info = dual_oracle.indicator_lattice_sum(w, latt,
                                                        xi_cap=xi_cap)
    assert abs(ls - dual) <= dual_info.tail_bound + info.tail_bound
    assert ls == pytest.approx(dual, rel=1e-5)


@pytest.mark.parametrize("latt", [Z2, hexagonal_lattice()])
def test_indicator_lattice_sum_certificate(latt, monkeypatch):
    """The d=2 remainder is summed out to a fixed reach and its tail
    bracketed; summing four times further lands inside the bound, for
    the indicator's closed-form autocorrelation and a smooth weight's
    quadrature alike."""
    profile = halfspace_profile(GAUSS2)
    for f in (Indicator(), SmoothPlateau()):
        near, near_info = variance._lattice_sum(f, profile, latt)
        with monkeypatch.context() as m:
            m.setattr(variance, "_LS_REACH", 4.0 * variance._LS_REACH)
            far, far_info = variance._lattice_sum(f, profile, latt)
        assert far_info.tail_bound < near_info.tail_bound / 10.0
        assert (abs(near - far)
                <= near_info.tail_bound + far_info.tail_bound)


@pytest.mark.parametrize("latt", [Z2, hexagonal_lattice(), unit_lattice(3)])
@pytest.mark.parametrize("kernel", [gaussian, compact_bump])
@pytest.mark.parametrize("f", [SmoothPlateau(),
                               SmoothPlateau(0.2, 0.35, 0.65, 0.8)])
def test_lattice_sum_vs_dual(latt, kernel, f):
    """The primal LS of a smooth weight against the dual-shell sum of
    its squared profile transform.  Every dual term is positive, so the
    truth lies between the dual partial sum and that plus its tail
    bound, and the primal value within its own tail_bound of the truth.
    The oscillatory rule is split at the knot images, so its base panel
    count is accurate to rounding."""
    profile = halfspace_profile(kernel(latt.dim))
    ls, info = profile_lattice_sum(f, profile, latt)
    assert info.converged and info.xi_max == math.inf
    dual, dual_info = dual_oracle.profile_lattice_sum(f, profile, latt,
                                                      tail_tol=1e-7)
    assert dual_info.converged
    assert (-info.tail_bound <= ls - dual
            <= dual_info.tail_bound + info.tail_bound)


def _lens_extended(r1, r2, s, dim):
    """Intersection measure of two balls in long double, by the arccos
    form (d=2) and as two spherical caps (d=3)."""
    r1, r2, s = (np.longdouble(v) for v in (r1, r2, s))
    if s >= r1 + r2:
        return np.longdouble(0)
    small = min(r1, r2)
    if s <= abs(r1 - r2):
        return (np.longdouble(math.pi) * small ** 2 if dim == 2
                else np.longdouble(4) / 3 * np.longdouble(math.pi)
                * small ** 3)
    d1 = (s * s + r1 * r1 - r2 * r2) / (2 * s)
    d2 = s - d1
    if dim == 2:
        prod = (r1 + r2 - s) * (s + r1 - r2) * (s - r1 + r2) * (r1 + r2 + s)
        return (r1 * r1 * np.arccos(d1 / r1) + r2 * r2 * np.arccos(d2 / r2)
                - np.sqrt(prod) / 2)
    h1, h2 = r1 - d1, r2 - d2
    return np.longdouble(math.pi) / 3 * (h1 * h1 * (3 * r1 - h1)
                                         + h2 * h2 * (3 * r2 - h2))


@pytest.mark.parametrize("dim", [2, 3])
def test_primal_rounding_bound_covers_extended_precision(dim):
    """tail_bound of a finite primal sum bounds its rounding: the same
    sum over brute-force points in long double lands inside it."""
    a = b = 0.1
    psf = gaussian(dim)
    rep = variance_exact_ball(Ball(dim, 1.0), psf, Indicator(), a,
                              unit_lattice(dim), b)
    r_in, r_out = cached_knot_radii(1.0, psf, a, (0.3, 0.7))
    reach = int(2 * r_out / b) + 1
    span = np.arange(-reach, reach + 1)
    grids = np.meshgrid(*([span] * dim), indexing="ij")
    nsq = sum(g.astype(np.int64) ** 2 for g in grids).ravel()
    counts = np.bincount(nsq)
    total = np.longdouble(0)
    for n in np.flatnonzero(counts):
        s = np.longdouble(b) * np.sqrt(np.longdouble(int(n)))
        c = (_lens_extended(r_out, r_out, s, dim)
             - 2 * _lens_extended(r_out, r_in, s, dim)
             + _lens_extended(r_in, r_in, s, dim))
        total += int(counts[n]) * c
    mass = (np.longdouble(ball_volume(dim, 1.0))
            * (np.longdouble(r_out) ** dim - np.longdouble(r_in) ** dim))
    want = np.longdouble(b) ** dim * total - mass * mass
    scale = (a * rep.alpha) ** 2
    got = rep.value * scale
    assert abs(np.longdouble(got) - want) <= rep.shells.tail_bound * scale


@pytest.mark.parametrize("dim", [2, 3])
def test_indicator_and_binary_sums_need_no_dual_shells(dim, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dual_shells called")

    monkeypatch.setattr(lattice, "dual_shells", refuse)
    variance._cached_lattice_sum.cache_clear()
    psf, latt = gaussian(dim), unit_lattice(dim)
    reports = [
        variance_exact_ball(Ball(dim, 1.0), psf, Indicator(), 0.05, latt,
                            0.05),
        volume_variance_exact(1.0, latt, 0.05),
        variance_asymptotic_isotropic(sphere_area(dim), psf, Indicator(),
                                      latt, 0.05),
        variance_asymptotic_isotropic(sphere_area(dim), psf,
                                      SmoothPlateau(), latt, 0.05)]
    assert all(r.shells.converged for r in reports)
    assert all(r.shells.xi_max == math.inf for r in reports)
    variance._cached_lattice_sum.cache_clear()
    # the grey volume keeps the dual route
    with pytest.raises(AssertionError, match="dual_shells called"):
        volume_variance_exact(1.0, latt, 0.05, psf=psf, a=0.05)


# ---------------------------------------------------------------------------
# truncation policy

# (the dual routes: smooth weights and the grey volume)

def _force_dual_sum(monkeypatch, **forced):
    """Make every dual sum of the variance module run with `forced`
    in place of its own truncation arguments."""
    real = variance.convergent_dual_sum
    monkeypatch.setattr(
        variance, "convergent_dual_sum",
        lambda *args, **kwargs: real(*args, **{**kwargs, **forced}))


def test_unconverged_dual_sum_is_refused(monkeypatch):
    """A dual sum cut off before it converges raises, naming the dual
    radius it reached; it suggests no knob, since there is none."""
    _force_dual_sum(monkeypatch, xi_cap=3.0)
    calls = [lambda: variance_exact_ball(Ball(2, 1.0), GAUSS2,
                                         SmoothPlateau(), 0.05, Z2, 0.05),
             lambda: volume_variance_exact(1.0, Z2, 0.05, psf=GAUSS2,
                                           a=0.05)]
    for call in calls:
        with pytest.raises(TruncationError, match=r"dual radius 3\b") as err:
            call()
        assert "xi_cap" not in str(err.value)


def test_primal_sum_over_sieve_budget_allocates_nothing(monkeypatch):
    """A finite primal sum too wide for the shell sieve is refused
    before any table exists, with the radius it asked for; no xi_cap
    applies to it, so none is suggested.  The band radii of the ball
    (its cached Chebyshev model) are built first, so the traced window
    holds only the refusal and the test passes in any order."""
    monkeypatch.setattr(lattice, "_SHELL_TABLES", {})
    f = Indicator()
    cached_knot_radii(1.0, gaussian(3), 0.05, (f.knots[0], f.knots[-1]))
    tracemalloc.start()
    try:
        with pytest.raises(TruncationError, match="radius") as err:
            variance_exact_ball(Ball(3, 1.0), gaussian(3), f,
                                0.05, unit_lattice(3), 2e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert "xi_cap" not in str(err.value)


def test_capped_sum_under_one_percent_is_refused(monkeypatch):
    """A sum that stops at its cap is refused even when its tail bound
    is far under 1% of the value: no report is ever unconverged."""
    args = (Ball(2, 1.0), GAUSS2, SmoothPlateau(), 0.05, Z2, 0.05)
    rep = variance_exact_ball(*args)
    assert rep.shells.converged
    assert rep.shells.tail_bound < 1e-3 * rep.value
    _force_dual_sum(monkeypatch, tail_tol=1e-10, xi_cap=40.0)
    with pytest.raises(TruncationError, match="dual radius 40"):
        variance_exact_ball(*args)


# ---------------------------------------------------------------------------
# lattice sums and asymptotics

def test_profile_lattice_sum_frozen_values():
    prof = halfspace_profile(GAUSS2)
    ls_ind, info = profile_lattice_sum(Indicator(), prof, Z2)
    assert ls_ind == pytest.approx(0.337933407, rel=1e-6)
    ls_pl, _ = profile_lattice_sum(SmoothPlateau(), prof, Z2)
    assert ls_pl == pytest.approx(0.259998438, rel=1e-5)


def test_profile_lattice_sum_tolerance_stability(monkeypatch):
    """The certificate covers the quadrature: rules with four times the
    panels land inside the default tail_bound."""
    prof = halfspace_profile(GAUSS2)
    for latt in (Z2, unit_lattice(3)):
        for f in (Indicator(), SmoothPlateau(),
                  SmoothPlateau(0.2, 0.35, 0.65, 0.8)):
            ls, info = variance._lattice_sum(f, prof, latt)
            with monkeypatch.context() as m:
                m.setattr(variance, "_LS_PANELS", 4 * variance._LS_PANELS)
                fine, _ = variance._lattice_sum(f, prof, latt)
            assert abs(fine - ls) <= info.tail_bound


def test_lattice_sum_cached_per_arguments():
    prof = halfspace_profile(GAUSS2)
    first = profile_lattice_sum(SmoothPlateau(), prof, Z2)
    assert profile_lattice_sum(SmoothPlateau(), prof, Z2) is first
    assert profile_lattice_sum(SmoothPlateau(), prof,
                               hexagonal_lattice()) is not first
    # the shared record cannot be changed by a caller
    with pytest.raises(dataclasses.FrozenInstanceError):
        first[1].converged = False


def test_lattice_sum_of_unhashable_weight():
    class Unhashable:
        __hash__ = None

        def __init__(self):
            self._f = SmoothPlateau()
            self.knots = self._f.knots

        def __call__(self, values):
            return self._f(values)

    prof = halfspace_profile(GAUSS2)
    got, info = profile_lattice_sum(Unhashable(), prof, Z2)
    want, want_info = profile_lattice_sum(SmoothPlateau(), prof, Z2)
    assert got == want
    assert info == want_info


def test_asymptotic_report_structure():
    surface = 2.0 * math.pi
    rep = variance_asymptotic_isotropic(surface, GAUSS2, Indicator(),
                                        Z2, 0.05)
    alpha = 2.0 * norm.ppf(0.7)
    pref = 2.0 / sphere_area(2) / alpha ** 2 * surface
    assert rep.prefactor == pytest.approx(pref, rel=1e-9)
    assert rep.main == pytest.approx(0.05 * pref * rep.lattice_sum,
                                     rel=1e-12)
    assert rep.envelope == pytest.approx(2.0 * rep.main, rel=1e-12)


def envelope_check(report: VarianceReport, asym: AsymptoticReport) -> bool:
    """Exact variance must lie inside the oscillation band [0, 2 * main]
    up to a relative slack of 5%: [-0.05 main, 1.05 envelope]."""
    return -0.05 * asym.main <= report.value <= 1.05 * asym.envelope


def test_exact_sits_inside_oscillation_band():
    f = Indicator()
    rep = variance_exact_ball(Ball(2, 1.0), GAUSS2, f, 0.05, Z2, 0.05)
    asym = variance_asymptotic_isotropic(2.0 * math.pi, GAUSS2, f, Z2,
                                         0.05)
    assert envelope_check(rep, asym)
    assert 0.0 < rep.value < 2.05 * asym.main


def test_envelope_check_slack():
    info = ShellSumInfo(xi_max=1.0, n_shells=1, tail_bound=0.0,
                        converged=True)
    asym = AsymptoticReport(main=1.0, envelope=2.0, lattice_sum=1.0,
                            prefactor=1.0, a=0.05, shells=info)
    mk = lambda v: VarianceReport(value=v, a=0.05, b=0.05, alpha=1.0,
                                  shells=info)
    assert envelope_check(mk(1.9), asym)
    assert envelope_check(mk(2.09), asym)
    assert not envelope_check(mk(2.11), asym)
    assert not envelope_check(mk(-0.06), asym)


# ---------------------------------------------------------------------------
# random radius

def test_radius_density_properties():
    dens = RadiusDensity(1.0, 2.0)
    total, err = quad(lambda s: float(dens.pdf(s)), 1.0, 2.0)
    assert total == pytest.approx(1.0, abs=1e-10)
    assert dens.pdf(0.99) == 0.0 and dens.pdf(2.01) == 0.0
    # symmetric density: first moment is the midpoint
    assert dens.mean_power(0) == 1.0
    assert dens.mean_power(1) == 1.5
    rng = np.random.default_rng(3)
    draws = dens.sample(rng, 20000)
    assert np.all((draws > 1.0) & (draws < 2.0))
    assert draws.mean() == pytest.approx(1.5, abs=0.005)
    m2, _ = quad(lambda s: s * s * float(dens.pdf(s)), 1.0, 2.0)
    assert np.mean(draws ** 2) == pytest.approx(m2, abs=0.02)
    for s0, s1 in ((2.0, 1.0), (1.0, math.inf), (1.0, math.nan),
                   (math.nan, 2.0)):
        with pytest.raises(DomainError):
            RadiusDensity(s0, s1)


@pytest.mark.parametrize("s0, s1", [(1.0, 2.0), (0.5, 3.0), (0.2, 0.25)])
def test_radius_density_moments_vs_quadrature(s0, s1):
    """The binomial closed form of E[s^k] against scipy quadrature of
    s^k times the density 630 x^4 (1-x)^4 / w, x = (s - s0)/w."""
    dens, w = RadiusDensity(s0, s1), s1 - s0
    pdf = lambda s: 630.0 * ((s - s0) / w) ** 4 * ((s1 - s) / w) ** 4 / w
    for k in range(4):
        want, _ = quad(lambda s: s ** k * pdf(s), s0, s1, epsabs=0,
                       epsrel=1e-13)
        assert dens.mean_power(k) == pytest.approx(want, rel=1e-15)


def test_random_radius_asymptotics():
    dens = RadiusDensity(1.0, 2.0)
    rep = variance_asymptotic_random_radius(GAUSS2, SmoothPlateau(), Z2,
                                            0.05, dens)
    iso = variance_asymptotic_isotropic(2.0 * math.pi * 1.5, GAUSS2,
                                        SmoothPlateau(), Z2, 0.05)
    assert rep.main == pytest.approx(iso.main, rel=1e-10)
    # oscillation averaged out: predicted value, not a band
    assert rep.envelope == rep.main


# ---------------------------------------------------------------------------
# Monte Carlo

def test_mc_surface_matches_exact():
    mc = mc_surface(Ball(2, 1.0), GAUSS2, SmoothPlateau(), 0.1, Z2, 0.1,
                    4000, seed=0)
    ex = variance_exact_ball(Ball(2, 1.0), GAUSS2, SmoothPlateau(), 0.1,
                             Z2, 0.1)
    assert abs(mc.variance - ex.value) < 4.0 * mc.variance_se
    assert mc.mean == pytest.approx(2.0 * math.pi, rel=0.01)
    assert mc.n == 4000 and mc.n_batches == 20


@pytest.mark.parametrize("f", [Indicator(), SmoothPlateau()],
                         ids=["indicator", "plateau"])
def test_mc_surface_workers_bit_identical(f):
    kw = dict(n_reps=1000, seed=7)
    one = mc_surface(Ball(2, 1.0), GAUSS2, f, 0.1, Z2, 0.1, workers=1, **kw)
    three = mc_surface(Ball(2, 1.0), GAUSS2, f, 0.1, Z2, 0.1, workers=3,
                       **kw)
    assert one.mean == three.mean
    assert one.variance == three.variance
    np.testing.assert_array_equal(one.batch_means, three.batch_means)


def test_engines_refuse_a_half_space():
    """The variance engines read a ball's radius; a half-space has none
    and is refused by Phantom.radius."""
    half = HalfSpace(2)
    calls = [
        lambda: variance_exact_ball(half, GAUSS2, Indicator(), 0.1, Z2, 0.1),
        lambda: mc_surface(half, GAUSS2, Indicator(), 0.1, Z2, 0.1, 100,
                           seed=0, n_batches=10),
        lambda: mc_volume_binary(half, Z2, 0.1, 100, seed=0, n_batches=10),
        lambda: variance_bound_check(half, GAUSS2, Indicator(), 0.1, Z2,
                                     0.1),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="not a ball"):
            call()


@pytest.mark.parametrize("call", [
    lambda: mc_surface(Ball(2, 1.0), GAUSS2, Indicator(), 0.1, Z3, 0.1, 100,
                       seed=0, n_batches=10),
    lambda: mc_surface(Ball(3, 1.0), GAUSS2, Indicator(), 0.1, Z2, 0.1, 100,
                       seed=0, n_batches=10),
    lambda: variance_exact_ball(Ball(3, 1.0), GAUSS2, Indicator(), 0.1, Z2,
                                0.1),
    lambda: variance_exact_ball(Ball(2, 1.0), GAUSS2, Indicator(), 0.1, Z3,
                                0.1),
    lambda: variance_bound_check(Ball(3, 1.0), GAUSS2, Indicator(), 0.1, Z2,
                                 0.1),
    lambda: mc_volume_binary(Ball(2, 1.0), Z3, 0.1, 100, seed=0,
                             n_batches=10),
    lambda: mc_random_radius(GAUSS2, Indicator(), 0.1, Z3, 0.1,
                             RadiusDensity(), 20, 2, seed=0, n_batches=10),
    lambda: variance_asymptotic_isotropic(2.0 * math.pi, GAUSS2, Indicator(),
                                          Z3, 0.1),
    lambda: variance_asymptotic_random_radius(GAUSS2, Indicator(), Z3, 0.1,
                                              RadiusDensity()),
    lambda: volume_variance_exact(1.0, Z3, 0.1, psf=GAUSS2, a=0.1),
], ids=["mc_surface-lattice", "mc_surface-phantom", "exact-phantom",
        "exact-lattice", "bound_check", "mc_volume_binary",
        "mc_random_radius", "asymptotic", "asymptotic_random_radius",
        "volume_grey"])
def test_engines_refuse_mixed_dimensions(call):
    """A phantom, PSF and lattice of different dimensions are refused,
    not mixed into a number."""
    with pytest.raises(DomainError, match="dimensions differ"):
        call()


def test_mc_validation():
    with pytest.raises(DomainError):
        mc_surface(Ball(2, 1.0), GAUSS2, Indicator(), 0.1, Z2, 0.1, 30,
                   seed=0, n_batches=20)
    with pytest.raises(DomainError):
        mc_surface(Ball(2, 1.0), GAUSS2, Indicator(), 0.1, Z2, 0.1, 100,
                   seed=0, n_batches=1)
    # shapes whose batch or per-radius variances would be NaN
    for n_reps, n_batches in ((100, 1), (30, 20)):
        with pytest.raises(DomainError):
            mc_volume_binary(Ball(2, 1.0), Z2, 0.1, n_reps, seed=0,
                             n_batches=n_batches)
    with pytest.raises(DomainError):
        mc_random_radius(GAUSS2, Indicator(), 0.1, Z2, 0.1, RadiusDensity(),
                         40, 1, seed=0)
    # nonpositive and non-finite scales are refused, not turned into NaN,
    # zero or negative-scale results
    for bad in (-0.1, math.inf, math.nan):
        for a, b in ((bad, 0.1), (0.1, bad)):
            with pytest.raises(DomainError):
                mc_surface(Ball(2, 1.0), GAUSS2, Indicator(), a, Z2, b, 100,
                           seed=0, n_batches=10)
            with pytest.raises(DomainError):
                variance_exact_ball(Ball(2, 1.0), GAUSS2, Indicator(), a,
                                    Z2, b)
            with pytest.raises(DomainError):
                variance_exact_ball(Ball(2, 1.0), GAUSS2, SmoothPlateau(), a,
                                    Z2, b)
            with pytest.raises(DomainError):
                volume_variance_exact(1.0, Z2, b, psf=GAUSS2, a=a)
        with pytest.raises(DomainError):
            volume_variance_exact(1.0, Z2, bad)


@pytest.mark.parametrize("bad", [0.0, -0.05, math.inf, math.nan])
@pytest.mark.parametrize("call, scales", [
    (lambda a, b: variance_exact_ball(Ball(2, 1.0), GAUSS2, Indicator(), a,
                                      Z2, b), "ab"),
    (lambda a, b: variance_exact_ball(Ball(2, 1.0), GAUSS2, SmoothPlateau(),
                                      a, Z2, b), "ab"),
    (lambda a, b: volume_variance_exact(1.0, Z2, b), "b"),
    (lambda a, b: volume_variance_exact(1.0, Z2, b, psf=GAUSS2, a=a), "ab"),
    (lambda a, b: variance_asymptotic_isotropic(2.0 * math.pi, GAUSS2,
                                                Indicator(), Z2, a), "a"),
    (lambda a, b: variance_asymptotic_random_radius(
        GAUSS2, Indicator(), Z2, a, RadiusDensity()), "a"),
    (lambda a, b: variance_bound_check(Ball(2, 1.0), GAUSS2, Indicator(), a,
                                       Z2, b), "ab"),
    (lambda a, b: mc_surface(Ball(2, 1.0), GAUSS2, Indicator(), a, Z2, b,
                             100, seed=0, n_batches=10), "ab"),
    (lambda a, b: mc_surface(Ball(2, 1.0), GAUSS2, SmoothPlateau(), a, Z2,
                             b, 100, seed=0, n_batches=10), "ab"),
    (lambda a, b: mc_volume_binary(Ball(2, 1.0), Z2, b, 100, seed=0,
                                   n_batches=10), "b"),
    (lambda a, b: mc_random_radius(GAUSS2, Indicator(), a, Z2, b,
                                   RadiusDensity(), 20, 2, seed=0,
                                   n_batches=10), "ab"),
], ids=["exact-indicator", "exact-plateau", "volume_binary", "volume_grey",
        "asymptotic", "asymptotic_random_radius", "bound_check",
        "mc_surface-indicator", "mc_surface-plateau", "mc_volume_binary",
        "mc_random_radius"])
def test_engines_refuse_bad_scales(call, scales, bad):
    """Every exact, asymptotic and Monte Carlo entry point refuses each
    scale it reads that is not positive and finite, by one check: 0 is
    not a ZeroDivisionError, and a negative or NaN a is not a negative
    or NaN variance."""
    for name in scales:
        with pytest.raises(DomainError, match=f"scale {name} = .* is not "
                                              f"positive and finite"):
            call(**{"a": 0.1, "b": 0.1, name: bad})


def test_mc_volume_binary_matches_exact():
    ex = volume_variance_exact(1.0, Z2, 0.04)
    mc = mc_volume_binary(Ball(2, 1.0), Z2, 0.04, 4000, seed=1)
    assert abs(mc.variance - ex.value) < 4.0 * mc.variance_se
    assert mc.mean == pytest.approx(math.pi, rel=1e-3)


# the Monte Carlo kernels against tests/_mc_oracle.py

@pytest.mark.parametrize("dim, ab, seed", [(2, 0.05, 3), (2, 0.05, 4),
                                           (3, 0.1, 3), (3, 0.1, 4)])
def test_mc_surface_indicator_equals_oracle(dim, ab, seed):
    """Counting each lattice line's points in the annulus [r_in, r_out]
    in closed form scores every shift as the oracle's point-by-point
    model intensity does; 300 shifts per batch span two of the oracle's
    chunks."""
    psf, latt = gaussian(dim), unit_lattice(dim)
    got = mc_surface(Ball(dim, 1.0), psf, Indicator(), ab, latt, ab, 600,
                     seed, n_batches=2)
    means, variances = mc_oracle.mc_surface(1.0, psf, Indicator(), ab,
                                            latt, ab, 600, seed,
                                            n_batches=2)
    np.testing.assert_array_equal(got.batch_means, means)
    np.testing.assert_array_equal(got.batch_variances, variances)


class _Flat:
    """A weight of 1 on the whole band, so a squared radius that rounding
    carries into a band cell reads 1, not about 0 as at the knots of a
    SmoothPlateau."""

    def __call__(self, y):
        return np.ones_like(y)


@pytest.mark.parametrize("f", [SmoothPlateau(), _Flat()],
                         ids=["plateau", "flat"])
@pytest.mark.parametrize("a", [0.05, 0.85])
def test_in_band_sums_equal_dense_read(a, f):
    """A smooth-weight sampler reads its table only at squared radii in
    the table's band, and its per-shift sums equal the column sums of
    reading every entry bit for bit.  The squared radii include both ends
    of [r_in^2, r_out^2] and their neighbours, the band's own ends, 0 and
    -1e-17, which rounding puts near the centre; at a = 0.85 the band
    reaches the centre (r_in = 0)."""
    r_in, r_out = cached_knot_radii(1.0, GAUSS2, a, (0.3, 0.7))
    assert (r_in == 0.0) == (a == 0.85)
    table = variance._BandTable(
        phantom.intensity_model(1.0, GAUSS2, a), f, r_in, r_out)
    sampler = variance._RadialSampler(Z2, 1.0, r_in, r_out, table, 1.0)
    lo, hi = table.band
    assert lo == (-math.inf if r_in == 0.0 else r_in * r_in - 1e-12 * hi)
    edges = [r_in * r_in, r_out * r_out, lo, hi, 0.0, -1e-17]
    edges += [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)
              if math.isfinite(e)]
    rng = np.random.default_rng(3)
    spread = rng.uniform(-0.01, 1.5 * r_out * r_out, 4000)
    rsq = rng.permutation(np.concatenate([np.repeat(edges, 40), spread]))
    # every entry outside the band reads exactly 0 in the dense read
    outside = rsq[(rsq < lo) | (rsq > hi)]
    assert len(outside) > 1000
    assert not np.any(table(outside.copy()))
    for k in (2, 8, 40):
        grid = rsq[:len(rsq) // k * k].reshape(-1, k)
        dense = table(grid.copy()).sum(axis=0)
        assert np.count_nonzero(dense) == k
        assert np.array_equal(sampler.column_sums(grid), dense)


def test_warm_smooth_batch_allocates_nothing_beyond_two_arrays():
    """A warm group of 40-shift batches of the 892-point bump sampler
    (d = 2, a = b = 0.0125) writes each chunk's squared radii, band masks
    and in-band arrays into the thread's workspaces and reads only the
    in-band entries, so its traced peak (the in-band indices) stays under
    one (N, K) float64 array of its K-shift chunks; reading every entry
    peaked at four."""
    psf, f, a = compact_bump(2, 1.0), SmoothPlateau(), 0.0125
    alpha = variance.alpha_f(f, halfspace_profile(psf))
    sampler = variance._surface_sampler(1.0, psf, f, a, Z2, a, alpha)
    assert sampler.n_points == 892
    width = variance._chunk_width(sampler)
    seeds, sizes = variance._batch_plan(2000, 0, 50)
    (lo, hi), *_ = variance._batch_groups(sizes, width)
    # the group spans several batches and several chunks
    assert hi - lo > 2 and sizes[lo:hi].sum() > 2 * width
    variance._shift_moments(sampler, seeds[lo:hi], sizes[lo:hi])
    tracemalloc.start()
    try:
        variance._shift_moments(sampler, seeds[lo:hi], sizes[lo:hi])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sampler.n_points * width * 8


def test_mc_surface_smooth_weight_matches_oracle():
    """A smooth weight reads a table of f(theta(sqrt s)) within
    variance._BAND_TOL of the intensity model, summed over the points."""
    got = mc_surface(Ball(2, 1.0), GAUSS2, SmoothPlateau(), 0.05, Z2, 0.05,
                     600, 5, n_batches=2)
    means, variances = mc_oracle.mc_surface(1.0, GAUSS2, SmoothPlateau(),
                                            0.05, Z2, 0.05, 600, 5,
                                            n_batches=2)
    np.testing.assert_allclose(got.batch_means, means, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.batch_variances, variances, rtol=1e-12,
                               atol=0)


# skewed lattices: no basis vector is orthogonal to another
SKEW2 = Lattice(((1.0, 0.3), (-0.2, 0.9)))
SKEW3 = Lattice(((1.0, 0.3, -0.2), (0.1, 0.8, 0.25), (-0.15, 0.2, 1.1)))


@pytest.mark.parametrize("latt, b", [(Z2, 0.04), (unit_lattice(3), 0.08),
                                     (hexagonal_lattice(), 0.04),
                                     (SKEW2, 0.04), (SKEW3, 0.08)])
def test_mc_volume_binary_equals_oracle(latt, b):
    """Counting the points of the ball one lattice line at a time scores
    every shift as the oracle's point-by-point test of every point within
    a cell diameter of the ball does."""
    got = mc_volume_binary(Ball(latt.dim, 1.0), latt, b, 600, seed=2,
                           n_batches=2)
    means, variances = mc_oracle.mc_volume_binary(1.0, latt, b, 600, 2,
                                                  n_batches=2)
    np.testing.assert_array_equal(got.batch_means, means)
    np.testing.assert_array_equal(got.batch_variances, variances)


@pytest.mark.parametrize("latt", [Z2, unit_lattice(3), hexagonal_lattice(),
                                  SKEW2, SKEW3],
                         ids=["Z2", "Z3", "hexagonal", "skew2", "skew3"])
@pytest.mark.parametrize("centre", [False, True], ids=["band", "centre"])
def test_line_counts_equal_brute_force(latt, centre):
    """The indicator kernel's count per lattice line is, for every shift,
    the number of points b A (k + u) in the annulus that brute force over
    an integer box finds.  A wide blur (a = 0.85 in d=2, 0.6 in d=3)
    puts the band's inner end at the centre (r_in = 0); shifts with
    coordinates exactly 0 put y on an integer for every line of Z^d, and
    for some lines of the others."""
    d = latt.dim
    psf, f, b = gaussian(d), Indicator(), 0.1
    a = (0.85 if d == 2 else 0.6) if centre else 0.1
    r_in, r_out = cached_knot_radii(1.0, psf, a, (f.beta, f.omega))
    assert (r_in == 0.0) == centre
    sampler = variance._surface_sampler(1.0, psf, f, a, latt, b, 1.0)
    shifts = np.random.default_rng(11).random((24, d))
    shifts[:6, -1] = 0.0
    shifts[6:9, :-1] = 0.0
    shifts[9] = 0.0
    expected = mc_oracle.annulus_counts(latt, b, r_in, r_out, shifts)
    assert np.all(expected > 0)
    np.testing.assert_array_equal(sampler.counts(shifts), expected)


@pytest.mark.parametrize("dim", [2, 3])
def test_line_counts_on_tangent_lines(dim):
    """At b = 1/4 the radii 3/4 and 1 pass exactly through points of
    Z^d/4 and the lines through them are tangent to one sphere or the
    other (radicand exactly 0): points on either sphere are counted, as
    the closed band [r_in, r_out] has it, and a line tangent to the
    inner sphere holds no point inside it."""
    latt, b, r_in, r_out = unit_lattice(dim), 0.25, 0.75, 1.0
    sampler = variance._LineSampler(latt, b, r_in, r_out, 1.0)
    shifts = np.zeros((4, dim))
    shifts[1, 0] = shifts[2, -1] = 0.5
    shifts[3] = 0.5
    expected = mc_oracle.annulus_counts(latt, b, r_in, r_out, shifts)
    np.testing.assert_array_equal(sampler.counts(shifts), expected)
    # the unshifted lattice has points on both spheres
    strict = mc_oracle.annulus_counts(latt, b, r_in * (1 + 1e-9),
                                      r_out * (1 - 1e-9), shifts[:1])
    assert expected[0] > strict[0]


@pytest.mark.parametrize("latt, ab", [(unit_lattice(3), 0.05),
                                      (hexagonal_lattice(), 0.05),
                                      (SKEW3, 0.05)])
def test_annulus_points_drop_only_zero_weight_points(latt, ab):
    """Points a smooth-weight sampler keeps by their cell centre are a
    subset of the oracle's points, and no dropped point gets a nonzero
    weight under any of 1000 random shifts (the sampler's table is not
    read here)."""
    dim = latt.dim
    psf = gaussian(dim)
    f = Indicator()
    model, every = mc_oracle.surface_points(1.0, psf, f, ab, latt, ab)
    r_in, r_out = cached_knot_radii(1.0, psf, ab, (f.beta, f.omega))
    kept = variance._RadialSampler(latt, ab, r_in, r_out, None,
                                   1.0).base_points
    coords = lambda pts: [tuple(k) for k in np.rint(
        np.linalg.solve(latt.basis, pts.T / ab).T).astype(int)]
    kept_keys = set(coords(kept))
    every_keys = coords(every)
    assert kept_keys <= set(every_keys)
    dropped = every[[k not in kept_keys for k in every_keys]]
    assert 0 < len(dropped) < len(every)
    offs = (np.random.default_rng(0).random((1000, dim))
            @ (ab * np.asarray(latt.basis)).T)
    for chunk in np.split(offs, 10):
        r = np.linalg.norm(dropped[:, None, :] + chunk[None, :, :], axis=2)
        assert not np.any(f(model.radial(r)))


@pytest.mark.parametrize("dim, b", [(2, 0.0022), (3, 0.023)])
def test_annulus_points_peak_within_box_budget(monkeypatch, dim, b):
    """Building a smooth-weight sampler's points from a box of about 1e6
    integer points stays within the 32 d bytes per box point that the
    box's budget check charges."""
    boxes = []

    def counted(*args, **kwargs):
        ks = box(*args, **kwargs)
        boxes.append(len(ks))
        return ks

    box = lattice._integer_box
    monkeypatch.setattr(lattice, "_integer_box", counted)
    tracemalloc.start()
    try:
        variance._RadialSampler(unit_lattice(dim), b, 0.9, 1.1, None, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8e5 < boxes[0] < 1.25e6
    assert peak <= 32 * dim * boxes[0]


@pytest.mark.parametrize("dim, reach", [(2, 5e5), (3, 500.0)])
def test_annulus_lines_peak_within_box_budget(monkeypatch, dim, reach):
    """Selecting the lattice lines from a box of about 1e6 integer points
    stays within the 32 (d - 1) bytes per box point that the box's budget
    check charges."""
    boxes = []

    def counted(*args, **kwargs):
        ks = box(*args, **kwargs)
        boxes.append(len(ks))
        return ks

    box = lattice._integer_box
    monkeypatch.setattr(lattice, "_integer_box", counted)
    tracemalloc.start()
    try:
        lattice.cells_near(np.eye(dim - 1), 0.0, reach, "of lines")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8e5 < boxes[0] < 1.25e6
    assert peak <= 32 * (dim - 1) * boxes[0]


def test_line_box_over_budget_allocates_nothing():
    """At b = 1e-4 the d=3 line box (about 22000^2 lines) is over the
    budget and refused before anything is allocated."""
    tracemalloc.start()
    try:
        with pytest.raises(TruncationError, match="lattice lines"):
            variance._LineSampler(unit_lattice(3), 1e-4, 0.9, 1.1, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("psf, a", [(compact_bump(2, 1.0), 0.05),
                                    (gaussian(3), 0.05), (GAUSS2, 0.85)])
def test_smooth_mc_weight_reads_the_model_only_in_the_band(psf, a):
    """The smooth-weight kernel gives f(theta(r)) of the intensity model
    within the table's stated bound on every radius, and exactly 0 on
    squared radii outside [r_in^2, r_out^2]; a = 0.85 puts the band's
    inner end at the centre (r_in = 0), where squared radii rounded
    below 0 read the value at 0."""
    f = SmoothPlateau()
    latt = unit_lattice(psf.dim)
    sampler = variance._surface_sampler(1.0, psf, f, a, latt, 0.05, 1.0)
    model = phantom.intensity_model(1.0, psf, a)
    r_in, r_out = cached_knot_radii(1.0, psf, a, (f.beta, f.omega))
    offs = (np.random.default_rng(3).random((16, psf.dim))
            @ sampler.basis_b.T)
    pts = sampler.base_points
    rsq = np.einsum("ijk,ijk->ij", pts[:, None, :] + offs[None],
                    pts[:, None, :] + offs[None])
    rsq = np.append(rsq.ravel(), [-1e-17, 0.0])
    expected = f(model.radial(np.sqrt(np.maximum(rsq, 0.0))))
    outside = rsq > r_out ** 2
    if r_in > 0.0:
        outside |= rsq < r_in ** 2
    got = sampler.table(rsq.copy())
    assert np.any(expected > 0.0) and np.any(outside)
    np.testing.assert_allclose(got, expected, rtol=0,
                               atol=variance._BAND_TOL)
    assert np.all(got[outside] == 0.0)
    if r_in == 0.0:
        assert got[-2] == expected[-1]


@pytest.mark.parametrize("make", [compact_bump, ball_indicator])
def test_band_table_error_covers_the_quadrature(make):
    """A band table states its error against f(theta) itself, its own
    _BAND_TOL plus the model's error carried through f, and keeps it
    against the cap quadrature, for the disc in d=2 too."""
    f, psf = SmoothPlateau(), make(2)
    for a in (0.1, 0.0125):
        model = phantom.intensity_model(1.0, psf, a)
        r_in, *_, r_out = cached_knot_radii(1.0, psf, a, f.knots)
        table = variance._BandTable(model, f, r_in, r_out)
        assert table.error == variance._BAND_TOL + f.lipschitz * model.error
        rsq = np.random.default_rng(5).uniform(r_in ** 2, r_out ** 2, 2000)
        want = f(cap_quadrature(psf, a, 1.0, np.sqrt(rsq)))
        assert np.max(np.abs(table(rsq.copy()) - want)) <= table.error


def test_smooth_lipschitz_bounds_its_slope():
    """SmoothPlateau's stated Lipschitz constant is its steepest slope,
    and a weight that states none gets an unbounded one."""
    f = SmoothPlateau(0.3, 0.35, 0.6, 0.7)
    y = np.linspace(0.0, 1.0, 200_001)
    slope = np.max(np.abs(np.diff(f(y)))) / (y[1] - y[0])
    assert slope <= f.lipschitz <= slope * (1.0 + 1e-6)
    assert weight_lipschitz(_Flat()) == math.inf


def test_smooth_tail_bound_carries_the_model_error(monkeypatch):
    """A smooth weight's tail_bound adds drift (2 sd + drift) of the raw
    variance, drift = Lip(f) eps_theta times the volume of the band
    widened by half a cell diameter; a weight that states no Lipschitz
    constant gets an unbounded one."""
    psf, f, a = compact_bump(2), SmoothPlateau(), 0.05
    got = variance_exact_ball(Ball(2, 1.0), psf, f, a, Z2, a)
    monkeypatch.setattr(variance, "_model_drift", lambda *args: 0.0)
    bare = variance_exact_ball(Ball(2, 1.0), psf, f, a, Z2, a)
    monkeypatch.undo()
    eps = phantom.intensity_model(1.0, psf, a).error
    r_in, *_, r_out = cached_knot_radii(1.0, psf, a, f.knots)
    reach = 0.5 * a * Z2.cell_diameter
    drift = f.lipschitz * eps * (ball_volume(2, r_out + reach)
                                 - ball_volume(2, r_in - reach))
    scale = (a * got.alpha) ** 2
    added = drift * (2.0 * math.sqrt(got.value * scale) + drift) / scale
    assert got.value == bare.value
    assert got.shells.tail_bound - bare.shells.tail_bound == pytest.approx(
        added, rel=1e-6)
    assert 0.0 < added < 1e-9 * got.value
    flat = variance_exact_ball(Ball(2, 1.0), psf, _BareWeight(), a, Z2, a)
    assert flat.shells.tail_bound == math.inf


def test_band_table_over_its_cell_cap_is_refused(monkeypatch):
    """A table that needs more cells than the cap allows to meet its
    bound is refused, not returned with a larger error."""
    monkeypatch.setattr(variance, "_BAND_CELLS_MAX", variance._BAND_CELLS)
    with pytest.raises(TruncationError, match="smooth-weight table"):
        mc_surface(Ball(2, 1.0), GAUSS2, SmoothPlateau(), 0.05, Z2, 0.05,
                   40, seed=0)


def test_mc_results_report_points_scored():
    """n_points counts the points scored per shift (the lines, for an
    indicator), and a smooth weight's batch means stay within scale *
    n_points * _BAND_TOL of the oracle that reads the intensity model at
    every point."""
    # the lines of Z^2 along the second axis that pass within r_out of
    # the centre for some shift are the columns -floor(r_out/b) - 1 up
    # to floor(r_out/b)
    _, r_out = cached_knot_radii(1.0, GAUSS2, 0.05, (0.3, 0.7))
    lines = mc_surface(Ball(2, 1.0), GAUSS2, Indicator(), 0.05, Z2, 0.05,
                       40, seed=0)
    assert lines.n_points == 2 * math.floor(r_out / 0.05) + 2
    f = SmoothPlateau()
    got = mc_surface(Ball(2, 1.0), GAUSS2, f, 0.05, Z2, 0.05, 600, 5,
                     n_batches=2)
    r_in, r_out = cached_knot_radii(1.0, GAUSS2, 0.05, (f.beta, f.omega))
    assert got.n_points == len(lattice.cells_near(np.eye(2), r_in / 0.05,
                                                  r_out / 0.05, "of points"))
    means, _ = mc_oracle.mc_surface(1.0, GAUSS2, f, 0.05, Z2, 0.05, 600, 5,
                                    n_batches=2)
    alpha = variance.alpha_f(f, halfspace_profile(GAUSS2))
    scale = 0.05 ** 2 / (0.05 * alpha)
    assert np.all(np.abs(got.batch_means - means)
                  <= scale * got.n_points * variance._BAND_TOL)
    # the binary volume counts the lines that pass within the radius of
    # the centre for some shift
    vol = mc_volume_binary(Ball(2, 1.0), Z2, 0.04, 40, seed=0)
    assert vol.n_points == 2 * math.floor(1.0 / 0.04) + 2


@pytest.mark.parametrize("f, builds", [(Indicator(), 0),
                                       (SmoothPlateau(), 1)])
def test_row_builds_intensity_tables_only_for_smooth_weights(monkeypatch, f,
                                                             builds):
    """An indicator row needs only the band radii; a smooth weight's exact
    and Monte Carlo variance share one cached intensity table."""
    inits = []
    init = phantom.IntensityModel.__init__

    def counted(self, *args, **kwargs):
        inits.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(phantom.IntensityModel, "__init__", counted)
    phantom.intensity_model.cache_clear()
    args = (Ball(2, 1.0), GAUSS2, f, 0.1, Z2, 0.1)
    variance_exact_ball(*args)
    mc_surface(*args, 400, seed=0)
    assert len(inits) == builds


def test_indicator_rows_fit_no_intensity_model(monkeypatch, tmp_path):
    """An indicator row reads no grey value: its exact variance, its
    Monte Carlo and a theory-variance run solve the band radii on the
    cap quadrature and fit no Chebyshev model, cached or one-off."""
    fits, init = [], phantom.IntensityModel.__init__
    monkeypatch.setattr(phantom.IntensityModel, "__init__",
                        lambda self, *args: fits.append(args)
                        or init(self, *args))
    phantom.intensity_model.cache_clear()
    args = (Ball(3, 1.0), gaussian(3), Indicator(), 0.05,
            unit_lattice(3), 0.05)
    variance_exact_ball(*args)
    mc_surface(*args, 400, seed=0)
    assert cli.main(["theory-variance", "--set", "phantom.dim=3",
                     "--set", "scales.a=0.05,0.035",
                     "--out", str(tmp_path)]) == 0
    assert fits == []


@pytest.mark.parametrize("f", [Indicator(), SmoothPlateau()],
                         ids=["indicator", "plateau"])
def test_random_radius_builds_once_per_radius(monkeypatch, f):
    """From cold caches, each random radius's band radii, and for a
    smooth weight its intensity model and table, are built exactly once
    (an indicator fits no model)."""
    phantom.intensity_model.cache_clear()
    phantom.cached_knot_radii.cache_clear()
    fits, tables = [], []
    init, table = phantom.IntensityModel.__init__, variance._BandTable
    monkeypatch.setattr(phantom.IntensityModel, "__init__",
                        lambda self, *args: fits.append(args)
                        or init(self, *args))
    monkeypatch.setattr(variance, "_BandTable",
                        lambda *args: tables.append(args) or table(*args))
    mc = mc_random_radius(GAUSS2, f, 0.1, Z2, 0.1, RadiusDensity(), 40, 20,
                          seed=0)
    assert len(fits) == len(tables) == (0 if isinstance(f, Indicator)
                                        else 40)
    assert math.isfinite(mc.variance) and mc.n_points > 0


@pytest.mark.parametrize("f", [Indicator(), SmoothPlateau()],
                         ids=["indicator", "plateau"])
def test_random_radius_same_for_any_workers_and_cache_state(f):
    """mc_random_radius reads the process caches from its worker
    threads; the result is bit for bit the same at workers 1 and 3,
    from cold caches and from the caches the other run filled."""
    runs = []
    for workers in (1, 3, 3, 1):
        if len(runs) % 2 == 0:
            phantom.intensity_model.cache_clear()
            phantom.cached_knot_radii.cache_clear()
        runs.append(mc_random_radius(GAUSS2, f, 0.1, Z2, 0.1,
                                     RadiusDensity(), 40, 20, seed=3,
                                     workers=workers))
    for got in runs[1:]:
        assert (got.mean, got.variance, got.n_points) == (
            runs[0].mean, runs[0].variance, runs[0].n_points)
        np.testing.assert_array_equal(got.batch_means, runs[0].batch_means)
        np.testing.assert_array_equal(got.batch_variances,
                                      runs[0].batch_variances)


def test_band_radii_edge_rules():
    """A blur wide enough to put the centre grey value inside the band
    starts the band at the centre; one that keeps it below beta is
    refused."""
    a = 0.85
    assert 0.3 < _theta_ball(0.0, 1.0, a) < 0.7
    r_in, r_out = cached_knot_radii(1.0, GAUSS2, a, (0.3, 0.7))
    assert r_in == 0.0
    assert _theta_ball(r_out, 1.0, a) == pytest.approx(0.3, abs=1e-12)
    assert weighted_layer(1.0, GAUSS2, a, Indicator()).r_lo == 0.0
    mc = mc_surface(Ball(2, 1.0), GAUSS2, Indicator(), a, Z2, a, 400, seed=0)
    assert math.isfinite(mc.variance) and mc.mean > 0.0

    assert _theta_ball(0.0, 1.0, 2.0) < 0.3
    for run in (lambda: variance_exact_ball(Ball(2, 1.0), GAUSS2,
                                            Indicator(), 2.0, Z2, 2.0),
                lambda: mc_surface(Ball(2, 1.0), GAUSS2, Indicator(), 2.0,
                                   Z2, 2.0, 400, seed=0)):
        with pytest.raises(DomainError, match="blur swamps the ball"):
            run()


# chunk widths for the runner tests, against batches of 67 and 68
# shifts: one column, chunks that split a batch, chunks that span two
# batches, and one chunk for all of them
_CHUNK_WIDTHS = (1, 10, 25, 150, 100_000)


def _at_chunk_width(monkeypatch, sampler, width):
    monkeypatch.setattr(variance, "_MC_CHUNK_BYTES",
                        width * sampler.column_bytes)
    assert variance._chunk_width(sampler) == width


def test_mc_chunk_width_does_not_change_batches(monkeypatch):
    """Successive shift draws concatenate across chunks and batches, so
    every chunk width gives the batches of the oracle, which scores each
    batch alone, bit for bit: the indicator's and the binary volume's
    counts are exact.  Some widths group several batches, others split
    one."""
    n_reps, n_batches, seed = 403, 6, 8
    alpha = variance.alpha_f(Indicator(), halfspace_profile(GAUSS2))
    runs = [
        (variance._surface_sampler(1.0, GAUSS2, Indicator(), 0.05, Z2,
                                   0.05, alpha),
         lambda: mc_surface(Ball(2, 1.0), GAUSS2, Indicator(), 0.05, Z2,
                            0.05, n_reps, seed, n_batches=n_batches),
         mc_oracle.mc_surface(1.0, GAUSS2, Indicator(), 0.05, Z2, 0.05,
                              n_reps, seed, n_batches=n_batches)),
        (variance._LineSampler(Z2, 0.04, 0.0, 1.0, 1.0),
         lambda: mc_volume_binary(Ball(2, 1.0), Z2, 0.04, n_reps, seed,
                                  n_batches=n_batches),
         mc_oracle.mc_volume_binary(1.0, Z2, 0.04, n_reps, seed,
                                    n_batches=n_batches)),
    ]
    for sampler, run, (means, variances) in runs:
        for width in _CHUNK_WIDTHS:
            _at_chunk_width(monkeypatch, sampler, width)
            got = run()
            np.testing.assert_array_equal(got.batch_means, means)
            np.testing.assert_array_equal(got.batch_variances, variances)


def test_smooth_batches_agree_across_chunk_widths(monkeypatch):
    """A smooth weight's squared radii come from one matrix product per
    chunk, which rounds with the chunk's column count, so its batches
    agree across chunk widths to rounding."""
    alpha = variance.alpha_f(SmoothPlateau(), halfspace_profile(GAUSS2))
    sampler = variance._surface_sampler(1.0, GAUSS2, SmoothPlateau(), 0.05,
                                        Z2, 0.05, alpha)
    runs = []
    for width in _CHUNK_WIDTHS:
        _at_chunk_width(monkeypatch, sampler, width)
        runs.append(mc_surface(Ball(2, 1.0), GAUSS2, SmoothPlateau(), 0.05,
                               Z2, 0.05, 403, 8, n_batches=6))
    for got in runs[1:]:
        np.testing.assert_allclose(got.batch_means, runs[0].batch_means,
                                   rtol=1e-14, atol=0)
        np.testing.assert_allclose(got.batch_variances,
                                   runs[0].batch_variances,
                                   rtol=1e-14, atol=0)


@pytest.mark.parametrize("f", [Indicator(), SmoothPlateau()],
                         ids=["indicator", "plateau"])
def test_workers_bit_identical_over_groups_of_uneven_batches(f,
                                                             monkeypatch):
    """1001 shifts in 20 batches of 51 and 50, scored in 20-shift chunks:
    each group holds several batches, the groups run on three threads
    (more than the cores, switching often), each with its own
    workspaces, and the batches equal those of one thread bit for bit."""
    alpha = variance.alpha_f(f, halfspace_profile(GAUSS2))
    sampler = variance._surface_sampler(1.0, GAUSS2, f, 0.1, Z2, 0.1, alpha)
    _at_chunk_width(monkeypatch, sampler, 20)
    _, sizes = variance._batch_plan(1001, 7, 20)
    groups = variance._batch_groups(sizes, 20)
    assert len(groups) >= 3 and all(hi - lo > 1 for lo, hi in groups)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runs = [mc_surface(Ball(2, 1.0), GAUSS2, f, 0.1, Z2, 0.1, 1001, 7,
                           workers=workers) for workers in (1, 3)]
    finally:
        sys.setswitchinterval(switch)
    np.testing.assert_array_equal(runs[0].batch_means, runs[1].batch_means)
    np.testing.assert_array_equal(runs[0].batch_variances,
                                  runs[1].batch_variances)


def test_volume_grey_never_exceeds_binary():
    # each dual term of the grey variance is the binary term times a
    # squared kernel transform <= 1
    for b in (0.05, 0.02):
        vb = volume_variance_exact(1.0, Z2, b)
        vg = volume_variance_exact(1.0, Z2, b, psf=GAUSS2, a=b)
        assert 0.0 <= vg.value <= vb.value


def test_volume_variance_needs_scale_for_grey():
    with pytest.raises(DomainError):
        volume_variance_exact(1.0, Z2, 0.05, psf=GAUSS2)


# ---------------------------------------------------------------------------
# structural bounds

def test_bound_check_general_band():
    ms = []
    for ab in (0.1, 0.05, 0.025):
        rep = variance_bound_check(Ball(2, 1.0), GAUSS2, Indicator(), ab,
                                   Z2, ab)
        assert rep.regime == "general"
        ms.append(rep.implied_constant)
    assert np.allclose(ms, [0.4097, 0.3548, 0.3180], rtol=1e-3)
    assert max(ms) / min(ms) < 1.5


class _BareWeight:
    """A weight with only what the weight contract asks for: sorted
    knots, one-sided band-edge values and a vectorized call."""

    knots = (0.3, 0.4, 0.6, 0.7)
    boundary_values = (0.0, 0.0)

    def __call__(self, y):
        return SmoothPlateau(*self.knots)(y)


def test_bound_check_takes_a_bare_weight():
    want = variance_bound_check(Ball(2, 1.0), GAUSS2, SmoothPlateau(), 0.1,
                                Z2, 0.1)
    got = variance_bound_check(Ball(2, 1.0), GAUSS2, _BareWeight(), 0.1,
                               Z2, 0.1)
    assert got.structural == want.structural
    assert got.implied_constant == pytest.approx(want.implied_constant,
                                                 rel=1e-12)


@pytest.mark.parametrize("sequence", [list, np.array],
                         ids=["list", "ndarray"])
def test_weight_knots_may_be_any_sequence(sequence):
    """A weight whose knots are a list or an array, which the knot radii's
    cache cannot hash, gives the exact, Monte Carlo and asymptotic numbers
    of the same weight with tuple knots."""
    tupled, listed = _BareWeight(), _BareWeight()
    listed.knots = sequence(_BareWeight.knots)
    runs = [(variance_exact_ball(Ball(2, 1.0), GAUSS2, f, 0.1, Z2, 0.1),
             mc_surface(Ball(2, 1.0), GAUSS2, f, 0.1, Z2, 0.1, 400, seed=0),
             variance_asymptotic_isotropic(2.0 * math.pi, GAUSS2, f, Z2,
                                           0.1))
            for f in (tupled, listed)]
    (ex, mc, asym), (ex_l, mc_l, asym_l) = runs
    assert (ex_l.value, ex_l.shells) == (ex.value, ex.shells)
    np.testing.assert_array_equal(mc_l.batch_means, mc.batch_means)
    np.testing.assert_array_equal(mc_l.batch_variances, mc.batch_variances)
    assert (asym_l.main, asym_l.lattice_sum) == (asym.main, asym.lattice_sum)


def test_bound_check_fast_b_bounded():
    ms = []
    for b in (0.02, 0.01, 0.005):
        rep = variance_bound_check(Ball(2, 1.0), GAUSS2, Indicator(), 0.1,
                                   Z2, b, regime="fast_b")
        assert rep.regime == "fast_b"
        ms.append(rep.implied_constant)
    assert all(0.05 < m < 1.5 for m in ms)


def test_bound_check_fast_b_needs_edge_values():
    with pytest.raises(DomainError):
        variance_bound_check(Ball(2, 1.0), GAUSS2, SmoothPlateau(), 0.1,
                             Z2, 0.01, regime="fast_b")


def test_bound_check_unknown_regime():
    with pytest.raises(DomainError):
        variance_bound_check(Ball(2, 1.0), GAUSS2, Indicator(), 0.1, Z2,
                             0.01, regime="slow_a")
