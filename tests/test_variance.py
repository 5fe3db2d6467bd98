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
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import j0
from scipy.stats import norm

from greyvar import lattice, phantom, variance
from greyvar.errors import DomainError, TruncationError
from greyvar.estimator import Indicator, SmoothPlateau
from greyvar.lattice import hexagonal_lattice, unit_lattice
from greyvar.phantom import Ball, ball_band_radii
from greyvar.psf import (ball_volume, compact_bump, gaussian,
                         halfspace_profile, sphere_area)
from greyvar.spectral import AnnulusFourier
from greyvar.variance import (AsymptoticReport, RadiusDensity,
                              ShellSumInfo, VarianceReport,
                              convergent_dual_sum, envelope_check,
                              _annulus_points,
                              mc_surface, mc_volume_binary,
                              profile_lattice_sum,
                              variance_asymptotic_isotropic,
                              variance_asymptotic_random_radius,
                              variance_bound_check, variance_exact_ball,
                              volume_variance_exact, weighted_layer)

Z2 = unit_lattice(2)
GAUSS2 = gaussian(2)


# the coordinate-loop, sqrt and model-intensity Monte Carlo kernel
import _mc_oracle as mc_oracle
# the dual-shell sums of the indicator and binary-volume variances and LS
import _dual_oracle as dual_oracle
# independent grey-layer pieces built on scipy only; shared with the
# acceptance suite
from _spatial_oracle import (GreyLayer as _GreyLayer,
                             alpha_quad as _alpha_quad,
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
                                    decay_power=5.0, tail_tol=1e-12)
    assert info.converged
    assert got == pytest.approx(want, rel=1e-13)


def test_dual_sum_hexagonal_vs_enumeration():
    hexl = hexagonal_lattice()
    pts = dual_oracle.dual_points(hexl, 9.0)
    want = float(np.exp(-np.sum(pts ** 2, axis=1)).sum())
    got, _ = convergent_dual_sum(hexl, lambda q: np.exp(-q * q),
                                 decay_power=5.0, tail_tol=1e-12)
    assert got == pytest.approx(want, rel=1e-13)


def test_dual_sum_rejects_weak_decay():
    with pytest.raises(DomainError):
        convergent_dual_sum(Z2, lambda q: q ** -1.0, decay_power=2.0,
                            tail_tol=1e-3)


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


def test_weighted_layer_plateau_vs_quad():
    # Hankel quadrature against scipy.quad on the ncx2-based layer
    R, a = 1.0, 0.05
    f = SmoothPlateau()
    pkg = weighted_layer(R, GAUSS2, a, f)
    oracle = _GreyLayer(f, R, a)
    for q in (7.0, 30.0, 212.0):
        val, err = quad(lambda r: float(oracle(r)) * j0(2 * math.pi * q * r)
                        * r, oracle.r_in, oracle.r_out,
                        points=oracle.kinks[1:-1], limit=800,
                        epsabs=1e-14, epsrel=1e-12)
        want = 2 * math.pi * val
        assert err < 1e-12
        assert pkg.at(q) == pytest.approx(want, abs=2e-10)


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
    primal = rep.value * (a * rep.alpha) ** 2
    r_in, r_out = ball_band_radii(1.0, psf, a, 0.3, 0.7)
    dual, info = dual_oracle.annulus_variance_raw(r_in, r_out, latt, a,
                                                  xi_cap=xi_cap)
    rounding = rep.shells.tail_bound
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
    r_in, r_out = ball_band_radii(1.0, psf, a, 0.3, 0.7)
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
    got = rep.value * (a * rep.alpha) ** 2
    assert abs(np.longdouble(got) - want) <= rep.shells.tail_bound


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
    ball_band_radii(1.0, gaussian(3), 0.05, f.knots[0], f.knots[-1])
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
    assert rep.shells.tail_bound < 1e-3 * rep.value * (0.05 * rep.alpha) ** 2
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
    with pytest.raises(DomainError):
        RadiusDensity(2.0, 1.0)


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


def test_mc_surface_workers_bit_identical():
    kw = dict(n_reps=1000, seed=7)
    one = mc_surface(Ball(2, 1.0), GAUSS2, Indicator(), 0.1, Z2, 0.1,
                     workers=1, **kw)
    three = mc_surface(Ball(2, 1.0), GAUSS2, Indicator(), 0.1, Z2, 0.1,
                       workers=3, **kw)
    assert one.mean == three.mean
    assert one.variance == three.variance
    np.testing.assert_array_equal(one.batch_means, three.batch_means)


def test_mc_validation():
    with pytest.raises(DomainError):
        mc_surface(Ball(2, 1.0), GAUSS2, Indicator(), 0.1, Z2, 0.1, 30,
                   seed=0, n_batches=20)
    with pytest.raises(DomainError):
        mc_surface(Ball(2, 1.0), GAUSS2, Indicator(), 0.1, Z2, 0.1, 100,
                   seed=0, n_batches=1)
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


def test_mc_volume_binary_matches_exact():
    ex = volume_variance_exact(1.0, Z2, 0.04)
    mc = mc_volume_binary(Ball(2, 1.0), Z2, 0.04, 4000, seed=1)
    assert abs(mc.variance - ex.value) < 4.0 * mc.variance_se
    assert mc.mean == pytest.approx(math.pi, rel=1e-3)


# the squared-radius kernel against tests/_mc_oracle.py

@pytest.mark.parametrize("dim, ab, seed", [(2, 0.05, 3), (2, 0.05, 4),
                                           (3, 0.1, 3), (3, 0.1, 4)])
def test_mc_surface_indicator_equals_oracle(dim, ab, seed):
    """Comparing squared radii with the band radii squared scores every
    point as the model intensity does; 300 shifts per batch span two of
    the oracle's chunks."""
    psf, latt = gaussian(dim), unit_lattice(dim)
    got = mc_surface(Ball(dim, 1.0), psf, Indicator(), ab, latt, ab, 600,
                     seed, n_batches=2)
    means, variances = mc_oracle.mc_surface(1.0, psf, Indicator(), ab,
                                            latt, ab, 600, seed,
                                            n_batches=2)
    np.testing.assert_array_equal(got.batch_means, means)
    np.testing.assert_array_equal(got.batch_variances, variances)


def test_mc_surface_smooth_weight_matches_oracle():
    """A smooth weight still goes through the intensity model; only the
    rounding of the squared radii and the band mask differ."""
    got = mc_surface(Ball(2, 1.0), GAUSS2, SmoothPlateau(), 0.05, Z2, 0.05,
                     600, 5, n_batches=2)
    means, variances = mc_oracle.mc_surface(1.0, GAUSS2, SmoothPlateau(),
                                            0.05, Z2, 0.05, 600, 5,
                                            n_batches=2)
    np.testing.assert_allclose(got.batch_means, means, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.batch_variances, variances, rtol=1e-12,
                               atol=0)


@pytest.mark.parametrize("latt, b", [(Z2, 0.04), (unit_lattice(3), 0.08)])
def test_mc_volume_binary_equals_oracle(latt, b):
    got = mc_volume_binary(Ball(latt.dim, 1.0), latt, b, 600, seed=2,
                           n_batches=2)
    means, variances = mc_oracle.mc_volume_binary(1.0, latt, b, 600, 2,
                                                  n_batches=2)
    np.testing.assert_array_equal(got.batch_means, means)
    np.testing.assert_array_equal(got.batch_variances, variances)


@pytest.mark.parametrize("latt, ab", [(unit_lattice(3), 0.05),
                                      (hexagonal_lattice(), 0.05)])
def test_annulus_points_drop_only_zero_weight_points(latt, ab):
    """Points kept by their cell centre are a subset of the oracle's
    points, and no dropped point gets a nonzero weight under any of 1000
    random shifts."""
    dim = latt.dim
    psf = gaussian(dim)
    f = Indicator()
    model, every = mc_oracle.surface_points(1.0, psf, f, ab, latt, ab)
    r_in, r_out = ball_band_radii(1.0, psf, ab, f.beta, f.omega)
    kept = _annulus_points(latt, ab, r_in, r_out)
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
    """Selecting the Monte Carlo points from a box of about 1e6 integer
    points stays within the 32 d bytes per box point that the box's
    budget check charges."""
    boxes = []

    def counted(*args, **kwargs):
        ks = cover(*args, **kwargs)
        boxes.append(len(ks))
        return ks

    cover = lattice.integer_cover
    monkeypatch.setattr(lattice, "integer_cover", counted)
    tracemalloc.start()
    try:
        _annulus_points(unit_lattice(dim), b, 0.9, 1.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8e5 < boxes[0] < 1.25e6
    assert peak <= 32 * dim * boxes[0]


@pytest.mark.parametrize("psf, a", [(compact_bump(2, 1.0), 0.05),
                                    (gaussian(3), 0.05), (GAUSS2, 0.85)])
def test_smooth_mc_weight_reads_the_model_only_in_the_band(psf, a):
    """The smooth-weight kernel scores only squared radii inside the
    band, and gives f(theta(r)) of the intensity model on every radius;
    a = 0.85 puts the band's inner end at the centre (r_in = 0)."""
    f = SmoothPlateau()
    latt = unit_lattice(psf.dim)
    sampler = variance._surface_sampler(1.0, psf, f, a, latt, 0.05, 1.0)
    model = phantom.intensity_model(Ball(psf.dim, 1.0), psf, a)
    offs = (np.random.default_rng(3).random((16, psf.dim))
            @ sampler.basis_b.T)
    pts = sampler.base_points
    rsq = np.einsum("ijk,ijk->ij", pts[:, None, :] + offs[None],
                    pts[:, None, :] + offs[None])
    rsq = np.append(rsq.ravel(), [-1e-17, 0.0])
    expected = f(model.radial(np.sqrt(np.maximum(rsq, 0.0))))
    assert np.any(expected > 0.0) and np.any(expected == 0.0)
    np.testing.assert_array_equal(sampler.evaluate(rsq), expected)


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


def test_band_radii_edge_rules():
    """A blur wide enough to put the centre grey value inside the band
    starts the band at the centre; one that keeps it below beta is
    refused."""
    a = 0.85
    assert 0.3 < _theta_ball(0.0, 1.0, a) < 0.7
    r_in, r_out = ball_band_radii(1.0, GAUSS2, a, 0.3, 0.7)
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


def test_mc_chunk_width_does_not_change_batches(monkeypatch):
    """Successive shift draws concatenate, so a one-column chunk gives
    the batches of the default width bit for bit."""
    args = (Ball(2, 1.0), GAUSS2, Indicator(), 0.05, Z2, 0.05, 400, 8)
    wide = mc_surface(*args, n_batches=4)
    monkeypatch.setattr(variance, "_MC_CHUNK_BYTES", 1)
    narrow = mc_surface(*args, n_batches=4)
    np.testing.assert_array_equal(narrow.batch_means, wide.batch_means)
    np.testing.assert_array_equal(narrow.batch_variances,
                                  wide.batch_variances)


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
