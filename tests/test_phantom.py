"""Blurred phantom intensities.

The Gaussian-blurred ball has an exact reference: blurring with a
standard normal at scale a puts the grey value at distance r from the
center equal to the noncentral chi-square probability

    theta(r) = P( chi2_d(nc = (r/a)^2) <= (R/a)^2 ),

which scipy evaluates independently of everything in this package.  The
compact kernels are cross-checked with a dense polar convolution.
"""

import math

import numpy as np
import pytest
from scipy.stats import ncx2

from greyvar import phantom
from greyvar.errors import DomainError, TruncationError
from greyvar.lattice import centered_box
from greyvar.phantom import (Ball, HalfSpace, IntensityModel, Phantom,
                             ball_knot_radii, cached_knot_radii, capfrac,
                             intensity, intensity_model)
from greyvar.psf import (ball_indicator, compact_bump, eval_rho, gaussian,
                         halfspace_profile)


def _gauss_ball_theta(r, R, a, d):
    return ncx2.cdf((R / a) ** 2, df=d, nc=(r / a) ** 2)


def _polar_theta_2d(psf, a, R, r, n_rad=4000, n_ang=4000):
    """Direct polar convolution for a centered disc, d=2 only."""
    rad = np.linspace(0.0, R, n_rad)
    ang = np.linspace(0.0, 2.0 * math.pi, n_ang, endpoint=False)
    rr, aa = np.meshgrid(rad, ang, indexing="ij")
    dist = np.sqrt(rr * rr + r * r - 2.0 * rr * r * np.cos(aa))
    vals = eval_rho(psf, dist / a) / a ** 2 * rr
    return float(np.trapezoid(np.sum(vals, axis=1) * (ang[1] - ang[0]),
                              rad))


@pytest.mark.parametrize("dim", [2, 3])
def test_ball_intensity_matches_noncentral_chi2(dim):
    psf = gaussian(dim)
    a, R = 0.07, 1.0
    for r in (0.0, 0.5, 0.9, 0.96, 1.0, 1.05, 1.2):
        expected = _gauss_ball_theta(r, R, a, dim)
        x = np.zeros(dim)
        x[0] = r
        assert intensity(Ball(dim, R), psf, a, x) == pytest.approx(
            expected, abs=1e-9)


def test_bump_ball_intensity_matches_polar_oracle():
    psf = compact_bump(2, 1.0)
    a, R = 0.1, 1.0
    for r in (0.93, 1.0, 1.06):
        expected = _polar_theta_2d(psf, a, R, r)
        got = intensity(Ball(2, R), psf, a, np.array([r, 0.0]))
        assert got == pytest.approx(expected, abs=2e-6)


def test_intensity_limits_and_monotonicity():
    psf = gaussian(2)
    ball = Ball(2, 1.0)
    assert intensity(ball, psf, 0.05, np.zeros(2)) == pytest.approx(
        1.0, abs=1e-12)
    assert intensity(ball, psf, 0.05, np.array([3.0, 0.0])) < 1e-12
    rs = np.linspace(0.7, 1.3, 41)
    vals = [intensity(ball, psf, 0.05, np.array([r, 0.0])) for r in rs]
    assert np.all(np.diff(vals) < 0.0)


def test_halfspace_intensity_is_the_profile():
    psf = gaussian(2)
    hs = HalfSpace(2, normal=(0.0, 1.0), offset=0.25)
    prof = halfspace_profile(psf)
    for y in (-0.5, 0.0, 0.25, 0.4):
        x = np.array([1.7, y])
        expected = prof.theta((y - 0.25) / 0.1)
        assert intensity(hs, psf, 0.1, x) == pytest.approx(expected,
                                                           abs=1e-12)


def test_transformed_ball_equivariance():
    psf = gaussian(2)
    plain = Ball(2, 0.8)
    moved = Ball(2, 0.4 * 2.0, center=(1.5, -0.3))
    for r in (0.75, 0.8, 0.85):
        x = np.array([r, 0.0])
        assert intensity(moved, psf, 0.06, x + np.array([1.5, -0.3])) == \
            pytest.approx(intensity(plain, psf, 0.06, x), abs=1e-11)


def test_capfrac_extremes_and_d3_closed_form():
    # sphere fully inside / outside the reference ball
    assert capfrac(0.2, 0.1, 1.0, 3) == 1.0
    assert capfrac(3.0, 0.5, 1.0, 3) == 0.0
    # generic position, d=3: cap height formula
    r, s, R = 0.9, 0.4, 1.0
    mu = (r * r + s * s - R * R) / (2 * r * s)
    assert capfrac(r, s, R, 3) == pytest.approx(0.5 * (1 - mu), rel=1e-12)
    # d=2: arc fraction
    assert capfrac(r, s, R, 2) == pytest.approx(math.acos(mu) / math.pi,
                                                rel=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_intensity_model_radial_table(dim):
    psf = gaussian(dim)
    R = 1.0
    for a in (0.1, 0.05, 0.0125):
        model = IntensityModel(Ball(dim, R), psf, a)
        r_lo, r_hi = model.table_range
        assert r_lo < R < r_hi
        rs = np.linspace(r_lo, r_hi, 201)
        expected = _gauss_ball_theta(rs, R, a, dim)
        np.testing.assert_allclose(model.radial(rs), expected, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_intensity_model_radial_matches_bump_quadrature(dim):
    psf = compact_bump(dim, 1.0)
    R = 1.0
    for a in (0.1, 0.0125):
        model = IntensityModel(Ball(dim, R), psf, a)
        r_lo, r_hi = model.table_range
        rs = np.linspace(r_lo - a, r_hi + a, 101)
        expected = [intensity(Ball(dim, R), psf, a, np.eye(dim)[0] * r)
                    for r in rs]
        np.testing.assert_allclose(model.radial(rs), expected, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("make", [gaussian, compact_bump, ball_indicator])
def test_intensity_model_within_its_stated_error(make, dim):
    """Every model's stated error bounds its gap to the cap quadrature on
    4,001 radii across the transition zone, and the gap stays under
    1e-13, for the d=2 disc too (4.5e-7 with a degree-80 fit in r)."""
    psf = make(dim)
    for a in (0.1, 0.05, 0.0125):
        model = IntensityModel(Ball(dim, 1.0), psf, a)
        rs = np.linspace(*model.table_range, 4001)
        gap = np.max(np.abs(model.radial(rs) - phantom._ball_intensity_radii(
            psf, a, 1.0, rs)))
        assert gap <= model.error
        assert gap <= 1e-13
        assert model.error <= 2.0 * phantom._FIT_TOL + phantom._FIT_FLOOR


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("make", [gaussian, compact_bump, ball_indicator])
def test_intensity_model_degree_stays_under_its_cap(make, dim):
    """Over blur scales from 0.3 to 0.005 the chopped degree of every
    model stays at or below the cap and below the degree 80 of a fixed
    fit in r."""
    for a in np.geomspace(0.3, 0.005, 9):
        model = IntensityModel(Ball(dim, 1.0), make(dim), a)
        assert 0 < model.degree <= min(80, phantom._FIT_NODES_MAX)


def test_intensity_model_past_its_cap_is_refused(monkeypatch):
    """A model that would need more nodes than the cap allows is refused,
    not returned with a larger error: the Gaussian needs 65 nodes."""
    monkeypatch.setattr(phantom, "_FIT_NODES_MAX", 32)
    with pytest.raises(TruncationError, match="intensity model"):
        IntensityModel(Ball(2, 1.0), gaussian(2), 0.05)


def test_intensity_model_clamps_outside_table():
    model = IntensityModel(Ball(2, 1.0), gaussian(2), 0.05)
    assert model.radial(np.array([0.0]))[0] == pytest.approx(1.0,
                                                             abs=1e-10)
    assert model.radial(np.array([50.0]))[0] == 0.0


def test_intensity_model_cache_keyed_on_arguments():
    m1 = intensity_model(Ball(2, 1.0), gaussian(2), 0.05)
    m2 = intensity_model(Ball(2, 1.0), gaussian(2), 0.05)
    m3 = intensity_model(Ball(2, 1.0), gaussian(2), 0.04)
    assert m1 is m2 and m1 is not m3


def test_balls_of_one_radius_share_one_model(monkeypatch):
    """A moved ball reads the cached model of the centered ball of its
    radius: one fit serves both, and the grey values at equal distances
    from the centres agree."""
    fits, fit = [], phantom._fit_radial_model

    def counted(psf, a, R):
        fits.append((psf, a, R))
        return fit(psf, a, R)

    monkeypatch.setattr(phantom, "_fit_radial_model", counted)
    intensity_model.cache_clear()
    psf, a, centre = gaussian(2), 0.05, np.array([0.5, -0.25])
    # dyadic offsets, so that centre + v - centre is v exactly
    r = np.arange(-128, 129)[:, None] / 1024.0
    v = np.concatenate((np.hstack((1.0 + r, 0 * r)),
                        np.hstack((0.75 + r, 0.625 + r))))
    plain = Ball(2, 1.0).grey_values(psf, a, v)
    moved = Ball(2, 1.0, center=tuple(centre)).grey_values(psf, a,
                                                           centre + v)
    assert len(fits) == 1
    assert 0.0 < plain.min() < 0.3 and 0.7 < plain.max() < 1.0
    np.testing.assert_allclose(moved, plain, rtol=0, atol=1e-15)


def test_halfspace_grey_values_are_its_intensity():
    hs, a = HalfSpace(3, normal=(1.0, -2.0, 0.5), offset=0.3), 0.07
    pts = np.random.default_rng(4).normal(scale=0.2, size=(50, 3))
    for psf in (gaussian(3), compact_bump(3)):
        got = hs.grey_values(psf, a, pts)
        want = [intensity(hs, psf, a, x) for x in pts]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    with pytest.raises(DomainError):
        hs.grey_values(gaussian(2), a, pts)


def halfspace_gap(phantom, psf, a, x):
    """|theta_a(X)(x) - theta_a(H)(x)| for the supporting half-space H at
    the boundary point nearest to x.  Zero for half-space phantoms."""
    x = np.asarray(x, dtype=float)
    if isinstance(phantom, HalfSpace):
        return 0.0
    r = float(np.linalg.norm(x - np.asarray(phantom.center)))
    flat = halfspace_profile(psf).theta((r - phantom.radius) / a)
    return abs(intensity(phantom, psf, a, x) - flat)


def test_halfspace_gap_small_and_positive():
    # the curvature correction at the boundary is O(a) for fixed R
    psf = gaussian(2)
    gap_coarse = halfspace_gap(Ball(2, 1.0), psf, 0.1, np.array([1.0, 0.0]))
    gap_fine = halfspace_gap(Ball(2, 1.0), psf, 0.025, np.array([1.0, 0.0]))
    assert 0.0 < gap_fine < gap_coarse < 0.05
    assert halfspace_gap(HalfSpace(2), psf, 0.1, np.array([0.3, 2.0])) == 0.0


@pytest.mark.parametrize("dim", [2, 3])
def test_transition_offsets_match_chi2_roots(dim):
    # the band radii are where theta_ball falls through omega and beta,
    # so the chi-square closed form pins their offsets r - R independently
    from scipy.optimize import brentq
    psf = gaussian(dim)
    a, R, beta, omega = 0.05, 1.0, 0.3, 0.7
    r_in, r_out = cached_knot_radii(R, psf, a, (beta, omega))
    for level, r in ((omega, r_in), (beta, r_out)):
        r_cross = brentq(
            lambda r: _gauss_ball_theta(r, R, a, dim) - level,
            R - 6 * a, R + 6 * a, xtol=1e-14)
        assert r - R == pytest.approx(r_cross - R, abs=1e-12)
    # curvature pulls both crossings inward relative to the flat edge
    prof = halfspace_profile(psf)
    assert r_in - R < a * prof.phi(omega)
    assert r_out - R < a * prof.phi(beta)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("make, wide", [(compact_bump, 2.0),
                                        (ball_indicator, 1.2)],
                         ids=["bump", "disc"])
def test_band_radii_match_brentq_on_the_quadrature(make, wide, dim):
    """The band radii of the compact kernels are the roots of the grey
    value, found here by brentq on the point evaluation `intensity`: to
    1e-13 at a narrow and a moderate blur, and at a blur wide enough that
    the band reaches the centre (r_in = 0, where theta is at most omega
    already).  The disc's grey value has square-root edges."""
    from scipy.optimize import brentq
    R, beta, omega, psf = 1.0, 0.3, 0.7, make(dim)
    T = halfspace_profile(psf).T
    theta = lambda r: intensity(Ball(dim, R), psf, a,
                                np.eye(dim)[0] * r)
    for a in (0.1, 0.0125, wide):
        r_lo, r_hi = max(R - a * T, 0.0), R + a * T
        radii = cached_knot_radii(R, psf, a, (beta, omega))
        for level, r in zip((omega, beta), radii):
            if theta(r_lo) <= level:
                assert r == r_lo == 0.0 and a == wide
                continue
            root = brentq(lambda x: theta(x) - level, r_lo, r_hi,
                          xtol=1e-15)
            assert r == pytest.approx(root, abs=1e-13)
    assert cached_knot_radii(R, psf, wide, (beta, omega))[0] == 0.0


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("make", [gaussian, compact_bump, ball_indicator])
def test_band_radii_take_few_quadrature_calls(monkeypatch, make, dim):
    """A pair of band radii costs a handful of small vectorized cap
    quadratures: the first holds both levels, their forward-difference
    points and theta at the inner end of the transition zone, each later
    one the levels still moving (no call holds the 33 or more radii of
    an intensity model's fit)."""
    sizes, quad = [], phantom._ball_intensity_radii

    def counted(psf, a, R, radii):
        sizes.append(np.size(radii))
        return quad(psf, a, R, radii)

    monkeypatch.setattr(phantom, "_ball_intensity_radii", counted)
    for a, most in ((0.1, 5), (0.05, 4), (0.035, 4), (0.0125, 4)):
        sizes.clear()
        ball_knot_radii(1.0, make(dim), a, (0.3, 0.7))
        assert sizes[0] == 5 and max(sizes[1:]) <= 4
        assert len(sizes) <= most


def test_knot_radii_are_each_levels_own_solve():
    """Every level takes its own Newton steps, so the radii of the outer
    knots solved with the inner ones are the band radii bit for bit, and
    the inner ones are those of their own pair."""
    psf, a = compact_bump(2), 0.05
    knots = (0.3, 0.4, 0.6, 0.7)
    radii = ball_knot_radii(1.0, psf, a, knots)
    assert radii == (cached_knot_radii(1.0, psf, a, (0.3, 0.7))[0],
                     *cached_knot_radii(1.0, psf, a, (0.4, 0.6)),
                     cached_knot_radii(1.0, psf, a, (0.3, 0.7))[1])
    assert np.all(np.diff(radii) > 0.0)


def test_transition_offsets_shrink_with_a():
    # the offsets r - R of the band radii are the curvature corrections,
    # O(a) in the blur scale
    psf = gaussian(2)
    wide = np.subtract(cached_knot_radii(1.0, psf, 0.1, (0.3, 0.7)), 1.0)
    narrow = np.subtract(cached_knot_radii(1.0, psf, 0.0125, (0.3, 0.7)),
                         1.0)
    assert np.all(np.abs(narrow) < np.abs(wide))


def test_validation_errors():
    with pytest.raises(DomainError):
        Ball(2, -1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            Ball(2, bad)
        with pytest.raises(DomainError):
            Ball(2, center=(0.0, bad))
    with pytest.raises(DomainError):
        Ball(2, center=(0.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        HalfSpace(2, normal=(0.0, 0.0))
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            HalfSpace(2, normal=(bad, 0.0))
        with pytest.raises(DomainError):
            HalfSpace(2, offset=bad)
    for bad in (-0.1, math.inf, math.nan):
        with pytest.raises(DomainError):
            intensity(Ball(2, 1.0), gaussian(2), bad, np.zeros(2))
        with pytest.raises(DomainError):
            IntensityModel(Ball(2, 1.0), gaussian(2), bad)
        with pytest.raises(DomainError):
            cached_knot_radii(1.0, gaussian(2), bad, (0.3, 0.7))
    for beta, omega in ((0.7, 0.3), (0.0, 0.7), (0.3, 1.0)):
        with pytest.raises(DomainError, match="0 < beta < omega < 1"):
            cached_knot_radii(1.0, gaussian(2), 0.05, (beta, omega))
    with pytest.raises(DomainError, match="not a ball"):
        IntensityModel(HalfSpace(2), gaussian(2), 0.05)


def test_points_of_another_dimension_are_refused():
    """Points that are not d-vectors raise DomainError, (n, 1) points
    included, which numpy would broadcast as d-vectors; a single
    d-vector gives a half-space's grey value as a float."""
    psf = gaussian(2)
    calls = []
    for body in (Ball(2, 1.0), HalfSpace(2)):
        calls += [body.contains,
                  lambda pts, body=body: body.grey_values(psf, 0.1, pts)]
    calls.append(centered_box((1.0, 1.0)).contains)
    for call in calls:
        for bad in ([[0.5], [2.0]], [[0.5, 0.2, 0.1]], [0.5], 0.5,
                    np.zeros((2, 2, 2))):
            with pytest.raises(DomainError, match="not 2-vectors"):
                call(bad)
        assert len(call([[0.5, 0.2], [2.0, 0.0]])) == 2
    assert isinstance(HalfSpace(2).grey_values(psf, 0.1, [0.01, 0.5]),
                      float)


def test_phantoms_answer_membership_and_others_are_refused():
    pts = np.array([[1.0, -0.5], [1.0, -0.49], [0.0, 0.3]])
    moved = Ball(2, 0.5, center=(1.0, -1.0))
    np.testing.assert_array_equal(moved.contains(pts), [True, False, False])
    hs = HalfSpace(2, normal=(0.0, 2.0), offset=0.25)
    np.testing.assert_array_equal(hs.contains(pts), [True, True, False])
    # a phantom that is neither a ball nor a half-space has no grey values
    bare, psf = Phantom(2), gaussian(2)
    for call in (lambda: IntensityModel(bare, psf, 0.05),
                 lambda: intensity(bare, psf, 0.05, np.zeros(2))):
        with pytest.raises(DomainError, match="unsupported phantom"):
            call()
