"""The numpy incomplete beta and Bessel functions against mpmath at 40
digits (which shares no code with them) and against scipy.special.

Each bound is of the order of scipy's own error against mpmath on the
same range, measured with the same points: 1.2e-15 relative for the
incomplete beta on [1e-12, 1/2], and for J0/J1 twice scipy's largest
absolute error on 1,500 random points per range.
"""

import importlib.util
import math
import os

import mpmath as mp
import numpy as np
import pytest
from scipy import special

from greyvar import _special
from greyvar.errors import DomainError, TruncationError
from greyvar.spectral import _compact_fourier
from greyvar.variance import RadiusDensity



@pytest.fixture(autouse=True)
def _forty_digits():
    with mp.workdps(40):
        yield

# the (a, b) of every incomplete beta the package evaluates: edge
# profiles (p+1, p+1), ball masses (d/2, k+1), the radius density (5, 5)
PAIRS = [(4.5, 4.5), (5.0, 5.0), (1.5, 1.5), (2.0, 2.0),
         (1.0, 4.0), (1.5, 4.0), (1.0, 1.0), (1.5, 1.0)]
EQUAL = [a for a, b in PAIRS if a == b]


def _lower_half(n, seed):
    """n points on [1e-12, 1/2], log-uniform."""
    rng = np.random.default_rng(seed)
    return np.sort(10.0 ** rng.uniform(-12.0, math.log10(0.5), n))


@pytest.mark.parametrize("a,b", PAIRS)
def test_betainc_matches_mpmath_in_both_tails(a, b):
    """Relative error under 1.2e-15 on [1e-12, 1 - 1e-12], both tails
    (measured at most 5.5e-16, at (4.5, 4.5))."""
    lower = _lower_half(40, seed=int(10 * a + b))
    x = np.concatenate([lower, 1.0 - lower])
    got = _special.betainc(a, b, x)
    for xi, gi in zip(x, got):
        want = mp.betainc(a, b, 0, mp.mpf(float(xi)), regularized=True)
        assert abs(mp.mpf(float(gi)) - want) <= 1.2e-15 * want, (xi, gi)


@pytest.mark.parametrize("a,b", PAIRS)
def test_betainc_matches_scipy(a, b):
    x = np.concatenate([np.linspace(0.0, 1.0, 2001),
                        _lower_half(500, seed=1)])
    np.testing.assert_allclose(_special.betainc(a, b, x),
                               special.betainc(a, b, x),
                               rtol=2.5e-15, atol=0.0)


@pytest.mark.parametrize("a", EQUAL)
def test_betaincinv_round_trip(a):
    y = np.concatenate([[0.0, 0.5, 1.0], _lower_half(200, seed=2)])
    y = np.concatenate([y, 1.0 - y])
    x = _special.betaincinv(a, a, y)
    assert np.all((0.0 <= x) & (x <= 1.0))
    np.testing.assert_allclose(_special.betainc(a, a, x), y,
                               rtol=4e-15, atol=0.0)
    # the lower tail keeps its relative accuracy at 1e-300
    tiny = _special.betaincinv(a, a, 1e-300)
    assert _special.betainc(a, a, tiny) == pytest.approx(1e-300,
                                                         rel=4e-15)


@pytest.mark.parametrize("a", EQUAL)
def test_values_do_not_depend_on_the_other_points_of_a_call(a):
    """betainc and betaincinv at one point give the same bits as a
    scalar, as a one-element array and inside a call on 1,000 points on
    both sides of the series cut: the series takes a fixed number of
    terms, and each Newton entry stops at its own first small step."""
    rng = np.random.default_rng(int(10 * a))
    for fn in (_special.betainc, _special.betaincinv):
        v = rng.random(1000)
        full = fn(a, a, v)
        for one in (lambda t: float(fn(a, a, t)),
                    lambda t: fn(a, a, np.array([t]))[0]):
            np.testing.assert_array_equal([one(t) for t in v], full)


def test_unsupported_parameters_are_refused():
    with pytest.raises(DomainError):
        _special.betainc(2.5, 1.5, 0.3)
    with pytest.raises(DomainError):
        _special.betaincinv(4.5, 5.0, 0.3)
    with pytest.raises(DomainError):
        _special.bessel_lambda(2.0, 7.0)


def test_betaincinv_gives_up_after_its_step_cap(monkeypatch):
    monkeypatch.setattr(_special, "_NEWTON_STEPS", 1)
    with pytest.raises(TruncationError):
        _special.betaincinv(4.5, 4.5, 0.3)


def test_radius_draws_match_the_exact_quantile():
    """RadiusDensity.sample inverts the same uniforms: each draw is
    within 4 ulps of the mpmath root, and within 16 ulps of scipy's
    betaincinv(5, 5, u), which is itself up to 12 ulps off the root
    (measured over 1e5 draws)."""
    n = 100_000
    draws = RadiusDensity(1.0, 2.0).sample(np.random.default_rng(5), n)
    u = np.random.default_rng(5).random(n)
    ref = 1.0 + special.betaincinv(5.0, 5.0, u)
    assert np.all(np.abs(draws - ref) <= 16 * np.spacing(ref))
    x = _special.betaincinv(5.0, 5.0, u[:200])
    for ui, xi in zip(u[:200], x):
        root = mp.findroot(lambda t: mp.betainc(5, 5, 0, t, regularized=True)
                           - mp.mpf(float(ui)), mp.mpf(float(xi)))
        assert abs(mp.mpf(float(xi)) - root) <= 4 * np.spacing(xi)


# (range, j0 bound, j1 bound): twice scipy's largest absolute error
# against mpmath on 1,500 random points of each range
BESSEL_RANGES = [((0.0, 8.0), 6.6e-16, 4.4e-16),
                 ((8.0, 100.0), 7.4e-16, 1.2e-15),
                 ((100.0, 2e4), 1.6e-14, 7.2e-15)]


@pytest.mark.parametrize("span,bound0,bound1", BESSEL_RANGES)
def test_j0_j1_match_mpmath(span, bound0, bound1):
    """Measured on 1,500 points per range: at most 2.5e-16 (J0) and
    2.1e-16 (J1), since the phase is reduced modulo 2 pi before the
    cosine."""
    x = np.random.default_rng(12345).uniform(*span, 500)
    for order, fn, bound in ((0, _special.j0, bound0),
                             (1, _special.j1, bound1)):
        got = fn(x)
        for xi, gi in zip(x, got):
            want = mp.besselj(order, mp.mpf(float(xi)))
            assert abs(mp.mpf(float(gi)) - want) <= bound, (order, xi)


def test_j0_j1_match_scipy_and_parity():
    x = np.concatenate([np.linspace(0.0, 30.0, 30001),
                        np.geomspace(30.0, 2e4, 20000)])
    np.testing.assert_allclose(_special.j0(x), special.j0(x), rtol=0,
                               atol=2e-14)
    np.testing.assert_allclose(_special.j1(x), special.j1(x), rtol=0,
                               atol=2e-14)
    assert np.array_equal(_special.j0(-x), _special.j0(x))
    assert np.array_equal(_special.j1(-x), -_special.j1(x))


LARGE_SERIES = [(_special.j0, _special._J0_MODULUS, _special._J0_PHASE,
                 0.25 * math.pi),
                (_special.j1, _special._J1_MODULUS, _special._J1_PHASE,
                 0.75 * math.pi)]


def _around_cuts(n):
    """geomspace(8, 1e6, n) and the three floats on each side of every
    cut of the modulus-phase series."""
    x = [np.geomspace(8.0, 1e6, n)]
    for cut in _special._TAIL_CUTS:
        below, above = [cut], [cut]
        for _ in range(3):
            below.append(np.nextafter(below[-1], 0.0))
            above.append(np.nextafter(above[-1], np.inf))
        x.append(np.array(below[1:] + above))
    return np.sort(np.concatenate(x))


@pytest.mark.parametrize("fn,modulus,phase,offset", LARGE_SERIES)
def test_cut_modulus_phase_series_within_an_ulp_of_the_envelope(
        fn, modulus, phase, offset):
    """From x = 64 and x = 256 on, J0 and J1 sum only the leading terms
    of their modulus and phase polynomials.  Over geomspace(8, 1e6) and
    on both sides of each cut, no value moves by more than one ulp of
    the envelope sqrt(2/(pi x)) from the full 12-term series."""
    x = _around_cuts(200_001)
    full = _special._modulus_phase_series(x, modulus, phase, offset)
    envelope = np.spacing(np.sqrt(2.0 / (math.pi * x)))
    assert np.all(np.abs(fn(x) - full) <= envelope)


@pytest.mark.parametrize("coeffs", [_special._J0_MODULUS, _special._J0_PHASE,
                                    _special._J1_MODULUS, _special._J1_PHASE])
def test_cut_series_drop_a_tail_under_2_to_the_minus_60(coeffs):
    """The terms each cut keeps are the fewest whose dropped tail
    sum_{i>=n} |c_i| w^i at w = 64/cut^2 is under 2^-60 |c_0|: 7 of 12
    from x = 64, 4 or 5 from x = 256, and all 12 below."""
    assert _special._leading(coeffs, _special._LARGE_X) == coeffs
    for cut in _special._TAIL_CUTS:
        n = len(_special._leading(coeffs, cut))
        w = 64.0 / cut ** 2
        tail = [sum(abs(c) * w ** i for i, c in enumerate(coeffs) if i >= k)
                for k in (n - 1, n)]
        assert tail[1] < 2.0 ** -60 * abs(coeffs[0]) <= tail[0]
        assert (n == 7) if cut == 64.0 else (n in (4, 5))


def test_bessel_values_do_not_depend_on_the_other_points_of_a_call():
    """J0 and J1 at one point give the same bits as a scalar, as a
    one-element array and inside an array (1-D, or the 2-D outer product
    a Hankel rule takes) that straddles every cut: the terms are chosen
    by fixed argument ranges, never by the other points."""
    x = np.concatenate([_around_cuts(500), np.geomspace(1.0, 8.0, 50)])
    grid = np.outer(np.linspace(0.5, 3.0, 40), np.linspace(1.0, 200.0, 60))
    many = _around_cuts(200_001)
    ranges = np.searchsorted(_special._TAIL_CUTS, many, side="right")
    for fn in (_special.j0, _special.j1):
        np.testing.assert_array_equal(
            fn(many), np.concatenate([fn(many[ranges == k])
                                      for k in range(3)]))
        row = fn(x)
        for one in (lambda t: float(fn(t)), lambda t: fn(np.array([t]))[0]):
            np.testing.assert_array_equal([one(t) for t in x], row)
        np.testing.assert_array_equal(
            fn(grid), np.reshape([fn(np.array([t]))[0] for t in grid.flat],
                                 grid.shape))


@pytest.mark.parametrize("nu", [1.0, 1.5, 4.0, 4.5])
def test_compact_fourier_across_series_cutover(nu):
    """Gamma(nu+1) x^{-nu} J_nu(2x) for 2x in [3, 10], across the cut-over
    at 2x = 5 between the power series and the closed forms (J4 by
    recurrence from J0 and J1): within 6e-16 of mpmath (measured at
    most 3.0e-16)."""
    q = np.linspace(3.0, 10.0, 141) / (2.0 * math.pi)
    got = _compact_fourier(nu, 1.0, q)
    for qi, gi in zip(q, got):
        x = mp.mpf(math.pi * 1.0 * float(qi))
        want = mp.gamma(nu + 1) * x ** -nu * mp.besselj(nu, 2 * x)
        assert abs(mp.mpf(float(gi)) - want) <= 6e-16, (nu, 2 * x)


def test_clenshaw_in_place_keeps_the_bits_of_the_recurrence():
    """The in-place Clenshaw sum gives J0 and J1 on [0, 8] the bits of
    the plain recurrence b1, b2 = 2 t b1 - b2 + c, b1."""
    t = np.random.default_rng(7).random(20_000)
    for coeffs in (_special._J0_SMALL, _special._J1_SMALL):
        b1 = b2 = np.zeros_like(t)
        for c in coeffs[:0:-1]:
            b1, b2 = 2.0 * t * b1 - b2 + c, b1
        np.testing.assert_array_equal(_special._clenshaw(coeffs, t),
                                      t * b1 - b2 + coeffs[0])


def test_bessel_tables_are_reproducible():
    """tools/fit_special.py rebuilds every coefficient table bit for bit."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "fit_special", os.path.join(root, "tools", "fit_special.py"))
    fit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fit)
    tables = fit.fit_tables()
    assert len(tables) == 6
    for name, values in tables.items():
        assert getattr(_special, name) == values, name
