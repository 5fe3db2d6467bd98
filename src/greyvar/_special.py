"""Incomplete beta and Bessel functions at the parameters greyvar uses,
in numpy and the standard library.

The compact kernels' edge profiles, ball masses and radius density need
the regularized incomplete beta I_x(a, b) at (4.5, 4.5), (5, 5),
(1.5, 1.5), (2, 2), (1, 4), (1.5, 4), (1, 1) and (1.5, 1), and its
inverse at the equal pairs.  The radial transforms need J0 and J1 (d=2
Hankel kernels), J_{1/2} and J_{3/2}, and the Bochner-Riesz kernels of
orders 1, 3/2, 4 and 9/2.

* ``betainc`` with an integer second parameter is the finite sum
  x^a sum_{j<b} (a)_j/j! (1-x)^j (DLMF 8.17.5), whose terms are all
  positive.  At a = b = n + 1/2 it computes the smaller tail
  I_y(a, a), y = min(x, 1 - x) (1 - x is exact for x >= 1/2): by the
  power series of DLMF 8.17.8, of positive terms, below y = 0.35, and
  by arcsin(sqrt y) plus a polynomial in y(1 - y) times
  sqrt(y(1 - y)) above, where that form no longer cancels.
* ``betaincinv`` (equal parameters) takes Newton steps on the smaller
  tail from the lower bound (y / c)^{1/a} of its root, clamped to
  [0, 1/2], each entry until its own first small step, and raises
  ``TruncationError`` after ``_NEWTON_STEPS``.  No value of either
  function depends on the other points of its call.
* ``j0`` and ``j1`` follow Cephes (S. L. Moshier, Methods and Programs
  for Mathematical Functions, 1989): Chebyshev series in x/8 on [0, 8],
  modulus and phase polynomials in 64/x^2 beyond.  The coefficients
  come from ``tools/fit_special.py`` (mpmath).  The phase is reduced
  modulo a two-part 2 pi (Cody-Waite) before the cosine, so below
  x = 2^20 pi it does not pay the ulp of x that rounding x - pi/4
  costs.  From the fixed cuts x = 64 and x = 256 on, Horner runs over
  only the leading terms of each modulus and phase polynomial: as few
  as leave a dropped tail sum_{i>=n} |c_i| w^i under 2^-60 of |c_0| at
  the cut, where w is largest (7 of the 12 terms from x = 64, 4 of the
  modulus's and 5 of the phase's from x = 256).  The cuts are fixed, so
  a value depends on its own argument alone.
* ``bessel_lambda`` is Gamma(nu+1) (2/z)^nu J_nu(z), which is 1 at 0:
  its power series below z = 5, and above it 2 J1(z)/z, the forward
  recurrence from J0 and J1 to J4, or the elementary sin/cos forms of
  the half-integer orders (DLMF 10.49.3).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError, TruncationError


def _split(x, cut: float, below, above):
    """below(x) where x < cut and above(x) elsewhere (array); no masks
    when every point is on one side."""
    if x.size and x.min() >= cut:
        return above(x)
    if not x.size or x.max() < cut:
        return below(x)
    out = np.empty_like(x)
    high = x >= cut
    out[high] = above(x[high])
    out[~high] = below(x[~high])
    return out


def _horner(coeffs, w, out):
    """sum_i c_i w^i into out (an array shaped like w)."""
    out[...] = coeffs[-1]
    for c in coeffs[-2::-1]:
        out *= w
        out += c
    return out


# ---------------------------------------------------------------------------
# regularized incomplete beta function

# the series leaves out the terms under this share of its sum, whose
# first term is 1
_SERIES_TOL = 2.0 ** -56
# from here to 1/2 the arcsin form of I_y(a, a) cancels by less than
# a factor 2 for a = 1.5 and 4.5 (relative error 6.6e-16 against
# mpmath); below it, where it loses up to eps / y^4, the series
_ARCSIN_Y = 0.35
# Newton steps allowed for the inverse (at most 6 are taken for y from
# 1e-300 to 1/2 at the equal parameters in use)
_NEWTON_STEPS = 30


def _gamma_parts(x: float) -> tuple[Fraction, int]:
    """Gamma(x) = r pi^{k/2} for integer (k = 0) or half-integer
    (k = 1) x > 0, with r rational."""
    if x == int(x):
        return Fraction(math.factorial(int(x) - 1)), 0
    n = int(x - 0.5)
    return Fraction(math.factorial(2 * n),
                    4 ** n * math.factorial(n)), 1


@lru_cache(maxsize=None)
def _series_scale(a: float, b: float) -> float:
    """1 / (a B(a, b)) = Gamma(a+b) / (Gamma(a+1) Gamma(b)), rounded
    once and then divided by pi when a and b are both half-integers."""
    (r0, k0), (r1, k1), (r2, k2) = map(_gamma_parts, (a + b, a + 1.0, b))
    scale = float(r0 / (r1 * r2))
    return scale / math.pi if k0 - k1 - k2 else scale


@lru_cache(maxsize=None)
def _series_coeffs(a: float, b: float) -> np.ndarray:
    """(a+b)_n / (a+1)_n for n = 0, 1, ... while the term at y =
    _ARCSIN_Y is above _SERIES_TOL."""
    coeffs = [1.0]
    while coeffs[-1] * _ARCSIN_Y ** (len(coeffs) - 1) > _SERIES_TOL:
        n = len(coeffs)
        coeffs.append(coeffs[-1] * (a + b + n - 1.0) / (a + n))
    return np.array(coeffs)


def _lower_series(a: float, b: float, y: np.ndarray) -> np.ndarray:
    """I_y(a, b) for 0 <= y < _ARCSIN_Y: y^a (1-y)^b / (a B(a, b)) times
    sum_n (a+b)_n / (a+1)_n y^n, by Horner's rule in y over a fixed
    number of terms, so a value does not depend on the other points."""
    total = _horner(_series_coeffs(a, b), y, np.empty_like(y))
    total *= y ** a
    total *= (1.0 - y) ** b
    total *= _series_scale(a, b)
    return total


def _finite_sum(a: float, n: int, x: np.ndarray) -> np.ndarray:
    """I_x(a, n) for a positive integer n: x^a sum_{j<n} (a)_j/j! (1-x)^j
    (DLMF 8.17.5 with 8.17.4), a sum of positive terms at every x."""
    coeffs = [1.0]
    for j in range(1, n):
        coeffs.append(coeffs[-1] * (a + j - 1.0) / j)
    total = _horner(coeffs, 1.0 - x, np.empty_like(x))
    total *= x ** a
    return total


@lru_cache(maxsize=None)
def _arcsin_coeffs(a: float) -> np.ndarray:
    """1 / ((k+1/2) B(k+1/2, k+1/2)) for k < a - 1/2."""
    return np.array([_series_scale(k + 0.5, k + 0.5)
                     for k in range(int(a - 0.5))])


def _arcsin_form(a: float, y: np.ndarray) -> np.ndarray:
    """I_y(a, a) for a = n + 1/2: (2/pi) arcsin(sqrt y) minus
    (1 - 2y) sum_{k<n} (y(1-y))^{k+1/2} / ((k+1/2) B(k+1/2, k+1/2)),
    from I_y(1/2, 1/2) and DLMF 8.17.20-21."""
    u = y * (1.0 - y)
    poly = _horner(_arcsin_coeffs(a), u, np.empty_like(y))
    poly *= np.sqrt(u)
    poly *= 1.0 - 2.0 * y
    return (2.0 / math.pi) * np.arcsin(np.sqrt(y)) - poly


def betainc(a: float, b: float, x) -> np.ndarray:
    """Regularized incomplete beta I_x(a, b) for x in [0, 1] (array):
    an integer b, or a = b half an odd integer."""
    shape = np.shape(x)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if b == int(b):
        return _finite_sum(a, int(b), x).reshape(shape)
    if a != b:
        raise DomainError(f"betainc needs an integer b or a = b; "
                          f"got ({a}, {b})")
    upper = x > 0.5
    y = np.where(upper, 1.0 - x, x)
    tail = _split(y, _ARCSIN_Y, lambda v: _lower_series(a, a, v),
                  lambda v: _arcsin_form(a, v))
    return np.where(upper, 1.0 - tail, tail).reshape(shape)


def betaincinv(a: float, b: float, y) -> np.ndarray:
    """The x in [0, 1] with I_x(a, a) = y, for y in [0, 1] (array).
    Only equal parameters a = b >= 1 are supported."""
    if a != b or a < 1.0:
        raise DomainError(f"betaincinv needs equal parameters >= 1; "
                          f"got ({a}, {b})")
    shape = np.shape(y)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    upper = y > 0.5
    p = np.where(upper, 1.0 - y, y)
    # I_x(a, a) <= c x^a puts the start at or below the root, and I is
    # convex on [0, 1/2]: the first step lands at or above the root and
    # the later ones fall to it, clamped to the bracket [0, 1/2].  Each
    # entry stops at its own first small step
    c = _series_scale(a, a)
    x = np.minimum((p / c) ** (1.0 / a), 0.5)
    live = np.arange(x.size)
    for _ in range(_NEWTON_STEPS):
        xl = x[live]
        f = betainc(a, a, xl) - p[live]
        slope = (xl * (1.0 - xl)) ** (a - 1.0)
        slope *= a * c
        step = np.divide(f, slope, out=np.zeros_like(f), where=slope > 0.0)
        new = np.clip(xl - step, 0.0, 0.5)
        x[live] = new
        live = live[~(np.abs(new - xl) <= 1e-10 * xl)]
        if not live.size:
            return np.where(upper, 1.0 - x, x).reshape(shape)
    raise TruncationError(f"betaincinv({a}, {b}): Newton did not converge "
                          f"in {_NEWTON_STEPS} steps")


# ---------------------------------------------------------------------------
# Bessel functions

# --- generated by tools/fit_special.py
_J0_SMALL = (
    0.15772797147489012,
    0.0,
    -0.008723442352852221,
    0.0,
    0.2651786132033368,
    0.0,
    -0.37009499387264977,
    0.0,
    0.15806710233209725,
    0.0,
    -0.034893769411408884,
    0.0,
    0.004819180069467605,
    0.0,
    -0.00046062616620627504,
    0.0,
    3.246032882100508e-05,
    0.0,
    -1.7619469077621507e-06,
    0.0,
    7.608163592418782e-08,
    0.0,
    -2.679253530557673e-09,
    0.0,
    7.848696314479465e-11,
    0.0,
    -1.9438346867370144e-12,
    0.0,
    4.1253205956090334e-14,
    0.0,
    -7.588507876890904e-16,
    0.0,
    1.2216320080758091e-17,
    0.0,
)
_J0_MODULUS = (
    0.07957747154594766,
    -0.00015542474911211593,
    4.098113450324701e-06,
    -3.3350432947256666e-07,
    5.584539602387312e-08,
    -1.584223247048806e-08,
    6.630432026535574e-09,
    -3.468124306384001e-09,
    1.836187669606406e-09,
    -7.976618821176784e-10,
    2.3099798444903004e-10,
    -3.194184213562119e-11,
)
_J0_PHASE = (
    -0.015624999999999976,
    0.00012715657551386607,
    -6.395578045153424e-06,
    7.810840900036392e-07,
    -1.7483564131767842e-07,
    6.193341805727787e-08,
    -3.0686447583679294e-08,
    1.8021787613225334e-08,
    -1.0237382920884501e-08,
    4.631197021152779e-09,
    -1.373361872793911e-09,
    1.9269633075226698e-10,
)
_J1_SMALL = (
    0.0,
    0.052458190334656485,
    0.0,
    0.048096469158230376,
    0.0,
    0.3132750823615672,
    0.0,
    -0.24186740844740748,
    0.0,
    0.07426679621678704,
    0.0,
    -0.012967627311735175,
    0.0,
    0.0014899128966676385,
    0.0,
    -0.00012227868505432427,
    0.0,
    7.56263022969605e-06,
    0.0,
    -3.661308552336289e-07,
    0.0,
    1.4277324387310239e-08,
    0.0,
    -4.585700307569619e-10,
    0.0,
    1.2351748111805942e-11,
    0.0,
    -2.831773519846897e-13,
    0.0,
    5.595089712250494e-15,
    0.0,
    -9.629161796397596e-17,
    0.0,
    1.4762711665452013e-18,
)
_J1_MODULUS = (
    0.07957747154594767,
    0.0004662742473383414,
    -6.83018911189177e-06,
    4.6690633734692817e-07,
    -7.180288182198108e-08,
    1.9369045203803784e-08,
    -7.851715470448711e-09,
    4.027720004575495e-09,
    -2.109287152559215e-09,
    9.108830197618059e-10,
    -2.6291295104085226e-10,
    3.628338623084672e-11,
)
_J1_PHASE = (
    0.04687499999999997,
    -0.00032043457030463785,
    1.1318921660099049e-05,
    -1.1298095017859028e-06,
    2.2809037120640456e-07,
    -7.626249883977147e-08,
    3.650444388386048e-08,
    -2.1014028390648847e-08,
    1.1807597855488256e-08,
    -5.310165393552522e-09,
    1.5694910321031625e-09,
    -2.1977656927660102e-10,
)

# --- end of generated tables

# 2 pi = _TWO_PI_HI + _TWO_PI_LO to about 86 bits; _TWO_PI_HI has 33
# significant bits, so n * _TWO_PI_HI is exact for n < 2^20
_TWO_PI_HI = 6.2831853069365025
_TWO_PI_LO = 2.430840202602477e-10
_LARGE_X = 8.0
# from each cut on, _modulus_phase keeps the leading terms of the
# modulus and phase polynomials whose dropped tail is under _TAIL_TOL of
# the first term at the cut
_TAIL_CUTS, _TAIL_TOL = (64.0, 256.0), 2.0 ** -60
# points per pass of _modulus_phase: its four temporaries (64 KiB each)
# stay under glibc's 128 KiB mmap threshold, so they are reused from the
# heap instead of mapped and faulted in afresh on every call
_BLOCK = 8192


def _clenshaw(coeffs, t):
    """sum c_k T_k(t) (array t), by Clenshaw's recurrence b_k = 2 t
    b_{k+1} - b_{k+2} + c_k in three buffers that take turns, so no step
    allocates."""
    t2 = 2.0 * t
    b1, b2, b0 = np.zeros_like(t), np.zeros_like(t), np.empty_like(t)
    for c in coeffs[:0:-1]:
        np.multiply(t2, b1, out=b0)
        b0 -= b2
        b0 += c
        b0, b1, b2 = b2, b0, b1
    b1 *= t
    b1 -= b2
    b1 += coeffs[0]
    return b1


@lru_cache(maxsize=None)
def _leading(coeffs: tuple, cut: float) -> tuple:
    """The fewest leading terms of sum_i c_i w^i whose dropped tail
    sum_{i>=n} |c_i| w^i at w = 64/cut^2 is under _TAIL_TOL |c_0|; the
    tail only shrinks as x grows past the cut."""
    w = 64.0 / (cut * cut)
    n, tail = len(coeffs), 0.0
    while n > 1:
        tail += abs(coeffs[n - 1]) * w ** (n - 1)
        if tail >= _TAIL_TOL * abs(coeffs[0]):
            break
        n -= 1
    return coeffs[:n]


def _modulus_phase(x, modulus, phase, offset: float):
    """M(x) cos(theta(x)) for x >= 8, with M^2 x/8 = modulus(w) and
    theta = x - offset + (8/x) phase(w), w = 64/x^2: each range between
    _LARGE_X and the _TAIL_CUTS sums the leading terms kept from its
    lower end on."""
    def series(cut):
        return lambda s: _modulus_phase_series(
            s, _leading(modulus, cut), _leading(phase, cut), offset)

    lo, hi = _TAIL_CUTS
    return _split(x, hi, lambda s: _split(s, lo, series(_LARGE_X),
                                          series(lo)), series(hi))


def _modulus_phase_series(x, modulus, phase, offset: float):
    """M(x) cos(theta(x)) as in _modulus_phase, by Horner's rule over
    the given terms of the modulus and phase polynomials."""
    out = np.empty_like(x)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    for i in range(0, flat_x.size, _BLOCK):
        xb = flat_x[i:i + _BLOCK]
        theta = flat_out[i:i + _BLOCK]
        z = np.divide(8.0, xb)
        w = np.square(z)
        _horner(phase, w, theta)
        theta *= z
        theta -= offset
        # x - n 2 pi: n _TWO_PI_HI is exact and so is its difference
        # from x
        n = np.multiply(xb, 1.0 / (2.0 * math.pi))
        np.rint(n, out=n)
        m = np.multiply(n, _TWO_PI_HI)
        np.subtract(xb, m, out=m)
        theta += m
        n *= _TWO_PI_LO
        theta -= n
        np.cos(theta, out=theta)
        _horner(modulus, w, m)
        m *= z
        np.sqrt(m, out=m)
        theta *= m
    return out


def j0(x) -> np.ndarray:
    """Bessel J0 (array)."""
    x = np.asarray(x, dtype=float)
    if x.size and x.min() < 0.0:
        x = np.abs(x)
    return _split(
        x, _LARGE_X, lambda s: _clenshaw(_J0_SMALL, s / 8.0),
        lambda s: _modulus_phase(s, _J0_MODULUS, _J0_PHASE,
                                 0.25 * math.pi))


def j1(x) -> np.ndarray:
    """Bessel J1 (array); odd in x."""
    x = np.asarray(x, dtype=float)
    out = _split(
        np.abs(x), _LARGE_X, lambda s: _clenshaw(_J1_SMALL, s / 8.0),
        lambda s: _modulus_phase(s, _J1_MODULUS, _J1_PHASE,
                                 0.75 * math.pi))
    return out * np.sign(x)


# below z = 5 bessel_lambda takes its power series, whose first term
# left out is under 3e-19 for nu >= 1.  Above it the closed forms and
# the recurrence lose up to 6e-16 of orders 4 and 4.5 on [4, 4.5]; the
# series loses at most 2.1e-16 there (mpmath, 40 digits)
_SERIES_Z, _SERIES_TERMS = 5.0, 18


def _lambda_series(nu: float, z) -> np.ndarray:
    """sum_m (-z^2/4)^m / (m! (nu+1)_m)."""
    step = -0.25 * z * z
    term = np.ones_like(step)
    total = term.copy()
    for m in range(1, _SERIES_TERMS):
        term *= step / (m * (nu + m))
        total += term
    return total


def _lambda_large(nu: float, z) -> np.ndarray:
    """Gamma(nu+1) (2/z)^nu J_nu(z) for z >= 5, in powers of u = 1/z."""
    u = 1.0 / z
    if nu == 0.5:
        return u * np.sin(z)
    if nu == 1.0:
        return 2.0 * u * j1(z)
    if nu == 1.5:
        # 3 (sin z - z cos z) / z^3
        return 3.0 * u * u * (u * np.sin(z) - np.cos(z))
    if nu == 4.0:
        # J_{n+1} = 2n J_n / z - J_{n-1}, from J0 and J1 up to J4
        prev, cur = j0(z), j1(z)
        for n in (1, 2, 3):
            prev, cur = cur, 2.0 * n * u * cur - prev
        return 384.0 * u ** 4 * cur
    if nu == 4.5:
        # 945 z^{-9} ((z^4 - 45 z^2 + 105) sin z + (10 z^3 - 105 z) cos z)
        u2 = u * u
        return 945.0 * u ** 5 * (((105.0 * u2 - 45.0) * u2 + 1.0) * np.sin(z)
                                 + (10.0 - 105.0 * u2) * u * np.cos(z))
    raise DomainError(f"unsupported Bessel order {nu}")


def bessel_lambda(nu: float, z) -> np.ndarray:
    """Gamma(nu+1) (2/z)^nu J_nu(z) at z >= 0 (array), for nu in
    {1/2, 1, 3/2, 4, 9/2}: exactly 1 at z = 0.  Below _SERIES_Z it sums
    the power series, which keeps the digits that z^{-nu} J_nu(z) loses
    at small z."""
    return _split(np.asarray(z, dtype=float), _SERIES_Z,
                  lambda v: _lambda_series(nu, v),
                  lambda v: _lambda_large(nu, v))
