"""Coefficient tables for the Bessel functions J0 and J1 in greyvar._special.

    python tools/fit_special.py

prints the tables as Python source, ready to replace the block between
the ``# --- generated by tools/fit_special.py`` markers of
src/greyvar/_special.py.  Everything is computed with mpmath at 40
digits and rounded to doubles once, so the output is the same on every
run; tests/test_special.py checks that the committed tables equal it.

Two ranges, as in Cephes (S. L. Moshier, Methods and Programs for
Mathematical Functions, 1989):

* 0 <= x <= 8: Chebyshev series in s = x/8 of J0(8s) and J1(8s),
  interpolated at the first-kind Chebyshev nodes; the coefficients of
  the other parity are zero.  (A series in x^2 would have its end
  point at x = 0, where Clenshaw's recurrence loses about 1e-15 of
  J0 ~ 1; in x/8 that point is the middle of the interval.)
* x >= 8: modulus and phase, J_n(x) = M_n(x) cos(theta_n(x)), with
  M_n(x)^2 x/8 and (theta_n(x) - x + (2n+1) pi/4) x/8 as polynomials in
  w = 64/x^2 on [0, 1]; interpolated in the same way, then converted to
  monomial coefficients for Horner's rule.  M_n^2 = J_n^2 + Y_n^2 and
  theta_n = atan2(Y_n, J_n), continued from the asymptotic phase.
"""

from __future__ import annotations

import mpmath as mp

DIGITS = 40
# number of Chebyshev coefficients on [0, 8]; the first one dropped is
# under 2e-19 for both functions
SMALL_TERMS = 34
# polynomial degree in w = 64/x^2 beyond x = 8; interpolation error
# under 5e-17 in both the modulus and the phase
LARGE_DEGREE = 11


def chebyshev_coefficients(f, n: int) -> list:
    """Coefficients c_0..c_{n-1} of the Chebyshev interpolant of f on
    [-1, 1] at the n first-kind nodes, so that f ~ sum c_k T_k."""
    nodes = [mp.cos(mp.pi * (k + mp.mpf(1) / 2) / n) for k in range(n)]
    values = [f(t) for t in nodes]
    out = []
    for j in range(n):
        s = mp.fsum(values[k] * mp.cos(mp.pi * j * (k + mp.mpf(1) / 2) / n)
                    for k in range(n))
        out.append(s * (1 if j == 0 else 2) / n)
    return out


def shifted_to_monomial(c: list) -> list:
    """Monomial coefficients a_i, sum a_i w^i = sum c_k T_k(2w - 1)."""
    n = len(c)
    cheb = [[mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]]
    for k in range(2, n):
        up = [mp.mpf(0)] + [2 * v for v in cheb[k - 1]]
        down = cheb[k - 2] + [mp.mpf(0)] * (len(up) - len(cheb[k - 2]))
        cheb.append([u - d for u, d in zip(up, down)])
    in_t = [mp.mpf(0)] * n
    for k in range(n):
        for i, v in enumerate(cheb[k]):
            in_t[i] += c[k] * v
    out = [mp.mpf(0)] * n
    for i in range(n):
        for j in range(i + 1):
            out[j] += in_t[i] * mp.binomial(i, j) * 2 ** j * (-1) ** (i - j)
    return out


def _small_range(order: int) -> list:
    """Chebyshev coefficients of J_order(8s), s in [-1, 1]."""
    c = chebyshev_coefficients(lambda s: mp.besselj(order, 8 * s),
                               SMALL_TERMS)
    return [v if (k - order) % 2 == 0 else mp.mpf(0)
            for k, v in enumerate(c)]


def _modulus_phase(order: int):
    """(M^2 x/8, (theta - x + (2n+1) pi/4) x/8) as functions of
    t = 2w - 1, w = 64/x^2."""
    def both(t):
        x = 8 / mp.sqrt((t + 1) / 2)
        j, y = mp.besselj(order, x), mp.bessely(order, x)
        base = x - (2 * order + 1) * mp.pi / 4
        theta = mp.atan2(y, j)
        theta += 2 * mp.pi * mp.nint((base - theta) / (2 * mp.pi))
        return (j * j + y * y) * x / 8, (theta - base) * x / 8
    return (lambda t: both(t)[0]), (lambda t: both(t)[1])


def fit_tables() -> dict[str, tuple[float, ...]]:
    """Every table of greyvar._special, by name, as doubles."""
    with mp.workdps(DIGITS):
        tables = {}
        for order in (0, 1):
            tables[f"_J{order}_SMALL"] = _small_range(order)
            modulus, phase = _modulus_phase(order)
            for name, f in (("MODULUS", modulus), ("PHASE", phase)):
                tables[f"_J{order}_{name}"] = shifted_to_monomial(
                    chebyshev_coefficients(f, LARGE_DEGREE + 1))
        return {k: tuple(float(v) for v in vs) for k, vs in tables.items()}


def render(tables: dict[str, tuple[float, ...]]) -> str:
    lines = []
    for name, values in tables.items():
        lines.append(f"{name} = (")
        lines.extend(f"    {v!r}," for v in values)
        lines.append(")")
    return "\n".join(lines)


if __name__ == "__main__":
    print(render(fit_tables()))
