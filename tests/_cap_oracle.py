"""Grey values of a blurred ball by quadrature of the radial cap
integral, the oracle of the package's closed forms; it shares no code
with them.

The sphere of radius s about a point at distance r from the centre meets
B(R) in a cap whose normalized area is capfrac(r, s, R, d), so

    theta_a(B(R))(r) = int_0^W rho(w) surf(S^{d-1}) w^{d-1}
                           capfrac(r, a w, R, d) dw.

The rule takes 24 Gauss-Legendre panels on the core [0, |R - r|/a],
where the cap fraction is 1 or 0, and grades each half of the
transition [|R - r|/a, (R + r)/a], cut at the integration radius W (the
support radius, or 20 for the Gaussian), toward its end.  In d=2 the
cap fraction has square-root behaviour where the cap appears or
disappears; each half substitutes w = w_edge +/- zeta^2 there, which
removes the singularity.  Beside the inner edge the arccos turns over
within about w1 = |R - r|/a, so the inner half's first panels are
sqrt(w1) wide in zeta and double until they reach the width of the 16
equal panels that take the rest.  Every panel has 15 nodes.

Against mpmath at 30 digits (a in {0.1, 0.0125}, 31 radii each side of
R at r - R = +/-geomspace(1e-8, 1e-2) a, and r - R in {-2, -0.5, -0.1,
0.0025, 0.081, 0.5, 0.9} a) it is within 3.3e-16 for every (PSF, d)
pair, near R too; at r = 0 it is within 2.2e-16 of the PSF's mass in
B(R/a) (a in {0.6, 0.1}).
"""

import math

import numpy as np

from greyvar.psf import eval_rho, sphere_area

# the Gaussian's integration cutoff: its density's mass beyond radius 20
# is under 1e-80 in d = 2 and 3
_GAUSSIAN_CUTOFF = 20.0

# Gauss-Legendre order of every panel; panels on the core [0, w1] (cap
# fraction constant there) and on the rest of each transition half, in
# the graded variable zeta
_ORDER = 15
_N_CORE = 24
_N_EDGE = 16
# doublings of the first transition half's panels in zeta, at most
_MAX_DOUBLINGS = 30
# rows of radii per block, which bounds the node arrays
_ROW_BLOCK = 512


def capfrac(r, s, R: float, d: int):
    """Fraction of the sphere of radius s centered at distance r from the
    origin that lies inside the centered ball of radius R (vectorized);
    r^2 - R^2 is taken as (r - R)(r + R), which does not cancel near
    R."""
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = ((r - R) * (r + R) + s * s) / (2.0 * r * s)
    mu = np.where(np.isfinite(mu), mu, np.where(s <= R, -1.0, 1.0))
    mu = np.clip(mu, -1.0, 1.0)
    if d == 2:
        return np.arccos(mu) / math.pi
    return 0.5 * (1.0 - mu)


def _gauss(edges):
    """Nodes and weights of _ORDER-point Gauss-Legendre panels between
    consecutive columns of `edges` (one row per radius); a panel of zero
    width gets zero weights."""
    x, w = np.polynomial.legendre.leggauss(_ORDER)
    lo = edges[:, :-1, None]
    half = 0.5 * (edges[:, 1:, None] - lo)
    rows = len(edges)
    return ((lo + half * (1.0 + x)).reshape(rows, -1),
            (half * w).reshape(rows, -1))


def _zeta_edges(span, feature):
    """Panel edges in zeta over [0, sqrt(span)] for each row: panels
    doubling from sqrt(feature) (floored at 2^-_MAX_DOUBLINGS of the
    uniform width), until they reach the width sqrt(span)/_N_EDGE of the
    _N_EDGE equal panels that take the rest."""
    top = np.sqrt(span)[:, None]
    uniform = top / _N_EDGE
    start = np.maximum(np.sqrt(feature)[:, None],
                       uniform * 2.0 ** -_MAX_DOUBLINGS)
    doublings = int(np.ceil(np.log2(np.max(uniform / start))))
    geometric = np.minimum(start * 2.0 ** np.arange(max(doublings, 0) + 1),
                           uniform)
    steps = np.arange(1, _N_EDGE + 1) / _N_EDGE
    return np.hstack((np.zeros_like(top), geometric,
                      uniform + (top - uniform) * steps))


def cap_quadrature(psf, a: float, R: float, radii) -> np.ndarray:
    """Grey values of a centered ball at the given radii (vectorized)."""
    r = np.atleast_1d(np.asarray(radii, dtype=float))
    out = np.empty_like(r)
    for i in range(0, len(r), _ROW_BLOCK):
        out[i:i + _ROW_BLOCK] = _cap_rows(psf, a, R, r[i:i + _ROW_BLOCK])
    return np.clip(out, 0.0, 1.0)


def _cap_rows(psf, a: float, R: float, r) -> np.ndarray:
    """cap_quadrature on one block of radii."""
    d = psf.dim
    W = psf.support_radius if psf.compact else _GAUSSIAN_CUTOFF
    w1 = np.abs(R - r) / a
    w2 = (R + r) / a
    density = lambda w: sphere_area(d) * eval_rho(psf, w) * w ** (d - 1)
    vals = np.zeros_like(r)

    # core segment [0, min(w1, W)], cap fraction is 1 inside / 0 outside
    inside = r < R
    if np.any(inside):
        hi = np.minimum(w1, W)[inside]
        nodes, wts = _gauss(hi[:, None] * np.linspace(0.0, 1.0,
                                                      _N_CORE + 1))
        vals[inside] += (density(nodes) * wts).sum(axis=1)

    # transition segment [w1, min(w2, W)], each half graded toward its end
    lo, hi = w1, np.minimum(w2, W)
    rows = np.flatnonzero(hi > lo)
    if rows.size == 0:
        return vals
    li, hi, ri = lo[rows], hi[rows], r[rows]
    span = 0.5 * (hi - li)
    for end, sign, feature in ((li, 1.0, li), (hi, -1.0, span)):
        # w = end +/- zeta^2 removes the d=2 arccos sqrt singularity at the
        # end; the inner half's arccos turns over within about w1 of it,
        # so its first panels are sqrt(w1) wide in zeta and double, while
        # the outer half, with no feature finer than itself, takes equal
        # panels only
        zeta, zw = _gauss(_zeta_edges(span, feature))
        nodes = end[:, None] + sign * zeta * zeta
        vals[rows] += (density(nodes) * capfrac(ri[:, None], a * nodes, R, d)
                       * 2.0 * zeta * zw).sum(axis=1)
    return vals
