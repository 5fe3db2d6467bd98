"""Grey values of a blurred ball by quadrature of the radial cap
integral, the oracle of the package's closed forms; it shares no code
with them.

The sphere of radius s about a point at distance r from the centre meets
B(R) in a cap whose normalized area is capfrac(r, s, R, d), so

    theta_a(B(R))(r) = int_0^W rho(w) surf(S^{d-1}) w^{d-1}
                           capfrac(r, a w, R, d) dw.

The rule takes 24 Gauss-Legendre panels on the core [0, |R - r|/a],
where the cap fraction is 1 or 0, and 16 on each half of the transition
[|R - r|/a, (R + r)/a], cut at the integration radius W.  In d=2 the cap
fraction has square-root behaviour where the cap appears or disappears;
each half substitutes w = w_edge +/- zeta^2 there, which removes the
singularity and grades the nodes toward the edge.

Against mpmath at 30 digits (a in {0.1, 0.0125}, r - R over
+/-geomspace(1e-8, 1e-2) a and a few radii further out) it is within
5e-16 for every (PSF, d) pair at |r - R| >= 1e-3 a.  Nearer R the d=2
rules stray: by up to 6.1e-13 for the Gaussian (at r - R = +/-1e-5 a),
1.2e-14 for the bump and 3.0e-15 for the disc (at +/-4.6e-7 a), where
the arccos feature, about |R - r|/a wide, falls inside the first
transition panel.  The d=3 rules, whose cap fraction is rational, stay
within 2.2e-16.
"""

import math

import numpy as np

from greyvar import psf as psf_mod
from greyvar._quad import panel_nodes
from greyvar.psf import eval_rho, sphere_area


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


# panels on [0, w1] (cap fraction constant there) and zeta-panels per
# transition half; their rules on [0, 1], built once
_N_CORE = 24
_N_EDGE = 16
_CORE_RULE = panel_nodes((0.0, 1.0), _N_CORE)
_EDGE_RULE = panel_nodes((0.0, 1.0), _N_EDGE)


def cap_quadrature(psf, a: float, R: float, radii) -> np.ndarray:
    """Grey values of a centered ball at the given radii (vectorized);
    radii under 1e-9 (R + a) read the PSF's mass in B(R/a)."""
    d = psf.dim
    W = psf_mod._integration_radius(psf)
    r = np.atleast_1d(np.asarray(radii, dtype=float))
    out = np.zeros_like(r)

    central = r < 1e-9 * (R + a)
    if np.any(central):
        out[central] = psf_mod.radial_mass(psf, min(R / a, W))

    rest = ~central
    if not np.any(rest):
        return out
    rr = r[rest]
    w1 = np.abs(R - rr) / a
    w2 = (R + rr) / a

    vals = np.zeros_like(rr)

    # core segment [0, min(w1, W)], cap fraction is 1 inside / 0 outside
    inside = rr < R
    if np.any(inside):
        v, w = _CORE_RULE
        hi = np.minimum(w1, W)[inside]
        nodes = hi[:, None] * v[None, :]
        f = eval_rho(psf, nodes) * nodes ** (d - 1)
        vals[inside] += sphere_area(d) * hi * (f @ w)

    # transition segment [w1, min(w2, W)], graded toward the cap edges
    lo = w1
    hi = np.minimum(w2, W)
    rows = np.flatnonzero(hi > lo)
    z, zw = _EDGE_RULE
    li, hi_, ri = lo[rows], hi[rows], rr[rows]
    mid = 0.5 * (li + hi_)
    contrib = np.zeros_like(li)
    for seg_lo, seg_hi, anchor_lo in ((li, mid, True), (mid, hi_, False)):
        span = seg_hi - seg_lo
        # w = anchor +/- (sqrt(span) * z)^2 grades nodes toward the anchor
        # edge and removes the d=2 arccos sqrt singularity
        zz = np.sqrt(span)[:, None] * z[None, :]
        if anchor_lo:
            nodes = seg_lo[:, None] + zz * zz
        else:
            nodes = seg_hi[:, None] - zz * zz
        jac = 2.0 * np.sqrt(span)[:, None] * zw[None, :] * zz
        f = (eval_rho(psf, nodes) * nodes ** (d - 1)
             * capfrac(ri[:, None], a * nodes, R, d))
        contrib += (f * jac).sum(axis=1)
    vals[rows] += sphere_area(d) * contrib

    out[rest] = vals
    return np.clip(out, 0.0, 1.0)
