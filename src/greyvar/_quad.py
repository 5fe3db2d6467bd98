"""Deterministic 1-D quadrature helpers (composite / adaptive Gauss-Legendre).

All profile and transform integrals in the package go through these
routines: fixed-order Gauss-Legendre panels for smooth or oscillatory
integrands (panel width tied to the oscillation period) and a recursive
bisection scheme for integrands with localized structure.  Everything is
deterministic, so repeated runs are bit-identical.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import TruncationError

DEFAULT_ABS_TOL = 1e-10


@lru_cache(maxsize=8)
def _gl_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_nodes(edges, n_panels: int, order: int = 15):
    """Nodes/weights of composite Gauss-Legendre rules over each row of
    sorted breakpoints `edges` (shape (..., E)), every gap cut into
    n_panels equal panels; a gap of zero width gets zero weights.
    Summing f(nodes) * weights over the last axis integrates each row.
    """
    x, w = _gl_rule(order)
    edges = np.asarray(edges, dtype=float)
    # each gap's np.linspace(a, b, n_panels + 1), bit for bit, but cheaper
    a, b = edges[..., :-1, None], edges[..., 1:, None]
    cuts = np.arange(n_panels + 1) * ((b - a) / n_panels) + a
    cuts[..., -1] = b[..., 0]
    lo = cuts[..., :-1, None]
    half = 0.5 * (cuts[..., 1:, None] - lo)
    shape = edges.shape[:-1] + ((edges.shape[-1] - 1) * n_panels * order,)
    return (lo + half + half * x).reshape(shape), (half * w).reshape(shape)


def fixed_quad(f, a: float, b: float, n_panels: int = 1, order: int = 15) -> float:
    nodes, weights = panel_nodes((a, b), n_panels, order)
    return float(np.dot(np.asarray(f(nodes), dtype=float), weights))


def oscillatory_nodes(edges, freq: float, order: int = 15,
                      min_panels: int = 2, max_nodes: int = 20_000_000):
    """Composite GL nodes over the sorted breakpoints `edges`, every gap
    cut into the same number of panels, at least min_panels and enough
    that no panel is wider than a quarter period of cos(2*pi*freq*t).

    `freq` is in cycles per unit of t; freq <= 0 falls back to min_panels.
    Raises TruncationError, before allocating, if the rule would need more
    than max_nodes nodes.
    """
    edges = np.asarray(edges, dtype=float)
    width = edges[-1] - edges[0]
    if width <= 0:
        return np.empty(0), np.empty(0)
    n = min_panels
    if freq > 0:
        n = max(min_panels, int(np.ceil(width * 4.0 * freq)))
    n_nodes = n * order * (len(edges) - 1)
    if n_nodes > max_nodes:
        raise TruncationError(
            f"oscillatory rule would need {n_nodes} nodes (freq={freq:g})")
    return panel_nodes(edges, n, order)


def adaptive_quad(f, a: float, b: float, abs_tol: float = DEFAULT_ABS_TOL,
                  breakpoints=(), max_depth: int = 48, order: int = 15) -> float:
    """Adaptive composite Gauss-Legendre with recursive bisection.

    The integrand f must accept an ndarray of nodes.  Known kinks can be
    passed via `breakpoints`; each sub-interval is then refined until the
    two-half estimate agrees with the single-panel estimate to its share
    of abs_tol.
    """
    pts = [a]
    for p in sorted(breakpoints):
        if a < p < b:
            pts.append(float(p))
    pts.append(b)

    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        if hi > lo:
            tol = abs_tol * (hi - lo) / (b - a)
            total += _adapt(f, lo, hi, tol, max_depth, order)
    return total


def _panel_estimate(f, a, b, order):
    x, w = _gl_rule(order)
    half = 0.5 * (b - a)
    nodes = a + half + half * x
    return half * float(np.dot(np.asarray(f(nodes), dtype=float), w))


def _adapt(f, a, b, tol, depth, order):
    whole = _panel_estimate(f, a, b, order)
    return _adapt_rec(f, a, b, whole, tol, depth, order)


def _adapt_rec(f, a, b, whole, tol, depth, order):
    mid = 0.5 * (a + b)
    left = _panel_estimate(f, a, mid, order)
    right = _panel_estimate(f, mid, b, order)
    if depth <= 0:
        return left + right
    if abs(left + right - whole) <= max(tol, 1e-16 * abs(whole)):
        return left + right
    return (_adapt_rec(f, a, mid, left, 0.5 * tol, depth - 1, order)
            + _adapt_rec(f, mid, b, right, 0.5 * tol, depth - 1, order))
