"""Composite Gauss-Legendre nodes for the integrals without a closed form.

Every such integral in the package is one fixed rule: Gauss-Legendre
panels of one order over sorted breakpoints (the kinks of the
integrand), each gap cut into the same number of equal panels.
`panel_nodes` takes that number from the caller (alpha_f and the lattice
sum LS compare against the rule with half the panels);
`oscillatory_nodes` ties it to the oscillation period of a Fourier
kernel.  The rules are deterministic, so repeated runs are
bit-identical.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import TruncationError


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
