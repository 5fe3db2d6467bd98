"""Composite Gauss-Legendre nodes for the integrals without a closed form.

Every such integral in the package is one fixed rule: Gauss-Legendre
panels of one order over sorted breakpoints (the kinks of the
integrand), each gap cut into equal panels.  `panel_nodes` takes their
number from the caller, the same for every gap (alpha_f and the lattice
sum LS compare against the rule with half the panels);
`oscillatory_panels` ties each gap's number to the oscillation period
of a Fourier kernel, and `gap_nodes` builds the rule for any number per
gap.  The rules are deterministic, so repeated runs are
bit-identical.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import TruncationError


# the Gauss order every rule takes unless it names another, and the node
# budget of the oscillatory rule
_ORDER, _MAX_NODES = 15, 20_000_000


@lru_cache(maxsize=8)
def _gl_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_nodes(edges, n_panels: int, order: int = _ORDER):
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


def oscillatory_panels(edges, freq: float, min_panels: int) -> tuple:
    """Panels per gap between the sorted breakpoints `edges`,
    max(min_panels, ceil(gap * freq)), so that no panel is wider than
    one period of cos(2*pi*freq*t).  `freq` is in cycles per unit of t;
    freq <= 0 falls back to min_panels."""
    counts = np.full(len(edges) - 1, float(min_panels))
    if freq > 0:
        counts = np.maximum(counts, np.ceil(np.diff(edges) * freq))
    return tuple(counts.tolist())


def gap_nodes(edges, counts):
    """Composite GL nodes over the sorted breakpoints `edges`, gap i cut
    into counts[i] equal panels and left out where that is 0.  Raises
    TruncationError, before allocating, if the rule would need more than
    20 million nodes."""
    n_nodes = sum(counts) * _ORDER
    if n_nodes > _MAX_NODES:
        raise TruncationError(
            f"oscillatory rule would need {n_nodes:.0f} nodes")
    parts = [panel_nodes((lo, hi), int(n)) for lo, hi, n
             in zip(edges[:-1], edges[1:], counts) if n]
    if not parts:
        return np.empty(0), np.empty(0)
    nodes, weights = zip(*parts)
    return np.concatenate(nodes), np.concatenate(weights)


def oscillatory_nodes(edges, freq: float, min_panels: int):
    """Composite GL nodes over the sorted breakpoints `edges`, each gap
    cut into its own number of panels (oscillatory_panels).  Raises
    TruncationError, before allocating, if the rule would need more than
    20 million nodes."""
    edges = np.asarray(edges, dtype=float)
    if edges[-1] - edges[0] <= 0:
        return np.empty(0), np.empty(0)
    return gap_nodes(edges, oscillatory_panels(edges, freq, min_panels))
