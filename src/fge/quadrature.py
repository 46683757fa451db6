"""Composite Gauss-Legendre rules on given panel edges.

Every integral of the package is a fixed composite rule built here: the
thermal integrals over momentum on the Fermi-kernel panels (see
``fermi.kernel_rule``) and the outer average over separations on a
geometric cascade toward the distance constant (see
``entanglement.average_entanglement``).  Each caller pairs the rule with a
lower-order one on the same panels for its error estimate, and halves the
panels itself when the estimate misses its tolerance.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss

_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``order``-point Gauss-Legendre rule on [-1, 1]."""
    if order not in _RULES:
        _RULES[order] = leggauss(order)
    return _RULES[order]


def composite_gauss(edges, splits, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``order``-point Gauss rule on every piece of a panel grid.

    Panel p = [edges[p], edges[p + 1]] is cut into ``splits[p]`` equal
    pieces (``splits`` is an integer or one integer per panel).  The nodes
    come piece by piece, ``order`` consecutive nodes to a piece, in
    increasing order; sum(weights * g(nodes)) approximates the integral of
    g over [edges[0], edges[-1]], exactly for polynomials of degree up to
    2 order - 1 on each piece.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or not (widths := np.diff(edges)).min() > 0.0:
        raise ValueError("edges must be strictly increasing with length >= 2")
    counts = np.asarray(splits)
    if counts.ndim == 0:
        counts = np.full(widths.size, counts)
    if counts.dtype.kind not in "iu" or counts.shape != widths.shape or counts.min() < 1:
        raise ValueError(f"splits must be one positive integer or one per panel, got {splits!r}")
    # piece i of panel p has half-width h_p = widths[p] / (2 splits[p]) and
    # midpoint edges[p] + (2 i + 1) h_p
    panel = np.repeat(np.arange(counts.size), counts)
    piece = np.arange(panel.size) - (np.cumsum(counts) - counts)[panel]
    half = (0.5 * widths / counts)[panel]
    mid = edges[panel] + (2 * piece + 1) * half
    y, w = gauss_legendre(order)
    return (mid[:, None] + half[:, None] * y).ravel(), (half[:, None] * w).ravel()
