"""Composite Gauss-Legendre and Gauss-Kronrod rules on given panel edges.

Every integral of the package is a fixed composite rule built here: the
thermal integrals over momentum on the Fermi-kernel panels (see
``fermi.kernel_rule``), which pair a Gauss-Legendre rule with a
lower-order one on the same panels for the error estimate, and the outer
average over separations on a geometric cascade toward the distance
constant (see ``entanglement.average_entanglement``), whose 15-point
Kronrod rule carries its 7-point Gauss rule on every second node, so the
estimate costs no abscissa of its own.  Each caller halves the panels
itself when the estimate misses its tolerance.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss

_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}

# QUADPACK's qk15 (Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner,
# 1983): the nonnegative nodes of the 15-point Kronrod rule on [-1, 1],
# largest first, their Kronrod weights, and the weights of the 7-point Gauss
# rule, whose nodes are every second of them (the first, third, ...)
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)


def _qk15() -> tuple[np.ndarray, np.ndarray]:
    half_nodes = np.array(_XGK)
    half_weights = np.stack([_WGK, np.zeros(8)], axis=1)
    half_weights[1::2, 1] = _WG
    nodes = np.concatenate([-half_nodes[:-1], half_nodes[::-1]])
    weights = np.concatenate([half_weights[:-1], half_weights[::-1]])
    for array in (nodes, weights):
        array.flags.writeable = False
    return nodes, weights


# the 15 nodes in increasing order, and a (15, 2) array of their K15 weights
# and their G7 weights (0 at the 8 nodes of the Kronrod rule alone)
QK15_NODES, QK15_WEIGHTS = _qk15()


def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``order``-point Gauss-Legendre rule on [-1, 1]."""
    if order not in _RULES:
        _RULES[order] = leggauss(order)
    return _RULES[order]


def _pieces(edges, splits) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints and half-widths of the pieces of a panel grid, piece by piece in order."""
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
    return edges[panel] + (2 * piece + 1) * half, half


def composite_gauss(edges, splits, order) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``order``-point Gauss rule on every piece of a panel grid.

    Panel p = [edges[p], edges[p + 1]] is cut into ``splits[p]`` equal
    pieces (``splits`` is an integer or one integer per panel).  The nodes
    come piece by piece, ``order`` consecutive nodes to a piece, in
    increasing order; sum(weights * g(nodes)) approximates the integral of
    g over [edges[0], edges[-1]], exactly for polynomials of degree up to
    2 order - 1 on each piece.  A tuple of orders gives each rule on the
    same pieces, concatenated in the order given.
    """
    mid, half = _pieces(edges, splits)
    rules = [gauss_legendre(n) for n in (order if isinstance(order, tuple) else (order,))]
    return (np.concatenate([(mid[:, None] + half[:, None] * y).ravel() for y, _ in rules]),
            np.concatenate([(half[:, None] * w).ravel() for _, w in rules]))


def composite_kronrod(edges, splits) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of the 15-point Kronrod rule on every piece of a panel grid, with two weight columns.

    The pieces are ``composite_gauss``'s, 15 consecutive nodes to a piece,
    in increasing order.  Column 0 of the (nodes, 2) weights is the
    Kronrod rule, exact for polynomials of degree up to 22 on each piece;
    column 1 is the 7-point Gauss rule on the same nodes, exact up to
    degree 13 and 0 where a node is the Kronrod rule's alone.  The gap
    between the two on a piece is QUADPACK's error estimate there.
    """
    mid, half = _pieces(edges, splits)
    return ((mid[:, None] + half[:, None] * QK15_NODES).ravel(),
            (half[:, None, None] * QK15_WEIGHTS).reshape(-1, 2))
