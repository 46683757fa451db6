"""Composite Gauss-Kronrod rules on panel edges, and Chebyshev interpolation.

Every integral of the package is the one composite rule built here,
QUADPACK's 15-point Kronrod rule with its 7-point Gauss rule on every
second node (``composite_kronrod``), so the error estimate, the gap
between the two, costs no abscissa of its own: the thermal integrals over
momentum on the Fermi-kernel panels (see ``fermi.kernel_rule``), and the
outer average over separations on a geometric cascade toward the
distance constant (see ``entanglement.average_entanglement``).  Each
caller halves the panels itself when the estimate misses its tolerance.
The average takes its integrand's amplitude at those abscissas from
samples at Chebyshev-Lobatto points: ``chebyshev_lobatto`` places them,
``barycentric`` interpolates them (Berrut and Trefethen, SIAM Review 46,
2004), and ``chebyshev_coefficients`` gives the coefficients whose tail
measures how well they resolve the function; ``chebyshev_value`` and
``chebyshev_derivative`` sum and differentiate such a series as numpy's
chebval and chebder do, bit for bit, and ``chebyshev_series`` gives the
value and the derivative on any interval.  Nothing here imports
numpy.polynomial.
"""

import numpy as np

_LOBATTO: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_DCT: dict[int, np.ndarray] = {}

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


def composite_kronrod(edges, splits) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of the 15-point Kronrod rule on every piece of a panel grid, with two weight columns.

    Panel p = [edges[p], edges[p + 1]] is cut into ``splits[p]`` equal
    pieces (``splits`` is an integer or one integer per panel).  The nodes
    come piece by piece, 15 consecutive nodes to a piece, in increasing
    order.  Column 0 of the (nodes, 2) weights is the Kronrod rule, exact
    for polynomials of degree up to 22 on each piece; column 1 is the
    7-point Gauss rule on the same nodes, exact up to degree 13 and 0
    where a node is the Kronrod rule's alone.  The gap between the two on
    a piece is QUADPACK's error estimate there.
    """
    mid, half = _pieces(edges, splits)
    return ((mid[:, None] + half[:, None] * QK15_NODES).ravel(),
            (half[:, None, None] * QK15_WEIGHTS).reshape(-1, 2))


def chebyshev_lobatto(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` >= 2 Chebyshev-Lobatto points on [0, 1], increasing, and their weights.

    Point k is sin^2(k pi / 2n) = (1 - cos(k pi / n))/2 with n = count - 1,
    so 0 and 1 are exact, and the points of n intervals are every second
    point of 2n, bit for bit.  The barycentric weights are (-1)^k, halved
    at both ends.
    """
    if count not in _LOBATTO:
        n = count - 1
        points = np.sin(np.arange(count) * (0.5 * np.pi / n)) ** 2
        weights = np.where(np.arange(count) % 2, -1.0, 1.0)
        weights[[0, -1]] *= 0.5
        for array in (points, weights):
            array.flags.writeable = False
        _LOBATTO[count] = points, weights
    return _LOBATTO[count]


def barycentric(x, nodes: np.ndarray, weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The polynomial through ``values`` at ``nodes``, at every entry of the 1-d ``x``.

    The second (true) barycentric form
    p(x) = sum_k w_k v_k / (x - x_k) / sum_k w_k / (x - x_k), with the
    ``weights`` of ``chebyshev_lobatto`` for its points scaled to any
    interval.  An x equal to a node returns that node's value, with no
    division by zero.  With Chebyshev points the form is stable: an error
    e in the values moves p by at most the Lebesgue constant times e,
    which is below 1 + (2/pi) log(count), 4.1 for 129 points.
    """
    diff = np.subtract.outer(np.asarray(x, dtype=float), nodes)
    hit = diff == 0.0
    # np.nonzero of the 2-d mask costs more than the rest: only for hits
    exact = hit.any()
    if exact:
        rows, cols = np.nonzero(hit)
        diff[rows, cols] = 1.0
    ratio = np.divide(weights, diff, out=diff)
    out = (ratio @ values) / ratio.sum(axis=1)
    if exact:
        out[rows] = values[cols]
    return out


def chebyshev_coefficients(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the polynomial through ``values`` at ``chebyshev_lobatto``.

    The polynomial is sum_j c_j T_j(2 y - 1) on y in [0, 1].  A DCT-I by a
    cosine matrix, built once per length: with n = len(values) - 1,
    c_j = (-1)^j (2/n) sum''_k values[k] cos(j k pi / n), where sum''
    halves the first and last terms, and c_0 and c_n are halved too.  j k
    is reduced modulo 2n before the cosine, so every cosine is correct to
    rounding however large n is.
    """
    count = len(values)
    if count not in _DCT:
        n = count - 1
        k = np.arange(count)
        matrix = np.cos(np.outer(k, k) % (2 * n) * (np.pi / n))
        matrix[:, [0, -1]] *= 0.5
        matrix *= np.where(k % 2, -2.0 / n, 2.0 / n)[:, None]
        matrix[[0, -1]] *= 0.5
        matrix.flags.writeable = False
        _DCT[count] = matrix
    return _DCT[count] @ values


def chebyshev_derivative(coeffs) -> list[float]:
    """Chebyshev coefficients of the derivative of sum_j coeffs[j] T_j(y), for len(coeffs) >= 2.

    The recurrence of numpy's chebder, step for step, so that the result
    is its bits: with n = len(coeffs) - 1, d_{j-1} = 2 j c_j from j = n
    down, each step adding j c_j / (j - 2) into c_{j-2}.
    """
    c = [float(value) for value in coeffs]
    n = len(c) - 1
    der = [0.0] * n
    for j in range(n, 2, -1):
        der[j - 1] = (2 * j) * c[j]
        c[j - 2] += (j * c[j]) / (j - 2)
    if n > 1:
        der[1] = 4 * c[2]
    der[0] = c[1]
    return der


def chebyshev_value(y: float, coeffs) -> float:
    """sum_j coeffs[j] T_j(y) at one y, for len(coeffs) >= 2, by Clenshaw's recurrence.

    The recurrence of numpy's chebval, step for step, so that the value is
    its bits; a list of floats is the fastest ``coeffs``.
    """
    c0, c1 = coeffs[-2], coeffs[-1]
    y2 = 2.0 * y
    for c in coeffs[-3::-1]:
        c0, c1 = c - c1, c0 + c1 * y2
    return c0 + c1 * y


def chebyshev_series(coeffs: np.ndarray, lo: float, hi: float):
    """x -> (p(x), p'(x)) for p = sum_j coeffs[j] T_j(2 (x - lo)/(hi - lo) - 1), summed in plain Python."""
    series, width = coeffs.tolist(), hi - lo
    slopes = [d * (2.0 / width) for d in chebyshev_derivative(series)]

    def value_and_slope(x: float) -> tuple[float, float]:
        y = 2.0 * (x - lo) / width - 1.0
        return chebyshev_value(y, series), chebyshev_value(y, slopes)

    return value_and_slope
