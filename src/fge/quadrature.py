"""Composite Gauss-Legendre integration with adaptive panel refinement.

The adaptive integrator serves the outer average over separations, whose
integrand has an endpoint feature at the distance constant.  Panel seeds
go at the known features; refinement then bisects whichever panel
reports the worst high-order versus low-order discrepancy until the
summed estimate meets the budget.  The thermal integrals over momentum
use fixed composite rules built from ``gauss_legendre`` instead (see
``fermi.kernel_rule``).
"""

import heapq

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureError

_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``order``-point Gauss-Legendre rule on [-1, 1]."""
    if order not in _RULES:
        _RULES[order] = leggauss(order)
    return _RULES[order]


def _panel(f, a: float, b: float, order_hi: int, order_lo: int) -> tuple[float, float]:
    """Integrate one panel at two orders; the difference is the error estimate."""
    yh, wh = gauss_legendre(order_hi)
    yl, wl = gauss_legendre(order_lo)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    hi = half * float(np.dot(wh, f(mid + half * yh)))
    lo = half * float(np.dot(wl, f(mid + half * yl)))
    return hi, abs(hi - lo)


def integrate_refined(
    f,
    breakpoints,
    tol_abs: float = 0.0,
    tol_rel: float = 0.0,
    max_panels: int = 4000,
    order_hi: int = 16,
    order_lo: int = 8,
) -> tuple[float, float]:
    """Integrate a vectorized callable over ``[breakpoints[0], breakpoints[-1]]``.

    Parameters
    ----------
    f : callable
        Maps an ndarray of abscissas to an ndarray of integrand values.
    breakpoints : sequence of float
        Strictly increasing seed panel edges.  Put one at every known
        feature of the integrand; refinement only bisects, it never
        invents structure on its own.
    tol_abs, tol_rel : float
        Convergence when the summed estimate is at most
        ``max(tol_abs, tol_rel * |integral|)``.
    max_panels : int
        Refinement budget.  Exhausting it raises ``QuadratureError``
        carrying the achieved estimate.
    order_hi, order_lo : int
        Gauss-Legendre orders for the value and for the comparison pass.

    Returns
    -------
    (value, error_estimate)
    """
    edges = [float(p) for p in breakpoints]
    if len(edges) < 2 or any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError("breakpoints must be strictly increasing with length >= 2")

    heap: list[tuple[float, int, float, float, float]] = []
    seq = 0
    total = 0.0
    err_live = 0.0
    err_dead = 0.0  # panels too narrow to bisect at double precision
    n_panels = 0
    for a, b in zip(edges, edges[1:]):
        value, err = _panel(f, a, b, order_hi, order_lo)
        heapq.heappush(heap, (-err, seq, a, b, value))
        seq += 1
        total += value
        err_live += err
        n_panels += 1

    while True:
        err = err_live + err_dead
        budget = max(tol_abs, tol_rel * abs(total))
        if err <= budget:
            return total, err
        if n_panels >= max_panels or not heap:
            raise QuadratureError(
                f"integration stalled at estimate {err:.3e} "
                f"(tolerance {budget:.3e}, {n_panels} panels)",
                error_estimate=err,
            )
        neg_err, _, a, b, value = heapq.heappop(heap)
        worst = -neg_err
        mid = 0.5 * (a + b)
        if not (a < mid < b):
            err_live -= worst
            err_dead += worst
            continue
        total -= value
        err_live -= worst
        for lo_edge, hi_edge in ((a, mid), (mid, b)):
            v2, e2 = _panel(f, lo_edge, hi_edge, order_hi, order_lo)
            heapq.heappush(heap, (-e2, seq, lo_edge, hi_edge, v2))
            seq += 1
            total += v2
            err_live += e2
        n_panels += 1
