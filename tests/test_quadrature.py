"""Composite Gauss-Kronrod rules: the qk15 table, exactness, convergence under splitting,
and validation; Chebyshev-Lobatto sampling and interpolation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import chebyshev
from numpy.polynomial.legendre import leggauss

from fge.quadrature import (
    QK15_NODES,
    QK15_WEIGHTS,
    barycentric,
    chebyshev_coefficients,
    chebyshev_derivative,
    chebyshev_lobatto,
    chebyshev_value,
    composite_kronrod,
)


def integrate(f, edges, splits=1, column=0):
    """The Kronrod (column 0) or Gauss (column 1) sum of f on the composite rule."""
    nodes, weights = composite_kronrod(edges, splits)
    return float(f(nodes) @ weights[:, column])


def piece_geometry(edges, splits):
    """Midpoints and half-widths of the pieces, panel by panel, in plain Python."""
    mids, halves = [], []
    for lo, hi, count in zip(edges, edges[1:], np.broadcast_to(splits, len(edges) - 1)):
        half = 0.5 * (hi - lo) / count
        mids += [lo + (2 * i + 1) * half for i in range(count)]
        halves += [half] * count
    return np.array(mids), np.array(halves)


def test_polynomial_exact_on_single_panel():
    # K15 integrates degree <= 22 exactly on one panel
    assert integrate(lambda u: u ** 5, [0.0, 1.0]) == pytest.approx(1.0 / 6.0, abs=5e-16)


@pytest.mark.parametrize("column, exact_degree", [(0, 22), (1, 13)])
def test_exact_up_to_the_rule_degree_on_uneven_panels(column, exact_degree):
    # uneven panels, the second cut into three pieces
    a, b = -0.5, 2.0
    for degree in range(exact_degree + 1):
        exact = (b ** (degree + 1) - a ** (degree + 1)) / (degree + 1)
        got = integrate(lambda u: u ** degree, [a, 0.25, b], [1, 3], column)
        assert got == pytest.approx(exact, rel=1e-13, abs=1e-14)


def test_nodes_come_piece_by_piece_in_order():
    nodes, weights = composite_kronrod([0.0, 1.0, 3.0], np.array([2, 3]))
    assert nodes.shape == (75,) and weights.shape == (75, 2)
    assert np.all(np.diff(nodes) > 0.0) and np.all(weights[:, 0] > 0.0)
    # every piece holds its own 15 nodes, and its weights sum to its width
    pieces = nodes.reshape(-1, 15)
    widths = np.array([0.5, 0.5, 2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0])
    starts = np.concatenate(([0.0], np.cumsum(widths)[:-1]))
    assert np.all(pieces.min(axis=1) > starts) and np.all(pieces.max(axis=1) < starts + widths)
    np.testing.assert_allclose(weights[:, 0].reshape(-1, 15).sum(axis=1), widths, rtol=1e-15)


def test_full_periods_cancel():
    edges = [0.0, math.pi, 2 * math.pi, 3 * math.pi, 4 * math.pi]
    assert abs(integrate(np.sin, edges)) < 1e-12


def test_exponential_refines_to_tolerance():
    # halving every piece cuts the 7-point Gauss error by about 2^14, while
    # the Kronrod sum is at rounding on one piece
    def exp8(u):
        return np.exp(8.0 * u)

    exact = (math.exp(8.0) - 1.0) / 8.0
    errors = [abs(integrate(exp8, [0.0, 1.0], splits, 1) - exact) for splits in (1, 2, 4)]
    assert all(later < earlier / 1000.0 for earlier, later in zip(errors, errors[1:]))
    assert errors[-1] <= 1e-12
    assert integrate(exp8, [0.0, 1.0]) == pytest.approx(exact, rel=1e-15)


def test_sqrt_endpoint_kink():
    # a geometric cascade toward the infinite derivative at 0
    edges = [0.0] + [0.5 ** k for k in range(40, -1, -1)]
    assert integrate(np.sqrt, edges) == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_oscillatory_with_seeded_breakpoints():
    # one breakpoint per half period keeps the panel count modest
    omega = 40.0
    edges = np.arange(0.0, 1.0 + 1e-12, math.pi / omega).tolist() + [1.0]
    edges = sorted(set(edges))
    value = integrate(lambda u: np.sin(omega * u), edges)
    assert value == pytest.approx((1.0 - math.cos(omega)) / omega, abs=1e-11)


@pytest.mark.parametrize("edges", [[0.0], [1.0, 0.0], [0.0, 0.0, 1.0], []])
def test_breakpoints_must_strictly_increase(edges):
    with pytest.raises(ValueError, match="strictly increasing"):
        composite_kronrod(edges, 1)


@pytest.mark.parametrize("splits", [0, -1, 1.5, True, [1, 0], [1, 2, 3], np.array([[1, 1]])])
def test_splits_must_be_positive_integers(splits):
    with pytest.raises(ValueError, match="splits"):
        composite_kronrod([0.0, 1.0, 2.0], splits)


# === the embedded 7/15-point Gauss-Kronrod pair ===


def moment_error(weights, degree):
    """The rule's integral of u^degree over [-1, 1] less the exact 2/(degree + 1) or 0, in exact rationals."""
    got = sum(Fraction(float(w)) * Fraction(float(u)) ** degree
              for u, w in zip(QK15_NODES, weights))
    return float(got - (Fraction(2, degree + 1) if degree % 2 == 0 else 0))


@pytest.mark.parametrize("column, exact_degree", [(0, 22), (1, 13)])
def test_qk15_moments_exact_to_the_rule_degree(column, exact_degree):
    # K15 is exact up to degree 3 * 7 + 1, G7 up to 2 * 7 - 1; the stored
    # decimals round each node and weight once, so "exact" is within 1e-16
    weights = QK15_WEIGHTS[:, column]
    for degree in range(exact_degree + 1):
        assert abs(moment_error(weights, degree)) <= 1e-16, degree
    # and the next even degree is not
    assert abs(moment_error(weights, exact_degree + 2 - exact_degree % 2)) > 1e-10


def test_qk15_nodes_and_weights_are_symmetric():
    assert QK15_NODES.shape == (15,) and QK15_WEIGHTS.shape == (15, 2)
    assert np.all(np.diff(QK15_NODES) > 0.0) and QK15_NODES[7] == 0.0
    assert np.array_equal(QK15_NODES[::-1], -QK15_NODES)
    assert np.array_equal(QK15_WEIGHTS[::-1], QK15_WEIGHTS)


def test_g7_lives_on_the_odd_kronrod_nodes():
    # the Gauss rule weighs the odd-indexed nodes only, and those are the
    # 7-point Gauss-Legendre rule; leggauss is itself a few ulp of a weight
    # off the correctly rounded values the table holds, all within 2 ulp of 1
    nodes, weights = leggauss(7)
    assert np.all(QK15_WEIGHTS[0::2, 1] == 0.0) and np.all(QK15_WEIGHTS[1::2, 1] > 0.0)
    np.testing.assert_allclose(QK15_NODES[1::2], nodes, rtol=0.0, atol=2 * np.spacing(1.0))
    np.testing.assert_allclose(QK15_WEIGHTS[1::2, 1], weights, rtol=0.0,
                               atol=2 * np.spacing(1.0))


def test_composite_kronrod_pieces_come_in_order():
    edges, splits = [0.0, 1.0, 3.0], np.array([2, 3])
    nodes, weights = composite_kronrod(edges, splits)
    assert nodes.shape == (75,) and weights.shape == (75, 2)
    assert np.all(np.diff(nodes) > 0.0)
    # each piece holds its own 15 nodes, centred on its midpoint, and both
    # of its rules sum to its width
    mids, _ = piece_geometry(edges, splits)
    np.testing.assert_allclose(nodes.reshape(-1, 15)[:, 7], mids, rtol=1e-15)
    widths = np.array([0.5, 0.5, 2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0])
    np.testing.assert_allclose(weights.reshape(-1, 15, 2).sum(axis=1), np.stack([widths] * 2, 1),
                               rtol=1e-15)


def test_composite_kronrod_gauss_column_is_the_7_point_rule():
    edges = np.append(1.8 * (1.0 - 0.5 ** np.arange(10)), 1.8)
    for splits in (1, 2, 4):
        nodes, weights = composite_kronrod(edges, splits)
        mids, halves = piece_geometry(edges, splits)
        gauss_nodes = (mids[:, None] + halves[:, None] * leggauss(7)[0]).ravel()
        gauss_weights = (halves[:, None] * leggauss(7)[1]).ravel()
        odd = np.arange(nodes.size) % 15 % 2 == 1
        np.testing.assert_allclose(nodes[odd], gauss_nodes, rtol=1e-15, atol=1e-16)
        np.testing.assert_allclose(weights[odd, 1], gauss_weights, rtol=1e-14)
        assert np.all(weights[~odd, 1] == 0.0)


def test_composite_kronrod_gap_estimates_the_gauss_error():
    # exp on [0, 1]: K15 is at rounding, and the gap to G7 is G7's own error
    nodes, weights = composite_kronrod([0.0, 1.0], 1)
    kronrod, gauss = np.exp(nodes) @ weights
    assert kronrod == pytest.approx(math.e - 1.0, rel=4e-16)
    assert abs(kronrod - gauss) == pytest.approx(abs(gauss - (math.e - 1.0)), rel=1e-3)
    # a polynomial of degree 13 leaves no gap
    kronrod, gauss = (nodes ** 13) @ weights
    assert kronrod == pytest.approx(1.0 / 14.0, rel=1e-15) and abs(kronrod - gauss) <= 1e-16


@pytest.mark.parametrize("count", [17, 33, 257])
def test_lobatto_points_are_nested_with_exact_ends(count):
    points, weights = chebyshev_lobatto(count)
    assert points[0] == 0.0 and points[-1] == 1.0 and (np.diff(points) > 0.0).all()
    np.testing.assert_allclose(points, 0.5 * (1.0 - np.cos(np.pi * np.arange(count) / (count - 1))),
                               rtol=0.0, atol=4e-16)
    assert np.array_equal(chebyshev_lobatto(2 * count - 1)[0][::2], points)
    assert weights[0] == 0.5 and weights[-1] == 0.5 * (-1) ** (count - 1)
    assert np.array_equal(np.abs(weights[1:-1]), np.ones(count - 2))


@pytest.mark.parametrize("count", [17, 65, 257])
def test_chebyshev_coefficients_match_a_least_squares_fit(count):
    # on count points a fit of degree count - 1 interpolates
    points, _ = chebyshev_lobatto(count)
    values = np.exp(3.0 * points) * np.cos(40.0 * points)
    expected = chebyshev.chebfit(2.0 * points - 1.0, values, count - 1)
    np.testing.assert_allclose(chebyshev_coefficients(values), expected, rtol=0.0, atol=1e-13)


def test_barycentric_reproduces_a_polynomial_on_any_interval():
    points, weights = chebyshev_lobatto(17)
    nodes = 2.0 + 3.0 * points
    coeffs = np.arange(1.0, 18.0) * (-0.5) ** np.arange(17)
    x = np.linspace(2.0, 5.0, 101)
    values = barycentric(x, nodes, weights, chebyshev.chebval((nodes - 3.5) / 1.5, coeffs))
    expected = chebyshev.chebval((x - 3.5) / 1.5, coeffs)
    np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("count", [17, 33, 65, 129, 257])
def test_chebyshev_value_and_derivative_are_numpys_bits(count):
    # every length the zeta solve's window samples take, and 17: zeta and
    # the kink of the clamp are found on these series, and must land where
    # chebval and chebder put them
    rng = np.random.default_rng(count)
    coeffs = rng.standard_normal(count) * 0.8 ** np.arange(count)
    derivative = chebyshev_derivative(coeffs)
    assert np.array(derivative).tobytes() == chebyshev.chebder(coeffs).tobytes()
    for y in rng.uniform(-1.0, 1.0, 20).tolist() + [-1.0, 1.0]:
        assert chebyshev_value(y, coeffs.tolist()) == chebyshev.chebval(y, coeffs)
        assert chebyshev_value(y, derivative) == chebyshev.chebval(y, chebyshev.chebder(coeffs))
