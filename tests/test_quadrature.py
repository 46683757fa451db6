"""Composite Gauss-Legendre rules: exactness, convergence under splitting, and validation."""

import math

import numpy as np
import pytest

from fge.quadrature import composite_gauss


def integrate(f, edges, splits=1, order=16):
    nodes, weights = composite_gauss(edges, splits, order)
    return float(weights @ f(nodes))


def test_polynomial_exact_on_single_panel():
    # GL16 integrates degree <= 31 exactly on one panel
    assert integrate(lambda u: u ** 5, [0.0, 1.0]) == pytest.approx(1.0 / 6.0, abs=5e-16)


@pytest.mark.parametrize("order", [1, 2, 5, 8, 12, 16])
def test_exact_up_to_degree_2n_minus_1(order):
    # uneven panels, the second cut into three pieces
    a, b = -0.5, 2.0
    for degree in range(2 * order):
        exact = (b ** (degree + 1) - a ** (degree + 1)) / (degree + 1)
        got = integrate(lambda u: u ** degree, [a, 0.25, b], [1, 3], order)
        assert got == pytest.approx(exact, rel=1e-13, abs=1e-14)


def test_nodes_come_piece_by_piece_in_order():
    nodes, weights = composite_gauss([0.0, 1.0, 3.0], np.array([2, 3]), 4)
    assert nodes.shape == weights.shape == (20,)
    assert np.all(np.diff(nodes) > 0.0) and np.all(weights > 0.0)
    # every piece holds its own 4 nodes, and its weights sum to its width
    pieces = nodes.reshape(-1, 4)
    widths = np.array([0.5, 0.5, 2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0])
    starts = np.concatenate(([0.0], np.cumsum(widths)[:-1]))
    assert np.all(pieces.min(axis=1) > starts) and np.all(pieces.max(axis=1) < starts + widths)
    np.testing.assert_allclose(weights.reshape(-1, 4).sum(axis=1), widths, rtol=1e-15)


def test_full_periods_cancel():
    edges = [0.0, math.pi, 2 * math.pi, 3 * math.pi, 4 * math.pi]
    assert abs(integrate(np.sin, edges)) < 1e-12


def test_exponential_refines_to_tolerance():
    # halving every piece cuts the 4-point error by about 2^8
    errors = [abs(integrate(np.exp, [0.0, 1.0], splits, 4) - (math.e - 1.0))
              for splits in (1, 2, 4, 8)]
    assert all(later < earlier / 100.0 for earlier, later in zip(errors, errors[1:]))
    assert errors[-1] <= 1e-13


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
        composite_gauss(edges, 1, 16)


@pytest.mark.parametrize("splits", [0, -1, 1.5, True, [1, 0], [1, 2, 3], np.array([[1, 1]])])
def test_splits_must_be_positive_integers(splits):
    with pytest.raises(ValueError, match="splits"):
        composite_gauss([0.0, 1.0, 2.0], splits, 16)


def test_orders_are_configurable():
    for order in (16, 32):
        assert integrate(np.exp, [0.0, 1.0], 1, order) == pytest.approx(math.e - 1.0, abs=1e-14)
