"""The Sommerfeld series of the degenerate gas: amplitude, slope, estimate and mu against mpmath,
against the kernel rule, across the switch to the pole sum, and the rules neither builds."""

import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fge
from fge import (
    GasRegime,
    MuMode,
    average_entanglement,
    eos_evaluate,
    fermi_temperature,
    pressure_from_fermi_momentum,
    reduced_chemical_potential,
    solve_zeta,
    thermal_amplitude,
)
from fge import degenerate, exchange, fermi, matsubara

NR = GasRegime.NONRELATIVISTIC
ER = GasRegime.EXTREME_RELATIVISTIC

ORACLE_T = [1e-4, 1e-3, 0.005, 0.01, 0.02, 0.03]
ORACLE_X = [0.0, 1e-3, 0.1, 0.5, 1.0, 1.8, 3.0, 6.0]


def kernel_quad(integrand, t, mu):
    """int integrand(mu + t s) k(s) ds over the kernel k(s) = 1/(4 cosh^2(s/2)), from the band bottom.

    The window s in [max(-mu/t, -80), 80] leaves out kernel mass below
    e^-80; Gauss-Legendre on pieces of at most 15 in s, inside the strip
    |Im s| < pi where the kernel is analytic.
    """
    lo = max(-mu / t, mpmath.mpf(-80))
    points = [lo] + [p for p in (-20, -5, 0, 5, 20) if p > lo] + [80]
    return mpmath.quad(lambda s: integrand(mu + t * s) / (4 * mpmath.cosh(s / 2) ** 2), points,
                       method="gauss-legendre")


def mp_amplitude(x, t, mu):
    """f and df/dx at 24 digits, by quadrature of int h(eps) (-dn/deps) deps and of its x-derivative.

    h = 3 (sin z - z cos z)/x^3 with z = x sqrt(eps), and
    dh/dx = 3 z sqrt(eps) sin z / x^3 - 3 h / x; both cancel at small x,
    which the working precision absorbs.
    """
    with mpmath.workdps(34):
        x, t, mu = mpmath.mpf(x), mpmath.mpf(t), mpmath.mpf(mu)

        def h_and_slope(eps):
            if x == 0:
                return mpmath.mpc(eps ** 1.5, 0)
            z = x * mpmath.sqrt(eps)
            h = 3 * (mpmath.sin(z) - z * mpmath.cos(z)) / x ** 3
            return mpmath.mpc(h, 3 * z * mpmath.sqrt(eps) * mpmath.sin(z) / x ** 3 - 3 * h / x)

        value = kernel_quad(h_and_slope, t, mu)
        return value.real, value.imag


def mp_mu(t):
    """The exact-mu root of int eps^(3/2) (-dn/deps) deps = 1: one Newton step from the float root,
    whose error is then squared, on N and N' = int (3/2) eps^(1/2) (-dn/deps) deps."""
    with mpmath.workdps(34):
        mu, t = mpmath.mpf(reduced_chemical_potential(t, NR)), mpmath.mpf(t)
        both = kernel_quad(lambda eps: mpmath.mpc(max(eps, 0) ** 1.5, 1.5 * mpmath.sqrt(max(eps, 0))),
                           t, mu)
        return mu - (both.real - 1) / both.imag


@pytest.mark.parametrize("mode", list(MuMode))
@pytest.mark.parametrize("t", ORACLE_T)
def test_series_against_mpmath(mode, t):
    # f within 1e-15 and f' within 1e-14 of the quadrature, and the
    # estimate on [0, x] at least the error at x
    mu = reduced_chemical_potential(t, NR, mode)
    terms = exchange._degenerate_terms(mu, t)
    values, slopes = degenerate._sommerfeld_sum(np.array(ORACLE_X), terms, slope=True)
    for x, value, slope in zip(ORACLE_X, values, slopes):
        exact, exact_slope = mp_amplitude(x, t, mu)
        error = abs(float(value - exact))
        assert error <= 1e-15, (x, value)
        assert error <= degenerate._sommerfeld_estimate(terms, x)
        assert abs(float(slope - exact_slope)) <= 1e-14


@pytest.mark.parametrize("t", ORACLE_T)
def test_series_mu_against_mpmath(t):
    assert abs(reduced_chemical_potential(t, NR) - float(mp_mu(t))) <= 2.3e-16


def test_tabled_sommerfeld_constants_against_mpmath():
    # a_n = 2 (1 - 2^(1-2n)) zeta(2n), correctly rounded: the terms kept, the
    # first omitted, and the last Euler-Maclaurin correction of the pole sum
    with mpmath.workdps(40):
        for n, a in enumerate(degenerate._SOMMERFELD_COEFFS, start=1):
            assert a == float(2 * (1 - mpmath.mpf(2) ** (1 - 2 * n)) * mpmath.zeta(2 * n))
    assert len(degenerate._SOMMERFELD_COEFFS) == degenerate._SOMMERFELD_TERMS + 2
    assert len(degenerate._SOMMERFELD_COEFFS) == matsubara._BERNOULLI_TERMS


@pytest.mark.parametrize("m", [1, 3, 11, 23, 25])
def test_derivative_tables_against_mpmath(m):
    # g^(m)(mu) = mu^-m [A_m(y^2) sin y + y B_m(y^2) cos y] for g = sin(x sqrt(eps)),
    # read back from the tables (terms n = (m + 1)/2 <= K, the first omitted one
    # m = 2K + 1 as its bound, which takes each coefficient's absolute value)
    table, omitted = degenerate._sommerfeld_tables()
    n = (m + 1) // 2
    a = 1.5 * degenerate._SOMMERFELD_COEFFS[n - 1]
    for x, mu in ((0.7, 1.0), (2.5, 0.8)):
        y = x * math.sqrt(mu)
        with mpmath.workdps(60):
            exact = mpmath.diff(lambda eps: mpmath.sin(x * mpmath.sqrt(eps)), mpmath.mpf(mu), m)
            exact = float(exact * mpmath.mpf(mu) ** m)
        powers = y * y * np.power(y * y, np.arange(degenerate._SOMMERFELD_TERMS))
        if n <= degenerate._SOMMERFELD_TERMS:
            a_m = table[:, 0, n - 1] @ powers / a
            b_m = table[:, 1, n - 1] @ (powers / (y * y)) / a
            assert a_m * math.sin(y) + y * b_m * math.cos(y) == pytest.approx(exact, rel=1e-12)
        else:
            bound = degenerate._omitted_bound(y) / a
            assert bound * y >= abs(exact)
            assert bound * y <= 1e3 * abs(exact)


@settings(max_examples=40, deadline=None)
@given(log_t=st.floats(math.log10(1e-4), math.log10(0.045)), x_max=st.floats(0.0, 6.0),
       mode=st.sampled_from(list(MuMode)))
def test_series_agrees_with_the_kernel_rule(log_t, x_max, mode):
    # wherever the series serves the default tolerance, the kernel rule at
    # level 1 (its level-0 gap is at most 2e-15 here) is within the
    # series' estimate, and within 1e-13 where that serves the zeta solve
    t = 10.0 ** log_t
    mu = reduced_chemical_potential(t, NR, mode)
    terms = exchange._degenerate_terms(mu, t)
    estimate = degenerate._sommerfeld_estimate(terms, x_max)
    assume(estimate <= exchange._DEFAULT_TOL)
    xs = np.linspace(0.0, x_max, 7)
    series, _ = degenerate._sommerfeld_sum(xs, terms, slope=False)
    kernel = exchange._kernel_sum(xs, fermi.kernel_rule(mu, t, x_max, 1))[:, 0]
    gap = float(np.abs(series - kernel).max())
    assert gap <= estimate + 1e-15
    if estimate <= exchange._ZETA_QUAD_TOL:
        assert gap <= 1e-13


@settings(max_examples=30, deadline=None)
@given(log_t=st.floats(math.log10(1e-6), math.log10(0.04)))
def test_series_mu_agrees_with_the_kernel_rule(log_t):
    t = 10.0 ** log_t
    step_tol = fermi._MU_STEP_TOL
    mu = fermi._degenerate_mu(t, step_tol)
    assume(mu is not None)
    assert abs(mu - fermi._kernel_mu(t, step_tol)) <= 1e-14


def last_served(serves, lo=1e-3, hi=0.1):
    """The largest float t in [lo, hi) with serves(t), and the next float, where it does not."""
    assert serves(lo) and not serves(hi)
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if serves(mid) else (lo, mid)
    return lo, hi


def zeta_scans_the_series(t):
    mu = reduced_chemical_potential(t, NR)
    return exchange._degenerate_branch(mu, t, float(exchange._SCAN_X[-1]),
                                       exchange._ZETA_QUAD_TOL) is not None


def test_zeta_is_continuous_across_the_switch_to_the_pole_sum():
    # at the last float t whose zeta solve scans the series and the next, which
    # scans the pole sum: f at the grid within the amplitudes' tolerance,
    # zeta within the root's
    below, above = last_served(zeta_scans_the_series)
    assert 0.03 < below < 0.04
    for x in (0.5, 1.8, 3.0):
        f_below = exchange._refined_sum(np.array([x]), 3.0, below, reduced_chemical_potential(below, NR),
                                        NR, exchange._ZETA_QUAD_TOL)[0]
        f_above = exchange._refined_sum(np.array([x]), 3.0, above, reduced_chemical_potential(above, NR),
                                        NR, exchange._ZETA_QUAD_TOL)[0]
        assert abs(float(f_below[0] - f_above[0])) <= exchange._ZETA_QUAD_TOL
    gap = solve_zeta(below, NR).zeta - solve_zeta(above, NR).zeta
    assert abs(gap) <= exchange._ROOT_XTOL


@pytest.mark.parametrize("tol", [1e-14, 1e-10])
def test_amplitude_is_continuous_across_the_switch_to_the_pole_sum(tol):
    # f on x in [0, 6] at the last t the series serves and the next
    xs = np.linspace(0.0, 6.0, 13)

    def series_serves(t):
        return exchange._degenerate_branch(reduced_chemical_potential(t, NR), t, 6.0, tol) is not None

    below, above = last_served(series_serves)
    f_below = thermal_amplitude(xs, below, reduced_chemical_potential(below, NR), NR, tol)[0]
    f_above = thermal_amplitude(xs, above, reduced_chemical_potential(above, NR), NR, tol)[0]
    assert np.abs(f_below - f_above).max() <= tol


def test_mu_is_continuous_across_the_switch_to_the_pole_sum():
    below, above = last_served(lambda t: fermi._degenerate_mu(t, fermi._MU_STEP_TOL) is not None)
    assert 0.03 < below < 0.031
    assert abs(reduced_chemical_potential(below, NR) - reduced_chemical_potential(above, NR)) <= 1e-14


@pytest.mark.parametrize("mode", list(MuMode))
@pytest.mark.parametrize("t", [0.01, 0.05, 0.3, 0.8])
def test_cold_requests_build_no_kernel_rule(t, mode):
    # the zeta solve, a point of the equation of state and the average, on
    # the series at t = 0.01 and on the pole sum above it
    k_f = 1e10
    reduced_chemical_potential.cache_clear()
    solve_zeta.cache_clear()
    exchange._pole_terms.cache_clear()
    rules, widths = fermi._cached_kernel_rule.cache_info(), fermi._kernel_widths.cache_info()
    solve_zeta(t, NR, mode)
    eos_evaluate(1.3 / k_f, pressure_from_fermi_momentum(k_f, NR), t * fermi_temperature(k_f, NR),
                 NR, mode)
    average_entanglement(t, NR, fge.Measure.CONCURRENCE, mode)
    assert fermi._cached_kernel_rule.cache_info().misses == rules.misses
    assert fermi._kernel_widths.cache_info().misses == widths.misses


@pytest.mark.parametrize("t", [1e-300, 1e-20, 1e-12, 1e-9])
def test_mu_is_exactly_one_far_below_degeneracy(t):
    # the series' root, and the relativistic closed form's, round to 1 there;
    # from t of about 1e-12 down the amplitude and zeta are the ground state's bits
    for regime in (NR, ER):
        assert reduced_chemical_potential(t, regime) == 1.0
    if t <= 1e-12:
        xs = np.linspace(0.0, 6.0, 601)
        ground = thermal_amplitude(xs, 0.0, 1.0, NR)[0]
        assert thermal_amplitude(xs, t, 1.0, NR)[0].tobytes() == ground.tobytes()
        assert solve_zeta(t, NR).zeta == solve_zeta(0.0, NR).zeta


def test_cached_terms_are_bounded():
    assert exchange._degenerate_terms.cache_info().maxsize == fermi.CACHE_SIZE


def test_import_builds_no_table():
    code = ("import fge, fge.cli; from fge import degenerate; "
            "print(degenerate._sommerfeld_tables.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"
