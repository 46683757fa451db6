"""The Sommerfeld series of the degenerate gas: amplitude, estimate and mu against mpmath and
QUADPACK, across the switch to the pole sum, the cold corner of huge x and tiny t, and the cold
requests that never reach the Boltzmann series."""

import math
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from fge import (
    GasRegime,
    Measure,
    MuMode,
    average_entanglement,
    eos_evaluate,
    fermi_temperature,
    pressure_from_fermi_momentum,
    reduced_chemical_potential,
    solve_zeta,
    thermal_amplitude,
)
from fge import degenerate, exchange, fermi, matsubara, reduced_occupancy
from thermal_range import occupancy_cutoff

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
    """f at 24 digits, by quadrature of int h(eps) (-dn/deps) deps.

    h = 3 (sin z - z cos z)/x^3 with z = x sqrt(eps), which cancels at
    small x; the working precision absorbs that.
    """
    with mpmath.workdps(34):
        x, t, mu = mpmath.mpf(x), mpmath.mpf(t), mpmath.mpf(mu)

        def h(eps):
            if x == 0:
                return eps ** 1.5
            z = x * mpmath.sqrt(eps)
            return 3 * (mpmath.sin(z) - z * mpmath.cos(z)) / x ** 3

        return kernel_quad(h, t, mu)


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
    # f within 1e-15 of the quadrature, and the estimate on [0, x] at
    # least the error at x
    mu = reduced_chemical_potential(t, NR, mode)
    terms = exchange._degenerate_terms(mu, t)
    values = degenerate._sommerfeld_sum(np.array(ORACLE_X), terms)
    for x, value in zip(ORACLE_X, values):
        error = abs(float(value - mp_amplitude(x, t, mu)))
        assert error <= 1e-15, (x, value)
        assert error <= degenerate._sommerfeld_estimate(terms, x)


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
            bound = degenerate._polynomial(omitted, y) / a
            assert bound * y >= abs(exact)
            assert bound * y <= 1e3 * abs(exact)


def quadpack_amplitude(x, t, mu):
    """f by QUADPACK: (3/x) int u n(u) sin(ux) du by its Fourier-weighted rule, 3 int u^2 n sinc(ux) du below x = 1e-3.

    The range is cut at u = sqrt(mu) + m t/(2 sqrt(mu)), |m| in {1, 4, 12,
    40}, so that every piece resolves the edge of the occupancy, however
    sharp; on those pieces the rule is within a few 1e-16 of f here.
    """
    top = occupancy_cutoff(mu, t, NR)
    edge, width = math.sqrt(mu), t / (2.0 * math.sqrt(mu))
    cuts = [0.0, *(u for u in (edge + m * width for m in (-40, -12, -4, -1, 0, 1, 4, 12, 40))
                   if 0.0 < u < top), top]
    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for a, b in zip(cuts, cuts[1:]):
            if x < 1e-3:
                total += quad(lambda u: u * u * reduced_occupancy(u, mu, t, NR) * np.sinc(u * x / math.pi),
                              a, b, epsabs=1e-17, epsrel=1e-15, limit=200)[0]
            else:
                total += quad(lambda u: u * reduced_occupancy(u, mu, t, NR), a, b, weight="sin",
                              wvar=x, epsabs=1e-17, epsrel=1e-15, limit=200)[0]
    return 3.0 * total if x < 1e-3 else 3.0 / x * total


@settings(max_examples=40, deadline=None)
@given(log_t=st.floats(math.log10(1e-4), math.log10(0.045)), x_max=st.floats(0.0, 6.0),
       mode=st.sampled_from(list(MuMode)))
def test_series_agrees_with_sine_weighted_quadpack(log_t, x_max, mode):
    # wherever the series serves the default tolerance, QUADPACK on pieces
    # across the occupancy's edge is within the series' estimate, and within
    # 1e-13 where that serves the zeta solve
    t = 10.0 ** log_t
    mu = reduced_chemical_potential(t, NR, mode)
    terms = exchange._degenerate_terms(mu, t)
    estimate = degenerate._sommerfeld_estimate(terms, x_max)
    assume(estimate <= exchange._DEFAULT_TOL)
    xs = np.linspace(0.0, x_max, 7)
    series = degenerate._sommerfeld_sum(xs, terms)
    reference = np.array([quadpack_amplitude(float(x), t, mu) for x in xs])
    gap = float(np.abs(series - reference).max())
    assert gap <= estimate + 1e-15
    if estimate <= exchange._ZETA_QUAD_TOL:
        assert gap <= 1e-13


def polylog_newton_step(mu, t):
    """One Newton step on N - 1 at 30 digits, N = -(3 sqrt(pi)/4) t^(3/2) Li_(3/2)(-e^(mu/t)):
    the distance from mu to the root, to rounding."""
    with mpmath.workdps(30):
        z, scale = -mpmath.exp(mpmath.mpf(mu) / t), -3 * mpmath.sqrt(mpmath.pi) / 4 * mpmath.sqrt(t)
        return float(mpmath.re((scale * t * mpmath.polylog(1.5, z) - 1) / (scale * mpmath.polylog(0.5, z))))


@settings(max_examples=30, deadline=None)
@given(log_t=st.floats(math.log10(1e-6), math.log10(0.04)))
def test_series_mu_agrees_with_the_polylog_root(log_t):
    t = 10.0 ** log_t
    mu = fermi._degenerate_mu(t, fermi._MU_STEP_TOL)
    assume(mu is not None)
    assert abs(polylog_newton_step(mu, t)) <= 1e-14


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
    return exchange._degenerate_branch(mu, t, exchange._ZETA_X_MAX,
                                       exchange._ZETA_QUAD_TOL) is not None


def test_zeta_is_continuous_across_the_switch_to_the_pole_sum():
    # at the last float t whose zeta solve samples the series and the next, which
    # samples the pole sum: f at three x within the amplitudes' tolerance,
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


@pytest.mark.parametrize("t", [5e-324, 1e-315, 1e-310, 1e-308])
@pytest.mark.parametrize("x_max", [1.0, 1e200])
def test_subnormal_temperature_is_the_ground_state(t, x_max):
    # the pole sum refuses t whose 1/beta leaves the double range, and the
    # series serves, its y = x sqrt(mu) capped where f0 has decayed
    xs = np.concatenate(([0.0], np.geomspace(1e-3, x_max, 60)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, err = thermal_amplitude(xs, t, 1.0, NR, 1e-14)
    assert np.isfinite(values).all() and err <= 1e-14
    assert np.abs(values - thermal_amplitude(xs, 0.0, 1.0, NR)[0]).max() <= 1e-15


@pytest.mark.parametrize("mode", list(MuMode))
@pytest.mark.parametrize("t, x_max", [(t, x) for t in (1e-300, 1e-100, 1e-30, 1e-15)
                                      for x in (1e15, 1e50, 1e200)] + [(1e-12, 1e15)])
def test_cold_corner_is_served_at_every_x(mode, t, x_max):
    # huge x in a degenerate gas: the series where x t stays small, the pole
    # sum elsewhere, each within 1e-15 of the ground state, with no warning
    xs = np.concatenate(([0.0], np.geomspace(1e-3, x_max, 60)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tol in (1e-14, 1e-10):
            values, err = thermal_amplitude(xs, t, reduced_chemical_potential(t, NR, mode), NR, tol)
            assert np.isfinite(values).all() and err <= tol
            assert np.abs(values - thermal_amplitude(xs, 0.0, 1.0, NR)[0]).max() <= 1e-15


@pytest.mark.parametrize("mode", list(MuMode))
@pytest.mark.parametrize("t", [0.01, 0.05, 0.3, 0.8])
def test_cold_requests_never_reach_the_boltzmann_series(t, mode, monkeypatch):
    # the zeta solve, a point of the equation of state and the average, on
    # the series at t = 0.01 and on the pole sum above it: mu_tilde > 0, so
    # neither the amplitude nor the mu solve falls through to the Boltzmann series
    def refused(*args):
        raise AssertionError(f"Boltzmann series reached at {args[-2:]!r}")

    monkeypatch.setattr(exchange, "_boltzmann_sum", refused)
    monkeypatch.setattr(fermi, "_boltzmann_number", refused)
    k_f = 1e10
    reduced_chemical_potential.cache_clear()
    solve_zeta.cache_clear()
    exchange._pole_terms.cache_clear()
    assert solve_zeta(t, NR, mode).residual < 1e-10
    eos_evaluate(1.3 / k_f, pressure_from_fermi_momentum(k_f, NR), t * fermi_temperature(k_f, NR),
                 NR, mode)
    average_entanglement(t, NR, Measure.CONCURRENCE, mode)


def test_cached_terms_are_bounded():
    assert exchange._degenerate_terms.cache_info().maxsize == fermi.CACHE_SIZE


def test_import_builds_no_table():
    code = ("import fge, fge.cli; from fge import degenerate; "
            "print(degenerate._sommerfeld_tables.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"
