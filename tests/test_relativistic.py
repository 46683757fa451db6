"""The relativistic closed form: amplitude, estimate and mu against mpmath, and zeta at every t."""

import math
import warnings

import mpmath
import numpy as np
import pytest

import fge
from fge import GasRegime, MuMode, reduced_chemical_potential, solve_zeta, thermal_amplitude
from fge import exchange, fermi

ER = GasRegime.EXTREME_RELATIVISTIC

# the grid of the oracle: t = 0.5697 puts the exact mu at about -1e-4, z near 1
ORACLE_T = [1e-3, 0.01, 0.05, 0.3, 0.5697, 1.0, 3.0, 20.0, 50.0]
ORACLE_X = [1e-3, 0.01, 0.1, 0.5, 1.0, 3.0, 6.0]
# classical zeta t, the Maxwell-Boltzmann crossing of (1 + x^2 t^2)^-2
CLASSICAL_ZETA_T = math.sqrt(2.0 ** 0.25 - 1.0)


def mp_mu(t):
    """Exact-mu root of -6 t^3 Li_3(-e^(mu/t)) = 1 by mpmath's polylog and findroot."""
    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        return mpmath.findroot(lambda m: -6 * t ** 3 * mpmath.re(mpmath.polylog(3, -mpmath.exp(m / t))) - 1,
                               reduced_chemical_potential(float(t), ER))


def mp_alternating(z, xi, power):
    """sum_{k>=1} (-1)^(k+1) z^k k/(k^2 + xi^2)^power at the working precision.

    Directly for z <= 1/2, to a first omitted term below 10^-30 of the
    first.  Above, by the Abel-Plana formula: with
    g(j) = z^(j+1) (j+1)/((j+1)^2 + xi^2)^power, analytic for Re j > -1,
    sum_{j>=0} (-1)^j g(j) = g(0)/2 - int_0^inf Im g(i y)/sinh(pi y) dy,
    a smooth integral, split where g's poles j = -1 +- i xi pass nearest.
    """
    if z <= 0.5:
        terms = int(30 / -mpmath.log10(z)) + 2 if z > 0 else 1
        return mpmath.fsum((-1) ** (k + 1) * z ** k * k / (k * k + xi * xi) ** power
                           for k in range(1, terms + 1))

    def g(j):
        return z ** (j + 1) * (j + 1) / ((j + 1) ** 2 + xi ** 2) ** power

    def integrand(y):
        return mpmath.im(g(1j * y)) / mpmath.sinh(mpmath.pi * y) if y else -mpmath.diff(
            lambda w: mpmath.im(g(1j * w)), 0) / mpmath.pi

    points = [0] + [p for p in (xi - 3, xi, xi + 3) if p > 0] + [mpmath.inf]
    return g(0) / 2 - mpmath.quad(integrand, points)


def mp_amplitude(x, t, mu):
    """f at 24 digits: the logistic characteristic function over the whole line
    (mu > 0) plus the band bottom's series in z = exp(-|mu|/t), summed by ``mp_alternating``."""
    with mpmath.workdps(24):
        x, t, mu = mpmath.mpf(x), mpmath.mpf(t), mpmath.mpf(mu)
        z, xi, pi_t = mpmath.exp(-abs(mu) / t), x * t, mpmath.pi * t
        whole_line = mpmath.mpf(0)
        if mu > 0:
            psi = pi_t * x / mpmath.sinh(pi_t * x)
            dpsi = pi_t * (1 - pi_t * x * mpmath.coth(pi_t * x)) / mpmath.sinh(pi_t * x)
            s = mpmath.sin(mu * x) * psi
            ds = mu * mpmath.cos(mu * x) * psi + mpmath.sin(mu * x) * dpsi
            whole_line = 3 * (s - x * ds) / x ** 3
        return whole_line + 6 * t ** 3 * mp_alternating(z, xi, 2)


@pytest.mark.parametrize("mode", list(MuMode))
@pytest.mark.parametrize("t", ORACLE_T)
def test_closed_form_against_mpmath(mode, t):
    # f within 1e-14, or 1e-13 relative where |f| > 1; the estimate at
    # least the true error
    mu = reduced_chemical_potential(t, ER, mode)
    xs = np.array(ORACLE_X)
    values, estimate = exchange._refined_sum(xs, xs[-1], t, mu, ER, 1e-14)
    for x, value in zip(ORACLE_X, values):
        exact = mp_amplitude(x, t, mu)
        error = abs(float(value - exact))
        assert error <= (1e-13 * abs(float(exact)) if abs(exact) > 1 else 1e-14), (x, value)
        assert error <= estimate


@pytest.mark.parametrize("t", ORACLE_T)
def test_relativistic_mu_against_polylog_root(t):
    mu = reduced_chemical_potential(t, ER)
    assert abs(mu - float(mp_mu(t))) <= 1e-15 * max(1.0, abs(mu))


@pytest.mark.parametrize("z", [0.51, 0.7, 0.9, 0.98, 0.9998, 1.0])
def test_accelerated_sum_agrees_with_long_direct_partial_sums(z):
    # sum_k (-1)^(k+1) z^(k-1) k/(k^2 + xi^2)^2 by the 30 accelerated terms,
    # against the mean of two consecutive direct partial sums of 400,000
    # terms (the terms are smooth in k, so the mean is within about a
    # quarter of their last difference), relative to the sum at x = 0
    k, weights, bound = fermi._alternating_weights(z)
    assert len(k) == fermi._ACCELERATED_TERMS and bound < 1e-22
    ks = np.arange(1.0, 400_002.0)
    signed = np.where(ks % 2 == 1, 1.0, -1.0) * np.power(z, ks - 1.0)
    for xi in (0.0, 0.1, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1e3, 1e5):
        terms = signed * ks / (ks * ks + xi * xi) ** 2
        partial = np.cumsum(terms[::-1])[::-1]  # tails, small first, to sum the tiny terms first
        direct = partial[0] - 0.5 * terms[-1]
        accelerated = weights @ (k / (k * k + xi * xi) ** 2)
        assert abs(accelerated - direct) <= 2e-15, (xi, accelerated, direct)


def test_plain_sum_stops_below_rounding():
    # z <= 1/2 sums plainly, to the first term whose z^n is below eps/4;
    # t = 0.03 puts the exact-mu z at e^-33, where the band bottom's sum is
    # skipped altogether
    for z in (1e-300, 1e-9, 0.1, 0.5):
        k, weights, bound = fermi._alternating_weights(z)
        assert bound == z ** len(k) <= fermi._PLAIN_TAIL
        assert len(k) == 1 or z ** (len(k) - 1) > fermi._PLAIN_TAIL
    fermi._relativistic_terms.cache_clear()
    t = 0.03
    cubic, b, series, truncation = fermi._relativistic_terms(reduced_chemical_potential(t, ER), t)
    assert series is None and truncation == b <= fermi._PLAIN_TAIL * cubic


def test_relativistic_amplitude_is_finite_without_warnings_far_out():
    # x up to 1e3 at t up to 1e12, both mu modes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xs = np.concatenate(([0.0], np.geomspace(1e-6, 1e3, 40)))
        for t in np.geomspace(1e-6, 1e12, 19):
            t = float(t)
            for mode in MuMode:
                mu = reduced_chemical_potential(t, ER, mode)
                values, err = exchange._refined_sum(xs, 1e3, t, mu, ER, 1e-10)
                assert np.isfinite(values).all() and math.isfinite(err)
                assert np.all(np.abs(values) <= values[0] * (1.0 + 1e-12))


def test_unmet_tolerance_raises(monkeypatch):
    # the estimate is never set aside: a truncation bound above both the
    # tolerance and the rounding floor raises
    monkeypatch.setattr(fermi, "_ACCELERATED_BOUND", 1e-6)
    fermi._relativistic_terms.cache_clear()
    try:
        with pytest.raises(fge.QuadratureError, match="exceeds the tolerance") as raised:
            thermal_amplitude(1.0, 1.0, 0.1, ER, tol=1e-10)
        assert raised.value.error_estimate > 1e-10
    finally:
        fermi._relativistic_terms.cache_clear()


@pytest.mark.parametrize("t", [500.0, 1e3, 1e4, 1e6, 1e12])
def test_relativistic_zeta_solves_far_above_degeneracy(t):
    # zeta < 1e-3 from t ~ 435, in the first window [0, 1.01 zeta_cl] like
    # every exact-mu crossing; zeta t tends to the classical value
    result = exchange._solve_zeta.__wrapped__(t, ER, MuMode.EXACT_NORMALIZATION)[0]
    assert result.residual < 1e-10
    assert abs(result.zeta * t - CLASSICAL_ZETA_T) <= 1e-6


@pytest.mark.parametrize("t", [10.0, 316.2, 681.29, 1e3, 3e4])
def test_hot_fermi_mu_relativistic_zeta_against_mpmath(t):
    # f(zeta)^2 - 1/2 at 24 digits, where QUADPACK's sine-weighted rule stops
    # at its own rounding (it read -2e-9 at t = 681.29, 1.8e-6 at 3e4), and
    # the first crossing: f^2 > 1/2 at 20000 points before it
    result = solve_zeta(t, ER, MuMode.FERMI_ENERGY_APPROX)
    value = mp_amplitude(result.zeta, t, 1.0)
    assert abs(float(value ** 2 - 0.5)) < 1e-12
    assert result.residual < 1e-10
    xs = np.linspace(0.0, result.zeta, 20000, endpoint=False)
    f, _ = thermal_amplitude(xs, t, 1.0, ER, exchange._ZETA_QUAD_TOL)
    assert np.square(f).min() > 0.5


def test_zeta_below_the_grid_keeps_going_past_the_float_range_of_t_cubed():
    # t^3 overflows past t ~ 6e102, but the exact-mu Boltzmann side never forms it;
    # at 5e304 zeta, 8.7e-306, lies in the first window [0, 1.01 zeta_cl]
    for t in (1e103, 1e200, 1e300, 5e304):
        result = solve_zeta(t, ER)
        assert result.residual < 1e-10 and abs(result.zeta * t - CLASSICAL_ZETA_T) <= 1e-6
    with pytest.raises(fge.DomainError, match="reduced temperature"):
        solve_zeta(1e60, ER, MuMode.FERMI_ENERGY_APPROX)
