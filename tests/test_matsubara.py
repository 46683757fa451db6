"""The sum over the Matsubara poles: amplitude, estimate and mu against mpmath, and across its
switch to the Boltzmann series at the hot end."""

import math
import subprocess
import sys
from functools import lru_cache

import mpmath
import numpy as np
import pytest

from fge import (
    GasRegime,
    MuMode,
    reduced_chemical_potential,
    solve_zeta,
    thermal_amplitude,
)
import fge
from fge import exchange, fermi, matsubara
from test_degenerate import last_served

NR = GasRegime.NONRELATIVISTIC

ORACLE_T = [(MuMode.EXACT_NORMALIZATION, t) for t in (0.036, 0.05, 0.1, 0.3, 1.0, 3.0)] + [
    (MuMode.FERMI_ENERGY_APPROX, t) for t in (3.0, 20.0)]
ORACLE_X = [0.0, 1e-3, 0.1, 1.0, 3.0, 6.0]


@lru_cache(maxsize=None)
def mp_amplitude(x, t, mu):
    """f to about 1e-19 of f(0), by quadrature of f = (3/x) int u n(u) sin(ux) du and of f(0) = 3 int u^2 n du.

    The range stops where n is below e^-90, on pieces short enough for
    Gauss-Legendre.
    """
    with mpmath.workdps(20):
        x, t, mu = mpmath.mpf(x), mpmath.mpf(t), mpmath.mpf(mu)

        def n(u):
            return 1 / (mpmath.exp((u * u - mu) / t) + 1)

        top = mpmath.sqrt(max(mu, 0) + 90 * t)
        pieces = [top * k / 24 for k in range(25)]
        if x == 0:
            return float(3 * mpmath.quad(lambda u: u * u * n(u), pieces, method="gauss-legendre"))
        return float(3 / x * mpmath.quad(lambda u: u * n(u) * mpmath.sin(u * x), pieces,
                                         method="gauss-legendre"))


@pytest.mark.parametrize("mode, t", ORACLE_T)
def test_pole_sum_against_mpmath(mode, t):
    # at each x, and just below and above the crossover, f is within the
    # estimate the branch reports for that x, and in exact-mu mode within
    # 1e-13
    mu = reduced_chemical_potential(t, NR, mode)
    terms = matsubara._matsubara_terms(mu, t)
    crossover = terms.side.crossover
    for x in ORACLE_X + [math.nextafter(crossover, 0.0), crossover]:
        value, err = matsubara._pole_sum(np.array([x]), terms)
        gap = abs(float(value[0]) - mp_amplitude(x, t, mu))
        assert gap <= err
        if mode is MuMode.EXACT_NORMALIZATION:
            assert gap <= 1e-13


def test_pole_mu_takes_at_most_three_number_evaluations(monkeypatch):
    # over 40 log t in [0.031, 19] the seed (the Sommerfeld mu to t^4 below
    # t = 0.2, Joyce and Dixon's above) is within 7e-4 of the root: wherever
    # the pole sum solves mu, one evaluation at the seed and at most two
    # Newton steps
    evaluations = []
    log_number = fermi._pole_log_number

    def counted(*args, **kwargs):
        evaluations.append(args[1])
        return log_number(*args, **kwargs)

    monkeypatch.setattr(fermi, "_pole_log_number", counted)
    solved = 0
    for t in np.geomspace(0.031, 19.0, 40).tolist():
        evaluations.clear()
        fermi._reduced_chemical_potential.__wrapped__(t, NR, MuMode.EXACT_NORMALIZATION)
        if evaluations:
            solved += 1
            assert len(evaluations) <= 3, t
    assert solved == 40


@pytest.mark.parametrize("t", [0.031, 0.05, 0.1, 0.3, 1.0, 3.0, 10.0])
def test_pole_mu_against_polylog(t):
    # mu is the root of the number equation N = -(3 sqrt(pi)/4) t^(3/2) Li_(3/2)(-e^(mu/t)) = 1
    # within 1e-14 max(1, t): one Newton step on N, whose mu-derivative is
    # -(3 sqrt(pi)/4) t^(1/2) Li_(1/2)(-e^(mu/t)), from it is that short
    mu = fermi._pole_mu(t, fermi._MU_STEP_TOL * max(1.0, t))
    assert mu == reduced_chemical_potential(t, NR)
    with mpmath.workdps(30):
        z, scale = -mpmath.exp(mpmath.mpf(mu) / t), -3 * mpmath.sqrt(mpmath.pi) / 4 * mpmath.sqrt(t)
        step = (scale * t * mpmath.polylog(1.5, z) - 1) / (scale * mpmath.polylog(0.5, z))
    assert abs(complex(step)) <= 1e-14 * max(1.0, t)


def test_mu_is_continuous_across_the_switch_to_the_boltzmann_series():
    # the pole sum solves mu from where the series stops to t of about 19;
    # there and at the next float t, on the Boltzmann series, mu agrees to a step
    below, above = last_served(lambda t: fermi._pole_mu(t, fermi._MU_STEP_TOL * max(1.0, t)) is not None,
                               1.0, 100.0)
    assert 15.0 < below < 25.0
    step_tol = fermi._MU_STEP_TOL * above
    boltzmann = fermi._closed_form_mu(fermi._boltzmann_number, below, NR, step_tol)
    assert abs(reduced_chemical_potential(below, NR) - boltzmann) <= step_tol
    assert abs(reduced_chemical_potential(below, NR) - reduced_chemical_potential(above, NR)) <= step_tol


def pole_serves(tol, x_max, mode=MuMode.EXACT_NORMALIZATION):
    def serves(t):
        mu = reduced_chemical_potential(t, NR, mode)
        return exchange._pole_branch(mu, t, x_max, tol) is not None
    return serves


@pytest.mark.parametrize("tol", [1e-14, 1e-12, 1e-10])
def test_amplitude_is_continuous_across_the_switch_to_the_boltzmann_series(tol):
    # f on x in [0, 6] at the last t the pole sum serves and the next
    xs = np.linspace(0.0, 6.0, 13)
    below, above = last_served(pole_serves(tol, 6.0), 1.0, 1e3)
    f_below = thermal_amplitude(xs, below, reduced_chemical_potential(below, NR), NR, tol)[0]
    f_above = thermal_amplitude(xs, above, reduced_chemical_potential(above, NR), NR, tol)[0]
    assert np.abs(f_below - f_above).max() <= tol


def test_zeta_is_continuous_across_the_switch_to_the_boltzmann_series():
    # at the last float t whose zeta solve samples the pole sum and the next,
    # which samples the Boltzmann series: f at three x within the amplitudes'
    # tolerance, zeta within the root's
    below, above = last_served(pole_serves(exchange._ZETA_QUAD_TOL, exchange._ZETA_X_MAX),
                               1.0, 1e3)
    assert 10.0 < below < 100.0
    for x in (0.05, 0.15, 0.3):
        f_below = exchange._refined_sum(np.array([x]), 3.0, below, reduced_chemical_potential(below, NR),
                                        NR, exchange._ZETA_QUAD_TOL)[0]
        f_above = exchange._refined_sum(np.array([x]), 3.0, above, reduced_chemical_potential(above, NR),
                                        NR, exchange._ZETA_QUAD_TOL)[0]
        assert abs(float(f_below[0] - f_above[0])) <= exchange._ZETA_QUAD_TOL
    gap = solve_zeta(below, NR).zeta - solve_zeta(above, NR).zeta
    assert abs(gap) <= exchange._ROOT_XTOL


@pytest.mark.parametrize("t", [1e-300, 1e-3, 0.3, 3.0, 1e3, 1e6])
def test_pole_sum_declines_cleanly_or_serves(t):
    # across t, mu from -50 t to 2 and x up to the float maximum, the branch
    # either serves with a finite estimate or declines, with no warning: a
    # huge x drops the tail and is capped where every term has decayed
    for tol in (1e-10, 1e-6):
        for mu in (-50.0 * t, -t, 0.0, 1.0, 2.0):
            for x_max in (0.5, 6.0, 1e300, 1.7e308):
                terms = exchange._pole_branch(mu, t, x_max, tol)
                if terms is not None:
                    xs = np.array([0.0, 0.3, 0.5 * x_max, x_max])
                    values, err = matsubara._pole_sum(xs, terms)
                    assert np.isfinite(values).all()
                    assert x_max < 1e300 or abs(values[-1]) <= 1e-250
                    assert 0.0 <= err <= max(tol, exchange._ROUNDOFF * abs(terms.scale))


@pytest.mark.parametrize("t", [1e200, 1e300, 1e305])
def test_hot_mu_past_the_poles_is_the_boltzmann_root(t):
    # the pole sum's floor rules the hot gas out without an overflow of its
    # own, and the Boltzmann series solves in logs: mu/t = ln(4/(3 sqrt(pi)))
    # - (3/2) ln t up to z/2^(3/2), here below rounding
    mu = fermi._reduced_chemical_potential.__wrapped__(t, NR, MuMode.EXACT_NORMALIZATION)
    assert mu / t == pytest.approx(math.log(4.0 / (3.0 * math.sqrt(math.pi))) - 1.5 * math.log(t),
                                   rel=1e-14)


@pytest.mark.parametrize("t", [1e306, 1.7e308])
def test_hot_mu_past_the_float_range_names_the_overflow(t):
    with pytest.raises(fge.DomainError, match="too large"):
        fermi._reduced_chemical_potential.__wrapped__(t, NR, MuMode.EXACT_NORMALIZATION)


def test_cached_terms_are_bounded():
    assert exchange._pole_terms.cache_info().maxsize == fermi.CACHE_SIZE


def test_import_builds_no_pole_table():
    code = ("import fge, fge.cli; from fge import exchange, matsubara; "
            "print(matsubara._pole_tables.cache_info().currsize, "
            "exchange._pole_terms.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0 0"
