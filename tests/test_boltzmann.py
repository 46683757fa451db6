"""The nonrelativistic Boltzmann series at mu_tilde <= 0: amplitude and estimate against QUADPACK
and mpmath, mu against the polylog root, the classical Gaussian limit, x up to the float maximum,
and the hot Fermi-mu gas it cannot serve."""

import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from fge import GasRegime, QuadratureError, reduced_chemical_potential, reduced_occupancy
from fge import exchange, fermi, thermal_amplitude
from test_matsubara import mp_amplitude
from thermal_range import occupancy_cutoff

NR = GasRegime.NONRELATIVISTIC


def boltzmann_mu(t):
    """The exact mu as the root of the Boltzmann series' number, also where another branch solves it."""
    return fermi._closed_form_mu(fermi._boltzmann_number, t, NR, fermi._MU_STEP_TOL * max(1.0, t))


@pytest.mark.parametrize("t", [1.0, 1.2, 3.0, 1e3])
def test_series_against_sine_weighted_quadpack_and_mpmath(t):
    # within 1e-14 of QUADPACK's Fourier-weighted rule on (3/x) int u n(u) sin(ux) du,
    # and within the estimate of a 20-digit quadrature
    mu = boltzmann_mu(t)
    xs = np.array([0.1, 1.0, 3.0, 6.0])
    values, estimate, scale = exchange._boltzmann_sum(xs, t, mu)
    assert estimate <= 1e-14 and scale == pytest.approx(1.0, rel=0.5)
    for x, value in zip(xs.tolist(), values.tolist()):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)  # QUADPACK's own roundoff at t = 1e3
            integral, _ = quad(lambda u: u * reduced_occupancy(u, mu, t, NR), 0.0,
                               occupancy_cutoff(mu, t, NR), weight="sin", wvar=x, epsabs=1e-15,
                               epsrel=1e-13, limit=400)
        assert abs(value - 3.0 / x * integral) <= 1e-14
        assert abs(value - mp_amplitude(x, t, mu)) <= estimate


@pytest.mark.parametrize("t", [1.0, 3.0, 30.0, 100.0, 300.0, 1e3, 1e4, 1e6, 1e12])
def test_series_mu_against_polylog(t):
    # the root of -(3 sqrt(pi)/4) t^(3/2) Li_(3/2)(-e^(mu/t)) = 1 at 40 digits,
    # and the particle number f(0) = 1 there
    mu = boltzmann_mu(t)
    with mpmath.workdps(40):
        scale = -3 * mpmath.sqrt(mpmath.pi) / 4 * mpmath.mpf(t) ** 1.5
        root = mpmath.findroot(
            lambda m: scale * mpmath.re(mpmath.polylog(1.5, -mpmath.exp(m / t))) - 1, mu)
    assert abs(mu - float(root)) <= 1e-14 * abs(float(root))
    if t > 1.0:  # where the pole sum solves, it agrees
        assert abs(mu - reduced_chemical_potential(t, NR)) <= 1e-15 * abs(mu)
    value, err, _ = exchange._boltzmann_sum(np.array([0.0]), t, mu)
    assert abs(value[0] - 1.0) <= 2e-15 and err <= 1e-14


@pytest.mark.parametrize("t", [1e-3, 1.0, 1e3, 1e12, 1e300])
def test_series_is_finite_without_warnings_up_to_the_float_maximum(t):
    # x sqrt(t) is capped, so x^2 t never overflows; past the cap every term is 0
    mu = -t if t < 1.0 else reduced_chemical_potential(t, NR)
    xs = np.array([0.0, 1e-3, 1e150, 1e300, np.finfo(float).max])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, err, scale = exchange._boltzmann_sum(xs, t, mu)
        served, served_err = thermal_amplitude(xs, t, mu, NR, 1e-10)
    assert np.isfinite(values).all() and np.isfinite(served).all()
    assert values[0] == pytest.approx(scale, rel=0.5) and np.all(values[2:] == 0.0)
    assert err <= 1e-14 * scale and served_err <= 1e-10


@pytest.mark.parametrize("t", [1e6, 1e12, 1e100])
def test_classical_limit_is_the_maxwell_boltzmann_gaussian(t):
    # f = exp(-y^2/4), y = x sqrt(t), up to the first quantum correction
    # z 2^(-3/2) (exp(-y^2/4) - exp(-y^2/8)), below z/2 at every y, and the estimate
    mu = reduced_chemical_potential(t, NR)
    z = np.exp(mu / t)
    ys = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0])
    values, err = thermal_amplitude(ys / np.sqrt(t), t, mu, NR, 1e-14)
    assert 0.0 < z < 1e-8 and err <= 1e-14
    assert np.abs(values - np.exp(-ys * ys / 4.0)).max() <= 0.5 * z + err


@pytest.mark.parametrize("x, t", [(1e307, 1e4), (1e306, 1e3)])
def test_hot_fermi_mu_refusal_at_huge_x_raises_no_warning(x, t):
    # the pole sum's estimate at x_max = 1e306 or more stays finite and silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match=rf"t={t!r}, mu_tilde=1\.0 ") as refusal:
            thermal_amplitude(np.array([0.0, x]), t, 1.0, NR)
    assert refusal.value.error_estimate > 1e-10


@pytest.mark.parametrize("t, tol", [(50.0, 1e-14), (320.0, 1e-12), (400.0, 1e-10), (1e6, 1e-10)])
def test_hot_fermi_mu_amplitude_names_t_mu_and_the_pole_estimate(t, tol):
    # mu pinned at the Fermi energy past the pole sum's reach: no closed form serves
    with pytest.raises(QuadratureError, match=rf"t={t!r}, mu_tilde=1\.0 .*pole sum's estimate") as refusal:
        thermal_amplitude(np.array([0.0, 1.0]), t, 1.0, NR, tol)
    assert refusal.value.error_estimate > tol


def test_estimate_bounds_the_accelerated_sum_at_every_x():
    # z near 1 takes the accelerated weights; against 400,000 direct terms,
    # averaged over the last two partial sums, at x from 0 to where f vanishes
    t = 1.0
    mu = boltzmann_mu(t)
    k = np.arange(1.0, 400_002.0)
    signs = np.where(k % 2 == 1, 1.0, -1.0) * np.exp((k - 1.0) * mu / t) * k ** -1.5
    values, estimate, scale = exchange._boltzmann_sum(np.array([0.0, 0.5, 2.0, 8.0]), t, mu)
    for x, value in zip((0.0, 0.5, 2.0, 8.0), values.tolist()):
        terms = signs * np.exp(-x * x * t / (4.0 * k))
        partial = np.cumsum(terms[::-1])[::-1]
        direct = scale * (partial[0] - 0.5 * terms[-1])
        assert abs(value - direct) <= estimate
