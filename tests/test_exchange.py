"""Exchange amplitude: ground state, thermal quadrature, and the distance constant."""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq
from scipy.special import spherical_jn

import fge
from fge import (
    DomainError,
    GasRegime,
    MuMode,
    SolverError,
    constants,
    eos_grid,
    fermi_energy,
    fermi_momentum_from_pressure,
    fermi_temperature,
    pressure_from_density,
    reduced_chemical_potential,
    solve_zeta,
    thermal_amplitude,
)
from fge import QuadratureError, reduced_occupancy
from fge import degenerate, exchange
from fge.fermi import fermi_momentum_from_density, occupancy_cutoff
from fge.quadrature import chebyshev_lobatto

NR = GasRegime.NONRELATIVISTIC
ER = GasRegime.EXTREME_RELATIVISTIC
ZETA0 = 1.8148229770012292        # root of f^2 = 1/2 in the ground state
FIRST_ZERO = 4.493409457909064    # first positive root of the amplitude


def ground_state(x):
    """The ground-state amplitude f0(x): the thermal amplitude at t = 0."""
    return thermal_amplitude(x, 0.0, 1.0, NR)[0]


# === ground state ===


def test_ground_state_limits():
    assert ground_state(0.0) == 1.0
    assert ground_state(ZETA0) == pytest.approx(math.sqrt(0.5), abs=1e-13)
    assert abs(ground_state(FIRST_ZERO)) < 1e-14


def test_ground_state_against_spherical_bessel():
    xs = np.linspace(1e-3, 50.0, 500)
    expected = 3.0 * spherical_jn(1, xs) / xs
    assert np.max(np.abs(ground_state(xs) - expected)) < 5e-14


def test_ground_state_shares_its_sine_and_cosine():
    # f0 with its sine and cosine is f0's bits, and those are sin y and cos y
    # of the numpy ufuncs, bit for bit above the series crossover where the
    # closed form takes them, through the crossover at 0.5
    ys = np.concatenate((np.geomspace(1e-4, 50.0, 2000), 0.5 + np.linspace(-1e-3, 1e-3, 41)))
    values, sin, cos = exchange._f0(ys, trig=True)
    assert values.tobytes() == exchange._f0(ys).tobytes()
    above = ys >= degenerate._SERIES_CROSSOVER
    assert sin[above].tobytes() == np.sin(ys[above]).tobytes()
    assert cos[above].tobytes() == np.cos(ys[above]).tobytes()
    assert np.max(np.abs(sin - np.sin(ys))) <= 1e-16 and np.max(np.abs(cos - np.cos(ys))) <= 1e-16


def test_ground_state_against_mpmath_below_three():
    # 3,001 points on [0, 3], through the series crossover: the series keeps
    # f0 within 1.8e-15 (the closed form lost up to 6e-15 on [0.25, 0.5))
    ys = np.linspace(0.0, 3.0, 3001)
    values = exchange._f0(ys)
    with mpmath.workdps(40):
        exact = [mpmath.mpf(1)]
        for y in map(mpmath.mpf, ys[1:]):
            exact.append(3 * (mpmath.sin(y) - y * mpmath.cos(y)) / y ** 3)
        f0_err = max(abs(v - e) for v, e in zip(values, exact))
    assert f0_err <= 1.8e-15


def test_series_meets_closed_form_at_crossover():
    # both branches must agree through the seam
    xs = degenerate._SERIES_CROSSOVER - np.array([1e-12, 1e-9, 1e-6, 1e-3, 0.01])
    series = ground_state(xs)
    closed = 3.0 * (np.sin(xs) - xs * np.cos(xs)) / xs ** 3
    assert np.max(np.abs(series - closed)) < 1e-13


def test_ground_state_strictly_decreasing_inside_window():
    xs = np.linspace(1e-3, ZETA0, 400)
    assert np.all(np.diff(ground_state(xs)) < 0)


def test_ground_state_below_threshold_outside_window():
    xs = np.linspace(ZETA0 + 1e-6, 50.0, 2000)
    assert np.all(np.abs(ground_state(xs)) < math.sqrt(0.5))


def test_ground_state_scalar_array_forms():
    assert isinstance(ground_state(1.0), float)
    out = ground_state(np.array([[0.1, 0.3], [1.0, 3.0]]))
    assert out.shape == (2, 2)
    with pytest.raises(DomainError, match="nonnegative"):
        ground_state(-0.1)


@pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0])
def test_ground_state_rejects_non_finite_and_negative_separations(bad):
    # one min/max reduction over the whole input: a scalar, or one entry of an array
    for x in (bad, np.array([[0.5, 1.0], [bad, 2.0]])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="separation"):
                ground_state(x)


@pytest.mark.parametrize("x", [1e6, 1e100, 1e200, 1e300, np.finfo(float).max])
def test_ground_state_bounded_for_huge_separations(x):
    # |f0(x)| <= 3 (1 + x)/x^3 for every finite x, with no overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = ground_state(x)
        values = ground_state(np.array([x, 2.0]))
    assert math.isfinite(value) and values[0] == value
    mx = mpmath.mpf(x)
    assert abs(value) <= 3 * (1 + mx) / mx ** 3
    if x <= 1e100:
        with mpmath.workdps(60):
            exact = 3 * (mpmath.sin(mx) - mx * mpmath.cos(mx)) / mx ** 3
        assert abs(value - float(exact)) <= 1e-14 * abs(float(exact))


# === reduced coordinates ===


def test_coordinates_validation():
    with pytest.raises(DomainError, match="separation"):
        thermal_amplitude(-1.0, 0.1, 0.9, NR)
    with pytest.raises(DomainError, match="temperature"):
        thermal_amplitude(1.0, -0.1, 0.9, NR)
    with pytest.raises(DomainError, match="exactly 1"):
        thermal_amplitude(1.0, 0.0, 0.9, NR)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field, fragment", [
    ("x", "separation"), ("t", "temperature"), ("mu_tilde", "chemical potential"),
])
def test_coordinates_reject_non_finite(field, fragment, bad):
    values = {"x": 1.0, "t": 0.1, "mu_tilde": 0.9, "regime": NR}
    values[field] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=fragment):
            thermal_amplitude(**values)


@pytest.mark.parametrize("regime, t, mu, fragment", [
    # the band bottom 1e17 kernel widths above the kernel: the panel edges
    # collapse (composite_gauss raised a bare ValueError)
    (NR, 1e-14, -1000.0, "edges stop increasing"),
    # u^3 beyond the float range (overflow warnings, then a QuadratureError)
    (NR, 1.0, 1e250, "overflow"),
    # the relativistic closed form: mu^3, and t^3, beyond e^700
    (ER, 1.0, 1e120, "mu_tilde^3 overflows"),
    (ER, 1e103, 0.0, "t^3 overflows"),
])
def test_thermal_amplitude_rejects_a_kernel_window_without_a_rule(regime, t, mu, fragment):
    with pytest.raises(DomainError, match=f"chemical potential.*{re.escape(fragment)}"):
        thermal_amplitude(1.0, t, mu, regime)


@pytest.mark.parametrize("t, mu, name", [
    (1.0, 2.0 ** 340, "reduced chemical potential"),
    (2.0 ** 340, 1.0, "reduced temperature"),
    (1e103, -1e-300, "reduced temperature"),
])
def test_relativistic_amplitude_names_the_input_that_overflows(t, mu, name):
    # mu^3 is 2^1020 > e^700; 6 t^3 z is e^700 and more, at mu > 0 and just below 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^{name} "):
            thermal_amplitude(1.0, t, mu, ER)


@pytest.mark.parametrize("regime", [NR, ER])
def test_thermal_amplitude_accepts_the_chemical_potential_bracket(regime):
    # the bracket -50 t <= mu_tilde <= 2 of the mu solve, and the bound
    # -2^50 t itself, give finite amplitudes within tolerance; the
    # relativistic closed form has no kernel window, and takes any mu <= 0
    for t in (1e-300, 1e-14, 1e-3, 1.0):
        for mu in (-50.0 * t, 2.0, -2.0 ** 50 * t):
            values, err = thermal_amplitude(np.array([0.0, 1.0]), t, mu, regime)
            assert np.isfinite(values).all() and err <= 1e-10
    below = (1.0, 1.0, np.nextafter(-2.0 ** 50, -math.inf), regime)
    if regime is NR:
        with pytest.raises(DomainError, match="chemical potential"):
            thermal_amplitude(*below)
    else:
        assert thermal_amplitude(*below) == (0.0, 0.0)
        assert thermal_amplitude(1.0, 1e-14, -1000.0, ER) == (0.0, 0.0)


@pytest.mark.parametrize("regime", [NR, ER])
def test_thermal_amplitude_is_the_ground_state_at_zero_temperature(regime):
    xs = np.array([[0.0, 1e-3, 0.3], [1.8, 4.5, 50.0]])
    values, err = thermal_amplitude(xs, 0.0, 1.0, regime)
    assert values.tobytes() == ground_state(xs).tobytes() and err == 0.0
    assert thermal_amplitude(1.0, 0.0, 1.0, regime) == (ground_state(1.0), 0.0)


# === thermal amplitude ===


def test_thermal_amplitude_reference_values():
    mu_nr = reduced_chemical_potential(0.05, NR)
    got = thermal_amplitude(1.0, 0.05, mu_nr, NR)
    assert got[0] == pytest.approx(0.90258084334657520, abs=5e-10)
    assert got[1] < 1e-9

    mu_cold = reduced_chemical_potential(0.01, NR)
    got = thermal_amplitude(1.8, 0.01, mu_cold, NR)
    assert got[0] == pytest.approx(0.71122797707031327, abs=5e-10)

    mu_er = reduced_chemical_potential(0.05, ER)
    got = thermal_amplitude(1.0, 0.05, mu_er, ER)
    assert got[0] == pytest.approx(0.89979756601208668, abs=5e-10)


def test_thermal_amplitude_normalized_at_origin():
    # exact normalization pins the zero-separation amplitude at 1
    for regime in (NR, ER):
        mu = reduced_chemical_potential(0.05, regime)
        got = thermal_amplitude(0.0, 0.05, mu, regime)
        assert got[0] == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(log_t=st.floats(-3.0, 0.0), regime=st.sampled_from([NR, ER]))
def test_exact_mu_normalizes_the_origin_at_every_temperature(log_t, regime):
    t = 10.0 ** log_t
    mu = reduced_chemical_potential(t, regime, MuMode.EXACT_NORMALIZATION)
    assert abs(thermal_amplitude(0.0, t, mu, regime)[0] - 1.0) <= 1e-13


def test_thermal_amplitude_small_x_branch_is_continuous():
    mu = reduced_chemical_potential(0.05, NR)
    below = thermal_amplitude(9e-7, 0.05, mu, NR)[0]
    above = thermal_amplitude(1.1e-6, 0.05, mu, NR)[0]
    assert abs(below - above) < 1e-8


def test_thermal_amplitude_approaches_ground_state():
    t = 1e-4
    mu = reduced_chemical_potential(t, NR)
    xs = np.linspace(0.05, 6.0, 25)
    worst = max(
        abs(thermal_amplitude(float(x), t, mu, NR)[0] - ground_state(float(x)))
        for x in xs
    )
    assert worst < 1e-3


def test_fermi_level_approximation_lifts_the_origin():
    # with mu pinned at the Fermi energy the x=0 amplitude gains ~(pi t)^2/8
    t = 0.05
    got = thermal_amplitude(1e-8, t, 1.0, NR, tol=1e-12)
    assert got[0] == pytest.approx(1.0 + (math.pi * t) ** 2 / 8.0, abs=1e-4)


def test_thermal_amplitude_stays_within_unit_bound():
    for t in (0.1, 0.3, 0.5):
        mu = reduced_chemical_potential(t, NR)
        for x in np.arange(0.0, 50.1, 2.5):
            value = thermal_amplitude(float(x), t, mu, NR)[0]
            assert abs(value) <= 1.0 + 1e-9


@pytest.mark.parametrize("regime", [NR, ER])
@pytest.mark.parametrize("x, t", [(50.0, 0.5), (20.0, 1.0)])
def test_thermal_amplitude_against_sine_weighted_quadpack(regime, x, t):
    # x t >> 1: QUADPACK's Fourier-weighted rule (QAWO) on the original
    # oscillatory integral (3/x) int u n(u) sin(ux) du, no integration by parts
    mu = reduced_chemical_potential(t, regime)
    integral, _ = quad(
        lambda u: u * reduced_occupancy(u, mu, t, regime),
        0.0, occupancy_cutoff(mu, t, regime),
        weight="sin", wvar=x, epsabs=1e-15, epsrel=1e-13, limit=400,
    )
    got = thermal_amplitude(x, t, mu, regime, tol=1e-12)
    assert abs(got[0] - 3.0 / x * integral) < 1e-14
    assert got[1] <= 1e-12


@pytest.mark.parametrize("regime", [NR, ER])
def test_thermal_amplitude_at_vanishing_temperature(regime):
    # at t = 1e-9 the kernel is a spike of width ~1e-9 around u = 1, so the
    # amplitude is the ground state up to O(t^2)
    t = 1e-9
    xs = np.linspace(0.0, 50.0, 201)
    values, err = thermal_amplitude(xs, t, reduced_chemical_potential(t, regime), regime)
    assert np.max(np.abs(values - ground_state(xs))) < 1e-13
    assert err <= 1e-10


@pytest.mark.parametrize("regime", [NR, ER])
def test_thermal_amplitude_batch_matches_points(regime):
    t = 0.3
    mu = reduced_chemical_potential(t, regime)
    xs = np.array([[0.0, 0.5, 1.8], [3.0, 6.0, 12.0]])
    values, err = thermal_amplitude(xs, t, mu, regime)
    assert values.shape == xs.shape and err <= 1e-10
    for x, value in zip(xs.ravel(), values.ravel()):
        point = thermal_amplitude(float(x), t, mu, regime)
        assert abs(point[0] - value) < 1e-13
    scalar, _ = thermal_amplitude(1.8, t, mu, regime)
    assert isinstance(scalar, float)


@pytest.mark.parametrize("split", ["nodes", "rows"])
def test_sums_over_many_x_in_blocks_match_one_x_sums(monkeypatch, split):
    # one kernel sum over 60 x, in blocks that split the nodes (one x a
    # block) or the x (three whole rows a block), against the one-block sum
    # of each x
    t = 0.3
    mu = reduced_chemical_potential(t, NR)
    xs = np.linspace(0.0, 6.0, 60)
    rule = fge.fermi.kernel_rule(mu, t, float(xs[-1]))
    per_x = np.concatenate([exchange._kernel_sum(xs[i:i + 1], rule) for i in range(len(xs))])
    block = len(rule.nodes) // 3 if split == "nodes" else 3 * len(rule.nodes)
    monkeypatch.setattr(exchange, "_BLOCK", block)
    sums = exchange._kernel_sum(xs, rule)
    assert sums.shape == (len(xs), 2)
    assert np.max(np.abs(sums - per_x)) <= 1e-14


def test_thermal_amplitude_tolerance_drives_refinement(monkeypatch):
    # the estimate is the gap to the Gauss rule on the same nodes; a tight
    # tolerance refines the panels, and without refinement it fails.  At
    # nonrel t = 1e3 and x = 0.01 the level-0 gap, 5.7e-11, is far above the
    # rounding floor, 1.1e-14; one level takes it to rounding
    mu = reduced_chemical_potential(1e3, NR)
    coords = (0.01, 1e3, mu, NR)
    for tol in (1e-6, 1e-10, 1e-14):
        assert thermal_amplitude(*coords, tol=tol)[1] <= tol
    monkeypatch.setattr(exchange, "_MAX_LEVEL", 0)
    assert thermal_amplitude(*coords, tol=1e-10)[1] <= 1e-10
    with pytest.raises(QuadratureError, match="stalled") as excinfo:
        thermal_amplitude(*coords, tol=1e-14)
    assert excinfo.value.error_estimate > 1e-14


def test_thermal_amplitude_rejects_non_finite_separation():
    mu = reduced_chemical_potential(0.05, NR)
    for bad in (math.inf, math.nan, -1.0):
        with pytest.raises(DomainError, match="separation"):
            thermal_amplitude(np.array([1.0, bad]), 0.05, mu, NR)


def test_thermal_amplitude_tolerance_validation():
    mu = reduced_chemical_potential(0.05, NR)
    coords = (1.0, 0.05, mu, NR)
    with pytest.raises(DomainError, match="tolerance"):
        thermal_amplitude(*coords, tol=1e-15)
    with pytest.raises(DomainError, match="tolerance"):
        thermal_amplitude(*coords, tol=1e-5)


# === dimensional entry point ===


def test_from_pressure_ground_state_matches_reduced_form():
    r, p = 1e-10, 1e9
    grid = eos_grid(r, p, 0.0, NR)
    x = fermi_momentum_from_pressure(p, NR) * r
    assert grid.f.item() == pytest.approx(ground_state(x), rel=1e-14)
    assert thermal_amplitude(grid.x, 0.0, 1.0, NR)[1] == 0.0
    assert grid.x.item() == pytest.approx(x, rel=1e-15)
    assert grid.t.item() == 0.0


def test_from_pressure_prefactor_identity():
    # the dimensional amplitude factors into gamma / (r P^a) times a pure
    # momentum integral; exercising it checks every constant in the chain
    c = constants()
    rng = np.random.default_rng(99)
    gamma_nr = (3.0 ** (5 / 3) * c.hbar ** 2 / (15 * math.pi ** 2 * c.electron_mass)) ** (3 / 5)
    gamma_er = (3.0 ** (4 / 3) * c.hbar * c.light_speed / (12 * math.pi ** 2)) ** (3 / 4)
    for _ in range(10):
        r = 10.0 ** rng.uniform(-11, -9)
        p = 10.0 ** rng.uniform(7, 11)
        for regime, gamma, power, budget in (
            (NR, gamma_nr, 3 / 5, 1e-12),
            (ER, gamma_er, 3 / 4, 1e-11),
        ):
            k_f = fermi_momentum_from_pressure(p, regime)
            integral = (math.sin(k_f * r) - k_f * r * math.cos(k_f * r)) / r ** 2
            direct = gamma / (r * p ** power) * integral
            amp = eos_grid(r, p, 0.0, regime).f.item()
            assert abs(direct - amp) <= budget * abs(amp)


def test_from_pressure_thermal_dimensional_route():
    # fully dimensional occupancy integral via an independent integrator,
    # with the SI Fermi-Dirac factor at mu = eps_F mu_tilde
    c = constants()
    n = 8.22e35
    k_f = fermi_momentum_from_density(n)
    temp = 0.05 * fermi_temperature(k_f, NR)
    mu = fermi_energy(k_f, NR) * reduced_chemical_potential(temp / fermi_temperature(k_f, NR), NR)
    r = 1.0 / k_f

    def occupation(k):
        energy = (c.hbar * k) ** 2 / (2.0 * c.electron_mass)
        return 1.0 / (math.exp((energy - mu) / (c.boltzmann * temp)) + 1.0)

    integral, _ = quad(
        lambda k: k * occupation(k) * math.sin(k * r),
        0.0,
        3.0 * k_f,
        limit=400,
        epsabs=1e-12 * k_f ** 2,
        epsrel=1e-12,
    )
    direct = 3.0 / (r * k_f ** 3) * integral
    amp = eos_grid(r, pressure_from_density(n, NR), temp, NR).f.item()
    assert abs(direct - amp) < 1e-8


def test_from_pressure_rejects_bad_inputs():
    with pytest.raises(DomainError, match="pressure"):
        eos_grid(1e-10, -1.0, 0.0, NR)
    with pytest.raises(DomainError, match="temperature"):
        eos_grid(1e-10, 1e9, -1.0, NR)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("position, fragment", [
    (0, "separation"), (1, "pressure"), (2, "temperature"),
])
def test_from_pressure_rejects_non_finite_inputs(position, fragment, bad):
    args = [1e-10, 1e9, 1e4]
    args[position] = bad
    with pytest.raises(DomainError, match=fragment):
        eos_grid(*args, NR)


# === distance constant ===


def test_zeta_ground_state():
    result = solve_zeta(0.0, NR)
    assert result.zeta == pytest.approx(ZETA0, abs=1e-9)
    assert result.residual < 1e-10
    # at t=0 the dispersion never enters, so the regimes agree exactly
    assert solve_zeta(0.0, ER).zeta == result.zeta


def test_zeta_thermal_reference_values():
    nr = solve_zeta(0.05, NR)
    assert nr.zeta == pytest.approx(1.8064976687432159, abs=1e-9)
    assert nr.residual < 1e-10
    er = solve_zeta(0.05, ER)
    assert er.zeta == pytest.approx(1.7821620418424771, abs=1e-9)
    assert er.residual < 1e-10


def test_zeta_continuous_at_low_temperature():
    assert abs(solve_zeta(1e-4, NR).zeta - ZETA0) < 1e-3


def test_zeta_shrinks_with_temperature():
    values = [solve_zeta(t, NR).zeta for t in (0.0, 0.05, 0.1, 0.3)]
    assert all(a > b for a, b in zip(values, values[1:]))


@settings(max_examples=20, deadline=None)
@given(log_t=st.floats(-3.0, 0.0), log_step=st.floats(0.005, 1.0),
       regime=st.sampled_from([NR, ER]))
def test_zeta_does_not_increase_with_temperature(log_t, log_step, regime):
    # temperatures at least 1 % apart, so that zeta moves by far more (> 1e-8)
    # than the ~1e-13 to which each root is placed
    assume(log_t + log_step <= 0.0)
    t_low, t_high = 10.0 ** log_t, 10.0 ** (log_t + log_step)
    assert solve_zeta(t_low, regime).zeta >= solve_zeta(t_high, regime).zeta


def test_zeta_classical_limit():
    # far above degeneracy the window shrinks like sqrt(2 ln 2 / t)
    t = 1e4
    assert solve_zeta(t, NR).zeta * math.sqrt(t) == pytest.approx(
        math.sqrt(2.0 * math.log(2.0)), abs=1e-3
    )


def classical_zeta(t, regime):
    """zeta in the Maxwell-Boltzmann limit: f = exp(-x^2 t/4) nonrel, (1 + x^2 t^2)^-2 rel."""
    if regime is NR:
        return math.sqrt(2.0 * math.log(2.0) / t)
    return math.sqrt(2.0 ** 0.25 - 1.0) / t


def test_zeta_classical_limit_relativistic():
    # the relativistic window shrinks like sqrt(2^(1/4) - 1)/t
    t = 30.0
    assert solve_zeta(t, ER).zeta * t == pytest.approx(0.434979, abs=1e-3)
    assert classical_zeta(t, ER) * t == pytest.approx(0.434979, abs=1e-6)


@settings(max_examples=10, deadline=None)
@given(log_t=st.floats(0.0, math.log10(30.0)), regime=st.sampled_from([NR, ER]))
def test_zeta_stays_below_the_classical_limit(log_t, regime):
    # the degenerate gas's window stays inside the Maxwell-Boltzmann one
    # (closest today: 0.99999965 of the limit, rel at t = 30)
    t = 10.0 ** log_t
    assert solve_zeta(t, regime, MuMode.EXACT_NORMALIZATION).zeta <= classical_zeta(t, regime)


@pytest.mark.parametrize("regime", [NR, ER])
@pytest.mark.parametrize("t", [0.0, 1e-3, 0.05, 0.5])
def test_zeta_brent_matches_scipy(t, regime):
    # the Newton refinement against scipy's brentq on the same bracket and
    # amplitude, with the same tolerances
    if t == 0.0:
        amplitude = ground_state
    else:
        mu = reduced_chemical_potential(t, regime)

        def amplitude(x):
            return thermal_amplitude(x, t, mu, regime, 1e-12)[0]
    def gap(x):
        return amplitude(x) ** 2 - 0.5

    grid = exchange._SCAN_X[1:]
    gaps = np.square(amplitude(grid)) - 0.5
    k = int(np.flatnonzero(gaps[:-1] * gaps[1:] < 0.0)[0])
    lo, hi = float(grid[k]), float(grid[k + 1])
    reference = brentq(gap, lo, hi, xtol=1e-13, rtol=4.0 * np.finfo(float).eps, maxiter=200)
    assert abs(solve_zeta(t, regime).zeta - reference) <= 1e-13


def whole_grid_zeta(t, regime, mu_mode):
    """The bracket a scan of the whole grid in one call gives, and brentq's root on it."""
    if t == 0.0:
        amplitude = ground_state
    else:
        mu = reduced_chemical_potential(t, regime, mu_mode)

        def amplitude(x):
            return thermal_amplitude(x, t, mu, regime, exchange._ZETA_QUAD_TOL)[0]
    def gap(x):
        return amplitude(x) ** 2 - 0.5

    grid = exchange._SCAN_X[1:]
    gaps = np.square(amplitude(grid)) - 0.5
    k = int(np.flatnonzero(gaps[:-1] * gaps[1:] < 0.0)[0])
    bracket = (float(grid[k]), float(grid[k + 1]))
    root = brentq(gap, *bracket, xtol=exchange._ROOT_XTOL, rtol=exchange._ROOT_RTOL,
                  maxiter=exchange._ROOT_MAXITER)
    return bracket, root


def require_kernel_scan(t):
    """Check that the exact-mu zeta(t) scans on the kernel rule: the pole sum's estimate on the grid exceeds the solve's tolerance."""
    mu = reduced_chemical_potential(t, NR)
    assert exchange._pole_branch(mu, t, float(exchange._SCAN_X[-1]), exchange._ZETA_QUAD_TOL) is None


def record_amplitude_calls(monkeypatch):
    """The abscissas of every amplitude sum the zeta solve makes."""
    calls = []
    refined_sum = exchange._refined_sum

    def recorded(xs, x_max, t, mu, regime, tol):
        calls.append(xs.copy())
        return refined_sum(xs, x_max, t, mu, regime, tol)

    monkeypatch.setattr(exchange, "_refined_sum", recorded)
    return calls


def lobatto_calls(lo, hi, count):
    """The abscissas of the calls that sample [lo, hi] at ``count`` Chebyshev-Lobatto points:
    the first 33, then the points between the old ones at each doubling."""
    calls = [lo + (hi - lo) * chebyshev_lobatto(exchange._ZETA_SAMPLES)[0]]
    size = exchange._ZETA_SAMPLES
    while size < count:
        size = 2 * size - 1
        calls.append(lo + (hi - lo) * chebyshev_lobatto(size)[0][1::2])
    return [call.tobytes() for call in calls]


def narrowed_bracket(lo, hi, zeta):
    """The kernel scan's narrowing points on [lo, hi], and the eighth of [lo, hi] between them that holds ``zeta``."""
    points = lo * (hi / lo) ** exchange._NARROWING
    j = int(np.searchsorted(points, zeta)) - 1
    return points, (float(points[j]), float(points[j + 1]))


def record_brackets(monkeypatch):
    """The (lo, hi) of every bracket the root refinement is given."""
    brackets = []
    root_in_bracket = exchange._root_in_bracket

    def recorded(fn, lo, hi, *ends):
        brackets.append((lo, hi))
        return root_in_bracket(fn, lo, hi, *ends)

    monkeypatch.setattr(exchange, "_root_in_bracket", recorded)
    return brackets


@pytest.mark.parametrize("mu_mode", list(MuMode))
@pytest.mark.parametrize("regime", [NR, ER])
@pytest.mark.parametrize("t", [0.0, 1e-3, 0.05, 0.1, 0.5, 3.0, 0.3, 0.7, 1.0, 2.0])
def test_zeta_equals_a_whole_grid_scan(monkeypatch, t, regime, mu_mode):
    # the scan finds the bracket a scan of the whole grid finds, and the
    # Newton root on it is brentq's to Brent's tolerance
    brackets = record_brackets(monkeypatch)
    result = exchange._solve_zeta.__wrapped__(t, regime, mu_mode)
    bracket, reference = whole_grid_zeta(t, regime, mu_mode)
    assert brackets == [bracket]
    assert abs(result.zeta - reference) <= 1e-13
    assert result.residual < 1e-10


@pytest.mark.parametrize("window_end", [0.05, 0.15])
def test_zeta_scans_the_rest_of_the_grid_past_an_empty_window(monkeypatch, window_end):
    # zeta(38) = 0.1909, on the kernel rule's scan, lies past the first
    # window; with the end at 0.15 the crossing falls between the last point
    # of one window and the first of the next
    require_kernel_scan(38.0)
    monkeypatch.setattr(exchange, "_SCAN_WINDOW_END", window_end)
    bracket, reference = whole_grid_zeta(38.0, NR, MuMode.EXACT_NORMALIZATION)
    points, part = narrowed_bracket(*bracket, reference)
    brackets = record_brackets(monkeypatch)
    calls = record_amplitude_calls(monkeypatch)
    result = exchange._solve_zeta.__wrapped__(38.0, NR, MuMode.EXACT_NORMALIZATION)
    assert brackets == [part] and abs(result.zeta - reference) <= 1e-13
    window = exchange._SCAN_X < window_end
    first = calls[0]
    assert first.tobytes() == exchange._SCAN_X[window].tobytes()
    assert calls[1].tobytes() == exchange._SCAN_X[~window].tobytes()
    # then one call that narrows the bracket, and one batched call at the
    # Chebyshev-Lobatto points of the part that holds the crossing
    assert calls[2].tobytes() == points.tobytes()
    assert [call.tobytes() for call in calls[3:]] == lobatto_calls(*part, 33)


def test_hot_zeta_scans_only_the_first_window(monkeypatch):
    require_kernel_scan(38.0)
    calls = record_amplitude_calls(monkeypatch)
    result = exchange._solve_zeta.__wrapped__(38.0, NR, MuMode.EXACT_NORMALIZATION)
    # one scan call from the origin to the thermal window, one that narrows
    # the bracket, then one batched call at the Chebyshev-Lobatto points of
    # the part that holds the crossing
    scan, narrowing, samples = calls
    assert scan.size <= 6
    assert scan[0] == 0.0 and all(x < exchange._SCAN_WINDOW_END for x in scan[1:])
    points, part = narrowed_bracket(0.1, 0.2, result.zeta)
    assert narrowing.tobytes() == points.tobytes()
    assert [samples.tobytes()] == lobatto_calls(*part, 33)


# the cold closed forms whose 33 samples on [0, 3] double once, to 65
DOUBLED_COLD_SAMPLES = {(ER, MuMode.EXACT_NORMALIZATION, 1.0), (ER, MuMode.FERMI_ENERGY_APPROX, 1.0)}


@pytest.mark.parametrize("mu_mode", list(MuMode))
@pytest.mark.parametrize("regime", [NR, ER])
@pytest.mark.parametrize("t", [0.0, 1e-3, 0.05, 0.3, 1.0])
def test_cold_closed_form_zeta_is_one_batched_amplitude_call(monkeypatch, t, regime, mu_mode):
    # the closed form's interpolant on the whole grid, origin included: 33
    # Chebyshev-Lobatto samples in one call, one more at the 32 points
    # between them where the samples double, and no call at a single x, for
    # the bracket or the root; no kernel rule is built
    calls = record_amplitude_calls(monkeypatch)
    sizes = record_rule_sizes(monkeypatch)
    result = exchange._solve_zeta.__wrapped__(t, regime, mu_mode)
    count = 65 if (regime, mu_mode, t) in DOUBLED_COLD_SAMPLES else 33
    assert [call.tobytes() for call in calls] == lobatto_calls(0.0, float(exchange._SCAN_X[-1]), count)
    assert sizes == []
    # the residual bounds the amplitude's own gap at zeta
    mu = reduced_chemical_potential(t, regime, mu_mode)
    f, _ = thermal_amplitude(result.zeta, t, mu, regime, exchange._ZETA_QUAD_TOL)
    assert abs(f * f - 0.5) <= result.residual < 1e-10


def test_relativistic_value_does_not_depend_on_the_x_max_passed():
    # the closed form reads its extent from the x it is given: at t = 80 an
    # extent of 3 puts pi t x past the sinh cutoff and p(y)'s series
    # crossover, whose other formulas differ by 1 ulp at this x
    x = 1.7487973639896006e-4
    first, second = (exchange._refined_sum(np.array([x]), x_max, 80.0, 1.0, ER, 1e-12)
                     for x_max in (x, 3.0))
    assert first[0].tobytes() == second[0].tobytes()
    assert first[1] == second[1]


@pytest.mark.parametrize("mu_mode", list(MuMode))
def test_kernel_rule_weights_are_positive_on_nondecreasing_nodes(mu_mode):
    # what the rounding floor _ROUNDOFF sum_j W_j0 assumes: Kronrod weights > 0
    # on nodes nondecreasing over the whole rule, with the Gauss column 0
    # exactly at each piece's 8 Kronrod-only nodes
    grid = exchange._SCAN_X[1:][exchange._SCAN_X[1:] < exchange._SCAN_WINDOW_END]
    for t in np.geomspace(1e-6, 3.0, 40):
        t = float(t)
        rule = fge.fermi.kernel_rule(reduced_chemical_potential(t, NR, mu_mode), t, float(grid[-1]))
        kronrod_only = np.arange(len(rule.nodes)) % 15 % 2 == 0
        assert len(rule.nodes) % 15 == 0
        assert np.all(rule.weights[:, 0] > 0.0)
        assert np.all(np.diff(rule.nodes) >= 0.0)
        assert np.all(rule.weights[kronrod_only, 1] == 0.0)
        assert np.all(rule.weights[~kronrod_only, 1] > 0.0)


@pytest.mark.parametrize("t", [36.0, 40.0])
def test_hot_zeta_bracket_calls_reuse_the_last_scan_rules(monkeypatch, t):
    # the calls that narrow and sample the bracket pass the last scanned
    # abscissa as x_max, the end of the scan call that holds the bracket's
    # upper end, and so build no rule; that call ends at the thermal window,
    # x = 0.3.  The root is refined on the samples' interpolant, with no
    # further amplitude call
    require_kernel_scan(t)
    fetched, calls, misses = [], [], []
    rule_of = exchange.kernel_rule
    refined_sum = exchange._refined_sum

    def recorded_rule(mu, t, x_max=0.0, level=0):
        if len(calls) > 1:
            fetched.append(x_max)
        return rule_of(mu, t, x_max, level)

    def recorded_sum(xs, x_max, t, mu, regime, tol):
        calls.append(xs.copy())
        misses.append(fge.fermi._cached_kernel_rule.cache_info().misses)
        return refined_sum(xs, x_max, t, mu, regime, tol)

    monkeypatch.setattr(exchange, "kernel_rule", recorded_rule)
    monkeypatch.setattr(exchange, "_refined_sum", recorded_sum)
    result = exchange._solve_zeta.__wrapped__(t, NR, MuMode.EXACT_NORMALIZATION)
    scan, narrowing, samples = calls
    lo = float(exchange._SCAN_X[np.searchsorted(exchange._SCAN_X, result.zeta) - 1])
    points, part = narrowed_bracket(lo, lo + 0.1, result.zeta)
    assert narrowing.tobytes() == points.tobytes()
    assert [samples.tobytes()] == lobatto_calls(*part, 33)
    assert misses[1] == misses[2] == fge.fermi._cached_kernel_rule.cache_info().misses
    assert fetched and set(fetched) == {float(scan[-1])}
    assert scan[-1] == pytest.approx(0.3)


def record_rule_sizes(monkeypatch):
    """The node count of every kernel rule built."""
    sizes = []
    kernel_rule_type = fge.fermi.KernelRule

    def recorded(nodes, weights):
        sizes.append(len(nodes))
        return kernel_rule_type(nodes, weights)

    monkeypatch.setattr(fge.fermi, "KernelRule", recorded)
    return sizes


@pytest.mark.parametrize("t, regime", [(4e6, NR), (1e4, ER)])
def test_zeta_fails_fast_below_the_scan_grid(t, regime, monkeypatch):
    # the first window ends at the thermal length, here at x = 1e-3 itself,
    # where f^2 < 1/2 already: no rule wider than the kernel bump is built.
    # The relativistic closed form brackets below the grid instead, and
    # solves with no rule at all
    sizes = record_rule_sizes(monkeypatch)
    if regime is NR:
        with pytest.raises(SolverError, match="sign change"):
            exchange._solve_zeta.__wrapped__(t, regime, MuMode.EXACT_NORMALIZATION)
        assert sizes and max(sizes) <= 10 ** 4
    else:
        result = exchange._solve_zeta.__wrapped__(t, regime, MuMode.EXACT_NORMALIZATION)
        assert result.zeta < 1e-3 and result.residual < 1e-10 and sizes == []


# log10 of the highest t at which the exact-mu zeta is still above the scan
# grid's first point 1e-3 nonrel; rel, where the closed form solves below the
# grid, of the highest t at which zeta_cl - zeta, 3e-9 of zeta at t = 1e3,
# stays far above the root's rounding
CLASSICAL_TOP = {NR: 4.0, ER: 3.0}


@settings(max_examples=20, deadline=None)
@given(where=st.floats(0.0, 1.0), log_step=st.floats(0.005, 1.0),
       regime=st.sampled_from([NR, ER]))
def test_zeta_does_not_increase_up_to_the_classical_gas(where, log_step, regime):
    log_t = -3.0 + where * (CLASSICAL_TOP[regime] + 3.0)
    assume(log_t + log_step <= CLASSICAL_TOP[regime])
    t_low, t_high = 10.0 ** log_t, 10.0 ** (log_t + log_step)
    assert solve_zeta(t_low, regime).zeta >= solve_zeta(t_high, regime).zeta


@settings(max_examples=20, deadline=None)
@given(where=st.floats(0.0, 1.0), regime=st.sampled_from([NR, ER]))
def test_zeta_stays_below_the_classical_limit_up_to_the_classical_gas(where, regime):
    t = 10.0 ** (-3.0 + where * (CLASSICAL_TOP[regime] + 3.0))
    assert solve_zeta(t, regime, MuMode.EXACT_NORMALIZATION).zeta <= classical_zeta(t, regime)


@pytest.mark.parametrize("t, regime", [(t, ER) for t in np.geomspace(3.0, 50.0, 61).tolist()]
                         + [(1e3, NR)])
def test_hot_fermi_mu_zeta_against_sine_weighted_quadpack(t, regime):
    # mu pinned at the Fermi energy, where f(0) grows to 1e3-1e4: the root
    # of the closed form (rel) or of the kernel sums stopped at their
    # rounding floor (nonrel) against QUADPACK's Fourier-weighted rule on
    # (3/x) int u n(u) sin(ux) du.  Rel t = 316.2 and 681.29 are checked
    # against mpmath instead (test_relativistic.py), where this rule
    # itself stops at rounding
    result = solve_zeta(t, regime, MuMode.FERMI_ENERGY_APPROX)
    x = result.zeta
    with warnings.catch_warnings():
        # at nonrel t = 1e3 QUADPACK itself stops at roundoff, 2.5e-12,
        # which its own estimate, checked below, reports
        warnings.simplefilter("ignore", IntegrationWarning)
        integral, abserr = quad(
            lambda u: u * reduced_occupancy(u, 1.0, t, regime),
            0.0, occupancy_cutoff(1.0, t, regime),
            weight="sin", wvar=x, epsabs=1e-12, epsrel=1e-12, limit=400,
        )
    assert abserr < 1e-11
    assert abs((3.0 / x * integral) ** 2 - 0.5) < 1e-9
    assert result.residual < 1e-10


# nonrel t of np.geomspace(3, 50, 61) where, with mu pinned at the Fermi
# energy, f^2 dips below 1/2 and back between two scan points, so that the
# first sign change of f^2 - 1/2 on the scan grid is a crossing of f = -1/sqrt(2)
_HOT_FERMI_MU_SKIPPED = np.geomspace(3.0, 50.0, 61)[[46, 51, 52, 53, 57, 58, 59, 60]].tolist()


@pytest.mark.parametrize("t", _HOT_FERMI_MU_SKIPPED)
def test_fermi_mu_zeta_refuses_a_crossing_of_minus_one_over_sqrt2(t):
    message = rf"on \[0\.\d, (0\.\d|1)\] at t={t!r} \(fermi mu\).*f = -1/sqrt\(2\)"
    with pytest.raises(SolverError, match=message):
        solve_zeta(t, NR, MuMode.FERMI_ENERGY_APPROX)
    # exact mu has no such dip and solves at every one of these t
    result = solve_zeta(t, NR, MuMode.EXACT_NORMALIZATION)
    assert result.residual < 1e-10


@pytest.mark.parametrize("t", [25.0, 30.0])
def test_hot_fermi_mu_zeta_between_the_refused_t_is_a_crossing_of_plus_one_over_sqrt2(t):
    result = solve_zeta(t, NR, MuMode.FERMI_ENERGY_APPROX)
    f, _ = thermal_amplitude(result.zeta, t, 1.0, NR, 1e-12)
    assert f == pytest.approx(math.sqrt(0.5), abs=1e-10)


@pytest.mark.parametrize("t", [5e4, 9e4])
def test_hot_fermi_mu_kernel_zeta_is_a_crossing_on_a_narrowed_bracket(t):
    # the kernel scan's bracket is [0.01, 0.1], over which f falls from about
    # 1e5; on the eighth of it that holds the first crossing the samples'
    # interpolant gets down to the kernel sums' rounding.  The crossing is
    # one of f = +1/sqrt(2), but not the first: f dips below -1/sqrt(2)
    # between grid points nearer the origin (ROADMAP, defect 2)
    result = solve_zeta(t, NR, MuMode.FERMI_ENERGY_APPROX)
    assert 0.01 < result.zeta < 0.1 and result.residual < 1e-10
    f, _ = thermal_amplitude(result.zeta, t, 1.0, NR, exchange._ZETA_QUAD_TOL)
    assert f == pytest.approx(math.sqrt(0.5), abs=1e-10)


@pytest.mark.parametrize("t, bracket", [(4e3, (0.1, 0.2)), (1e5, (0.01, 0.1))])
def test_hot_fermi_mu_kernel_zeta_refuses_a_crossing_of_minus_one_over_sqrt2_inside_its_bracket(t, bracket):
    # the scan's bracket holds a crossing of f = +1/sqrt(2); the part of it
    # that holds the first crossing is one of f = -1/sqrt(2), so a crossing
    # of +1/sqrt(2) lies before it, and a root found past it is not the first
    with pytest.raises(SolverError, match=r"f = -1/sqrt\(2\)") as refusal:
        solve_zeta(t, NR, MuMode.FERMI_ENERGY_APPROX)
    points, _ = narrowed_bracket(*bracket, bracket[0])
    named = [k for k in range(len(points) - 1)
             if f"on [{points[k]:g}, {points[k + 1]:g}]" in str(refusal.value)]
    assert len(named) == 1 and named[0] > 0
    f, _ = thermal_amplitude(float(points[named[0]]), t, 1.0, NR, exchange._ZETA_QUAD_TOL)
    assert f < -math.sqrt(0.5)


def test_hot_fermi_mu_kernel_zeta_refuses_a_root_past_a_dip_of_its_samples():
    # the first part of the bracket [0.01, 0.1] whose ends change sign starts
    # above 1/sqrt(2), but f^2 falls below 1/2 at a sample between its lower
    # end and the interpolant's root: that root is not the first crossing
    with pytest.raises(SolverError, match=r"on \[0\.0749894, 0\.1\] at t=13000\.0 \(fermi mu\) "
                                          r"is not the first"):
        solve_zeta(1.3e4, NR, MuMode.FERMI_ENERGY_APPROX)


@pytest.mark.parametrize("rounding", [0.0, 1e-16])
def test_lobatto_samples_stop_on_noise_only_given_a_rounding(rounding):
    # cos x with a deterministic 1e-9 ripple: past 33 points the tail is the
    # ripple's and no doubling halves it.  The zeta solve passes a rounding
    # and takes the samples there, its residual weighing the tail; the
    # average passes none, and its samples still stall with the tail
    counts = []

    def amplitude(xs):
        counts.append(xs.size)
        return np.cos(xs) + 1e-9 * np.sin(1e6 * xs)

    if rounding:
        points, _, samples, coeffs = exchange._lobatto_samples(amplitude, 0.0, 3.0, 33, 257, 1e-14,
                                                               1.0, rounding)
        assert counts == [33, 32] and points.size == samples.size == 65
        assert np.abs(coeffs[-2:]).max() > 1e-12
    else:
        with pytest.raises(QuadratureError, match="stalled") as refusal:
            exchange._lobatto_samples(amplitude, 0.0, 3.0, 33, 257, 1e-14, 1.0, rounding)
        assert counts == [33, 32, 64, 128] and refusal.value.error_estimate > 1e-12


# the t at which the classical zeta is _CLOSED_FORM_ZETA_MIN: below it a
# closed form's scan reads f on the grid from one interpolant of [0, 3]
CLOSED_FORM_SWITCH = {ER: math.sqrt(2.0 ** 0.25 - 1.0) / exchange._CLOSED_FORM_ZETA_MIN,
                      NR: 2.0 * math.log(2.0) / exchange._CLOSED_FORM_ZETA_MIN ** 2}


@pytest.mark.parametrize("side", [0.99, 1.01])
@pytest.mark.parametrize("regime, mu_mode", [(ER, MuMode.EXACT_NORMALIZATION),
                                             (ER, MuMode.FERMI_ENERGY_APPROX),
                                             (NR, MuMode.FERMI_ENERGY_APPROX)])
def test_closed_form_zeta_on_either_side_of_the_whole_grid_interpolant(monkeypatch, side, regime,
                                                                       mu_mode):
    # below the switch every call samples [0, 3]; above it the first call is
    # the grid.  Nonrel exact mu leaves the closed forms for the kernel rule
    # at t of about 28, below the switch; nonrel fermi mu refuses a crossing
    # of f = -1/sqrt(2) on both sides
    t = side * CLOSED_FORM_SWITCH[regime]
    if regime is NR:
        calls = record_amplitude_calls(monkeypatch)
        with pytest.raises(SolverError, match=r"on \[0\.8, 0\.9\].*f = -1/sqrt\(2\)"):
            exchange._solve_zeta.__wrapped__(t, regime, mu_mode)
    else:
        _, reference = whole_grid_zeta(t, regime, mu_mode)
        calls = record_amplitude_calls(monkeypatch)
        result = exchange._solve_zeta.__wrapped__(t, regime, mu_mode)
        assert abs(result.zeta - reference) <= 1e-13 and result.residual < 1e-10
    x_end = float(exchange._SCAN_X[-1])
    if side < 1.0:
        count = sum(len(call) for call in calls)
        assert [call.tobytes() for call in calls] == lobatto_calls(0.0, x_end, count)
    else:
        assert calls[0].tobytes() == exchange._SCAN_X.tobytes()


def test_failed_zeta_leaves_no_rule_cached(monkeypatch):
    # nonrel fermi mu at t = 2000, on the kernel rule: the scan builds its
    # rules, then refuses the bracket, a crossing of f = -1/sqrt(2)
    built = []
    kernel_rule_type = fge.fermi.KernelRule
    monkeypatch.setattr(fge.fermi, "KernelRule",
                        lambda *args: built.append(kernel_rule_type(*args)) or built[-1])
    with pytest.raises(SolverError, match="-1/sqrt"):
        exchange._solve_zeta.__wrapped__(2000.0, NR, MuMode.FERMI_ENERGY_APPROX)
    cache = fge.fermi._cached_kernel_rule
    assert built and not any(rule is kept for rule in built for kept, _ in cache._rules.values())
    assert cache.cache_info().nodes <= cache.max_nodes


def test_equivalent_zeta_calls_share_one_cache_entry():
    t = 0.0432109
    before = solve_zeta.cache_info()
    results = [solve_zeta(t, ER), solve_zeta(t, ER, MuMode.EXACT_NORMALIZATION),
               solve_zeta(t, regime=ER)]
    after = solve_zeta.cache_info()
    assert results[0] is results[1] is results[2]
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 2)


def test_root_refinement_reports_a_bad_bracket():
    with pytest.raises(SolverError, match="sign change"):
        exchange._root_in_bracket(lambda x: (x * x + 1.0, 2.0 * x), -1.0, 1.0, 2.0, 2.0)


def test_zeta_reports_missing_bracket():
    # at extreme temperature the crossing drops below the scan window
    with pytest.raises(SolverError, match="sign change"):
        solve_zeta(4e6, NR)


def test_zeta_takes_no_tolerance():
    # the amplitudes of the solve run at a fixed tolerance; no option is ignored
    with pytest.raises(TypeError, match="tol"):
        solve_zeta(0.05, NR, tol=1e-6)


def test_zeta_rejects_negative_temperature():
    with pytest.raises(DomainError, match="temperature"):
        solve_zeta(-0.1, NR)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_zeta_rejects_non_finite_temperature(bad):
    with pytest.raises(DomainError, match="temperature"):
        solve_zeta(bad, NR)
