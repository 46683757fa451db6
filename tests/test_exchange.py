"""Exchange amplitude: ground state, thermal quadrature, and the distance constant."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
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
    f_zero_temperature,
    fermi_energy,
    fermi_momentum_from_pressure,
    fermi_temperature,
    pressure_from_density,
    reduced_chemical_potential,
    solve_zeta,
    thermal_amplitude,
)
from fge import QuadratureError, reduced_occupancy
from fge import exchange
from fge.fermi import fermi_momentum_from_density, occupancy_cutoff

NR = GasRegime.NONRELATIVISTIC
ER = GasRegime.EXTREME_RELATIVISTIC

ZETA0 = 1.8148229770012292        # root of f^2 = 1/2 in the ground state
FIRST_ZERO = 4.493409457909064    # first positive root of the amplitude


# === ground state ===


def test_ground_state_limits():
    assert f_zero_temperature(0.0) == 1.0
    assert f_zero_temperature(ZETA0) == pytest.approx(math.sqrt(0.5), abs=1e-13)
    assert abs(f_zero_temperature(FIRST_ZERO)) < 1e-14


def test_ground_state_against_spherical_bessel():
    xs = np.linspace(1e-3, 50.0, 500)
    expected = 3.0 * spherical_jn(1, xs) / xs
    assert np.max(np.abs(f_zero_temperature(xs) - expected)) < 5e-14


def test_ground_state_slope_against_spherical_bessel():
    # f0'(y) = -3 j_2(y)/y, through both series crossovers (0.25 for f0,
    # 0.5 for its slope)
    ys = np.concatenate((np.geomspace(1e-4, 50.0, 2000),
                         0.25 + np.linspace(-1e-3, 1e-3, 41),
                         0.5 + np.linspace(-1e-3, 1e-3, 41)))
    values, slopes = exchange._f0_and_slope(ys)
    assert np.max(np.abs(slopes + 3.0 * spherical_jn(2, ys) / ys)) <= 1e-13
    assert values.tobytes() == exchange._f0(ys).tobytes()
    assert exchange._f0_and_slope(np.array([0.0]))[1][0] == 0.0


def test_series_meets_closed_form_at_crossover():
    # both branches must agree through the seam at x = 0.25
    xs = 0.25 - np.array([1e-12, 1e-9, 1e-6, 1e-3, 0.01])
    series = f_zero_temperature(xs)
    closed = 3.0 * (np.sin(xs) - xs * np.cos(xs)) / xs ** 3
    assert np.max(np.abs(series - closed)) < 1e-13


def test_ground_state_strictly_decreasing_inside_window():
    xs = np.linspace(1e-3, ZETA0, 400)
    assert np.all(np.diff(f_zero_temperature(xs)) < 0)


def test_ground_state_below_threshold_outside_window():
    xs = np.linspace(ZETA0 + 1e-6, 50.0, 2000)
    assert np.all(np.abs(f_zero_temperature(xs)) < math.sqrt(0.5))


def test_ground_state_scalar_array_forms():
    assert isinstance(f_zero_temperature(1.0), float)
    out = f_zero_temperature(np.array([[0.1, 0.3], [1.0, 3.0]]))
    assert out.shape == (2, 2)
    with pytest.raises(DomainError, match="nonnegative"):
        f_zero_temperature(-0.1)


@pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0])
def test_ground_state_rejects_non_finite_and_negative_separations(bad):
    # one min/max reduction over the whole input: a scalar, or one entry of an array
    for x in (bad, np.array([[0.5, 1.0], [bad, 2.0]])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="separation"):
                f_zero_temperature(x)


@pytest.mark.parametrize("x", [1e6, 1e100, 1e200, 1e300, np.finfo(float).max])
def test_ground_state_bounded_for_huge_separations(x):
    # |f0(x)| <= 3 (1 + x)/x^3 for every finite x, with no overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = f_zero_temperature(x)
        values = f_zero_temperature(np.array([x, 2.0]))
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


@pytest.mark.parametrize("regime", [NR, ER])
def test_thermal_amplitude_is_the_ground_state_at_zero_temperature(regime):
    xs = np.array([[0.0, 1e-3, 0.3], [1.8, 4.5, 50.0]])
    values, err = thermal_amplitude(xs, 0.0, 1.0, regime)
    assert values.tobytes() == f_zero_temperature(xs).tobytes() and err == 0.0
    assert thermal_amplitude(1.0, 0.0, 1.0, regime) == (f_zero_temperature(1.0), 0.0)


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
        abs(thermal_amplitude(float(x), t, mu, NR)[0] - f_zero_temperature(float(x)))
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
    assert np.max(np.abs(values - f_zero_temperature(xs))) < 1e-13
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


@pytest.mark.parametrize("regime", [NR, ER])
@pytest.mark.parametrize("t", [0.01, 0.3, 3.0])
def test_thermal_slope_matches_a_centred_difference(regime, t):
    # df/dx = sum_j W_j u_j f0'(x u_j) against the fourth-order centred
    # difference, its four points on one rule so that it sees a smooth f
    mu = reduced_chemical_potential(t, regime)
    h = 5e-4
    for x in (0.3, 1.0, 1.8, 4.0):
        value, slope = exchange._amplitude_and_slope(x, t, mu, regime, 1e-12)
        assert value == pytest.approx(thermal_amplitude(x, t, mu, regime, 1e-12)[0], abs=1e-14)
        f = thermal_amplitude(x + h * np.array([-2.0, -1.0, 1.0, 2.0]), t, mu, regime, 1e-12)[0]
        difference = (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)
        assert abs(slope - difference) <= 1e-9


def test_slope_sum_in_blocks_matches_one_block(monkeypatch):
    t = 0.3
    mu = reduced_chemical_potential(t, ER)
    rule = fge.fermi.kernel_rule(mu, t, ER, 4.0)
    whole = exchange._kernel_sum_and_slope(4.0, rule.nodes, rule.weights)
    monkeypatch.setattr(exchange, "_BLOCK", 100)
    assert len(rule.nodes) > 100
    blocked = exchange._kernel_sum_and_slope(4.0, rule.nodes, rule.weights)
    assert np.allclose(blocked, whole, rtol=0.0, atol=1e-14)


def test_thermal_amplitude_tolerance_drives_refinement(monkeypatch):
    # the estimate is the gap to the lower-order rule on the same panels;
    # a tight tolerance refines the panels, and without refinement it fails
    mu = reduced_chemical_potential(0.05, NR)
    coords = (1.0, 0.05, mu, NR)
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
    assert grid.f.item() == pytest.approx(f_zero_temperature(x), rel=1e-14)
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
        amplitude = f_zero_temperature
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
        amplitude = f_zero_temperature
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


def record_amplitude_calls(monkeypatch):
    """The abscissas of every thermal amplitude call the zeta solve makes,
    and the x of every value-and-slope call."""
    calls, slope_calls = [], []

    def recorded(x, *args):
        calls.append(np.atleast_1d(np.array(x, dtype=float)))
        return thermal_amplitude(x, *args)

    def recorded_slope(x, *args):
        slope_calls.append(x)
        return amplitude_and_slope(x, *args)

    amplitude_and_slope = exchange._amplitude_and_slope
    monkeypatch.setattr(exchange, "thermal_amplitude", recorded)
    monkeypatch.setattr(exchange, "_amplitude_and_slope", recorded_slope)
    return calls, slope_calls


def record_brackets(monkeypatch):
    """The (lo, hi) of every bracket the root refinement is given."""
    brackets = []
    root_in_bracket = exchange._root_in_bracket

    def recorded(fn, lo, hi, *ends):
        brackets.append((lo, hi))
        return root_in_bracket(fn, lo, hi, *ends)

    monkeypatch.setattr(exchange, "_root_in_bracket", recorded)
    return brackets


def certified_start(t, regime, mu_mode):
    """The first grid point the scan of a cold zeta(t) evaluates."""
    window = exchange._SCAN_X < exchange._SCAN_WINDOW_END
    grid = exchange._SCAN_X[1:][window[1:]]
    mu = reduced_chemical_potential(t, regime, mu_mode)
    rule = fge.fermi.kernel_rule(mu, t, regime, float(grid[-1]))
    return grid[max(exchange._certified_count(rule, grid), 1) - 1]


@pytest.mark.parametrize("mu_mode", list(MuMode))
@pytest.mark.parametrize("regime", [NR, ER])
@pytest.mark.parametrize("t", [0.0, 1e-3, 0.05, 0.1, 0.5, 3.0, 0.3, 0.7, 1.0, 2.0])
def test_zeta_equals_a_whole_grid_scan(monkeypatch, t, regime, mu_mode):
    # the certified scan finds the bracket a scan of the whole grid finds,
    # and the Newton root on it is brentq's to Brent's tolerance
    brackets = record_brackets(monkeypatch)
    result = exchange._solve_zeta.__wrapped__(t, regime, mu_mode)
    bracket, reference = whole_grid_zeta(t, regime, mu_mode)
    assert brackets == [bracket]
    assert abs(result.zeta - reference) <= 1e-13
    assert result.residual < 1e-10


@pytest.mark.parametrize("window_end", [1.0, 1.85])
def test_zeta_scans_the_rest_of_the_grid_past_an_empty_window(monkeypatch, window_end):
    # zeta(0.05) = 1.806 lies past the first window; with the end at 1.85 the
    # crossing falls between the last point of one window and the first of the next
    monkeypatch.setattr(exchange, "_SCAN_WINDOW_END", window_end)
    brackets = record_brackets(monkeypatch)
    calls, slope_calls = record_amplitude_calls(monkeypatch)
    result = exchange._solve_zeta.__wrapped__(0.05, NR, MuMode.EXACT_NORMALIZATION)
    bracket, reference = whole_grid_zeta(0.05, NR, MuMode.EXACT_NORMALIZATION)
    assert brackets == [bracket] and abs(result.zeta - reference) <= 1e-13
    window = exchange._SCAN_X < window_end
    start = certified_start(0.05, NR, MuMode.EXACT_NORMALIZATION)
    first = calls[0]
    assert first[0] == 0.0 and all(start <= x < window_end for x in first[1:])
    assert calls[1].tobytes() == exchange._SCAN_X[~window].tobytes()
    assert len(calls) == 2 and len(slope_calls) <= 3


@pytest.mark.parametrize("regime", [NR, ER])
def test_cold_zeta_scans_only_the_first_window(monkeypatch, regime):
    calls, slope_calls = record_amplitude_calls(monkeypatch)
    exchange._solve_zeta.__wrapped__(0.05, regime, MuMode.EXACT_NORMALIZATION)
    start = certified_start(0.05, regime, MuMode.EXACT_NORMALIZATION)
    # one scan call from the origin and the certified start to the window
    # end, then at most 3 Newton evaluations
    (scan,) = calls
    assert scan.size <= {NR: 6, ER: 8}[regime]
    assert scan[0] == 0.0 and all(start <= x < exchange._SCAN_WINDOW_END for x in scan[1:])
    assert len(slope_calls) <= 3


@pytest.mark.parametrize("mu_mode", list(MuMode))
@pytest.mark.parametrize("regime", [NR, ER])
def test_certified_scan_points_are_entangled(regime, mu_mode):
    # every grid point the scan skips has f^2 > 1/2 on the whole-grid scan,
    # and the rule has what the certificate assumes: weights >= 0 and its
    # own nodes nondecreasing
    window = exchange._SCAN_X < exchange._SCAN_WINDOW_END
    grid = exchange._SCAN_X[1:][window[1:]]
    skipped = 0
    for t in np.geomspace(1e-6, 3.0, 40):
        t = float(t)
        mu = reduced_chemical_potential(t, regime, mu_mode)
        rule = fge.fermi.kernel_rule(mu, t, regime, float(grid[-1]))
        n_hi = len(rule.nodes) // (fge.fermi._ORDER_HI + fge.fermi._ORDER_LO) * fge.fermi._ORDER_HI
        assert rule.weights.min() >= 0.0
        assert np.all(np.diff(rule.nodes[:n_hi]) >= 0.0)
        assert np.all(rule.weights[n_hi:, 0] == 0.0)
        count = exchange._certified_count(rule, grid)
        gaps = np.square(thermal_amplitude(exchange._SCAN_X[1:], t, mu, regime,
                                           exchange._ZETA_QUAD_TOL)[0]) - 0.5
        assert np.all(gaps[:count] > 0.0)
        skipped += max(count - 1, 0)
    assert skipped > 40 * 5


def single_cut_count(rule, xs):
    """The certificate with one cut: f(x) >= W_A f0(x U) + W_B f0(Y) while x U <= Y."""
    below = np.cumsum(rule.weights[:, 0])
    cut = int(np.searchsorted(below, (1.0 - exchange._CERT_TAIL) * below[-1]))
    y = xs * rule.nodes[cut]
    bound = below[cut] * f_zero_temperature(y) + (below[-1] - below[cut]) * exchange._F0_MIN
    proven = (y <= exchange._F0_MIN_AT) & (bound > math.sqrt(0.5) + exchange._CERT_MARGIN)
    return int(np.logical_and.accumulate(proven).sum())


@pytest.mark.parametrize("mu_mode", list(MuMode))
@pytest.mark.parametrize("regime", [NR, ER])
def test_block_certificate_proves_at_least_the_single_cut(regime, mu_mode):
    window = exchange._SCAN_X < exchange._SCAN_WINDOW_END
    grid = exchange._SCAN_X[1:][window[1:]]
    gained = 0
    for t in np.geomspace(1e-6, 3.0, 40):
        t = float(t)
        mu = reduced_chemical_potential(t, regime, mu_mode)
        rule = fge.fermi.kernel_rule(mu, t, regime, float(grid[-1]))
        blocks, single = exchange._certified_count(rule, grid), single_cut_count(rule, grid)
        assert blocks >= single
        gained += blocks - single
    assert gained > 40


@pytest.mark.parametrize("regime", [NR, ER])
def test_cold_zeta_fetches_each_newton_rule_once(regime, monkeypatch):
    # the Newton steps evaluate on the rules of the scan call that holds the
    # bracket's upper end, each level fetched once for the whole refinement
    fetched, phase = [], []
    rule_of = exchange.kernel_rule
    root_in_bracket = exchange._root_in_bracket

    def recorded_rule(mu, t, regime, x_max=0.0, level=0):
        if phase:
            fetched.append((x_max, level))
        return rule_of(mu, t, regime, x_max, level)

    def newton_phase(*args):
        phase.append(True)
        return root_in_bracket(*args)

    monkeypatch.setattr(exchange, "kernel_rule", recorded_rule)
    monkeypatch.setattr(exchange, "_root_in_bracket", newton_phase)
    calls, slope_calls = record_amplitude_calls(monkeypatch)
    exchange._solve_zeta.__wrapped__(0.05, regime, MuMode.EXACT_NORMALIZATION)
    (scan,) = calls
    assert 2 <= len(slope_calls) <= 3
    assert fetched == [(float(scan[-1]), level) for level in range(len(fetched))]
    assert 1 <= len(fetched) <= 2


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
    # where f^2 < 1/2 already: no rule wider than the kernel bump is built
    sizes = record_rule_sizes(monkeypatch)
    with pytest.raises(SolverError, match="sign change"):
        exchange._solve_zeta.__wrapped__(t, regime, MuMode.EXACT_NORMALIZATION)
    assert sizes and max(sizes) <= 10 ** 4


# log10 of the highest t at which the exact-mu zeta is still above the scan
# grid's first point 1e-3: zeta_cl(400) = 1.09e-3 rel
CLASSICAL_TOP = {NR: 4.0, ER: math.log10(400.0)}


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


@pytest.mark.parametrize("t", [4.91, 10.0])
def test_hot_fermi_mu_zeta_against_sine_weighted_quadpack(t):
    # rel with mu pinned at the Fermi energy: the root the scan windows find
    # against QUADPACK's Fourier-weighted rule on (3/x) int u n(u) sin(ux) du
    result = solve_zeta(t, ER, MuMode.FERMI_ENERGY_APPROX)
    x = result.zeta
    integral, _ = quad(
        lambda u: u * reduced_occupancy(u, 1.0, t, ER),
        0.0, occupancy_cutoff(1.0, t, ER),
        weight="sin", wvar=x, epsabs=1e-12, epsrel=1e-12, limit=400,
    )
    assert abs((3.0 / x * integral) ** 2 - 0.5) < 1e-9
    assert result.residual < 1e-10


def test_failed_zeta_leaves_no_rule_cached(monkeypatch):
    # nonrel fermi mu at t = 1e3: the amplitude near the origin is ~1e4, whose
    # rounding the 1e-12 estimate cannot meet
    built = []
    kernel_rule_type = fge.fermi.KernelRule
    monkeypatch.setattr(fge.fermi, "KernelRule",
                        lambda *args: built.append(kernel_rule_type(*args)) or built[-1])
    with pytest.raises(QuadratureError):
        exchange._solve_zeta.__wrapped__(1e3, NR, MuMode.FERMI_ENERGY_APPROX)
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
