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
    ReducedCoordinates,
    SolverError,
    constants,
    f_finite_temperature,
    f_from_pressure,
    f_zero_temperature,
    fermi_momentum_from_pressure,
    fermi_temperature,
    occupation,
    pressure_from_density,
    pressure_from_fermi_momentum,
    reduced_chemical_potential,
    solve_zeta,
)
from fge import QuadratureError, reduced_occupancy
from fge import exchange
from fge.exchange import thermal_amplitude
from fge.fermi import chemical_potential, fermi_momentum_from_density, occupancy_cutoff

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
        ReducedCoordinates(x=-1.0, t=0.1, mu_tilde=0.9, regime=NR)
    with pytest.raises(DomainError, match="temperature"):
        ReducedCoordinates(x=1.0, t=-0.1, mu_tilde=0.9, regime=NR)
    with pytest.raises(DomainError, match="exactly 1"):
        ReducedCoordinates(x=1.0, t=0.0, mu_tilde=0.9, regime=NR)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field, fragment", [
    ("x", "separation"), ("t", "temperature"), ("mu_tilde", "chemical potential"),
])
def test_coordinates_reject_non_finite(field, fragment, bad):
    values = {"x": 1.0, "t": 0.1, "mu_tilde": 0.9, "regime": NR}
    values[field] = bad
    with pytest.raises(DomainError, match=fragment):
        ReducedCoordinates(**values)


# === thermal amplitude ===


def test_thermal_amplitude_reference_values():
    mu_nr = reduced_chemical_potential(0.05, NR)
    got = f_finite_temperature(ReducedCoordinates(1.0, 0.05, mu_nr, NR))
    assert got.value == pytest.approx(0.90258084334657520, abs=5e-10)
    assert got.quadrature_error_estimate < 1e-9

    mu_cold = reduced_chemical_potential(0.01, NR)
    got = f_finite_temperature(ReducedCoordinates(1.8, 0.01, mu_cold, NR))
    assert got.value == pytest.approx(0.71122797707031327, abs=5e-10)

    mu_er = reduced_chemical_potential(0.05, ER)
    got = f_finite_temperature(ReducedCoordinates(1.0, 0.05, mu_er, ER))
    assert got.value == pytest.approx(0.89979756601208668, abs=5e-10)


def test_thermal_amplitude_normalized_at_origin():
    # exact normalization pins the zero-separation amplitude at 1
    for regime in (NR, ER):
        mu = reduced_chemical_potential(0.05, regime)
        got = f_finite_temperature(ReducedCoordinates(0.0, 0.05, mu, regime))
        assert got.value == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(log_t=st.floats(-3.0, 0.0), regime=st.sampled_from([NR, ER]))
def test_exact_mu_normalizes_the_origin_at_every_temperature(log_t, regime):
    t = 10.0 ** log_t
    mu = reduced_chemical_potential(t, regime, MuMode.EXACT_NORMALIZATION)
    assert abs(thermal_amplitude(0.0, t, mu, regime)[0] - 1.0) <= 1e-13


def test_thermal_amplitude_small_x_branch_is_continuous():
    mu = reduced_chemical_potential(0.05, NR)
    below = f_finite_temperature(ReducedCoordinates(9e-7, 0.05, mu, NR)).value
    above = f_finite_temperature(ReducedCoordinates(1.1e-6, 0.05, mu, NR)).value
    assert abs(below - above) < 1e-8


def test_thermal_amplitude_approaches_ground_state():
    t = 1e-4
    mu = reduced_chemical_potential(t, NR)
    xs = np.linspace(0.05, 6.0, 25)
    worst = max(
        abs(f_finite_temperature(ReducedCoordinates(float(x), t, mu, NR)).value
            - f_zero_temperature(float(x)))
        for x in xs
    )
    assert worst < 1e-3


def test_fermi_level_approximation_lifts_the_origin():
    # with mu pinned at the Fermi energy the x=0 amplitude gains ~(pi t)^2/8
    t = 0.05
    got = f_finite_temperature(ReducedCoordinates(1e-8, t, 1.0, NR), tol=1e-12)
    assert got.value == pytest.approx(1.0 + (math.pi * t) ** 2 / 8.0, abs=1e-4)


def test_thermal_amplitude_stays_within_unit_bound():
    for t in (0.1, 0.3, 0.5):
        mu = reduced_chemical_potential(t, NR)
        for x in np.arange(0.0, 50.1, 2.5):
            value = f_finite_temperature(ReducedCoordinates(float(x), t, mu, NR)).value
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
    got = f_finite_temperature(ReducedCoordinates(x, t, mu, regime), tol=1e-12)
    assert abs(got.value - 3.0 / x * integral) < 1e-14
    assert got.quadrature_error_estimate <= 1e-12


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
        point = f_finite_temperature(ReducedCoordinates(float(x), t, mu, regime))
        assert abs(point.value - value) < 1e-13
    scalar, _ = thermal_amplitude(1.8, t, mu, regime)
    assert isinstance(scalar, float)


def test_thermal_amplitude_tolerance_drives_refinement(monkeypatch):
    # the estimate is the gap to the lower-order rule on the same panels;
    # a tight tolerance refines the panels, and without refinement it fails
    mu = reduced_chemical_potential(0.05, NR)
    coords = ReducedCoordinates(1.0, 0.05, mu, NR)
    for tol in (1e-6, 1e-10, 1e-14):
        assert f_finite_temperature(coords, tol=tol).quadrature_error_estimate <= tol
    monkeypatch.setattr(exchange, "_MAX_LEVEL", 0)
    assert f_finite_temperature(coords, tol=1e-10).quadrature_error_estimate <= 1e-10
    with pytest.raises(QuadratureError, match="stalled") as excinfo:
        f_finite_temperature(coords, tol=1e-14)
    assert excinfo.value.error_estimate > 1e-14


def test_thermal_amplitude_rejects_non_finite_separation():
    mu = reduced_chemical_potential(0.05, NR)
    for bad in (math.inf, math.nan, -1.0):
        with pytest.raises(DomainError, match="separation"):
            thermal_amplitude(np.array([1.0, bad]), 0.05, mu, NR)


def test_thermal_amplitude_tolerance_validation():
    mu = reduced_chemical_potential(0.05, NR)
    coords = ReducedCoordinates(1.0, 0.05, mu, NR)
    with pytest.raises(DomainError, match="tolerance"):
        f_finite_temperature(coords, tol=1e-15)
    with pytest.raises(DomainError, match="tolerance"):
        f_finite_temperature(coords, tol=1e-5)


# === dimensional entry point ===


def test_from_pressure_ground_state_matches_reduced_form():
    r, p = 1e-10, 1e9
    amp = f_from_pressure(r, p, 0.0, NR)
    x = fermi_momentum_from_pressure(p, NR) * r
    assert amp.value == pytest.approx(f_zero_temperature(x), rel=1e-14)
    assert amp.quadrature_error_estimate == 0.0
    assert amp.coords.x == pytest.approx(x, rel=1e-15)
    assert amp.coords.t == 0.0


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
            amp = f_from_pressure(r, p, 0.0, regime).value
            assert abs(direct - amp) <= budget * abs(amp)


def test_from_pressure_thermal_dimensional_route():
    # fully dimensional occupancy integral via an independent integrator
    n = 8.22e35
    k_f = fermi_momentum_from_density(n)
    temp = 0.05 * fermi_temperature(k_f, NR)
    mu = chemical_potential(n, temp, NR)
    r = 1.0 / k_f
    integral, _ = quad(
        lambda k: k * occupation(k, mu, temp, NR) * math.sin(k * r),
        0.0,
        3.0 * k_f,
        limit=400,
        epsabs=1e-12 * k_f ** 2,
        epsrel=1e-12,
    )
    direct = 3.0 / (r * k_f ** 3) * integral
    amp = f_from_pressure(r, pressure_from_density(n, NR), temp, NR).value
    assert abs(direct - amp) < 1e-8


def test_from_pressure_rejects_bad_inputs():
    with pytest.raises(DomainError, match="pressure"):
        f_from_pressure(1e-10, -1.0, 0.0, NR)
    with pytest.raises(DomainError, match="temperature"):
        f_from_pressure(1e-10, 1e9, -1.0, NR)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("position, fragment", [
    (0, "separation"), (1, "pressure"), (2, "temperature"),
])
def test_from_pressure_rejects_non_finite_inputs(position, fragment, bad):
    args = [1e-10, 1e9, 1e4]
    args[position] = bad
    with pytest.raises(DomainError, match=fragment):
        f_from_pressure(*args, NR)


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


@pytest.mark.parametrize("regime", [NR, ER])
@pytest.mark.parametrize("t", [0.0, 1e-3, 0.05, 0.5])
def test_zeta_brent_matches_scipy(t, regime):
    # the in-house Brent refinement against scipy's brentq on the same
    # bracket and amplitude, with the same tolerances
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
    reference, info = brentq(gap, lo, hi, xtol=1e-13, rtol=4.0 * np.finfo(float).eps,
                             maxiter=200, full_output=True)
    assert abs(solve_zeta(t, regime).zeta - reference) <= 1e-13
    # the same steps: as many evaluations as scipy's, to the same root
    calls = []
    root = exchange._brent(lambda x: calls.append(x) or gap(x), lo, hi)
    assert root == reference and len(calls) == info.function_calls


def whole_grid_zeta(t, regime, mu_mode):
    """zeta and its residual from a scan of the whole grid in one call, then Brent."""
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
    root = exchange._brent(gap, float(grid[k]), float(grid[k + 1]))
    return root, abs(gap(root))


def record_amplitude_calls(monkeypatch):
    """The abscissas of every thermal amplitude call the zeta solve makes."""
    calls = []

    def recorded(x, *args):
        calls.append(np.atleast_1d(np.array(x, dtype=float)))
        return thermal_amplitude(x, *args)

    monkeypatch.setattr(exchange, "thermal_amplitude", recorded)
    return calls


@pytest.mark.parametrize("mu_mode", list(MuMode))
@pytest.mark.parametrize("regime", [NR, ER])
@pytest.mark.parametrize("t", [0.0, 1e-3, 0.05, 0.1, 0.5, 3.0])
def test_zeta_equals_a_whole_grid_scan(t, regime, mu_mode):
    # the windowed scan finds the same bracket, so Brent takes the same steps
    result = exchange._solve_zeta.__wrapped__(t, regime, mu_mode)
    assert (result.zeta, result.residual) == whole_grid_zeta(t, regime, mu_mode)


@pytest.mark.parametrize("window_end", [1.0, 1.85])
def test_zeta_scans_the_rest_of_the_grid_past_an_empty_window(monkeypatch, window_end):
    # zeta(0.05) = 1.806 lies past the first window; with the end at 1.85 the
    # crossing falls between the last point of one window and the first of the next
    monkeypatch.setattr(exchange, "_SCAN_WINDOW_END", window_end)
    calls = record_amplitude_calls(monkeypatch)
    result = exchange._solve_zeta.__wrapped__(0.05, NR, MuMode.EXACT_NORMALIZATION)
    assert (result.zeta, result.residual) == whole_grid_zeta(0.05, NR, MuMode.EXACT_NORMALIZATION)
    window = exchange._SCAN_X < window_end
    assert calls[0].tobytes() == exchange._SCAN_X[window].tobytes()
    assert calls[1].tobytes() == exchange._SCAN_X[~window].tobytes()
    assert all(call.size == 1 for call in calls[2:])


@pytest.mark.parametrize("regime", [NR, ER])
def test_cold_zeta_scans_only_the_first_window(monkeypatch, regime):
    calls = record_amplitude_calls(monkeypatch)
    exchange._solve_zeta.__wrapped__(0.05, regime, MuMode.EXACT_NORMALIZATION)
    assert max(call.max() for call in calls) < exchange._SCAN_WINDOW_END
    # one batched scan of 21 abscissas, then one scalar call per Brent step
    assert calls[0].size == 21 and all(call.size == 1 for call in calls[1:])


def test_equivalent_zeta_calls_share_one_cache_entry():
    t = 0.0432109
    before = solve_zeta.cache_info()
    results = [solve_zeta(t, ER), solve_zeta(t, ER, MuMode.EXACT_NORMALIZATION),
               solve_zeta(t, regime=ER)]
    after = solve_zeta.cache_info()
    assert results[0] is results[1] is results[2]
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 2)


def test_brent_reports_a_bad_bracket():
    with pytest.raises(SolverError, match="sign change"):
        exchange._brent(lambda x: x * x + 1.0, -1.0, 1.0)


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
