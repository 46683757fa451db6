"""Exchange amplitude: ground state, thermal quadrature, and the distance constant."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq
from scipy.special import spherical_jn

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
from fge.fermi import fermi_momentum_from_density
from fge.quadrature import chebyshev_lobatto
from thermal_range import occupancy_cutoff

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
    # -50 t <= mu_tilde <= 2, and -2^50 t, give finite amplitudes within
    # tolerance; both closed forms in z = exp(-|mu|/t) take any mu <= 0, where
    # z underflows to 0 and so does f
    for t in (1e-300, 1e-14, 1e-3, 1.0):
        for mu in (-50.0 * t, 2.0, -2.0 ** 50 * t):
            values, err = thermal_amplitude(np.array([0.0, 1.0]), t, mu, regime)
            assert np.isfinite(values).all() and err <= 1e-10
    assert thermal_amplitude(1.0, 1.0, np.nextafter(-2.0 ** 50, -math.inf), regime) == (0.0, 0.0)
    value, err = thermal_amplitude(1.0, 1e-14, -1000.0, regime)
    assert abs(value) <= err <= 1e-10


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


# a bracketing grid for the brentq reference: a crossing at x >= 1e-3 lies
# in a decade or a 0.1-wide interval of it
BRENT_GRID = np.concatenate(([1e-3, 1e-2], np.arange(0.1, 3.05, 0.1)))


def brent_zeta(t, regime, mu_mode=MuMode.EXACT_NORMALIZATION):
    """brentq's root of f^2 - 1/2 on the first sign change of BRENT_GRID, with the solve's tolerances."""
    if t == 0.0:
        amplitude = ground_state
    else:
        mu = reduced_chemical_potential(t, regime, mu_mode)

        def amplitude(x):
            return thermal_amplitude(x, t, mu, regime, exchange._ZETA_QUAD_TOL)[0]
    def gap(x):
        return amplitude(x) ** 2 - 0.5

    gaps = np.square(amplitude(BRENT_GRID)) - 0.5
    k = int(np.flatnonzero(gaps[:-1] * gaps[1:] < 0.0)[0])
    return brentq(gap, float(BRENT_GRID[k]), float(BRENT_GRID[k + 1]), xtol=exchange._ROOT_XTOL,
                  rtol=exchange._ROOT_RTOL, maxiter=exchange._ROOT_MAXITER)


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


def first_window_end(t, regime):
    """The end of the zeta solve's first window [0, h]: 3 at t = 0, else min(3, 1.01 zeta_cl)."""
    return 3.0 if t == 0.0 else min(3.0, 1.01 * classical_zeta(t, regime))


def window_calls(t, regime, windows):
    """The abscissas of the calls that sample the first ``windows`` windows at 33 points each:
    [0, h], then [h, min(3, 2 h)] and so on."""
    lo, hi = 0.0, first_window_end(t, regime)
    calls = lobatto_calls(lo, hi, 33)
    for _ in range(windows - 1):
        lo, hi = hi, min(3.0, 2.0 * hi)
        calls += lobatto_calls(lo, hi, 33)
    return calls


@pytest.mark.parametrize("mu_mode", list(MuMode))
@pytest.mark.parametrize("regime", [NR, ER])
@pytest.mark.parametrize("t", [0.0, 1e-3, 0.05, 0.1, 0.5, 3.0, 0.3, 0.7, 1.0, 2.0])
def test_zeta_equals_a_whole_grid_scan(t, regime, mu_mode):
    # the certified first crossing is brentq's root on the first sign change
    # of a grid scan, to Brent's tolerance
    result = exchange._solve_zeta.__wrapped__(t, regime, mu_mode)[0]
    assert abs(result.zeta - brent_zeta(t, regime, mu_mode)) <= 1e-13
    assert result.residual < 1e-10


# the windows the Fermi-mu solve samples where its crossing lies past the first
FERMI_MU_COLD_WINDOWS = {(ER, 0.3): 2, (ER, 1.0): 3, (NR, 1.0): 2}


@pytest.mark.parametrize("mu_mode", list(MuMode))
@pytest.mark.parametrize("regime", [NR, ER])
@pytest.mark.parametrize("t", [0.0, 1e-3, 0.05, 0.3, 1.0])
def test_cold_closed_form_zeta_is_one_batched_amplitude_call(monkeypatch, t, regime, mu_mode):
    # the interpolant of the first window, origin included: 33
    # Chebyshev-Lobatto samples in one call, and no call at a single x, for
    # the bracket or the root.  Fermi mu crosses past 1.01 zeta_cl at rel
    # t = 0.3 and 1 and nonrel t = 1: one such call on each window up to the
    # one that holds the crossing
    calls = record_amplitude_calls(monkeypatch)
    result = exchange._solve_zeta.__wrapped__(t, regime, mu_mode)[0]
    windows = FERMI_MU_COLD_WINDOWS.get((regime, t), 1) if mu_mode is MuMode.FERMI_ENERGY_APPROX else 1
    assert [call.tobytes() for call in calls] == window_calls(t, regime, windows)
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


@pytest.mark.parametrize("t, regime", [(4e6, NR), (1e4, ER)])
def test_zeta_solves_below_the_scan_grid(t, regime, monkeypatch):
    # a crossing below x = 1e-3 lies in the first window [0, 1.01 zeta_cl]
    # like any other exact-mu crossing: one call of 33 samples
    calls = record_amplitude_calls(monkeypatch)
    result = exchange._solve_zeta.__wrapped__(t, regime, MuMode.EXACT_NORMALIZATION)[0]
    assert result.zeta < 1e-3 and result.residual < 1e-10
    assert [call.tobytes() for call in calls] == window_calls(t, regime, 1)


# log10 of the highest t of the monotonicity property, and of the highest t
# at which zeta_cl - zeta stays far above the root's rounding: rel 3e-9 of
# zeta at t = 1e3; nonrel, where it falls like z ~ t^(-3/2), 2.3e-12 of zeta
# at t = 1e7 (from t of about 5e8 zeta exceeds zeta_cl by rounding, up to
# 2e-15 of it)
CLASSICAL_TOP = {NR: 12.0, ER: 3.0}
CLASSICAL_LIMIT_TOP = {NR: 7.0, ER: 3.0}


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
    t = 10.0 ** (-3.0 + where * (CLASSICAL_LIMIT_TOP[regime] + 3.0))
    assert solve_zeta(t, regime, MuMode.EXACT_NORMALIZATION).zeta <= classical_zeta(t, regime)


def sine_weighted_gap(x, t, regime):
    """f(x)^2 - 1/2 at mu pinned at the Fermi energy by QUADPACK's Fourier-weighted rule on
    (3/x) int u n(u) sin(ux) du, and the rule's error estimate."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        integral, abserr = quad(
            lambda u: u * reduced_occupancy(u, 1.0, t, regime),
            0.0, occupancy_cutoff(1.0, t, regime),
            weight="sin", wvar=x, epsabs=1e-12, epsrel=1e-12, limit=400,
        )
    return (3.0 / x * integral) ** 2 - 0.5, abserr


@pytest.mark.parametrize("t, regime", [(t, ER) for t in np.geomspace(3.0, 50.0, 61).tolist()])
def test_hot_fermi_mu_zeta_against_sine_weighted_quadpack(t, regime):
    # mu pinned at the Fermi energy, where f(0) grows to 1e3-1e4: the root
    # of the closed form against QUADPACK's Fourier-weighted rule.  Rel
    # t = 316.2 and 681.29 are checked against mpmath instead
    # (test_relativistic.py), where this rule itself stops at rounding
    result = solve_zeta(t, regime, MuMode.FERMI_ENERGY_APPROX)
    gap, abserr = sine_weighted_gap(result.zeta, t, regime)
    assert abserr < 1e-11
    assert abs(gap) < 1e-9
    assert result.residual < 1e-10


# nonrel t of np.geomspace(3, 50, 61) where, with mu pinned at the Fermi
# energy, f falls from above 1/sqrt(2) to below -1/sqrt(2) within 0.1 of x,
# then hotter t up to the pole sum's reach.  The rel roots are checked the
# same way against mpmath (test_relativistic.py)
FIRST_CROSSING_T = (np.geomspace(3.0, 50.0, 61)[[46, 51, 52, 53, 57, 58, 59, 60]].tolist()
                    + [100.0, 178.0])


@pytest.mark.parametrize("t", FIRST_CROSSING_T)
def test_fermi_mu_zeta_is_the_first_crossing(t):
    # the root against QUADPACK's Fourier-weighted rule, and f^2 > 1/2 at
    # 20000 points before it
    result = solve_zeta(t, NR, MuMode.FERMI_ENERGY_APPROX)
    assert abs(sine_weighted_gap(result.zeta, t, NR)[0]) < 1e-9
    xs = np.linspace(0.0, result.zeta, 20000, endpoint=False)
    f, _ = thermal_amplitude(xs, t, 1.0, NR, exchange._ZETA_QUAD_TOL)
    assert np.square(f).min() > 0.5


def test_zeta_refuses_a_dip_it_cannot_certify(monkeypatch):
    # a smooth amplitude whose minimum, 1/sqrt(2) + 1e-9 at x = 1, falls
    # between two dense points: no dense point is at or below 1/sqrt(2),
    # but neither the chord nor the slope proves the step around x = 1
    # free of a crossing
    def dipping(xs, x_max, t, mu, regime, tol):
        return math.sqrt(0.5) + 1e-9 + 0.5 * (xs - 1.0) ** 2, 0.0

    monkeypatch.setattr(exchange, "_refined_sum", dipping)
    with pytest.raises(SolverError, match=r"at t=0\.5 is not certified.* between 0\.9\d* and 1\.0\d*"):
        exchange._solve_zeta.__wrapped__(0.5, NR, MuMode.EXACT_NORMALIZATION)


@pytest.mark.parametrize("t", [25.0, 30.0])
def test_hot_fermi_mu_zeta_is_a_crossing_of_plus_one_over_sqrt2(t):
    result = solve_zeta(t, NR, MuMode.FERMI_ENERGY_APPROX)
    f, _ = thermal_amplitude(result.zeta, t, 1.0, NR, 1e-12)
    assert f == pytest.approx(math.sqrt(0.5), abs=1e-10)


def test_lobatto_samples_stop_on_noise():
    # cos x with a deterministic 1e-9 ripple: past 33 points the tail is the
    # ripple's and no doubling halves it, so the samples stop there, the
    # zeta solve's residual weighing the tail
    counts = []

    def amplitude(xs):
        counts.append(xs.size)
        return np.cos(xs) + 1e-9 * np.sin(1e6 * xs)

    samples, coeffs = exchange._lobatto_samples(amplitude, 0.0, 3.0, 1.0)
    assert counts == [33, 32] and samples.size == coeffs.size == 65
    assert np.abs(coeffs[-2:]).max() > 1e-12


def test_lobatto_samples_stall_with_the_tail():
    # a Lorentzian 0.01 wide at the middle of [0, 3]: each doubling halves
    # the tail, which is still far above the tolerance at 257 points
    counts = []

    def amplitude(xs):
        counts.append(xs.size)
        return 1.0 / (1.0 + 1e4 * (xs - 1.5) ** 2)

    with pytest.raises(QuadratureError, match=r"stalled .* at t=0\.25") as refusal:
        exchange._lobatto_samples(amplitude, 0.0, 3.0, 0.25)
    assert counts == [33, 32, 64, 128] and refusal.value.error_estimate > 1e-12


@pytest.mark.parametrize("t", [317.0, 1e3, 1.3e4, 5e4, 1e5])
def test_hot_fermi_mu_zeta_names_the_temperature_no_closed_form_serves(t):
    # nonrel mu pinned at the Fermi energy past the pole sum's reach at the
    # solve's tolerance (t of about 300): the Boltzmann series needs
    # mu_tilde <= 0, and no branch serves the first window
    with pytest.raises(QuadratureError, match=rf"t={t!r}, mu_tilde=1\.0") as refusal:
        exchange._solve_zeta.__wrapped__(t, NR, MuMode.FERMI_ENERGY_APPROX)
    assert refusal.value.error_estimate > exchange._ZETA_QUAD_TOL


@pytest.mark.parametrize("t", [2.4e4, 3e4, 3.7e4])
def test_hot_fermi_mu_relativistic_zeta_on_its_window(t):
    # f falls from 4e3-6e3 at x = 0.01 to 1/sqrt(2) near x = 0.09, past 13
    # windows; on the 14th, where f starts at 2-7, the samples' rounding,
    # relative to the largest, leaves a residual far below the solve's 1e-10
    assert exchange._solve_zeta.__wrapped__(t, ER, MuMode.FERMI_ENERGY_APPROX)[0].residual < 1e-12


@pytest.mark.parametrize("t, regime", [(0.0, NR), (0.01, NR), (0.5, NR), (1e3, NR), (0.5, ER)])
def test_estimates_and_residuals_are_python_floats(t, regime):
    # the ground state, the Sommerfeld series, the pole sum, the Boltzmann
    # series and the relativistic closed form: each estimate and the zeta
    # residual a float, not a numpy scalar
    mu = reduced_chemical_potential(t, regime)
    _, estimate = thermal_amplitude(np.linspace(0.0, 3.0, 7), t, mu, regime)
    assert type(estimate) is float
    assert type(solve_zeta(t, regime).residual) is float


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


@pytest.mark.parametrize("t", [1.48e6, 4e6, 1e12])
def test_zeta_solves_the_classical_gas(t):
    # far above degeneracy exp(-x^2 t/4) crosses 1/sqrt(2) at zeta = sqrt(2 ln 2/t),
    # below the scan grid from t of about 1.4e6
    result = solve_zeta(t, NR)
    assert result.residual < 1e-10
    assert abs(result.zeta * math.sqrt(t) - math.sqrt(2.0 * math.log(2.0))) <= 1e-9


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
