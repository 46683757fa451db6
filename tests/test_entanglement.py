"""Two-spin state construction, entanglement measures, and the dimensional pipeline."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from fge import (
    DomainError,
    GasRegime,
    Measure,
    MuMode,
    QuadratureError,
    TwoSpinState,
    average_entanglement,
    concurrence_closed_form,
    entanglement_distance,
    entropy_of_formation,
    eos_evaluate,
    eos_grid,
    fermi_momentum_from_pressure,
    fermi_temperature,
    is_entangled,
    pressure_from_fermi_momentum,
    reduced_chemical_potential,
    ppt_min_eigenvalue,
    solve_zeta,
    werner_state_from_f,
    wootters_concurrence,
)
from fge import entanglement, exchange, quadrature
from fge.exchange import thermal_amplitude

NR = GasRegime.NONRELATIVISTIC
ER = GasRegime.EXTREME_RELATIVISTIC

BOUNDARY = math.sqrt(0.5)  # squares to 0.5 + 1 ulp, so it lands on the entangled side


# === state construction ===


def test_state_is_physical():
    for f in (-1.0, -0.6, 0.0, 0.3, BOUNDARY, 0.99, 1.0):
        matrix = werner_state_from_f(f).matrix
        assert matrix.shape == (4, 4)
        assert np.trace(matrix).real == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(matrix - matrix.conj().T)) < 1e-14
        assert np.linalg.eigvalsh(matrix)[0] > -1e-12


def test_state_spectrum_formula():
    for f in (0.0, 0.4, 0.9, 1.0):
        f2 = f * f
        eigs = np.sort(np.linalg.eigvalsh(werner_state_from_f(f).matrix))
        expected = np.sort([(1 + f2) / (4 - 2 * f2)] + 3 * [(1 - f2) / (4 - 2 * f2)])
        assert eigs == pytest.approx(expected, abs=1e-12)


def test_state_limiting_cases():
    # f = 1 collapses onto the spin singlet, f = 0 onto the maximally mixed state
    singlet = np.zeros((4, 4), dtype=complex)
    singlet[1, 1] = singlet[2, 2] = 0.5
    singlet[1, 2] = singlet[2, 1] = -0.5
    assert werner_state_from_f(1.0).matrix == pytest.approx(singlet, abs=1e-14)
    assert werner_state_from_f(0.0).matrix == pytest.approx(np.eye(4) / 4, abs=1e-14)
    assert werner_state_from_f(0.7).f_source == 0.7


def test_state_sign_blind_in_f():
    assert werner_state_from_f(-0.8).matrix == pytest.approx(
        werner_state_from_f(0.8).matrix, abs=1e-15
    )


def test_amplitude_out_of_range():
    for bad in (1.0000001, -1.1, 2.0):
        with pytest.raises(DomainError, match="amplitude"):
            werner_state_from_f(bad)
        with pytest.raises(DomainError, match="amplitude"):
            is_entangled(bad)
        with pytest.raises(DomainError, match="amplitude"):
            concurrence_closed_form(bad)


# === closed-form measures ===


def test_entanglement_threshold():
    assert is_entangled(0.8)
    assert is_entangled(-0.8)
    assert not is_entangled(0.7)
    assert not is_entangled(0.0)


def test_threshold_boundary_is_consistent_three_ways():
    inside = BOUNDARY
    outside = np.nextafter(BOUNDARY, 0.0)
    for f, expect in ((inside, True), (outside, False), (-inside, True), (-outside, False)):
        entangled = is_entangled(f)
        c = concurrence_closed_form(f)
        ppt = ppt_min_eigenvalue(werner_state_from_f(f))
        assert entangled is expect
        assert (c > 0) is expect
        assert (ppt < 0) is expect


def test_concurrence_reference_values():
    assert concurrence_closed_form(0.9) == pytest.approx(62.0 / 119.0, rel=1e-14)
    assert concurrence_closed_form(1.0) == 1.0
    assert concurrence_closed_form(-0.9) == concurrence_closed_form(0.9)
    assert concurrence_closed_form(0.5) == 0.0
    assert concurrence_closed_form(0.0) == 0.0


def test_entropy_of_formation_reference_values():
    assert entropy_of_formation(0.9) == pytest.approx(0.37784224023725607, rel=1e-12)
    assert entropy_of_formation(1.0) == 1.0
    assert entropy_of_formation(0.6) == 0.0


def test_closed_forms_take_arrays():
    # one array function per closed form: element i of an array call is the scalar call on f[i]
    fs = np.array([[-1.0, -0.8, 0.0], [0.5, BOUNDARY, 0.9]])
    for closed_form in (is_entangled, concurrence_closed_form, entropy_of_formation):
        values = closed_form(fs)
        assert isinstance(values, np.ndarray) and values.shape == fs.shape
        assert values.tolist() == [[closed_form(float(f)) for f in row] for row in fs]
        assert isinstance(closed_form(0.9), bool if closed_form is is_entangled else float)
    with pytest.raises(DomainError, match="amplitude"):
        concurrence_closed_form(np.array([0.3, 1.0000001]))
    # exactly 0, not -0.0, where the state is separable
    assert math.copysign(1.0, entropy_of_formation(0.3)) == 1.0


def test_entropy_of_formation_monotone_in_concurrence():
    fs = np.linspace(0.72, 1.0, 50)
    values = [entropy_of_formation(float(f)) for f in fs]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


# === spectral routes ===


def test_wootters_matches_closed_form():
    for f in np.linspace(-0.9995, 0.9995, 201):
        state = werner_state_from_f(float(f))
        assert abs(wootters_concurrence(state) - concurrence_closed_form(float(f))) < 1e-10


def test_wootters_on_pure_singlet():
    # sqrt of near-zero eigenvalues costs half the digits, hence the loose budget
    assert abs(wootters_concurrence(werner_state_from_f(1.0)) - 1.0) < 1e-7


def test_wootters_on_random_pure_states():
    # for a pure state the concurrence has the closed form 2|ad - bc|
    rng = np.random.default_rng(11)
    for _ in range(25):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        expected = 2.0 * abs(psi[0] * psi[3] - psi[1] * psi[2])
        got = wootters_concurrence(TwoSpinState(matrix=rho, f_source=float("nan")))
        assert got == pytest.approx(expected, abs=1e-7)


def test_ppt_matches_closed_form():
    for f in np.linspace(-1.0, 1.0, 41):
        f2 = f * f
        state = werner_state_from_f(float(f))
        assert ppt_min_eigenvalue(state) == pytest.approx(
            (1 - 2 * f2) / (4 - 2 * f2), abs=1e-12
        )


def test_ppt_reference_values():
    assert ppt_min_eigenvalue(werner_state_from_f(1.0)) == pytest.approx(-0.5, abs=1e-12)
    assert ppt_min_eigenvalue(werner_state_from_f(0.0)) == pytest.approx(0.25, abs=1e-12)


def test_state_validation():
    good = werner_state_from_f(0.9).matrix
    with pytest.raises(DomainError, match="4x4"):
        wootters_concurrence(TwoSpinState(matrix=np.eye(3) / 3, f_source=0.0))
    with pytest.raises(DomainError, match="Hermitian"):
        bad = good.copy()
        bad[0, 1] = 0.3
        wootters_concurrence(TwoSpinState(matrix=bad, f_source=0.0))
    with pytest.raises(DomainError, match="unit trace"):
        ppt_min_eigenvalue(TwoSpinState(matrix=2.0 * good, f_source=0.0))
    with pytest.raises(DomainError, match="positive semidefinite"):
        bad = np.diag([0.75, 0.75, -0.25, -0.25]).astype(complex)
        wootters_concurrence(TwoSpinState(matrix=bad, f_source=0.0))


# === dimensional pipeline ===


def test_eos_evaluate_reference_point():
    report = eos_evaluate(1e-10, 1e9, 0.0, NR)
    assert report.f == pytest.approx(0.95765295304139318, rel=1e-12)
    assert report.entangled
    assert report.concurrence == pytest.approx(0.77033680310477515, rel=1e-12)
    assert report.entropy_of_formation == pytest.approx(0.68265468946300357, rel=1e-12)
    k_f = fermi_momentum_from_pressure(1e9, NR)
    assert report.r_e == pytest.approx(solve_zeta(0.0, NR).zeta / k_f, rel=1e-12)
    assert (report.r, report.p, report.t) == (1e-10, 1e9, 0.0)
    assert report.regime is NR


def test_eos_evaluate_disentangles_under_compression():
    report = eos_evaluate(1e-10, 1e13, 0.0, NR)
    assert not report.entangled
    assert report.concurrence == 0.0
    assert report.entropy_of_formation == 0.0


def test_eos_evaluate_close_pairs_are_maximally_entangled():
    report = eos_evaluate(1e-14, 1e9, 0.0, NR)
    assert report.concurrence > 1.0 - 1e-6
    assert report.entropy_of_formation > 1.0 - 1e-6


def test_eos_evaluate_monotone_in_pressure_and_separation():
    cs = [eos_evaluate(1e-10, float(p), 0.0, NR).concurrence
          for p in np.geomspace(1e9, 1e12, 24)]
    assert all(a >= b for a, b in zip(cs, cs[1:]))
    cs = [eos_evaluate(float(r), 1e9, 0.0, NR).concurrence
          for r in np.geomspace(1e-11, 1e-9, 24)]
    assert all(a >= b for a, b in zip(cs, cs[1:]))


def test_eos_evaluate_thermal_point():
    k_f = fermi_momentum_from_pressure(1e9, NR)
    temp = 0.05 * fermi_temperature(k_f, NR)
    report = eos_evaluate(1.0 / k_f, 1e9, temp, NR)
    assert report.f == pytest.approx(0.90258084334657520, abs=5e-9)
    assert report.entangled
    assert report.t == temp


def test_eos_evaluate_rejects_bad_inputs():
    with pytest.raises(DomainError, match="separation"):
        eos_evaluate(0.0, 1e9, 0.0, NR)
    with pytest.raises(DomainError, match="pressure"):
        eos_evaluate(1e-10, 0.0, 0.0, NR)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("position, fragment", [
    (0, "separation"), (1, "pressure"), (2, "temperature"),
])
def test_eos_evaluate_rejects_non_finite_inputs(position, fragment, bad):
    args = [1e-10, 1e9, 1e4]
    args[position] = bad
    with pytest.raises(DomainError, match=fragment):
        eos_evaluate(*args, NR)


# === the grid ===


def kf_point(x, t, k_f, regime):
    """(r, P, T) of the reduced point (x, t) in a gas with Fermi wavevector k_f."""
    return x / k_f, pressure_from_fermi_momentum(k_f, regime), t * fermi_temperature(k_f, regime)


@settings(max_examples=30, deadline=None)
@given(
    xs=st.lists(st.floats(0.05, 8.0), min_size=1, max_size=6),
    t=st.sampled_from([0.0, 0.0, 0.01, 0.2]),
    log_kf=st.floats(9.0, 12.0),
    regime=st.sampled_from([NR, ER]),
)
def test_eos_grid_matches_point_calls(xs, t, log_kf, regime):
    # one t for the whole grid: one amplitude call on all x, against one call per point
    r, p, temp = kf_point(np.array(xs), t, 10.0 ** log_kf, regime)
    grid = eos_grid(r, p, temp, regime)
    assert grid.f.shape == grid.r_e.shape == (len(xs),)
    for i, (r_i, temp_i) in enumerate(zip(r, np.broadcast_to(temp, r.shape))):
        point = eos_evaluate(float(r_i), p, float(temp_i), regime)
        assert abs(grid.f[i] - point.f) <= 1e-13
        assert abs(grid.concurrence[i] - point.concurrence) <= 1e-13
        assert abs(grid.entropy_of_formation[i] - point.entropy_of_formation) <= 1e-13
        assert grid.r_e[i] == point.r_e
        assert (grid.r[i], grid.p[i], grid.t[i]) == (point.r, point.p, point.t)
    # |f| <= 1: exactly at t = 0, up to the quadrature tolerance above it
    assert np.all(np.abs(grid.f) <= (1.0 if t == 0.0 else 1.0 + 1e-10))
    assert np.all(grid.entangled == (grid.concurrence > 0.0))


def test_eos_grid_zero_dimensional_is_eos_evaluate():
    k_f = fermi_momentum_from_pressure(1e9, NR)
    temp = 0.05 * fermi_temperature(k_f, NR)
    grid = eos_grid(1.0 / k_f, 1e9, temp, NR)
    assert grid.f.shape == () and grid.x.shape == ()
    report = eos_evaluate(1.0 / k_f, 1e9, temp, NR)
    assert (grid.f.item(), grid.concurrence.item(), grid.r_e.item()) == (
        report.f, report.concurrence, report.r_e)
    assert grid.x.item() == k_f * (1.0 / k_f)


def test_eos_grid_broadcasts_and_keeps_shape():
    temps = np.array([[0.0], [300.0]])
    r = np.geomspace(1e-11, 1e-9, 4)
    grid = eos_grid(r, 1e9, temps, NR)
    assert grid.f.shape == grid.entangled.shape == grid.r.shape == (2, 4)
    assert grid.entangled.dtype == bool
    assert np.all(grid.t[1] == 300.0) and np.all(grid.r[0] == r)


def test_eos_grid_solves_once_per_temperature():
    # k distinct t cost k chemical-potential solves, however many points share them
    k_f = 3.1e10
    temps = np.array([0.011, 0.037, 0.29]) * fermi_temperature(k_f, NR)
    r = np.linspace(0.2, 4.0, 7)[:, None] / k_f
    before = reduced_chemical_potential.cache_info().misses
    eos_grid(r, pressure_from_fermi_momentum(k_f, NR), temps, NR)
    assert reduced_chemical_potential.cache_info().misses - before == len(temps)


@pytest.mark.parametrize("position, fragment", [
    (0, "separation"), (1, "pressure"), (2, "temperature"),
])
@pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
def test_eos_grid_names_the_bad_input(position, fragment, bad):
    args = [np.full(3, 1e-10), np.full(3, 1e9), np.full(3, 1e4)]
    args[position][1] = bad
    with pytest.raises(DomainError, match=fragment):
        eos_grid(*args, NR)


@pytest.mark.parametrize("args, fragment", [
    ((1e-10, 1e300, 0.0), "pressure"),      # k_F overflows
    ((1e-10, 1e-300, 0.0), "pressure"),     # k_F underflows to 0
    ((1e300, 1e30, 0.0), "separation"),     # k_F r overflows
    ((1e-10, 1e-290, 1e308), "temperature"),  # T/T_F overflows
])
def test_eos_grid_rejects_inputs_that_leave_the_float_range(args, fragment):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=fragment):
            eos_grid(*args, NR)


def test_eos_grid_rejects_shapes_that_do_not_broadcast():
    with pytest.raises(DomainError, match="broadcast"):
        eos_grid(np.ones(3) * 1e-10, np.ones(2) * 1e9, 0.0, NR)


def test_eos_grid_validates_the_tolerance():
    with pytest.raises(DomainError, match="tolerance"):
        eos_grid(1e-10, 1e9, 0.0, NR, tol=1e-3)


# === averaging ===


def test_average_entanglement_ground_state():
    assert average_entanglement(0.0, NR, Measure.CONCURRENCE) == pytest.approx(
        0.57068737010830709, rel=1e-8
    )
    assert average_entanglement(0.0, NR, Measure.ENTROPY_OF_FORMATION) == pytest.approx(
        0.48652629533027971, rel=1e-8
    )


def test_average_entanglement_thermal():
    value = average_entanglement(0.05, NR, Measure.CONCURRENCE)
    assert value == pytest.approx(0.5705433710402114, rel=1e-6)
    assert 0.0 < value < 1.0


def test_average_entanglement_vanishing_temperature():
    # the amplitude stays exact as t -> 0: the average meets the ground state
    for regime in (NR, GasRegime.EXTREME_RELATIVISTIC):
        value = average_entanglement(1e-9, regime, Measure.CONCURRENCE)
        assert value == pytest.approx(0.57068737010830709, rel=1e-9)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_average_entanglement_rejects_non_finite_temperature(bad):
    with pytest.raises(DomainError, match="temperature"):
        average_entanglement(bad, NR)


def test_average_entanglement_unknown_measure():
    with pytest.raises(DomainError, match="measure"):
        average_entanglement(0.0, NR, "concurrence")


@pytest.mark.parametrize("bad", [math.nan, -1.0, 1.0, 1e-30])
def test_average_entanglement_rejects_a_bad_tolerance(bad):
    with pytest.raises(DomainError, match="tolerance"):
        average_entanglement(0.05, NR, tol=bad)


def average_oracle(t, regime, measure, mu_mode=MuMode.EXACT_NORMALIZATION):
    """QUADPACK mean of the clamped measure of the thermal amplitude over [0, zeta].

    The cascade edges zeta (1 - 2^-k) are the break points; in the
    approximate-mu mode so is the point where f falls through 1.
    """
    zeta = solve_zeta(t, regime, mu_mode).zeta
    mu = reduced_chemical_potential(t, regime, mu_mode)

    def amplitude(x):
        return thermal_amplitude(x, t, mu, regime, 1e-12)[0]

    def integrand(x):
        return float(entanglement._MEASURE_MAPS[measure](min(max(amplitude(x), -1.0), 1.0)))

    points = [zeta * (1.0 - 0.5 ** k) for k in range(1, 31)]
    if amplitude(0.0) > 1.0:
        points.append(brentq(lambda x: amplitude(x) - 1.0, 0.0, zeta, xtol=1e-15))
    value, _ = quad(integrand, 0.0, zeta, points=sorted(points), epsabs=1e-15,
                    epsrel=1e-13, limit=400)
    return value / zeta


@pytest.mark.parametrize("measure", list(Measure))
@pytest.mark.parametrize("regime", [NR, ER])
@pytest.mark.parametrize("t", [0.02, 0.07, 0.5, 30.0])
def test_average_entanglement_against_quadpack(t, regime, measure):
    expected = average_oracle(t, regime, measure)
    assert average_entanglement(t, regime, measure) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("t", [1e-8, 1.2589254117941661e-08, 2e-8])
@pytest.mark.parametrize("regime", [NR, ER])
def test_fermi_level_average_with_an_overshoot_at_rounding(regime, t):
    # f(0) = 1 + 2.2e-16 near t = 1e-8, which the interpolant does not repeat
    # at x = 0: the clamp adds no edge, where the root search would close on
    # x = 0 and never converge; the average is the ground state's
    for measure in Measure:
        value = average_entanglement(t, regime, measure, MuMode.FERMI_ENERGY_APPROX)
        assert value == pytest.approx(average_entanglement(0.0, regime, measure), rel=1e-9)


@pytest.mark.parametrize("regime", [NR, ER])
def test_average_entanglement_fermi_level_mode_against_quadpack(regime):
    # f overshoots 1 near the origin and the clamp bends the integrand
    # there; at rel t = 3, f(0) is about 200, and f falls through 1 on the
    # fourth of the zeta solve's windows, the one that holds zeta
    mode = MuMode.FERMI_ENERGY_APPROX
    for t in (0.07, 3.0):
        for measure in Measure:
            expected = average_oracle(t, regime, measure, mode)
            assert average_entanglement(t, regime, measure, mode) == pytest.approx(
                expected, rel=1e-10)


@pytest.mark.parametrize("measure", list(Measure))
@pytest.mark.parametrize("t", [50.0, 100.0])
def test_hot_nonrelativistic_fermi_level_average_against_quadpack(t, measure):
    # f(0) is 365 at t = 50, and f falls from above 1/sqrt(2) to below
    # -1/sqrt(2) within 0.1 of zeta, the first crossing: the average over
    # [0, zeta] within its own tolerance, 1e-8
    mode = MuMode.FERMI_ENERGY_APPROX
    expected = average_oracle(t, NR, measure, mode)
    assert average_entanglement(t, NR, measure, mode) == pytest.approx(expected, rel=1e-8)


def count_amplitude_calls(monkeypatch):
    """Record the abscissa count of every amplitude sum, made here or by the zeta solve."""
    calls = []
    original = exchange._refined_sum

    def counted(xs, x_max, t, mu_tilde, regime, tol):
        calls.append(np.size(xs))
        return original(xs, x_max, t, mu_tilde, regime, tol)

    for module in (entanglement, exchange):
        monkeypatch.setattr(module, "_refined_sum", counted)
    return calls


@pytest.mark.parametrize("t", [0.0, 0.05])
def test_average_entanglement_makes_no_amplitude_call(monkeypatch, t):
    solve_zeta(t, NR)
    calls = count_amplitude_calls(monkeypatch)
    average_entanglement(t, NR, Measure.ENTROPY_OF_FORMATION)
    # every Kronrod abscissa is interpolated from the zeta solve's samples
    assert calls == []


def test_average_entanglement_refines_to_relative_tolerance(monkeypatch):
    eof = Measure.ENTROPY_OF_FORMATION
    reference = average_entanglement(0.05, NR, eof)
    # without the cascade, the C^2 log C end of the entropy of formation at
    # zeta misses the budget at level 0
    monkeypatch.setattr(entanglement, "_CASCADE_PANELS", 1)
    calls = count_amplitude_calls(monkeypatch)
    rules = []
    original = entanglement.composite_kronrod

    def counted(edges, splits):
        rules.append(splits)
        return original(edges, splits)

    monkeypatch.setattr(entanglement, "composite_kronrod", counted)
    levels = []
    for tol in (1e-6, 1e-8):
        rules.clear()
        value = average_entanglement(0.05, NR, eof, tol=tol)
        assert value == pytest.approx(reference, rel=tol)
        assert rules == [2 ** level for level in range(len(rules))]
        levels.append(len(rules) - 1)
    # a refinement level costs no amplitude evaluation
    assert calls == []
    # refinement engaged, and the tighter tolerance took more levels
    assert 0 < levels[0] < levels[1]


def test_average_entanglement_exhausted_levels_raise_with_estimate(monkeypatch):
    monkeypatch.setattr(entanglement, "_CASCADE_PANELS", 1)
    with pytest.raises(QuadratureError, match="stalled") as excinfo:
        average_entanglement(0.05, NR, Measure.ENTROPY_OF_FORMATION, tol=1e-12)
    assert 0.0 < excinfo.value.error_estimate < math.inf


@pytest.mark.parametrize("t", [0.0, 1e-3, 0.05, 0.5, 2.0])
@pytest.mark.parametrize("mu_mode", list(MuMode))
@pytest.mark.parametrize("regime", [NR, ER])
def test_average_on_the_short_cascade_matches_the_long_one(monkeypatch, regime, mu_mode, t):
    # panels beyond the tenth lie within zeta 2^-9 of zeta, where the
    # measure carries O(h^3) on a panel of width h: the 31-panel cascade
    # is the reference, and 10 panels still meet the budget at level 0
    for measure in Measure:
        for tol in (1e-8, 1e-14):
            with monkeypatch.context() as long:
                long.setattr(entanglement, "_CASCADE_PANELS", 31)
                reference = average_entanglement(t, regime, measure, mu_mode, tol)
            value = average_entanglement(t, regime, measure, mu_mode, tol)
            assert abs(value - reference) <= 2e-15 * abs(reference)


@pytest.mark.parametrize("measure", list(Measure))
@pytest.mark.parametrize("t", [100.0, 1e3, 1e6])
def test_hot_relativistic_fermi_level_average_against_quadpack(t, measure):
    # f(0) is about 5 t^3 and the zeta solve's windows reach zeta on the
    # 8th to 18th: the average reads their samples, whatever the amplitude
    # at the origin
    mode = MuMode.FERMI_ENERGY_APPROX
    expected = average_oracle(t, ER, measure, mode)
    assert average_entanglement(t, ER, measure, mode) == pytest.approx(expected, rel=1e-10)


def interpolation_cases():
    """regime x mu mode x t, where zeta solves (no nonrel closed form serves fermi mu at t = 1e3)."""
    for regime in (NR, ER):
        for mu_mode in MuMode:
            for t in (0.0, 1e-3, 0.05, 0.5, 3.0, 30.0, 100.0, 1e3):
                if not (regime is NR and mu_mode is MuMode.FERMI_ENERGY_APPROX and t == 1e3):
                    yield regime, mu_mode, t


@pytest.mark.parametrize("regime, mu_mode, t", list(interpolation_cases()))
def test_interpolated_amplitude_matches_the_direct_one(regime, mu_mode, t):
    # at the Kronrod abscissas of levels 0 and 1, the zeta solve's window
    # interpolants against the amplitude evaluated there at the solve's tolerance
    result, windows = exchange._solve_zeta(t, regime, mu_mode)
    mu_tilde = reduced_chemical_potential(t, regime, mu_mode)
    edges = np.append(result.zeta * (1.0 - 0.5 ** np.arange(entanglement._CASCADE_PANELS)),
                      result.zeta)
    for level in (0, 1):
        nodes, _ = quadrature.composite_kronrod(edges, 2 ** level)
        direct, _ = thermal_amplitude(nodes, t, mu_tilde, regime, exchange._ZETA_QUAD_TOL)
        interpolated = entanglement._interpolated_amplitude(windows, nodes)
        bound = 1e-12 * max(1.0, np.abs(direct).max())
        assert np.abs(interpolated - direct).max() <= bound


def test_an_abscissa_on_a_sample_returns_the_sample():
    lo, hi, samples = exchange._solve_zeta(0.05, NR, MuMode.EXACT_NORMALIZATION)[1][0]
    unit, weights = quadrature.chebyshev_lobatto(samples.size)
    points = lo + (hi - lo) * unit
    x = np.concatenate((points, 0.5 * (points[:-1] + points[1:])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = quadrature.barycentric(x, points, weights, samples)
    assert np.array_equal(values[:points.size], samples)
    assert np.isfinite(values).all()


@pytest.mark.parametrize("regime", [NR, ER])
def test_grid_measures_equal_the_public_closed_forms(regime):
    # the grid's measures, separability and r_e are the public formulas
    # applied to its clamped amplitude and to k_F and zeta, bit for bit:
    # on a grid of many t (0 among them), on one of a single t, and at a point
    mode = MuMode.FERMI_ENERGY_APPROX
    t_f = fermi_temperature(7e9, regime)
    r = np.geomspace(0.01, 8.0, 9)[:, None] / 7e9
    mixed = (r, pressure_from_fermi_momentum(np.array([2e9, 7e9, 3e10]), regime)[:, None, None],
             np.array([0.0, 0.004, 0.05, 0.3]) * t_f)
    single = (r.ravel(), pressure_from_fermi_momentum(7e9, regime), 0.05 * t_f)
    point = (1.3 / 7e9, pressure_from_fermi_momentum(7e9, regime), 0.004 * t_f)
    for args in (mixed, single, point):
        grid = eos_grid(*args, regime, mode)
        f = np.clip(grid.f, -1.0, 1.0)
        assert np.array_equal(grid.entangled, is_entangled(f))
        assert np.array_equal(grid.concurrence, concurrence_closed_form(f))
        assert np.array_equal(grid.entropy_of_formation, entropy_of_formation(f))
        k_f = fermi_momentum_from_pressure(grid.p, regime)
        zeta = np.vectorize(lambda t: solve_zeta(t, regime, mode).zeta)(
            grid.t / fermi_temperature(k_f, regime))
        assert np.array_equal(grid.r_e, entanglement_distance(k_f, zeta))
        if args is mixed:  # the clamp engages, and both sides of the window occur
            assert (grid.f > 1.0).any() and grid.entangled.any() and not grid.entangled.all()
