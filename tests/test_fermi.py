"""Fermi gas functions: conversions, occupancy, chemical potential, validity."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import fge
from fge import (
    DomainError,
    GasRegime,
    MuMode,
    density_from_fermi_momentum,
    density_from_pressure,
    entanglement_distance,
    fermi_momentum_from_density,
    fermi_momentum_from_pressure,
    fermi_temperature,
    pressure_from_density,
    pressure_from_entanglement_distance,
    pressure_from_fermi_momentum,
    reduced_chemical_potential,
    reduced_occupancy,
)
from fge import fermi
from fge.exchange import solve_zeta
from fge.fermi import (
    CACHE_SIZE,
    _validity_from_ratios,
    ideality_threshold_density,
    reduced_inputs,
)
from thermal_range import occupancy_cutoff

NR = GasRegime.NONRELATIVISTIC
ER = GasRegime.EXTREME_RELATIVISTIC


def edge_points(mu, t, regime):
    """The half-occupancy edge u_edge and a cluster of points around it.

    u_edge solves d(u) = mu; the cluster sits at u_edge +- m t/d'(u_edge)
    for m in (30, 15, 8, 4, 2, 1), i.e. at s = +-m in the kernel variable.
    """
    u_edge = math.sqrt(mu) if regime is NR else mu
    width = t / (2.0 * u_edge) if regime is NR else t
    points = [u_edge]
    for m in (30.0, 15.0, 8.0, 4.0, 2.0, 1.0):
        points += [u_edge - m * width, u_edge + m * width]
    return points


# === conversions ===


def test_momentum_from_density_reference_values():
    # unit wavevector sits at density 1/(3 pi^2)
    assert fermi_momentum_from_density(0.033773727880779257) == pytest.approx(1.0, rel=1e-14)
    assert fermi_momentum_from_density(8.22e35) == pytest.approx(2897994826828.752, rel=1e-12)


def test_pressure_reference_values():
    assert pressure_from_density(8.22e35, NR) == pytest.approx(1.6856226214094183e22, rel=1e-12)
    assert pressure_from_density(8.22e35, ER) == pytest.approx(1.8828091310307743e22, rel=1e-12)
    assert fermi_momentum_from_pressure(1e9, NR) == pytest.approx(6.5576092651938357e9, rel=1e-12)


def test_round_trips_over_twenty_decades():
    densities = np.geomspace(1e20, 1e40, 41)
    for n in densities:
        k = fermi_momentum_from_density(n)
        assert density_from_fermi_momentum(k) == pytest.approx(n, rel=1e-10)
        for regime in (NR, ER):
            p = pressure_from_density(n, regime)
            assert density_from_pressure(p, regime) == pytest.approx(n, rel=1e-10)
            assert pressure_from_fermi_momentum(k, regime) == pytest.approx(p, rel=1e-10)
            r_e = entanglement_distance(k, 1.8148229770012292)
            p_back = pressure_from_entanglement_distance(r_e, regime, 1.8148229770012292)
            assert p_back == pytest.approx(p, rel=1e-10)


def test_pressure_density_homogeneity():
    # cubing the momentum scale: P -> lam^5 P nonrelativistic, lam^4 P relativistic
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = 10.0 ** rng.uniform(25, 37)
        lam = 10.0 ** rng.uniform(-2, 2)
        assert pressure_from_density(lam ** 3 * n, NR) == pytest.approx(
            lam ** 5 * pressure_from_density(n, NR), rel=1e-12
        )
        assert pressure_from_density(lam ** 3 * n, ER) == pytest.approx(
            lam ** 4 * pressure_from_density(n, ER), rel=1e-12
        )


def test_entanglement_distance_is_zeta_over_momentum():
    assert entanglement_distance(2.0e12, 1.5) == pytest.approx(0.75e-12, rel=1e-15)


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: fermi_momentum_from_density(0.0), "density"),
        (lambda: fermi_momentum_from_density(-1.0), "density"),
        (lambda: pressure_from_density(-1e30, NR), "density"),
        (lambda: fermi_momentum_from_pressure(0.0, NR), "pressure"),
        (lambda: pressure_from_fermi_momentum(-1.0, ER), "fermi momentum"),
        (lambda: entanglement_distance(0.0, 1.8), "fermi momentum"),
        (lambda: pressure_from_entanglement_distance(-1e-12, NR, 1.8), "distance"),
    ],
)
def test_conversions_reject_nonpositive_inputs(call, fragment):
    with pytest.raises(DomainError, match=fragment):
        call()


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda v: fermi_momentum_from_density(v), "density"),
        (lambda v: pressure_from_density(v, NR), "density"),
        (lambda v: fermi_momentum_from_pressure(v, ER), "pressure"),
        (lambda v: pressure_from_fermi_momentum(v, NR), "fermi momentum"),
        (lambda v: entanglement_distance(1e10, v), "zeta"),
        (lambda v: entanglement_distance(v, 1.8), "fermi momentum"),
        (lambda v: pressure_from_entanglement_distance(v, NR, 1.8), "distance"),
        (lambda v: pressure_from_entanglement_distance(1e-12, NR, v), "zeta"),
    ],
)
def test_conversions_reject_non_finite_inputs(call, fragment, bad):
    with pytest.raises(DomainError, match=f"{fragment} must be finite"):
        call(bad)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: solve_zeta(0.1, "nonrel"), "regime"),
        (lambda: solve_zeta(0.1, NR, "fermi"), "mu_mode"),
        (lambda: reduced_chemical_potential(0.1, "rel"), "regime"),
        (lambda: reduced_chemical_potential(0.1, NR, "exact"), "mode"),
        (lambda: reduced_inputs(1e-10, 1e20, 1e5, "nonrel"), "regime"),
        (lambda: fge.eos_evaluate(1e-10, 1e20, 1e5, "nonrel"), "regime"),
        (lambda: fge.eos_grid(1e-10, 1e20, 1e5, NR, "fermi"), "mu_mode"),
        (lambda: fge.thermal_amplitude(1.0, 0.1, 1.0, "nonrel"), "regime"),
        (lambda: fge.average_entanglement(0.1, "nonrel"), "regime"),
        (lambda: fge.average_entanglement(0.1, NR, mu_mode="fermi"), "mu_mode"),
        (lambda: reduced_occupancy(0.5, 1.0, 0.1, "nonrel"), "regime"),
        (lambda: fge.fermi_energy(1e10, "rel"), "regime"),
        (lambda: fermi_temperature(1e10, "nonrel"), "regime"),
        (lambda: pressure_from_density(1e30, "rel"), "regime"),
        (lambda: fermi_momentum_from_pressure(1e20, "nonrel"), "regime"),
        (lambda: density_from_pressure(1e20, "rel"), "regime"),
        (lambda: pressure_from_fermi_momentum(1e10, "nonrel"), "regime"),
        (lambda: pressure_from_entanglement_distance(1e-10, "rel", 1.8), "regime"),
    ],
)
def test_enum_arguments_reject_non_members(call, name):
    # every branch tests a member by identity: a string took the other
    # branch (solve_zeta(0.1, "nonrel") returned the relativistic zeta)
    with pytest.raises(DomainError, match=f"^{name} must be a "):
        call()


def test_reduced_inputs_match_scalar_conversions_bit_for_bit():
    # the reduced temperature keys the per-t caches, so an array entry must
    # reduce exactly as the same point does alone, and as the plain Python
    # formulas do (callers that mirror them then share cache entries)
    c = fge.constants()
    rng = np.random.default_rng(5)
    p = 10.0 ** rng.uniform(-5.0, 40.0, 300)
    temp = 10.0 ** rng.uniform(0.0, 8.0, 300)
    r = 10.0 ** rng.uniform(-12.0, -8.0, 300)
    for regime in (NR, ER):
        *_, k_f, x, t = reduced_inputs(r, p, temp, regime)
        for i in range(len(p)):
            p_i, temp_i, r_i = float(p[i]), float(temp[i]), float(r[i])
            if regime is NR:
                k = (15.0 * math.pi ** 2 * c.electron_mass * p_i / c.hbar ** 2) ** 0.2
                t_f = (c.hbar * k) ** 2 / (2.0 * c.electron_mass) / c.boltzmann
            else:
                k = (12.0 * math.pi ** 2 * p_i / (c.hbar * c.light_speed)) ** 0.25
                t_f = c.hbar * c.light_speed * k / c.boltzmann
            assert fermi_momentum_from_pressure(p_i, regime) == k
            assert fermi_temperature(k, regime) == t_f
            assert (k_f[i], x[i], t[i]) == (k, k * r_i, temp_i / t_f)


def reference_reduced_inputs(r, p, temp, regime):
    """reduced_inputs with each of its checks run on every call, in its order."""
    with np.errstate(all="ignore"):
        k_f = fermi._fermi_momentum_from_pressure(p, regime)
        x = k_f * r
        t = temp / fermi._fermi_temperature(k_f, regime)
    fermi._require_all("separation", r, (r > 0) & (r < math.inf), "be finite and positive")
    fermi._require_all("pressure", p, (p > 0) & (p < math.inf), "be finite and positive")
    fermi._require_all("temperature", temp, (temp >= 0) & (temp < math.inf),
                       "be finite and nonnegative")
    fermi._require_all("pressure", p, (k_f > 0) & (k_f < math.inf),
                       "give a positive, finite Fermi momentum")
    fermi._require_all("separation", r, x < math.inf, "be small enough for a finite k_F r")
    fermi._require_all("temperature", temp, t < math.inf, "be small enough for a finite T/T_F")
    return k_f, x, t


# finite values that take k_F, x or t to the ends of the float range, and bad ones
EXTREMES = [-1.0, -0.0, 0.0, 5e-324, 1e-310, 1e-300, 1e-150, 1e-10, 1.0, 1e9, 1e150, 1e300,
            1.7e308, math.inf, -math.inf, math.nan]


@settings(max_examples=300, deadline=None)
@given(
    r=st.lists(st.sampled_from(EXTREMES) | st.floats(1e-320, 1e300), min_size=1, max_size=3),
    p=st.sampled_from(EXTREMES) | st.floats(1e-320, 1e300),
    temp=st.sampled_from(EXTREMES) | st.floats(0.0, 1e300),
    regime=st.sampled_from([NR, ER]),
)
def test_reduced_inputs_proof_fails_wherever_a_check_does(r, p, temp, regime):
    # three reductions stand in for six checks: every input that one of the
    # checks rejects must fail them, with the error of the first check
    r, p, temp = (np.array(v, dtype=float) for v in np.broadcast_arrays(r, p, temp))
    try:
        k_f, x, t = reference_reduced_inputs(r, p, temp, regime)
    except DomainError as expected:
        with pytest.raises(DomainError) as raised:
            reduced_inputs(r, p, temp, regime)
        assert str(raised.value) == str(expected)
    else:
        *_, k_f_got, x_got, t_got = reduced_inputs(r, p, temp, regime)
        assert (k_f_got.tobytes(), x_got.tobytes(), t_got.tobytes()) == (
            k_f.tobytes(), x.tobytes(), t.tobytes())


def test_reduced_inputs_accept_an_x_that_underflows_to_zero():
    # the proof needs x > 0, which k_F r = 0 fails without failing a check
    *_, k_f, x, _ = reduced_inputs(5e-324, 1e-45, 0.0, NR)
    assert k_f > 0.0 and x == 0.0


# === occupancy ===


def test_occupation_zero_temperature_step():
    for regime in (NR, ER):
        assert reduced_occupancy(0.5, 1.0, 0.0, regime) == 1.0
        assert reduced_occupancy(2.0, 1.0, 0.0, regime) == 0.0
        assert reduced_occupancy(1.0, 1.0, 0.0, regime) == 0.5


def test_occupation_half_at_chemical_potential():
    # d(u) = mu_tilde at u = 1.1 nonrel (1.21) and rel (1.1)
    assert reduced_occupancy(1.1, 1.1 * 1.1, 0.05, NR) == pytest.approx(0.5, abs=1e-15)
    assert reduced_occupancy(1.1, 1.1, 0.05, ER) == pytest.approx(0.5, abs=1e-15)


def test_occupation_known_logistic_value():
    # energy above mu by t ln 3 gives occupancy exactly 1/4
    t = 0.05
    for regime, d in ((NR, 0.81), (ER, 0.9)):
        mu = d - t * math.log(3.0)
        assert reduced_occupancy(0.9, mu, t, regime) == pytest.approx(0.25, rel=1e-12)


def test_occupation_monotone_and_bounded():
    us = np.linspace(0.0, 2.5, 300)
    for regime in (NR, ER):
        occ = reduced_occupancy(us, 1.0, 0.1, regime)
        assert np.all(np.diff(occ) <= 0)
        assert np.all((occ >= 0) & (occ <= 1))


def test_occupation_overflow_safe():
    # reduced argument ~ 1e6, or one that overflows to inf, must neither
    # warn nor produce NaN
    with np.errstate(over="raise"):
        lo = reduced_occupancy(1e3, 1.0, 1e-3, NR)
        hi = reduced_occupancy(1e-3, 1e3, 1e-3, NR)
    assert lo == 0.0
    assert hi == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert reduced_occupancy(1e200, 1.0, 0.1, NR) == 0.0
        assert reduced_occupancy(2.0, 1.0, 1e-310, NR) == 0.0
        assert reduced_occupancy(0.5, 1.0, 1e-310, ER) == 1.0


def test_reduced_occupancy_edge_value():
    assert reduced_occupancy(1.0, 1.0, 0.05, NR) == pytest.approx(0.5, abs=1e-15)
    assert reduced_occupancy(1.0, 1.0, 0.05, ER) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("u, mu, t, regime, fragment", [
    (np.array([0.5, 1.0, 2.0]), 1.0, -0.1, NR, "reduced temperature"),
    (np.array([0.5, 1.0, 2.0]), 1.0, math.inf, NR, "reduced temperature"),
    (np.array([0.5, 1.0, 2.0]), math.nan, 0.1, NR, "reduced chemical potential"),
    (np.array([1.0, -2.0]), 1.0, 0.1, ER, "reduced momentum"),
])
def test_reduced_occupancy_rejects_bad_input(u, mu, t, regime, fragment):
    # each returned numbers instead: an inverted occupancy, 0.5 everywhere,
    # NaN, and 1.0 at u = -2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=fragment):
            reduced_occupancy(u, mu, t, regime)


def test_occupancy_cutoff_bounds_the_tail():
    for regime in (NR, ER):
        for t in (1e-3, 0.05, 0.3):
            mu = reduced_chemical_potential(t, regime)
            u_max = occupancy_cutoff(mu, t, regime)
            assert reduced_occupancy(u_max, mu, t, regime) < 1e-18
            # the cluster is centered on the half-occupancy edge; callers
            # clip whatever falls outside the integration window
            u_edge = edge_points(mu, t, regime)[0]
            assert 0.0 < u_edge < u_max
            assert reduced_occupancy(u_edge, mu, t, regime) == pytest.approx(0.5, abs=1e-12)


# === chemical potential ===


def test_reduced_chemical_potential_reference_values():
    assert reduced_chemical_potential(0.01, NR) == pytest.approx(
        0.99991774111133985, abs=5e-12
    )
    assert reduced_chemical_potential(0.05, NR) == pytest.approx(
        0.99793607026603865, abs=5e-12
    )
    assert reduced_chemical_potential(0.05, ER) == pytest.approx(
        0.99177551664346093, abs=5e-12
    )


def test_reduced_chemical_potential_low_temperature_expansion():
    # leading correction is -(pi t)^2/12 for the quadratic dispersion
    t = 0.01
    sommerfeld = 1.0 - (math.pi * t) ** 2 / 12.0
    assert abs(reduced_chemical_potential(t, NR) - sommerfeld) < 2e-8
    assert abs(reduced_chemical_potential(1e-4, NR) - 1.0) < 1e-6


def test_reduced_chemical_potential_shortcuts():
    assert reduced_chemical_potential(0.0, NR) == 1.0
    assert reduced_chemical_potential(1e-12, ER) == 1.0
    assert reduced_chemical_potential(0.3, NR, MuMode.FERMI_ENERGY_APPROX) == 1.0


def test_normalization_reinserted():
    # the solved potential must reproduce the particle number: by the polylog
    # identity nonrelativistic, in closed form (its logarithm) relativistic
    for t in (0.01, 0.05, 0.3):
        mu = reduced_chemical_potential(t, NR)
        assert number_integral(mu, t, NR) == pytest.approx(1.0, rel=1e-9)
        mu = reduced_chemical_potential(t, ER)
        assert abs(fermi._relativistic_number(mu, t)[0]) <= 1e-15


def test_normalization_against_scipy():
    # independent integration route over the same occupancy
    for regime, t in ((NR, 0.05), (ER, 0.1)):
        mu = reduced_chemical_potential(t, regime)
        u_max = occupancy_cutoff(mu, t, regime)
        pts = sorted(p for p in edge_points(mu, t, regime) if 0 < p < u_max)
        value, _ = quad(
            lambda u: u * u * reduced_occupancy(u, mu, t, regime),
            0.0,
            u_max,
            points=pts,
            limit=200,
        )
        assert value == pytest.approx(1.0 / 3.0, rel=1e-9)


def number_integral(mu, t, regime):
    """3 int u^2 n(u) du in closed form at 40 digits: Fermi-Dirac integrals as polylogs.

    Nonrelativistic -(3 sqrt(pi)/4) t^(3/2) Li_{3/2}(-e^(mu/t)); relativistic
    -6 t^3 Li_3(-e^(mu/t)) (DLMF 25.12).  Equals 1 on shell.
    """
    with mpmath.workdps(40):
        z = -mpmath.exp(mpmath.mpf(mu) / t)
        if regime is NR:
            value = -3 * mpmath.sqrt(mpmath.pi) / 4 * mpmath.mpf(t) ** 1.5 * mpmath.polylog(1.5, z)
        else:
            value = -6 * mpmath.mpf(t) ** 3 * mpmath.polylog(3, z)
        return float(mpmath.re(value))


@pytest.mark.parametrize("t", [1e-3, 0.05, 0.3, 1.0])
def test_relativistic_chemical_potential_against_polylog(t):
    assert abs(number_integral(reduced_chemical_potential(t, ER), t, ER) - 1.0) < 1e-14


@pytest.mark.parametrize("regime", [NR, ER])
@pytest.mark.parametrize("t", [1e4, 4e6])
def test_chemical_potential_far_above_degeneracy(regime, t):
    # mu/t ~ -1.5 ln t: from the classical seed the Newton steps on the
    # Boltzmann side converge to a root inside [-50 t, 0]
    mu = reduced_chemical_potential(t, regime)
    assert -50.0 * t < mu < 0.0
    assert abs(number_integral(mu, t, regime) - 1.0) < 1e-13


@pytest.mark.parametrize("t", [5e14, 1e15, 1e20])
def test_nonrelativistic_chemical_potential_below_minus_fifty_t(t):
    # from t of about 2.5e14 the classical root t (ln(4/(3 sqrt pi)) - 1.5 ln t)
    # lies below -50 t, which bounds no solve
    mu = reduced_chemical_potential(t, NR)
    assert mu < -50.0 * t
    assert abs(number_integral(mu, t, NR) - 1.0) < 1e-13


@pytest.mark.parametrize("bad", [math.inf, math.nan, -1e-3])
def test_reduced_chemical_potential_rejects_bad_temperature(bad):
    with pytest.raises(DomainError, match="reduced temperature"):
        reduced_chemical_potential(bad, NR)


def test_per_temperature_caches_are_bounded():
    for cached in (reduced_chemical_potential, solve_zeta, fermi._relativistic_terms,
                   fermi._boltzmann_terms):
        assert cached.cache_info().maxsize == CACHE_SIZE
    assert CACHE_SIZE > 300
    for t in np.linspace(0.01, 0.5, CACHE_SIZE + 5):
        reduced_chemical_potential(float(t), ER)
    assert reduced_chemical_potential.cache_info().currsize == CACHE_SIZE


def test_equivalent_mu_calls_share_one_cache_entry():
    t = 0.0123457
    before = reduced_chemical_potential.cache_info()
    values = {reduced_chemical_potential(t, NR),
              reduced_chemical_potential(t, NR, MuMode.EXACT_NORMALIZATION),
              reduced_chemical_potential(t, regime=NR, mode=MuMode.EXACT_NORMALIZATION)}
    after = reduced_chemical_potential.cache_info()
    assert len(values) == 1
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 2)


@pytest.mark.parametrize("x, t, mu", [(1e307, 10.0, 1.0), (1e300, 1e10, 0.0)])
def test_huge_x_is_finite_in_the_relativistic_closed_form(x, t, mu):
    # the closed form has no node cap: x t and mu x are capped instead, past
    # which every term is below 1e-150 of the amplitude's scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, err = fge.thermal_amplitude(np.array([x, 0.0]), t, mu, ER)
    assert abs(value[0]) <= 1e-150 * value[1] and err <= 1e-10 * value[1]


# === validity ===


def test_ideality_threshold_reference_value():
    assert ideality_threshold_density(1) == pytest.approx(6.7483345192913414e30, rel=1e-12)
    # quadratic in the charge number
    assert ideality_threshold_density(2) == pytest.approx(
        4 * ideality_threshold_density(1), rel=1e-15
    )
    with pytest.raises(DomainError, match="proton number"):
        ideality_threshold_density(0)


def test_validity_degeneracy_flag():
    n = 1e35
    t_f = fermi_temperature(fermi_momentum_from_density(n), NR)
    cold = _validity_from_ratios(0.005 * t_f, t_f, n, 1)
    hot = _validity_from_ratios(t_f, t_f, n, 1)
    assert cold.degenerate
    assert not hot.degenerate
    assert hot.t_over_tf == pytest.approx(1.0, rel=1e-12)


def test_validity_ideality_flag():
    threshold = ideality_threshold_density(1)
    dense = _validity_from_ratios(0.0, 1.0, 101 * threshold, 1)
    dilute = _validity_from_ratios(0.0, 1.0, 99 * threshold, 1)
    assert dense.ideal
    assert not dilute.ideal
    assert dense.density_ratio == pytest.approx(101.0, rel=1e-12)
