"""Fermi gas state functions: conversions, occupancy, chemical potential, validity."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import fge
from fge import (
    DomainError,
    FermiGasState,
    GasRegime,
    MuMode,
    chemical_potential,
    constants,
    density_from_fermi_momentum,
    density_from_pressure,
    dispersion,
    entanglement_distance,
    fermi_energy,
    fermi_momentum_from_density,
    fermi_momentum_from_pressure,
    fermi_temperature,
    occupation,
    pressure_from_density,
    pressure_from_entanglement_distance,
    pressure_from_fermi_momentum,
    reduced_chemical_potential,
    reduced_occupancy,
    validity,
)
from fge import fermi
from fge.exchange import solve_zeta
from fge.fermi import (
    CACHE_SIZE,
    _cached_kernel_rule,
    _kernel_widths,
    _normalization_integral,
    ideality_threshold_density,
    occupancy_cutoff,
    reduced_inputs,
)
from fge.quadrature import composite_gauss

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


# === dispersion and occupation ===


def test_dispersion_scaling():
    k = 1e10
    assert dispersion(2 * k, NR) == pytest.approx(4 * dispersion(k, NR), rel=1e-14)
    assert dispersion(2 * k, ER) == pytest.approx(2 * dispersion(k, ER), rel=1e-14)
    assert dispersion(0.0, NR) == 0.0
    assert dispersion(0.0, ER) == 0.0


def test_dispersion_matches_fermi_energy_on_shell():
    for regime in (NR, ER):
        k = fermi_momentum_from_density(8.22e35)
        assert dispersion(k, regime) == pytest.approx(fermi_energy(k, regime), rel=1e-15)


def test_dispersion_array_and_scalar_forms():
    ks = np.array([1e9, 2e9, 3e9])
    out = dispersion(ks, NR)
    assert out.shape == (3,)
    assert isinstance(dispersion(1e9, NR), float)
    with pytest.raises(DomainError, match="wavevector"):
        dispersion(-1e9, NR)


def test_occupation_zero_temperature_step():
    k_f = 1e10
    mu = dispersion(k_f, NR)
    assert occupation(0.5 * k_f, mu, 0.0, NR) == 1.0
    assert occupation(2.0 * k_f, mu, 0.0, NR) == 0.0
    assert occupation(k_f, mu, 0.0, NR) == 0.5


def test_occupation_half_at_chemical_potential():
    k = 1e10
    mu = dispersion(k, NR)
    assert occupation(k, mu, 300.0, NR) == pytest.approx(0.5, abs=1e-15)


def test_occupation_known_logistic_value():
    # energy above mu by kT ln 3 gives occupancy exactly 1/4
    c = constants()
    k = 1e10
    temp = 1e4
    mu = dispersion(k, NR) - c.boltzmann * temp * math.log(3.0)
    assert occupation(k, mu, temp, NR) == pytest.approx(0.25, rel=1e-12)


def test_occupation_monotone_and_bounded():
    ks = np.linspace(0, 5e10, 300)
    mu = dispersion(2e10, NR)
    occ = occupation(ks, mu, 1e5, NR)
    assert np.all(np.diff(occ) <= 0)
    assert np.all((occ >= 0) & (occ <= 1))


def test_occupation_overflow_safe():
    # reduced argument ~ 1e6 must neither warn nor produce NaN
    with np.errstate(over="raise"):
        lo = occupation(1e12, dispersion(1e6, NR), 1e-3, NR)
        hi = occupation(1e3, dispersion(1e12, NR), 1e-3, NR)
    assert lo == 0.0
    assert hi == 1.0
    with pytest.raises(DomainError, match="temperature"):
        occupation(1e10, 1e-19, -1.0, NR)


def test_reduced_occupancy_edge_value():
    assert reduced_occupancy(1.0, 1.0, 0.05, NR) == pytest.approx(0.5, abs=1e-15)
    assert reduced_occupancy(1.0, 1.0, 0.05, ER) == pytest.approx(0.5, abs=1e-15)


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
    # the solved potential must reproduce the particle number
    for regime in (NR, ER):
        for t in (0.01, 0.05, 0.3):
            mu = reduced_chemical_potential(t, regime)
            value = _normalization_integral(mu, t, regime)
            assert value == pytest.approx(1.0 / 3.0, rel=1e-9)


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
    # mu/t ~ -1.5 ln t: the classical seed and the safeguarded Newton steps
    # must land inside the bracket [-50 t, 2] and converge there
    mu = reduced_chemical_potential(t, regime)
    assert -50.0 * t < mu < 0.0
    assert abs(number_integral(mu, t, regime) - 1.0) < 1e-13


@pytest.mark.parametrize("bad", [math.inf, math.nan, -1e-3])
def test_reduced_chemical_potential_rejects_bad_temperature(bad):
    with pytest.raises(DomainError, match="reduced temperature"):
        reduced_chemical_potential(bad, NR)


def test_per_temperature_caches_are_bounded():
    for cached in (reduced_chemical_potential, solve_zeta, _cached_kernel_rule, _kernel_widths):
        assert cached.cache_info().maxsize == CACHE_SIZE
    # a hundred temperatures, each with a few kernel rules, fit without eviction
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


def test_cold_mu_solves_build_no_kernel_rule(monkeypatch):
    # every Newton iterate is a new mu: nothing of its rule is worth caching
    built = []
    monkeypatch.setattr(fermi, "KernelRule", lambda *args: built.append(args))
    reduced_chemical_potential.cache_clear()
    before = _kernel_widths.cache_info()
    for regime in (NR, ER):
        for t in (0.011, 0.23, 0.77):
            reduced_chemical_potential(t, regime)
    assert reduced_chemical_potential.cache_info().misses == 6
    assert _kernel_widths.cache_info() == before
    assert built == []


def reference_kernel_rule(mu, t, regime, x_max, level):
    """The kernel rule as two separate composite_gauss rules, each mapped to u on its own."""
    splits = fermi._kernel_splits(mu, t, regime, x_max, level)
    s_edges, u_edges, in_u = fermi._kernel_panels(mu, t, regime)
    rules = []
    for order in (fermi._ORDER_HI, fermi._ORDER_LO):
        z, dz = composite_gauss(u_edges if in_u else s_edges, splits, order)
        if in_u:
            u = z
            weights = dz * fermi._kernel_density((u * u - mu) / t) * (2.0 * u / t)
        else:
            u = fermi._kernel_u(mu + t * z, regime)
            weights = dz * fermi._kernel_density(z)
        rules.append((u, weights * u ** 3))
    (u_hi, w_hi), (u_lo, w_lo) = rules
    weights = np.zeros((len(u_hi) + len(u_lo), 2))
    weights[:len(u_hi), 0] = w_hi
    weights[len(u_hi):, 1] = w_lo
    return np.concatenate((u_hi, u_lo)), weights, splits


@pytest.mark.parametrize("regime", [NR, ER])
@pytest.mark.parametrize("t", [1e-9, 1e-3, 0.05, 0.5, 20.0])
def test_kernel_rule_is_byte_identical_to_two_separate_rules(regime, t):
    mu = reduced_chemical_potential(t, regime)
    for x_max in (0.0, 1.8, 3.0, 12.0):
        for level in range(3):
            nodes, weights, splits = reference_kernel_rule(mu, t, regime, x_max, level)
            rule = _cached_kernel_rule.__wrapped__(mu, t, regime, splits.tobytes())
            assert rule.nodes.tobytes() == nodes.tobytes()
            assert rule.weights.tobytes() == weights.tobytes()


def test_chemical_potential_dimensional():
    n = 8.22e35
    k = fermi_momentum_from_density(n)
    for regime in (NR, ER):
        t_f = fermi_temperature(k, regime)
        mu = chemical_potential(n, 0.05 * t_f, regime)
        expected = fermi_energy(k, regime) * reduced_chemical_potential(0.05, regime)
        assert mu == pytest.approx(expected, rel=1e-9)
        assert chemical_potential(n, 0.0, regime) == pytest.approx(
            fermi_energy(k, regime), rel=1e-15
        )


# === gas state and validity ===


def test_state_from_density_fields():
    n = 8.22e35
    k = fermi_momentum_from_density(n)
    state = FermiGasState.from_density(n, 1e6, NR)
    assert state.fermi_momentum == pytest.approx(k, rel=1e-15)
    assert state.pressure == pytest.approx(pressure_from_density(n, NR), rel=1e-15)
    assert state.fermi_energy == pytest.approx(fermi_energy(k, NR), rel=1e-15)
    assert state.fermi_temperature == pytest.approx(fermi_temperature(k, NR), rel=1e-15)
    t = 1e6 / state.fermi_temperature
    assert state.chemical_potential == pytest.approx(
        fermi_energy(k, NR) * reduced_chemical_potential(t, NR), rel=1e-9
    )
    assert state.degeneracy_ok == (t <= 0.01)


def test_state_is_frozen():
    state = FermiGasState.from_density(1e30, 0.0, NR)
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.density = 2e30


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
    cold = FermiGasState.from_density(n, 0.005 * t_f, NR)
    hot = FermiGasState.from_density(n, t_f, NR)
    assert validity(cold, 1).degenerate
    assert not validity(hot, 1).degenerate
    assert validity(hot, 1).t_over_tf == pytest.approx(1.0, rel=1e-12)


def test_validity_ideality_flag():
    threshold = ideality_threshold_density(1)
    dense = FermiGasState.from_density(101 * threshold, 0.0, NR)
    dilute = FermiGasState.from_density(99 * threshold, 0.0, NR)
    assert validity(dense, 1).ideal
    assert not validity(dilute, 1).ideal
    assert validity(dense, 1).density_ratio == pytest.approx(101.0, rel=1e-12)
