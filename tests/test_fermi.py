"""Fermi gas functions: conversions, occupancy, chemical potential, validity."""

import math

import mpmath
import numpy as np
import pytest
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
    _cached_kernel_rule,
    _kernel_widths,
    _number_and_slope,
    _validity_from_ratios,
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
    # reduced argument ~ 1e6 must neither warn nor produce NaN
    with np.errstate(over="raise"):
        lo = reduced_occupancy(1e3, 1.0, 1e-3, NR)
        hi = reduced_occupancy(1e-3, 1e3, 1e-3, NR)
    assert lo == 0.0
    assert hi == 1.0


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
            value = _number_and_slope(mu, t, regime)[0]
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


def composite_gauss_nodes(mu, t, regime, splits, order):
    """The nodes and weights of a kernel rule as composite_gauss builds them on its panels."""
    s_edges, u_edges, in_u = fermi._kernel_panels(mu, t, regime)
    z, dz = composite_gauss(u_edges if in_u else s_edges, splits, order)
    if in_u:
        weights = dz * fermi._kernel_density((z * z - mu) / t) * (2.0 * z / t)
        return z, weights * z ** 3
    u = fermi._kernel_u(mu + t * z, regime)
    return u, dz * fermi._kernel_density(z) * u ** 3


@pytest.mark.parametrize("regime", [NR, ER])
def test_s_table_rules_equal_composite_gauss_rules(regime):
    # the t-independent table in s, sliced and mapped to u, gives the bits of
    # a rule built by composite_gauss on the same panels; 0.97 mu moves the
    # band bottom off the solved one, x = 30 gives panels of unequal pieces
    sliced = 0
    for t in np.geomspace(1e-4, 3.0, 60):
        t = float(t)
        mu_solved = reduced_chemical_potential(t, regime)
        for mu in (mu_solved, 0.97 * mu_solved):
            for x_max in (0.0, 1.9, 5.0, 30.0):
                for level in range(3):
                    splits = fermi._kernel_splits(mu, t, regime, x_max, level)
                    for order in (fermi._ORDER_HI, (fermi._ORDER_HI, fermi._ORDER_LO)):
                        u, weights = fermi._kernel_nodes(mu, t, regime, splits, order)
                        ref_u, ref_weights = composite_gauss_nodes(mu, t, regime, splits, order)
                        assert u.tobytes() == ref_u.tobytes()
                        assert weights.tobytes() == ref_weights.tobytes()
                    _, _, in_u = fermi._kernel_panels(mu, t, regime)
                    sliced += not in_u and mu >= 0.0 and splits.min() == splits.max()
    assert sliced >= {NR: 300, ER: 600}[regime]


def rebuilt_per_iterate(t, regime, monkeypatch):
    """mu solved with the level-0 rule rebuilt at every Newton iterate."""
    number_and_slope = fermi._number_and_slope
    with monkeypatch.context() as patch:
        patch.setattr(fermi, "_number_and_slope",
                      lambda mu, t, regime, grid=None: number_and_slope(mu, t, regime))
        return fermi._reduced_chemical_potential.__wrapped__(t, regime, MuMode.EXACT_NORMALIZATION)


@pytest.mark.parametrize("regime", [NR, ER])
def test_mu_from_one_node_set_matches_a_rebuild_per_iterate(regime, monkeypatch):
    # the kept u-grid moves mu by rounding only; the scale is max(|mu|, t),
    # because mu crosses 0 near t = 1, where |mu| alone is no scale
    for t in np.geomspace(1e-6, 1e4, 300):
        t = float(t)
        mu = fermi._reduced_chemical_potential.__wrapped__(t, regime, MuMode.EXACT_NORMALIZATION)
        reference = rebuilt_per_iterate(t, regime, monkeypatch)
        assert abs(mu - reference) <= 2e-15 * max(abs(reference), t)


def record_composite_gauss(monkeypatch):
    calls = []

    def recorded(*args):
        calls.append(args)
        return composite_gauss(*args)

    monkeypatch.setattr(fermi, "composite_gauss", recorded)
    return calls


@pytest.mark.parametrize("regime, t", [(NR, 0.011), (NR, 1e-3), (ER, 0.011), (ER, 0.23), (ER, 0.5)])
def test_cold_mu_spaced_in_s_builds_no_rule(regime, t, monkeypatch):
    # below the kernel centre the band bottom only trims the table's first panel
    fermi._kernel_nodes(1.0, 0.01, regime, 1, fermi._ORDER_HI)  # the table exists
    calls = record_composite_gauss(monkeypatch)
    mu = fermi._reduced_chemical_potential.__wrapped__(t, regime, MuMode.EXACT_NORMALIZATION)
    assert calls == [] and mu > 0.0


@pytest.mark.parametrize("t", [0.05, 0.3, 1.0, 3.0, 100.0])
def test_cold_mu_spaced_in_u_builds_one_rule(t, monkeypatch):
    # the first iterate's u-grid serves every later one
    calls = record_composite_gauss(monkeypatch)
    fermi._reduced_chemical_potential.__wrapped__(t, NR, MuMode.EXACT_NORMALIZATION)
    assert len(calls) == 1


def test_rule_cache_is_bounded_by_nodes():
    def build(mu, t, regime, splits):
        return fermi.KernelRule(np.zeros(len(splits)), np.zeros((len(splits), 2)))

    cache = fermi._RuleCache(build, maxsize=10, max_nodes=100)
    first = cache(0.0, 1.0, NR, b"x" * 40)
    cache(0.0, 2.0, NR, b"x" * 40)
    assert cache(0.0, 1.0, NR, b"x" * 40) is first  # now the most recently used
    cache(0.0, 3.0, NR, b"x" * 40)  # 120 nodes: the least recently used goes
    info = cache.cache_info()
    assert (info.hits, info.misses, info.currsize, info.nodes) == (1, 3, 2, 80)
    assert cache(0.0, 1.0, NR, b"x" * 40) is first
    mark = cache.mark()
    cache(0.0, 4.0, NR, b"x" * 10)
    cache.drop_since(mark)
    assert cache.cache_info()[2:5] == (10, 2, 80)
    cache.cache_clear()
    assert cache.cache_info()[:5] == (0, 0, 10, 0, 0)
    assert fermi._cached_kernel_rule.cache_info().max_nodes == 2 ** 21


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
