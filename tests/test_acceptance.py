"""Acceptance criteria for the library: accuracy, invariance, and runtime budgets.

Each test states its budget inline and prints a PASS marker so a -s run
reads as a checklist.  Heavy reference computations (the 1e7-node
occupancy oracle, the 1e6-node averaging oracle) are built here from
primitive numpy operations only, independent of the library's own
quadrature.
"""

import math
import time

import numpy as np
import pytest

from fge import (
    GasRegime,
    Measure,
    MuMode,
    average_entanglement,
    concurrence_closed_form,
    density_from_fermi_momentum,
    density_from_pressure,
    entanglement_distance,
    eos_evaluate,
    f_zero_temperature,
    fermi_momentum_from_density,
    fermi_momentum_from_pressure,
    fermi_temperature,
    is_entangled,
    ppt_min_eigenvalue,
    pressure_from_density,
    pressure_from_entanglement_distance,
    pressure_from_fermi_momentum,
    reduced_chemical_potential,
    reduced_occupancy,
    sirius_b,
    solve_zeta,
    werner_state_from_f,
    wootters_concurrence,
)
from fge.cli import main
from fge.fermi import occupancy_cutoff
from fge.whitedwarf import critical_mass_re_equals_R, dwarf_report

NR = GasRegime.NONRELATIVISTIC
ER = GasRegime.EXTREME_RELATIVISTIC


def best_of(reps, fn):
    best = float("inf")
    result = None
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_01_distance_constant_ground_state():
    # budget: zeta(0) within 0.01 of 1.8145, residual < 1e-10, cold solve < 1 ms
    def cold_solve():
        solve_zeta.cache_clear()
        reduced_chemical_potential.cache_clear()
        return solve_zeta(0.0, NR)

    elapsed, result = best_of(3, cold_solve)
    assert abs(result.zeta - 1.8145) < 0.01
    assert result.residual < 1e-10
    assert elapsed < 1e-3
    print(f"[acceptance] #1 ground-state distance constant "
          f"(zeta={result.zeta:.6f}, {elapsed * 1e3:.2f} ms): PASS")


def test_02_benchmark_dwarf():
    # budget: r_e in [5e-13, 7e-13] m, T/T_F in [1e-6, 1e-5], report < 1 ms cold
    def cold_report():
        solve_zeta.cache_clear()
        reduced_chemical_potential.cache_clear()
        return dwarf_report(sirius_b())

    elapsed, report = best_of(3, cold_report)
    assert 5e-13 <= report.r_e <= 7e-13
    assert 1e-6 <= report.t_over_tf <= 1e-5
    assert elapsed < 1e-3
    print(f"[acceptance] #2 benchmark dwarf (r_e={report.r_e:.3e} m, "
          f"T/T_F={report.t_over_tf:.2e}, {elapsed * 1e3:.2f} ms): PASS")


def test_03_critical_mass():
    # budget: within 15% of 2.7e-27 kg, < 1 ms with the distance constant cached
    solve_zeta(0.0, NR)
    elapsed, m_crit = best_of(3, lambda: critical_mass_re_equals_R(dwarf_report(sirius_b())))
    assert abs(m_crit - 2.7e-27) <= 0.15 * 2.7e-27
    assert elapsed < 1e-3
    print(f"[acceptance] #3 critical mass (M={m_crit:.3e} kg, "
          f"{elapsed * 1e3:.3f} ms): PASS")


def test_04_pressure_sweep_figure(tmp_path):
    # budget: 200 points < 100 ms; both measures start at 1 - eps with
    # eps < 1e-3; concurrence non-increasing; entanglement lost within
    # 5% of 1.6e11 Pa
    out_csv = tmp_path / "fig1.csv"
    solve_zeta(0.0, NR)
    elapsed, code = best_of(3, lambda: main(["figure1", "--out", str(out_csv)]))
    assert code == 0
    assert elapsed < 0.1

    rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
    assert len(rows) == 200
    pressures = np.array([float(row[1]) for row in rows])
    concurrences = np.array([float(row[5]) for row in rows])
    formations = np.array([float(row[6]) for row in rows])
    entangled = np.array([int(row[7]) for row in rows])

    assert concurrences[0] > 1 - 1e-3 and formations[0] > 1 - 1e-3
    assert np.all(np.diff(concurrences) <= 1e-15)
    assert entangled[0] == 1 and entangled[-1] == 0
    switch = int(np.argmin(entangled))  # first disentangled row
    assert np.all(entangled[:switch] == 1) and np.all(entangled[switch:] == 0)
    assert np.all(concurrences[switch:] == 0.0)
    crossing = math.sqrt(pressures[switch - 1] * pressures[switch])
    assert abs(crossing - 1.6e11) <= 0.05 * 1.6e11
    print(f"[acceptance] #4 pressure sweep ({elapsed * 1e3:.1f} ms for 200 points, "
          f"entanglement lost near {crossing:.3e} Pa): PASS")


def test_05_spectral_oracles_agree():
    # budget: closed forms within 1e-10 of both matrix routes on 1000
    # amplitudes with zero boundary-side disagreements, in under 1 s
    rng = np.random.default_rng(7)
    amplitudes = rng.uniform(-1.0, 1.0, 1000)
    start = time.perf_counter()
    worst = 0.0
    for f in amplitudes:
        f = float(f)
        state = werner_state_from_f(f)
        closed = concurrence_closed_form(f)
        worst = max(worst, abs(wootters_concurrence(state) - closed))
        negative = ppt_min_eigenvalue(state) < 0
        assert negative == is_entangled(f)
        assert negative == (closed > 0)
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 1.0
    print(f"[acceptance] #5 spectral oracles (worst gap {worst:.2e}, "
          f"{elapsed:.2f} s): PASS")


def test_06_thermal_amplitude_against_dense_oracle():
    # budget: |fast - oracle| < 1e-8 absolute on a 5x5 (x, t) grid with a
    # 1e7-node midpoint oracle; matches the ground state to 1e-3 at
    # t = 1e-4; all within 30 s
    xs = (0.5, 1.0, 1.8, 3.0, 5.0)
    ts = (0.001, 0.01, 0.05, 0.1, 0.3)
    nodes = 10_000_000
    start = time.perf_counter()
    worst = 0.0
    for t in ts:
        mu = reduced_chemical_potential(t, NR)
        # widened tail so the oracle's truncation sits far below 1e-8
        u_max = occupancy_cutoff(mu + 15.0 * t, t, NR)
        du = u_max / nodes
        u = (np.arange(nodes) + 0.5) * du
        weight = u * reduced_occupancy(u, mu, t, NR) * du
        for x in xs:
            oracle = 3.0 / x * float(weight @ np.sin(u * x))
            p = pressure_from_fermi_momentum(1e10, NR)
            temp = t * fermi_temperature(1e10, NR)
            fast = eos_evaluate(x * 1e-10, p, temp, NR).f
            worst = max(worst, abs(fast - oracle))
    assert worst < 1e-8

    cold_gap = max(
        abs(eos_evaluate(x * 1e-10, pressure_from_fermi_momentum(1e10, NR),
                         1e-4 * fermi_temperature(1e10, NR), NR).f
            - f_zero_temperature(x))
        for x in xs
    )
    elapsed = time.perf_counter() - start
    assert cold_gap < 1e-3
    assert elapsed < 30.0
    print(f"[acceptance] #6 dense-grid oracle (worst gap {worst:.2e}, "
          f"t->0 gap {cold_gap:.2e}, {elapsed:.1f} s): PASS")


def test_07_scaling_invariance():
    # budget: the amplitude depends on (r, P, T) only through reduced
    # variables; 50 random rescalings must agree to 1e-12 relative
    rng = np.random.default_rng(20260819)

    def amplitude(x, t, k_f, regime):
        p = pressure_from_fermi_momentum(k_f, regime)
        temp = t * fermi_temperature(k_f, regime)
        return eos_evaluate(x / k_f, p, temp, regime, MuMode.EXACT_NORMALIZATION, 1e-14).f

    worst = 0.0
    for regime in (NR, ER):
        for trial in range(25):
            lam = 10.0 ** rng.uniform(-3, 3)
            x = rng.uniform(0.2, 2.5)
            t = 0.0 if trial % 5 == 4 else rng.uniform(1e-4, 0.3)
            k_f = 10.0 ** rng.uniform(9, 12)
            base = amplitude(x, t, k_f, regime)
            scaled = amplitude(x, t, lam * k_f, regime)
            worst = max(worst, abs(scaled - base) / abs(base))
    assert worst < 1e-12
    print(f"[acceptance] #7 scaling invariance (worst relative {worst:.2e}): PASS")


def test_08_round_trips_over_twenty_decades():
    # budget: every inversion closes to 1e-10 relative across 1e20..1e40 m^-3
    densities = np.geomspace(1e20, 1e40, 81)
    zeta0 = solve_zeta(0.0, NR).zeta
    worst = 0.0
    for regime in (NR, ER):
        for n in densities:
            k_f = fermi_momentum_from_density(n)
            worst = max(worst, abs(density_from_fermi_momentum(k_f) / n - 1.0))
            p = pressure_from_density(n, regime)
            worst = max(worst, abs(density_from_pressure(p, regime) / n - 1.0))
            worst = max(worst, abs(pressure_from_fermi_momentum(k_f, regime) / p - 1.0))
            r_e = entanglement_distance(k_f, zeta0)
            p_back = pressure_from_entanglement_distance(r_e, regime, zeta0)
            worst = max(worst, abs(p_back / p - 1.0))
            k_back = fermi_momentum_from_pressure(p, regime)
            worst = max(worst, abs(k_back / k_f - 1.0))
    assert worst < 1e-10
    print(f"[acceptance] #8 round trips (worst relative {worst:.2e}): PASS")


def test_09_average_entanglement_against_trapezoid():
    # budget: adaptive average within 1e-6 relative of a 1e6-node trapezoid
    zeta0 = solve_zeta(0.0, NR).zeta
    xs = np.linspace(0.0, zeta0, 1_000_001)
    f = f_zero_temperature(xs)
    f2 = f * f
    c = np.maximum((2.0 * f2 - 1.0) / (2.0 - f2), 0.0)
    oracle_c = np.trapezoid(c, xs) / zeta0

    y = 0.5 * (1.0 + np.sqrt(np.clip(1.0 - c * c, 0.0, None)))
    entropy = np.zeros_like(y)
    interior = (y > 0.0) & (y < 1.0)
    entropy[interior] = (-y[interior] * np.log2(y[interior])
                         - (1.0 - y[interior]) * np.log2(1.0 - y[interior]))
    oracle_e = np.trapezoid(entropy, xs) / zeta0

    fast_c = average_entanglement(0.0, NR, Measure.CONCURRENCE)
    fast_e = average_entanglement(0.0, NR, Measure.ENTROPY_OF_FORMATION)
    assert fast_c == pytest.approx(oracle_c, rel=1e-6)
    assert fast_e == pytest.approx(oracle_e, rel=1e-6)
    print(f"[acceptance] #9 averaged measures (C={fast_c:.9f}, "
          f"E={fast_e:.9f} bits): PASS")
