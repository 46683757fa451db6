"""White-dwarf interior chain: densities, Fermi scales, and the size scaling law."""

import math

import numpy as np
import pytest

from fge import (
    DomainError,
    GasRegime,
    WhiteDwarf,
    constants,
    critical_mass_re_equals_R,
    dwarf_report,
    scaling_law_re,
    sirius_b,
    solve_zeta,
)

NR = GasRegime.NONRELATIVISTIC
ER = GasRegime.EXTREME_RELATIVISTIC


def test_benchmark_dwarf_parameters():
    dwarf = sirius_b()
    c = constants()
    assert dwarf.mass == c.solar_mass
    assert dwarf.radius == pytest.approx(0.008 * c.solar_radius, rel=1e-15)
    assert dwarf.surface_temperature == 27000.0
    assert (dwarf.protons, dwarf.nucleons) == (6, 12)


def test_benchmark_report_chain():
    report = dwarf_report(sirius_b())
    assert report.mass_density == pytest.approx(2754182627.4822838, rel=1e-12)
    assert report.electron_density == pytest.approx(8.228648483860859e35, rel=1e-12)
    assert report.fermi_momentum == pytest.approx(2899010823451.2833, rel=1e-12)
    assert report.fermi_temperature == pytest.approx(3715777676.3106097, rel=1e-12)
    assert report.t_over_tf == pytest.approx(7.266312021877547e-06, rel=1e-12)
    assert report.r_e == pytest.approx(6.2601455721392432e-13, rel=1e-12)
    assert report.zeta == solve_zeta(0.0, NR).zeta


def test_benchmark_report_regime_audit():
    report = dwarf_report(sirius_b())
    # the benchmark interior is mildly relativistic; the flag must say so
    assert report.relativity_parameter == pytest.approx(0.6266176195674824, rel=1e-12)
    assert not report.nonrelativistic_ok
    assert report.validity.degenerate
    assert report.validity.ideal
    assert report.validity.density_ratio == pytest.approx(3387.1108247926339, rel=1e-10)


def test_report_zeta_override():
    dwarf = sirius_b()
    base = dwarf_report(dwarf)
    doubled = dwarf_report(dwarf, zeta=2.0 * base.zeta)
    assert doubled.r_e == pytest.approx(2.0 * base.r_e, rel=1e-14)
    assert doubled.fermi_momentum == base.fermi_momentum


def test_report_relativistic_regime():
    report = dwarf_report(sirius_b(), regime=ER)
    # linear dispersion raises the Fermi temperature, lowering t/T_F
    assert report.fermi_temperature > dwarf_report(sirius_b()).fermi_temperature
    assert report.relativity_parameter > 0.1
    assert report.r_e > 0


def test_scaling_law_matches_full_chain():
    reference = dwarf_report(sirius_b())
    assert scaling_law_re(reference.dwarf.mass, reference.dwarf.radius, reference) \
        == pytest.approx(reference.r_e, rel=1e-15)
    rng = np.random.default_rng(23)
    for _ in range(12):
        mass = reference.dwarf.mass * 10.0 ** rng.uniform(-1.5, 1.5)
        radius = reference.dwarf.radius * 10.0 ** rng.uniform(-1.5, 1.5)
        direct = dwarf_report(
            WhiteDwarf(mass=mass, radius=radius, surface_temperature=27000.0,
                       protons=6, nucleons=12)
        ).r_e
        assert scaling_law_re(mass, radius, reference) == pytest.approx(direct, rel=1e-12)


def test_scaling_law_exponents():
    reference = dwarf_report(sirius_b())
    m, r = reference.dwarf.mass, reference.dwarf.radius
    assert scaling_law_re(m, 2 * r, reference) == pytest.approx(2 * reference.r_e, rel=1e-14)
    assert scaling_law_re(8 * m, r, reference) == pytest.approx(reference.r_e / 2, rel=1e-14)


def test_critical_mass_value():
    report = dwarf_report(sirius_b())
    m_crit = critical_mass_re_equals_R(report)
    assert m_crit == pytest.approx(2.8303141384914456e-27, rel=1e-10)


def test_critical_mass_independent_of_anchor():
    # r_e/R depends on mass alone, so any (M, R) anchor gives the same answer
    reference = dwarf_report(sirius_b())
    other = dwarf_report(
        WhiteDwarf(mass=3.1 * reference.dwarf.mass, radius=0.4 * reference.dwarf.radius,
                   surface_temperature=27000.0, protons=6, nucleons=12)
    )
    assert critical_mass_re_equals_R(other) == pytest.approx(
        critical_mass_re_equals_R(reference), rel=1e-10
    )


def test_critical_mass_reinserted():
    # a dwarf of the critical mass has its entanglement distance at the surface
    reference = dwarf_report(sirius_b())
    m_crit = critical_mass_re_equals_R(reference)
    for radius in (1e3, 6371e3, reference.dwarf.radius):
        rec = dwarf_report(
            WhiteDwarf(mass=m_crit, radius=radius, surface_temperature=27000.0,
                       protons=6, nucleons=12)
        )
        assert rec.r_e == pytest.approx(radius, rel=1e-9)


def test_dwarf_validation():
    with pytest.raises(DomainError, match="nucleon count"):
        WhiteDwarf(mass=1e30, radius=1e7, surface_temperature=1e4, protons=6, nucleons=3)
    with pytest.raises(DomainError, match="proton number"):
        WhiteDwarf(mass=1e30, radius=1e7, surface_temperature=1e4, protons=0, nucleons=12)
    with pytest.raises(DomainError, match="mass"):
        WhiteDwarf(mass=0.0, radius=1e7, surface_temperature=1e4, protons=6, nucleons=12)
    with pytest.raises(DomainError, match="radius"):
        WhiteDwarf(mass=1e30, radius=-1.0, surface_temperature=1e4, protons=6, nucleons=12)
    with pytest.raises(DomainError, match="surface temperature"):
        WhiteDwarf(mass=1e30, radius=1e7, surface_temperature=0.0, protons=6, nucleons=12)
    with pytest.raises(DomainError, match="zeta"):
        dwarf_report(sirius_b(), zeta=-1.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("field", ["mass", "radius", "surface_temperature"])
def test_dwarf_rejects_non_finite_parameters(field, bad):
    values = dict(mass=1e30, radius=1e7, surface_temperature=1e4, protons=6, nucleons=12)
    values[field] = bad
    with pytest.raises(DomainError, match=field.replace("_", " ") + " must be finite"):
        WhiteDwarf(**values)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_dwarf_report_rejects_non_finite_zeta(bad):
    with pytest.raises(DomainError, match="zeta must be finite"):
        dwarf_report(sirius_b(), zeta=bad)


def test_composition_enters_through_charge_fraction():
    # hydrogen packs twice the electrons of carbon at equal mass density
    carbon = dwarf_report(sirius_b())
    hydrogen = dwarf_report(
        WhiteDwarf(mass=carbon.dwarf.mass, radius=carbon.dwarf.radius,
                   surface_temperature=27000.0, protons=1, nucleons=1)
    )
    ratio = hydrogen.electron_density / carbon.electron_density
    assert ratio == pytest.approx(2.0, rel=1e-12)
    assert hydrogen.r_e == pytest.approx(carbon.r_e / 2.0 ** (1 / 3), rel=1e-12)
