"""Physical constants: values, exactness, and container semantics."""

import dataclasses

import pytest

import fge
from fge import constants


def test_si_exact_values():
    c = constants()
    # these three are exact by definition in the 2019 SI
    assert c.light_speed == 299792458.0
    assert c.boltzmann == 1.380649e-23
    assert c.elementary_charge == 1.602176634e-19


def test_codata_values():
    c = constants()
    assert c.hbar == pytest.approx(1.054571817e-34, rel=1e-9)
    assert c.electron_mass == pytest.approx(9.1093837015e-31, rel=1e-9)
    assert c.hydrogen_mass == pytest.approx(1.6735328e-27, rel=1e-6)
    assert c.vacuum_permittivity == pytest.approx(8.8541878128e-12, rel=1e-9)


def test_astronomical_reference_values():
    c = constants()
    assert c.solar_mass == pytest.approx(1.98892e30, rel=1e-5)
    assert c.solar_radius == 6.957e8  # IAU nominal value, exact by convention


def test_all_positive():
    c = constants()
    for field in dataclasses.fields(c):
        assert getattr(c, field.name) > 0, field.name


def test_singleton_identity():
    assert constants() is constants()


def test_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        constants().hbar = 1.0


def test_package_version():
    assert fge.__version__ == "0.1.0"


def test_public_names_sorted_and_clean():
    assert fge.__all__ == sorted(fge.__all__)
    assert not any(name.startswith("_") for name in fge.__all__)
    for name in ("eos_evaluate", "solve_zeta", "thermal_amplitude", "dwarf_report"):
        assert name in fge.__all__
