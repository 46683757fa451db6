"""White-dwarf application: electron density from bulk stellar parameters,
entanglement distance, its mass/radius scaling, and the critical mass at
which the entanglement distance reaches the stellar radius."""

import math
from dataclasses import dataclass

from .constants import constants
from .errors import DomainError
from .exchange import solve_zeta
from .fermi import (
    GasRegime,
    MuMode,
    ValidityReport,
    _require_positive,
    _validity_from_ratios,
    entanglement_distance,
    fermi_energy,
    fermi_momentum_from_density,
    fermi_temperature,
)


@dataclass(frozen=True)
class WhiteDwarf:
    """Bulk stellar parameters: SI mass/radius/surface temperature plus composition."""

    mass: float
    radius: float
    surface_temperature: float
    protons: int
    nucleons: int

    def __post_init__(self):
        _require_positive("mass", self.mass)
        _require_positive("radius", self.radius)
        _require_positive("surface temperature", self.surface_temperature)
        if not (self.protons >= 1):
            raise DomainError(f"proton number must be at least 1, got {self.protons!r}")
        if not (self.nucleons >= self.protons):
            raise DomainError(
                f"nucleon count must be at least the proton count, got "
                f"A={self.nucleons!r} < Z={self.protons!r}"
            )


@dataclass(frozen=True)
class DwarfReport:
    """Derived interior quantities for a uniform-density dwarf."""

    dwarf: WhiteDwarf
    mass_density: float
    electron_density: float
    fermi_momentum: float
    fermi_temperature: float
    t_over_tf: float
    r_e: float
    zeta: float
    relativity_parameter: float
    nonrelativistic_ok: bool
    validity: ValidityReport


def sirius_b() -> WhiteDwarf:
    """The classic benchmark dwarf: one solar mass at 0.008 solar radii, carbon interior."""
    c = constants()
    return WhiteDwarf(mass=c.solar_mass, radius=0.008 * c.solar_radius,
                      surface_temperature=27000.0, protons=6, nucleons=12)


def dwarf_report(dwarf: WhiteDwarf, zeta: float = None,
                 regime: GasRegime = GasRegime.NONRELATIVISTIC) -> DwarfReport:
    """Uniform-density chain: mass density -> electron density -> Fermi scales -> r_e.

    ``zeta`` defaults to its zero-temperature value, justified after the
    fact by the reported t_over_tf.  The report also audits the choice of
    regime: relativity_parameter is the Fermi energy over the electron
    rest energy, and the nonrelativistic_ok flag clears only below 0.1.
    """
    c = constants()
    if zeta is None:
        zeta = solve_zeta(0.0, regime, MuMode.EXACT_NORMALIZATION).zeta
    _require_positive("zeta", zeta)
    mass_density = dwarf.mass / ((4.0 / 3.0) * math.pi * dwarf.radius ** 3)
    electron_density = dwarf.protons * mass_density / (dwarf.nucleons * c.hydrogen_mass)
    k_f = fermi_momentum_from_density(electron_density)
    t_f = fermi_temperature(k_f, regime)
    rest_energy = c.electron_mass * c.light_speed ** 2
    relativity_parameter = fermi_energy(k_f, regime) / rest_energy
    return DwarfReport(
        dwarf=dwarf,
        mass_density=mass_density,
        electron_density=electron_density,
        fermi_momentum=k_f,
        fermi_temperature=t_f,
        t_over_tf=dwarf.surface_temperature / t_f,
        r_e=entanglement_distance(k_f, zeta),
        zeta=float(zeta),
        relativity_parameter=relativity_parameter,
        nonrelativistic_ok=bool(relativity_parameter <= 0.1),
        validity=_validity_from_ratios(dwarf.surface_temperature, t_f,
                                       electron_density, dwarf.protons),
    )


def scaling_law_re(mass: float, radius: float, reference: DwarfReport) -> float:
    """Entanglement distance at (mass, radius) from a reference dwarf, r_e ~ R M^(-1/3).

    Exact under the uniform-density chain at fixed composition, not just
    a proportionality: the reference calibrates the constant.
    """
    _require_positive("mass", mass)
    _require_positive("radius", radius)
    return (reference.r_e * (radius / reference.dwarf.radius)
            * (reference.dwarf.mass / mass) ** (1.0 / 3.0))


def critical_mass_re_equals_R(reference: DwarfReport) -> float:
    """Mass at which the entanglement distance grows to the full radius.

    Solves r_e(M, R) = R under the scaling law calibrated at the reference
    dwarf (``scaling_law_re``), giving (r_e_ref M_ref^(1/3) / R_ref)^3 from
    the reference's own r_e, mass and radius.  As r_e/R depends on the mass
    alone, every reference dwarf gives the same mass.
    """
    dwarf = reference.dwarf
    return (reference.r_e * dwarf.mass ** (1.0 / 3.0) / dwarf.radius) ** 3
