"""Pairwise electron entanglement in a degenerate Fermi gas.

Library layout: ``constants`` (SI data), ``fermi`` (conversions, reduced
occupancy and chemical potential, kernel rules), ``exchange``
(``thermal_amplitude``, the one amplitude entry point, and the distance
constant), ``entanglement`` (measures and oracles), ``whitedwarf``
(astrophysical application), ``cli`` (command-line front end).
"""

from .constants import PhysicalConstants, constants
from .entanglement import (
    EntanglementReport,
    EosGrid,
    Measure,
    TwoSpinState,
    average_entanglement,
    concurrence_closed_form,
    entropy_of_formation,
    eos_evaluate,
    eos_grid,
    is_entangled,
    ppt_min_eigenvalue,
    werner_state_from_f,
    wootters_concurrence,
)
from .errors import DomainError, QuadratureError, SolverError
from .exchange import (
    ZetaResult,
    f_zero_temperature,
    solve_zeta,
    thermal_amplitude,
)
from .fermi import (
    GasRegime,
    MuMode,
    ValidityReport,
    density_from_fermi_momentum,
    density_from_pressure,
    entanglement_distance,
    fermi_energy,
    fermi_momentum_from_density,
    fermi_momentum_from_pressure,
    fermi_temperature,
    ideality_threshold_density,
    pressure_from_density,
    pressure_from_entanglement_distance,
    pressure_from_fermi_momentum,
    reduced_chemical_potential,
    reduced_occupancy,
)
from .whitedwarf import (
    DwarfReport,
    WhiteDwarf,
    critical_mass_re_equals_R,
    dwarf_report,
    scaling_law_re,
    sirius_b,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "DwarfReport",
    "EntanglementReport",
    "EosGrid",
    "GasRegime",
    "Measure",
    "MuMode",
    "PhysicalConstants",
    "QuadratureError",
    "SolverError",
    "TwoSpinState",
    "ValidityReport",
    "WhiteDwarf",
    "ZetaResult",
    "average_entanglement",
    "concurrence_closed_form",
    "constants",
    "critical_mass_re_equals_R",
    "density_from_fermi_momentum",
    "density_from_pressure",
    "dwarf_report",
    "entanglement_distance",
    "entropy_of_formation",
    "eos_evaluate",
    "eos_grid",
    "f_zero_temperature",
    "fermi_energy",
    "fermi_momentum_from_density",
    "fermi_momentum_from_pressure",
    "fermi_temperature",
    "ideality_threshold_density",
    "is_entangled",
    "ppt_min_eigenvalue",
    "pressure_from_density",
    "pressure_from_entanglement_distance",
    "pressure_from_fermi_momentum",
    "reduced_chemical_potential",
    "reduced_occupancy",
    "scaling_law_re",
    "sirius_b",
    "solve_zeta",
    "thermal_amplitude",
    "werner_state_from_f",
    "wootters_concurrence",
]
