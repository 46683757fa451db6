"""The upper end of a QUADPACK range over the occupancy, for the tests' oracles."""

import math

from fge import GasRegime

# e-foldings of occupancy decay kept before the integration range is truncated
THERMAL_DECADES = 45.0


def occupancy_cutoff(mu_tilde: float, t: float, regime: GasRegime) -> float:
    """Reduced wavevector beyond which the occupancy has decayed below ~3e-20."""
    d_max = max(max(mu_tilde, 0.0) + THERMAL_DECADES * t, 1e-12)
    if regime is GasRegime.NONRELATIVISTIC:
        return math.sqrt(d_max)
    return d_max
