"""Fermi-gas bookkeeping for a uniform electron gas.

Dispersion relations, Fermi momentum/energy/temperature, degeneracy
pressure, chemical potential, and the conversions among density,
pressure, and the pair-correlation distance, for both dispersion
regimes.  Public quantities are SI.

The thermal routines also exist in reduced form (u = k/k_F, t = T/T_F,
mu_tilde = mu/eps_F) because every dimensional state with the same
reduced coordinates shares one dimensionless solve; the reduced helpers
are the backbone of the exchange-amplitude module.
"""

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .constants import constants
from .errors import DomainError, QuadratureError, SolverError
from .quadrature import composite_gauss

THREE_PI_SQ = 3.0 * math.pi ** 2

# maxsize of every per-temperature cache: chemical potential, distance
# constant, kernel rules (a few rules per temperature) and panel widths
CACHE_SIZE = 1024
# e-foldings of occupancy decay kept before the integration range is truncated
_THERMAL_DECADES = 45.0
# offsets in s of the level-0 kernel panel edges from the kernel centre
_KERNEL_OFFSETS = np.array(
    [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 13.0, 17.0, 22.0, 29.0, 37.0, 45.0]
)
# Gauss-Legendre orders of the kernel rule and of its comparison rule
_ORDER_HI, _ORDER_LO = 12, 6
# largest phase x * (panel width in u) of f0(x u) over one panel, in radians
_PHASE_PER_PANEL = 1.0
# most nodes one kernel rule may have (x t >> 1 needs many to resolve f0(x u))
_MAX_KERNEL_NODES = 2 ** 20
# below this reduced temperature the normalization correction to mu is < 1 ulp
_MU_SHIFT_FLOOR = 1e-9
# Newton steps below this (times max(1, t)) end the chemical-potential solve
_MU_STEP_TOL = 1e-13
_MU_ITERATIONS = 100


class GasRegime(Enum):
    """Dispersion branch of the electron gas."""

    NONRELATIVISTIC = "nonrel"
    EXTREME_RELATIVISTIC = "rel"


class MuMode(Enum):
    """Chemical-potential policy at finite temperature.

    FERMI_ENERGY_APPROX pins mu to the Fermi energy; EXACT_NORMALIZATION
    solves the particle-number equation for mu at each temperature.
    """

    FERMI_ENERGY_APPROX = "fermi"
    EXACT_NORMALIZATION = "exact"


def _require_all(name: str, values: np.ndarray, ok: np.ndarray, requirement: str) -> None:
    """Raise a DomainError naming ``name`` and its first value where ``ok`` fails."""
    if not ok.all():
        bad = values[~ok].flat[0]
        raise DomainError(f"{name} must {requirement}, got {float(bad)!r}")


def _require_positive(name: str, value) -> None:
    """Raise a DomainError naming ``name`` unless ``value`` is finite and positive.

    An array is checked positive only, in one reduction: the pipeline's
    arrays come from ``reduced_inputs``, which rejects non-finite entries.
    """
    if isinstance(value, np.ndarray):
        if not (value.min(initial=math.inf) > 0):
            _require_all(name, value, value > 0, "be positive")
    elif not (0 < value < math.inf):
        raise DomainError(f"{name} must be finite and positive, got {value!r}")


def _require_nonnegative(name: str, value) -> None:
    if not (value >= 0):
        raise DomainError(f"{name} must be nonnegative, got {value!r}")


def _pow(base, exponent: float):
    """``base ** exponent`` through the C library's pow, entry by entry for an array.

    numpy's vectorised power differs from it in the last bit for some
    inputs, and ``float_power`` does not.  The reduced temperature keys the
    per-temperature caches, so a point must reduce to the same bits whether
    it comes alone, as a Python float, or inside an array.
    """
    out = np.float_power(base, exponent)
    return out if isinstance(base, np.ndarray) else float(out)


# === conversions among density, momentum, pressure, distance ===


def fermi_momentum_from_density(density: float) -> float:
    """Fermi wavevector (1/m) of a gas with the given electron density (1/m^3)."""
    _require_positive("density", density)
    return (THREE_PI_SQ * density) ** (1.0 / 3.0)


def density_from_fermi_momentum(fermi_momentum: float) -> float:
    """Electron density (1/m^3) whose filled Fermi sphere has the given radius (1/m)."""
    _require_positive("fermi momentum", fermi_momentum)
    return fermi_momentum ** 3 / THREE_PI_SQ


def fermi_energy(fermi_momentum: float, regime: GasRegime) -> float:
    """Energy (J) of the highest occupied single-particle state."""
    _require_positive("fermi momentum", fermi_momentum)
    c = constants()
    if regime is GasRegime.NONRELATIVISTIC:
        return _pow(c.hbar * fermi_momentum, 2.0) / (2.0 * c.electron_mass)
    return c.hbar * c.light_speed * fermi_momentum


def fermi_temperature(fermi_momentum: float, regime: GasRegime) -> float:
    """Degeneracy temperature scale (K) for the given Fermi wavevector."""
    return fermi_energy(fermi_momentum, regime) / constants().boltzmann


def pressure_from_density(density: float, regime: GasRegime) -> float:
    """Degeneracy pressure (Pa) of the ground-state gas at the given density."""
    _require_positive("density", density)
    c = constants()
    if regime is GasRegime.NONRELATIVISTIC:
        return THREE_PI_SQ ** (2.0 / 3.0) * c.hbar ** 2 * density ** (5.0 / 3.0) / (5.0 * c.electron_mass)
    return THREE_PI_SQ ** (1.0 / 3.0) * c.hbar * c.light_speed * density ** (4.0 / 3.0) / 4.0


def fermi_momentum_from_pressure(pressure: float, regime: GasRegime) -> float:
    """Fermi wavevector (1/m) of the gas exerting the given degeneracy pressure (Pa)."""
    _require_positive("pressure", pressure)
    c = constants()
    if regime is GasRegime.NONRELATIVISTIC:
        return _pow(15.0 * math.pi ** 2 * c.electron_mass * pressure / c.hbar ** 2, 0.2)
    return _pow(12.0 * math.pi ** 2 * pressure / (c.hbar * c.light_speed), 0.25)


def density_from_pressure(pressure: float, regime: GasRegime) -> float:
    """Electron density (1/m^3) at the given degeneracy pressure (Pa)."""
    return density_from_fermi_momentum(fermi_momentum_from_pressure(pressure, regime))


def pressure_from_fermi_momentum(fermi_momentum: float, regime: GasRegime) -> float:
    """Degeneracy pressure (Pa) at the given Fermi wavevector (1/m)."""
    _require_positive("fermi momentum", fermi_momentum)
    c = constants()
    if regime is GasRegime.NONRELATIVISTIC:
        return c.hbar ** 2 * fermi_momentum ** 5 / (15.0 * math.pi ** 2 * c.electron_mass)
    return c.hbar * c.light_speed * fermi_momentum ** 4 / (12.0 * math.pi ** 2)


def entanglement_distance(fermi_momentum: float, zeta: float) -> float:
    """Largest pair separation (m) still classified entangled, zeta/k_F."""
    _require_positive("fermi momentum", fermi_momentum)
    _require_positive("zeta", zeta)
    return zeta / fermi_momentum


def pressure_from_entanglement_distance(distance: float, regime: GasRegime, zeta: float) -> float:
    """Degeneracy pressure (Pa) of the gas whose entanglement distance equals ``distance``."""
    _require_positive("entanglement distance", distance)
    _require_positive("zeta", zeta)
    return pressure_from_fermi_momentum(zeta / distance, regime)


def reduced_inputs(separation, pressure, temperature, regime: GasRegime) -> tuple:
    """Pair separations r (m), pressures P (Pa) and temperatures T (K) in reduced form.

    The inputs broadcast together and each is checked once, as a whole
    array: the first bad value raises a DomainError that names its input,
    and so does a finite input whose Fermi momentum, x or t leaves the
    float range.  Returns the float arrays (r, P, T, k_F, x = k_F r,
    t = T/T_F), all of the broadcast shape.
    """
    try:
        r, p, temp = np.broadcast_arrays(
            *(np.asarray(v, dtype=float) for v in (separation, pressure, temperature)))
    except ValueError:
        raise DomainError(
            "separation, pressure and temperature must broadcast together, got shapes "
            f"{np.shape(separation)}, {np.shape(pressure)} and {np.shape(temperature)}"
        ) from None
    shape = r.shape
    # flat 1-d arrays, so that every operation below returns an array
    r, p, temp = r.reshape(-1), p.reshape(-1), temp.reshape(-1)
    # one pass of reductions; only a failure looks for the input to name
    if not (r.min(initial=1.0) > 0 and p.min(initial=1.0) > 0 and temp.min(initial=0.0) >= 0
            and max(r.max(initial=0.0), p.max(initial=0.0), temp.max(initial=0.0)) < math.inf):
        _require_all("separation", r, (r > 0) & (r < math.inf), "be finite and positive")
        _require_all("pressure", p, (p > 0) & (p < math.inf), "be finite and positive")
        _require_all("temperature", temp, (temp >= 0) & (temp < math.inf),
                     "be finite and nonnegative")
    with np.errstate(over="ignore"):
        k_f = fermi_momentum_from_pressure(p, regime)
        x = k_f * r
        # an infinite k_F makes x infinite too
        if not (k_f.min(initial=1.0) > 0 and x.max(initial=0.0) < math.inf):
            _require_all("pressure", p, (k_f > 0) & (k_f < math.inf),
                         "give a positive, finite Fermi momentum")
            _require_all("separation", r, x < math.inf, "be small enough for a finite k_F r")
        t = temp / fermi_temperature(k_f, regime)
        if not (t.max(initial=0.0) < math.inf):
            _require_all("temperature", temp, t < math.inf, "be small enough for a finite T/T_F")
    return tuple(a.reshape(shape) for a in (r, p, temp, k_f, x, t))


# === dispersion and occupation ===


def dispersion(wavevector, regime: GasRegime):
    """Single-particle energy (J) at the given wavevector (scalar or array, 1/m)."""
    k = np.asarray(wavevector, dtype=float)
    if np.any(k < 0):
        raise DomainError(f"wavevector must be nonnegative, got {wavevector!r}")
    c = constants()
    if regime is GasRegime.NONRELATIVISTIC:
        out = (c.hbar * k) ** 2 / (2.0 * c.electron_mass)
    else:
        out = c.hbar * c.light_speed * k
    return float(out) if out.ndim == 0 else out


def _stable_fermi_factor(argument: np.ndarray) -> np.ndarray:
    # 1/(exp(a)+1) without overflow: exponentiate only negative arguments
    decay = np.exp(-np.abs(argument))
    return np.where(argument > 0, decay / (1.0 + decay), 1.0 / (1.0 + decay))


def occupation(wavevector, chemical_potential: float, temperature: float, regime: GasRegime):
    """Thermal occupancy of the state at ``wavevector`` (scalar or array).

    Zero temperature is an exact analytic branch: 1 below the chemical
    potential, 1/2 on it, 0 above.  The finite-temperature branch is
    overflow-safe for arbitrarily large reduced arguments.
    """
    _require_nonnegative("temperature", temperature)
    energy = np.asarray(dispersion(wavevector, regime), dtype=float)
    if temperature == 0.0:
        out = np.where(energy < chemical_potential, 1.0, np.where(energy == chemical_potential, 0.5, 0.0))
    else:
        scale = constants().boltzmann * temperature
        out = _stable_fermi_factor((energy - chemical_potential) / scale)
    return float(out) if out.ndim == 0 else out


def reduced_dispersion(u, regime: GasRegime):
    """Dimensionless dispersion d(u) with u = k/k_F: u^2 nonrelativistic, u relativistic."""
    u = np.asarray(u, dtype=float)
    return u * u if regime is GasRegime.NONRELATIVISTIC else u


def reduced_occupancy(u, mu_tilde: float, t: float, regime: GasRegime):
    """Occupancy in reduced variables, n(u) = 1/(exp((d(u) - mu_tilde)/t) + 1)."""
    d = reduced_dispersion(u, regime)
    if t == 0.0:
        return np.where(d < mu_tilde, 1.0, np.where(d == mu_tilde, 0.5, 0.0))
    return _stable_fermi_factor((d - mu_tilde) / t)


def occupancy_cutoff(mu_tilde: float, t: float, regime: GasRegime) -> float:
    """Reduced wavevector beyond which the occupancy has decayed below ~3e-20."""
    d_max = max(max(mu_tilde, 0.0) + _THERMAL_DECADES * t, 1e-12)
    if regime is GasRegime.NONRELATIVISTIC:
        return math.sqrt(d_max)
    return d_max


# === Fermi-kernel quadrature rule ===
#
# Integrating by parts, every thermal integral of this package takes the
# form int u^3 g(u) (-dn/du) du: the occupancy enters only through the
# logistic kernel -dn/du = k(s) ds/du, k(s) = e^s/(1+e^s)^2, in the variable
# s = (d(u) - mu_tilde)/t.  In s the kernel is the same bump for every t, so
# one fixed composite Gauss rule in s serves every temperature.


@dataclass(frozen=True, eq=False)
class KernelRule:
    """Two composite Gauss rules, int u^3 g(u) (-dn/du) du ~ sum_j weights[j, c] g(nodes_j).

    Column c = 0 of ``weights`` is the rule, column 1 a lower-order rule on
    the same panels whose gap to it is the error estimate.  The nodes of
    both are in ``nodes``, each with weight 0 in the other column, so that
    one evaluation of g serves both sums.
    """

    nodes: np.ndarray
    weights: np.ndarray


def _kernel_density(s: np.ndarray) -> np.ndarray:
    decay = np.exp(-np.abs(s))
    return decay / (1.0 + decay) ** 2


def _kernel_panels(mu_tilde: float, t: float, regime: GasRegime):
    """Panel edges of the level-0 rule in s and in u, and whether nodes are spaced in u.

    The window is s in [max(s_lo, -45), max(s_lo, 0) + 45], with s_lo = -mu/t
    the band bottom u = 0, so the kernel is cut where it is below e^-45.
    The nonrelativistic u(s) = sqrt(mu + t s) has a branch point at s_lo;
    when s_lo lies inside the window the nodes are spaced in u instead.
    """
    s_lo = -mu_tilde / t
    s_first = max(s_lo, -_THERMAL_DECADES)
    centre = max(s_lo, 0.0)
    left = centre - _KERNEL_OFFSETS[::-1]
    s_edges = np.concatenate(([s_first], left[left > s_first], centre + _KERNEL_OFFSETS[1:]))
    u_edges = _kernel_u(mu_tilde + t * s_edges, regime)
    in_u = regime is GasRegime.NONRELATIVISTIC and s_lo > -_THERMAL_DECADES
    return s_edges, u_edges, in_u


def _kernel_u(d: np.ndarray, regime: GasRegime) -> np.ndarray:
    """Inverse reduced dispersion u(d), clipped at the band bottom."""
    d = np.maximum(d, 0.0)
    return np.sqrt(d) if regime is GasRegime.NONRELATIVISTIC else d


def _pole_pieces(mu_tilde: float, t: float, u_edges: np.ndarray) -> np.ndarray:
    """Pieces each level-0 panel spaced in u needs whatever x is (not rounded up).

    A piece is at most 1/pi of its distance to the kernel pole
    u = sqrt(mu + i pi t), the ratio that unit panels have to the poles
    s = +-i pi in s.
    """
    pole = cmath.sqrt(complex(mu_tilde, math.pi * t))
    nearest = np.clip(pole.real, u_edges[:-1], u_edges[1:])
    return math.pi * np.diff(u_edges) / np.abs(pole - nearest)


@lru_cache(maxsize=CACHE_SIZE)
def _kernel_widths(mu_tilde: float, t: float, regime: GasRegime) -> tuple[np.ndarray, np.ndarray]:
    """Widths in u of the level-0 panels, and the pieces each needs whatever x is.

    With nodes spaced in u that is ``_pole_pieces``; otherwise one piece
    per panel suffices.
    """
    _, u_edges, in_u = _kernel_panels(mu_tilde, t, regime)
    widths = np.diff(u_edges)
    floor = _pole_pieces(mu_tilde, t, u_edges) if in_u else np.zeros_like(widths)
    for array in (widths, floor):
        array.flags.writeable = False  # every caller of the cache shares them
    return widths, floor


def _kernel_splits(mu_tilde: float, t: float, regime: GasRegime, x_max: float,
                   level: int = 0) -> np.ndarray:
    """Pieces each level-0 panel is cut into so that the rule resolves f0(x u), x <= x_max.

    A piece spans at most _PHASE_PER_PANEL radians of f0(x_max u), and no
    fewer pieces than ``_kernel_widths`` asks for near the kernel pole.
    Each level then halves every piece.
    """
    widths, floor = _kernel_widths(mu_tilde, t, regime)
    pieces = np.maximum(x_max * widths / _PHASE_PER_PANEL, floor)
    pieces = np.maximum(np.ceil(pieces), 1.0) * 2.0 ** level
    nodes = float(pieces.sum()) * _ORDER_HI
    if not (nodes <= _MAX_KERNEL_NODES):
        raise QuadratureError(
            f"the kernel rule at t={t!r} would need {nodes:.3g} nodes to resolve "
            f"f0(x u) up to x={x_max!r} at level {level}, more than {_MAX_KERNEL_NODES}",
            error_estimate=math.inf,
        )
    return pieces.astype(np.int64)


def _kernel_nodes(mu_tilde: float, t: float, regime: GasRegime, panels: tuple,
                  splits, order) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u_j and weights u_j^3 k(s_j) ds of an ``order``-point rule (or rules).

    ``panels`` is what ``_kernel_panels`` returns for (mu_tilde, t,
    regime), and panel p of it is cut into ``splits[p]`` equal pieces.  A
    tuple of orders gives each rule on the same pieces, one after another,
    and maps all their nodes from s to u at once.
    """
    s_edges, u_edges, in_u = panels
    z, dz = composite_gauss(u_edges if in_u else s_edges, splits, order)
    if in_u:
        u = z
        weights = dz * _kernel_density((u * u - mu_tilde) / t) * (2.0 * u / t)
    else:
        u = _kernel_u(mu_tilde + t * z, regime)
        weights = dz * _kernel_density(z)
    return u, weights * u ** 3


@lru_cache(maxsize=CACHE_SIZE)
def _cached_kernel_rule(mu_tilde: float, t: float, regime: GasRegime, splits: bytes) -> KernelRule:
    """The rule of ``kernel_rule`` on level-0 panels cut into ``splits`` (int64 bytes) pieces.

    Both orders come from one panel and piece geometry: the nodes of the
    rule and then those of its companion go through the s -> u map, the
    kernel density and the u^3 factor together.
    """
    counts = np.frombuffer(splits, dtype=np.int64)
    nodes, both = _kernel_nodes(mu_tilde, t, regime, _kernel_panels(mu_tilde, t, regime),
                                counts, (_ORDER_HI, _ORDER_LO))
    n_hi = int(counts.sum()) * _ORDER_HI
    weights = np.zeros((len(nodes), 2))
    weights[:n_hi, 0] = both[:n_hi]
    weights[n_hi:, 1] = both[n_hi:]
    for array in (nodes, weights):
        array.flags.writeable = False  # every caller of the cache shares them
    return KernelRule(nodes, weights)


def kernel_rule(mu_tilde: float, t: float, regime: GasRegime, x_max: float = 0.0,
                level: int = 0) -> KernelRule:
    """Fermi-kernel rule at (mu_tilde, t), resolving f0(x u) for every x up to ``x_max``.

    Level 0 has up to 28 graded panels: unit width across the kernel bump,
    whose poles sit at s = +-i pi, and widening where the kernel has
    decayed.  ``_kernel_splits`` cuts them to resolve the oscillation of
    f0(x u), and every further level halves all pieces.  Rules are cached;
    one that would exceed _MAX_KERNEL_NODES raises ``QuadratureError``.
    """
    splits = _kernel_splits(mu_tilde, t, regime, x_max, level)
    return _cached_kernel_rule(mu_tilde, t, regime, splits.tobytes())


# === chemical potential ===


def _number_and_slope(mu_tilde: float, t: float, regime: GasRegime) -> tuple[float, float]:
    """Particle-number integral int_0^inf u^2 n(u) du and its mu-derivative.

    Both are sums over the nodes of the level-0 kernel rule for x = 0, at
    order _ORDER_HI.  Its panels are built once and its splits directly:
    one piece per panel where the nodes are spaced in s, else
    ``_pole_pieces`` rounded up.  Nothing is cached, because every Newton
    iterate of mu is a new key.
    """
    panels = _kernel_panels(mu_tilde, t, regime)
    _, u_edges, in_u = panels
    splits = 1
    if in_u:
        splits = np.maximum(np.ceil(_pole_pieces(mu_tilde, t, u_edges)), 1.0).astype(np.int64)
    u, weights = _kernel_nodes(mu_tilde, t, regime, panels, splits, _ORDER_HI)
    # int u^2 n du = (1/3) int u^3 (-dn/du) du; d/dmu brings k(s)/t = k(s) ds/du / d'(u)
    slope_factor = 0.5 / (u * u) if regime is GasRegime.NONRELATIVISTIC else 1.0 / u
    return float(weights.sum()) / 3.0, float(weights @ slope_factor)


def _normalization_integral(mu_tilde: float, t: float, regime: GasRegime) -> float:
    """Reduced particle-number integral, int_0^inf u^2 n(u) du; equals 1/3 on shell."""
    return _number_and_slope(mu_tilde, t, regime)[0]


def _mu_seed(t: float, regime: GasRegime) -> float:
    """Sommerfeld chemical potential for t <= 1, else the classical (Boltzmann) one."""
    if regime is GasRegime.NONRELATIVISTIC:
        if t <= 1.0:
            return 1.0 - (math.pi * t) ** 2 / 12.0
        return t * (math.log(4.0 / (3.0 * math.sqrt(math.pi))) - 1.5 * math.log(t))
    if t <= 1.0:
        # mu^3 + pi^2 t^2 mu = 1 holds up to 6 t^3 |Li_3(-e^(-mu/t))| (DLMF 25.12)
        p = (math.pi * t) ** 2
        a = (0.5 + math.sqrt(0.25 + p ** 3 / 27.0)) ** (1.0 / 3.0)
        return a - p / (3.0 * a)
    return -t * (math.log(6.0) + 3.0 * math.log(t))


def reduced_chemical_potential(t: float, regime: GasRegime, mode: MuMode = MuMode.EXACT_NORMALIZATION) -> float:
    """Chemical potential over Fermi energy at reduced temperature ``t``.

    EXACT_NORMALIZATION solves the particle-number equation
    int u^2 n(u) du = 1/3 by Newton's method on its logarithm, from the
    Sommerfeld (for t > 1, the classical) seed.  The number integral and
    its mu-derivative come from the same Fermi-kernel nodes.  Each iterate
    narrows the bracket [-50 t, 2]; a step that leaves it is replaced by
    bisection.  The solve stops once a Newton step is below
    1e-13 max(1, t) and returns that last step applied, so the result is
    converged to rounding (quadratic convergence) by a rule that depends
    on ``t`` alone; mu is reproducible to ~1e-14 across last-ulp changes
    in ``t``, which downstream scaling-invariance guarantees rely on.

    Results are cached per (t, regime, mode), however the arguments are
    spelled; ``cache_info`` and ``cache_clear`` reach that cache.
    """
    return _reduced_chemical_potential(t, regime, mode)


@lru_cache(maxsize=CACHE_SIZE)
def _reduced_chemical_potential(t: float, regime: GasRegime, mode: MuMode) -> float:
    if not (0.0 <= t < math.inf):
        raise DomainError(f"reduced temperature must be finite and nonnegative, got {t!r}")
    if mode is MuMode.FERMI_ENERGY_APPROX or t < _MU_SHIFT_FLOOR:
        return 1.0
    lo, hi = -50.0 * t, 2.0
    step_tol = _MU_STEP_TOL * max(1.0, t)
    mu = min(max(_mu_seed(t, regime), lo), hi)
    for _ in range(_MU_ITERATIONS):
        with np.errstate(over="ignore", invalid="ignore"):
            number, slope = _number_and_slope(mu, t, regime)
        if not (number > 0.0 and 0.0 < slope < math.inf):
            raise DomainError(
                f"reduced temperature {t!r} is too large: the particle-number "
                f"integral overflows at mu_tilde={mu!r}"
            )
        if number < 1.0 / 3.0:
            lo = mu
        else:
            hi = mu
        step = math.log(3.0 * number) * number / slope
        if abs(step) <= step_tol:
            return mu - step
        mu -= step
        if not (lo < mu < hi):
            if hi - lo <= step_tol:
                raise SolverError(
                    "particle-number equation has no root on the bracket "
                    f"[{-50.0 * t:.6g}, 2]: the iterates close on its end at "
                    f"{0.5 * (lo + hi):.6g} at reduced temperature {t!r}"
                )
            mu = 0.5 * (lo + hi)
    raise SolverError(
        f"particle-number equation did not converge at reduced temperature {t!r}: "
        f"last iterate {mu!r} on the bracket [{lo:.6g}, {hi:.6g}]"
    )


reduced_chemical_potential.cache_info = _reduced_chemical_potential.cache_info
reduced_chemical_potential.cache_clear = _reduced_chemical_potential.cache_clear


def chemical_potential(density: float, temperature: float, regime: GasRegime,
                       mode: MuMode = MuMode.EXACT_NORMALIZATION) -> float:
    """Chemical potential (J) of the gas at the given density and temperature."""
    _require_positive("density", density)
    _require_nonnegative("temperature", temperature)
    k_f = fermi_momentum_from_density(density)
    eps_f = fermi_energy(k_f, regime)
    if temperature == 0.0:
        return eps_f
    t = temperature / fermi_temperature(k_f, regime)
    return eps_f * reduced_chemical_potential(t, regime, mode)


# === gas state and validity ===


@dataclass(frozen=True)
class FermiGasState:
    """Uniform electron gas with its derived scales, all SI."""

    density: float
    temperature: float
    regime: GasRegime
    mu_mode: MuMode
    fermi_momentum: float
    fermi_energy: float
    fermi_temperature: float
    chemical_potential: float
    pressure: float
    degeneracy_ok: bool

    @classmethod
    def from_density(cls, density: float, temperature: float, regime: GasRegime,
                     mu_mode: MuMode = MuMode.EXACT_NORMALIZATION) -> "FermiGasState":
        _require_positive("density", density)
        _require_nonnegative("temperature", temperature)
        k_f = fermi_momentum_from_density(density)
        t_f = fermi_temperature(k_f, regime)
        return cls(
            density=float(density),
            temperature=float(temperature),
            regime=regime,
            mu_mode=mu_mode,
            fermi_momentum=k_f,
            fermi_energy=fermi_energy(k_f, regime),
            fermi_temperature=t_f,
            chemical_potential=chemical_potential(density, temperature, regime, mu_mode),
            pressure=pressure_from_density(density, regime),
            degeneracy_ok=bool(temperature <= 0.01 * t_f),
        )


@dataclass(frozen=True)
class ValidityReport:
    """Advisory flags plus the raw ratios they were derived from."""

    degenerate: bool
    ideal: bool
    t_over_tf: float
    density_ratio: float


def ideality_threshold_density(protons: float) -> float:
    """Density scale (1/m^3) above which Coulomb coupling is negligible.

    (q^2 m / (4 pi eps0 hbar^2))^3 Z^2 in SI, i.e. Z^2 per cubic Bohr radius.
    """
    if not (protons >= 1):
        raise DomainError(f"proton number must be at least 1, got {protons!r}")
    c = constants()
    coulomb = c.elementary_charge ** 2 / (4.0 * math.pi * c.vacuum_permittivity)
    return (coulomb * c.electron_mass / c.hbar ** 2) ** 3 * protons ** 2


def _validity_from_ratios(temperature: float, fermi_temp: float, density: float, protons: float) -> ValidityReport:
    t_over_tf = temperature / fermi_temp
    density_ratio = density / ideality_threshold_density(protons)
    return ValidityReport(
        degenerate=bool(t_over_tf <= 0.01),
        ideal=bool(density_ratio >= 100.0),
        t_over_tf=t_over_tf,
        density_ratio=density_ratio,
    )


def validity(state: FermiGasState, protons: float) -> ValidityReport:
    """Degeneracy and ideality checks for a gas state with nuclear charge ``protons``.

    Flags are advisory (degenerate iff T/T_F <= 0.01, ideal iff the
    density exceeds 100x the Coulomb threshold); the raw ratios are
    always reported so callers can apply their own cutoffs.
    """
    return _validity_from_ratios(state.temperature, state.fermi_temperature, state.density, protons)
