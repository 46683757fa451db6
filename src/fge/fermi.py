"""Fermi-gas bookkeeping for a uniform electron gas.

Fermi momentum/energy/temperature, degeneracy pressure, and the
conversions among density, pressure, and the pair-correlation distance,
for both dispersion regimes, in SI units; and the degeneracy and
ideality flags of a gas.

The thermal routines are in reduced form only (u = k/k_F, t = T/T_F,
mu_tilde = mu/eps_F), because every dimensional state with the same
reduced coordinates shares one dimensionless solve: the occupancy, the
chemical potential and the Fermi-kernel rules, the backbone of the
exchange-amplitude module.
"""

import cmath
import math
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .constants import constants
from .errors import DomainError, QuadratureError, SolverError
from .quadrature import composite_gauss, gauss_legendre

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
# the level-0 edges in s of a window centred at s = 0 that the band bottom
# does not cut, spelled as ``_kernel_panels`` computes them
_S_EDGES = np.concatenate((0.0 - _KERNEL_OFFSETS[::-1], 0.0 + _KERNEL_OFFSETS[1:]))
# Gauss-Legendre orders of the kernel rule and of its comparison rule
_ORDER_HI, _ORDER_LO = 12, 6
# largest phase x * (panel width in u) of f0(x u) over one panel, in radians
_PHASE_PER_PANEL = 1.0
# most nodes one kernel rule may have (x t >> 1 needs many to resolve f0(x u))
_MAX_KERNEL_NODES = 2 ** 20
# most nodes, of both orders, the cached kernel rules may hold together (48 MiB)
_MAX_CACHED_NODES = 2 ** 21
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
    return _fermi_energy(fermi_momentum, regime)


def _fermi_energy(fermi_momentum, regime: GasRegime):
    """``fermi_energy`` of a Fermi momentum already known to be finite and positive."""
    c = constants()
    if regime is GasRegime.NONRELATIVISTIC:
        return _pow(c.hbar * fermi_momentum, 2.0) / (2.0 * c.electron_mass)
    return c.hbar * c.light_speed * fermi_momentum


def fermi_temperature(fermi_momentum: float, regime: GasRegime) -> float:
    """Degeneracy temperature scale (K) for the given Fermi wavevector."""
    _require_positive("fermi momentum", fermi_momentum)
    return _fermi_temperature(fermi_momentum, regime)


def _fermi_temperature(fermi_momentum, regime: GasRegime):
    """``fermi_temperature`` of a Fermi momentum already known to be finite and positive."""
    return _fermi_energy(fermi_momentum, regime) / constants().boltzmann


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
    return _fermi_momentum_from_pressure(pressure, regime)


def _fermi_momentum_from_pressure(pressure, regime: GasRegime):
    """``fermi_momentum_from_pressure`` of a pressure already known to be finite and positive."""
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
    arrays = [np.asarray(v, dtype=float) for v in (separation, pressure, temperature)]
    try:
        shape = np.broadcast(*arrays).shape
    except ValueError:
        raise DomainError(
            "separation, pressure and temperature must broadcast together, got shapes "
            f"{np.shape(separation)}, {np.shape(pressure)} and {np.shape(temperature)}"
        ) from None
    # flat 1-d arrays, so that every operation below returns an array
    r, p, temp = (a.reshape(-1) if a.shape == shape else np.broadcast_to(a, shape).reshape(-1)
                  for a in arrays)
    with np.errstate(all="ignore"):
        k_f = _fermi_momentum_from_pressure(p, regime)
        x = k_f * r
        t = temp / _fermi_temperature(k_f, regime)
    # five reductions prove every input good: a NaN, infinite or
    # nonpositive pressure leaves k_F NaN, infinite or 0, and an infinite r,
    # k_F or T leaves x or t infinite.  Only a failure looks for the input
    # to name, in the order of the checks
    if not (r.min(initial=1.0) > 0 and k_f.min(initial=1.0) > 0 and temp.min(initial=0.0) >= 0
            and x.max(initial=0.0) < math.inf and t.max(initial=0.0) < math.inf):
        _require_all("separation", r, (r > 0) & (r < math.inf), "be finite and positive")
        _require_all("pressure", p, (p > 0) & (p < math.inf), "be finite and positive")
        _require_all("temperature", temp, (temp >= 0) & (temp < math.inf),
                     "be finite and nonnegative")
        _require_all("pressure", p, (k_f > 0) & (k_f < math.inf),
                     "give a positive, finite Fermi momentum")
        _require_all("separation", r, x < math.inf, "be small enough for a finite k_F r")
        _require_all("temperature", temp, t < math.inf, "be small enough for a finite T/T_F")
    return tuple(a.reshape(shape) for a in (r, p, temp, k_f, x, t))


# === occupancy ===


def _stable_fermi_factor(argument: np.ndarray) -> np.ndarray:
    # 1/(exp(a)+1) without overflow: exponentiate only negative arguments
    decay = np.exp(-np.abs(argument))
    return np.where(argument > 0, decay / (1.0 + decay), 1.0 / (1.0 + decay))


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
    return s_edges, u_edges, _spaced_in_u(mu_tilde, t, regime)


def _spaced_in_u(mu_tilde: float, t: float, regime: GasRegime) -> bool:
    """Whether the nonrelativistic band bottom s = -mu/t lies inside the kernel window."""
    return regime is GasRegime.NONRELATIVISTIC and -mu_tilde / t > -_THERMAL_DECADES


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


@lru_cache(maxsize=16)
def _s_table(order: int, pieces: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes z and weights dz k(z) of the ``order``-point rule on _S_EDGES, each panel cut into ``pieces``.

    Neither depends on t: every rule spaced in s whose window starts at or
    below the kernel centre is a slice of this table (``_s_nodes``).
    """
    z, dz = composite_gauss(_S_EDGES, pieces, order)
    weights = dz * _kernel_density(z)
    for array in (z, weights):
        array.flags.writeable = False  # every caller of the cache shares them
    return z, weights


def _s_nodes(s_first: float, pieces: int, orders: tuple) -> tuple[np.ndarray, np.ndarray]:
    """``_s_table`` of each order in turn on the level-0 panels from ``s_first`` (-45 <= s_first <= 0) to 45.

    The panels are those of ``_kernel_panels`` for mu_tilde >= 0: the fixed
    edges above ``s_first``, and a partial first panel from ``s_first`` to
    the next of them unless ``s_first`` is itself an edge.  Only that panel
    is computed, by ``composite_gauss``'s formula, so the nodes and weights
    are the bits ``composite_gauss`` gives on those panels.
    """
    above = int(np.searchsorted(_S_EDGES, s_first, side="right"))
    whole = bool(_S_EDGES[above - 1] == s_first)
    if not whole:
        half = 0.5 * (_S_EDGES[above] - s_first) / pieces
        mid = s_first + (2 * np.arange(pieces) + 1) * half
    nodes, weights = [], []
    for order in orders:
        if not whole:
            y, w = gauss_legendre(order)
            z = (mid[:, None] + half * y).ravel()
            nodes.append(z)
            weights.append(np.tile(half * w, pieces) * _kernel_density(z))
        start = (above - whole) * pieces * order
        table_nodes, table_weights = _s_table(order, pieces)
        nodes.append(table_nodes[start:])
        weights.append(table_weights[start:])
    return np.concatenate(nodes), np.concatenate(weights)


@lru_cache(maxsize=CACHE_SIZE)
def _kernel_widths(mu_tilde: float, t: float, regime: GasRegime) -> tuple:
    """Widths in u of the level-0 panels, the pieces each needs whatever x is, and the panels.

    With nodes spaced in u the pieces are ``_pole_pieces``; otherwise one
    piece per panel suffices.  The panels are what ``_kernel_panels``
    returns, kept for the rules built on them.
    """
    panels = _kernel_panels(mu_tilde, t, regime)
    _, u_edges, in_u = panels
    widths = np.diff(u_edges)
    floor = _pole_pieces(mu_tilde, t, u_edges) if in_u else np.zeros_like(widths)
    for array in (widths, floor, *panels[:2]):
        array.flags.writeable = False  # every caller of the cache shares them
    return widths, floor, panels


def _kernel_splits(mu_tilde: float, t: float, regime: GasRegime, x_max: float,
                   level: int = 0) -> np.ndarray:
    """Pieces each level-0 panel is cut into so that the rule resolves f0(x u), x <= x_max.

    A piece spans at most _PHASE_PER_PANEL radians of f0(x_max u), and no
    fewer pieces than ``_kernel_widths`` asks for near the kernel pole.
    Each level then halves every piece.
    """
    widths, floor, _ = _kernel_widths(mu_tilde, t, regime)
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


def _u_weights(u: np.ndarray, dz: np.ndarray, mu_tilde: float, t: float) -> np.ndarray:
    """Weights u^3 k(s) ds of nodes u spaced in u with widths dz (nonrelativistic)."""
    return dz * _kernel_density((u * u - mu_tilde) / t) * (2.0 * u / t) * u ** 3


def _kernel_nodes(mu_tilde: float, t: float, regime: GasRegime, splits, order,
                  panels: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u_j and weights u_j^3 k(s_j) ds of an ``order``-point rule (or rules).

    Panel p of the level-0 panels (what ``_kernel_panels`` returns for
    (mu_tilde, t, regime), built here unless ``panels`` holds them) is cut
    into ``splits[p]`` equal pieces.  A tuple of orders gives each rule on
    the same pieces, one after another, and maps all their nodes from s to
    u at once.  Spaced in s with mu_tilde >= 0 and the same pieces in every
    panel, the nodes and weights in s are slices of ``_s_table`` and only
    the map to u is per temperature.
    """
    orders = order if isinstance(order, tuple) else (order,)
    counts = np.asarray(splits)
    if not _spaced_in_u(mu_tilde, t, regime) and mu_tilde >= 0.0 and counts.min() == counts.max():
        z, weights = _s_nodes(max(-mu_tilde / t, -_THERMAL_DECADES), int(counts.flat[0]), orders)
        u = _kernel_u(mu_tilde + t * z, regime)
        return u, weights * u ** 3
    s_edges, u_edges, in_u = panels or _kernel_panels(mu_tilde, t, regime)
    z, dz = composite_gauss(u_edges if in_u else s_edges, splits, order)
    if in_u:
        return z, _u_weights(z, dz, mu_tilde, t)
    u = _kernel_u(mu_tilde + t * z, regime)
    return u, dz * _kernel_density(z) * u ** 3


_RuleCacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize nodes max_nodes")


class _RuleCache:
    """Least-recently-used cache of ``KernelRule``s, bounded by entries and by their total nodes.

    A few wide rules at high t can hold far more memory than hundreds of
    narrow ones, so besides ``maxsize`` entries the cache holds at most
    ``max_nodes`` nodes; the least recently used rules go first.  ``mark``
    and ``drop_since`` let a computation that fails forget the rules it
    built.  ``cache_info`` and ``cache_clear`` follow ``functools.lru_cache``.
    """

    def __init__(self, build, maxsize: int, max_nodes: int):
        self.__wrapped__ = build
        self.maxsize, self.max_nodes = maxsize, max_nodes
        self._rules: OrderedDict = OrderedDict()
        self._nodes = self._built = self.hits = self.misses = 0

    def __call__(self, mu_tilde: float, t: float, regime: GasRegime, splits: bytes) -> KernelRule:
        key = (mu_tilde, t, regime, splits)
        entry = self._rules.get(key)
        if entry is not None:
            self.hits += 1
            self._rules.move_to_end(key)
            return entry[0]
        self.misses += 1
        rule = self.__wrapped__(mu_tilde, t, regime, splits)
        self._rules[key] = (rule, self._built)
        self._built += 1
        self._nodes += len(rule.nodes)
        while len(self._rules) > self.maxsize or self._nodes > self.max_nodes:
            self._nodes -= len(self._rules.popitem(last=False)[1][0].nodes)
        return rule

    def mark(self) -> int:
        """A token for ``drop_since``: the count of rules built so far."""
        return self._built

    def drop_since(self, mark: int) -> None:
        """Forget every cached rule built after ``mark`` was taken."""
        for key in [key for key, (_, built) in self._rules.items() if built >= mark]:
            self._nodes -= len(self._rules.pop(key)[0].nodes)

    def cache_info(self) -> _RuleCacheInfo:
        return _RuleCacheInfo(self.hits, self.misses, self.maxsize, len(self._rules),
                              self._nodes, self.max_nodes)

    def cache_clear(self) -> None:
        self._rules.clear()
        self._nodes = self.hits = self.misses = 0


def _build_kernel_rule(mu_tilde: float, t: float, regime: GasRegime, splits: bytes) -> KernelRule:
    """The rule of ``kernel_rule`` on level-0 panels cut into ``splits`` (int64 bytes) pieces.

    Both orders come from one panel and piece geometry: the nodes of the
    rule and then those of its companion go through the s -> u map, the
    kernel density and the u^3 factor together.
    """
    counts = np.frombuffer(splits, dtype=np.int64)
    nodes, both = _kernel_nodes(mu_tilde, t, regime, counts, (_ORDER_HI, _ORDER_LO),
                                _kernel_widths(mu_tilde, t, regime)[2])
    n_hi = int(counts.sum()) * _ORDER_HI
    weights = np.zeros((len(nodes), 2))
    weights[:n_hi, 0] = both[:n_hi]
    weights[n_hi:, 1] = both[n_hi:]
    for array in (nodes, weights):
        array.flags.writeable = False  # every caller of the cache shares them
    return KernelRule(nodes, weights)


_cached_kernel_rule = _RuleCache(_build_kernel_rule, CACHE_SIZE, _MAX_CACHED_NODES)


def kernel_rule(mu_tilde: float, t: float, regime: GasRegime, x_max: float = 0.0,
                level: int = 0) -> KernelRule:
    """Fermi-kernel rule at (mu_tilde, t), resolving f0(x u) for every x up to ``x_max``.

    Level 0 has up to 28 graded panels: unit width across the kernel bump,
    whose poles sit at s = +-i pi, and widening where the kernel has
    decayed.  ``_kernel_splits`` cuts them to resolve the oscillation of
    f0(x u), and every further level halves all pieces.  A rule spaced in
    s is a slice of the t-independent ``_s_table`` when every panel has the
    same pieces, so only its map to u is computed.  Rules are cached, at
    most CACHE_SIZE of them and _MAX_CACHED_NODES nodes in all; one that
    would exceed _MAX_KERNEL_NODES raises ``QuadratureError``.
    """
    splits = _kernel_splits(mu_tilde, t, regime, x_max, level)
    return _cached_kernel_rule(mu_tilde, t, regime, splits.tobytes())


# === chemical potential ===


def _number_and_slope(mu_tilde: float, t: float, regime: GasRegime,
                      grid: tuple | None = None) -> tuple[float, float, tuple | None]:
    """Particle-number integral int_0^inf u^2 n(u) du, its mu-derivative, and the u-grid used.

    Both are sums over the nodes of the level-0 kernel rule for x = 0, at
    order _ORDER_HI: one piece per panel where the nodes are spaced in s,
    else ``_pole_pieces`` rounded up.  Spaced in s they come from the
    t-independent ``_s_table`` (for mu_tilde >= 0), so only u(mu + t s)
    and u^3 are computed.  Spaced in u, the nodes and widths of ``grid``,
    the u-grid a previous Newton iterate returned, are kept and only the
    kernel weights are new; without one the grid is built and returned
    (None when the nodes are spaced in s).  Nothing is cached, because
    every Newton iterate of mu is a new key.
    """
    if _spaced_in_u(mu_tilde, t, regime):
        if grid is None:
            _, u_edges, _ = _kernel_panels(mu_tilde, t, regime)
            splits = np.maximum(np.ceil(_pole_pieces(mu_tilde, t, u_edges)), 1.0).astype(np.int64)
            grid = composite_gauss(u_edges, splits, _ORDER_HI)
        u = grid[0]
        weights = _u_weights(u, grid[1], mu_tilde, t)
    else:
        grid = None
        u, weights = _kernel_nodes(mu_tilde, t, regime, 1, _ORDER_HI)
    # int u^2 n du = (1/3) int u^3 (-dn/du) du; d/dmu brings k(s)/t = k(s) ds/du / d'(u)
    slope_factor = 0.5 / (u * u) if regime is GasRegime.NONRELATIVISTIC else 1.0 / u
    return float(weights.sum()) / 3.0, float(weights @ slope_factor), grid


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
    its mu-derivative come from the same Fermi-kernel nodes, and every
    iterate uses one node set: spaced in s it is the t-independent table
    of ``_s_table`` mapped to u, spaced in u (nonrelativistic, band bottom
    inside the kernel window) it is the first iterate's u-grid, rebuilt
    only when the spacing changes or a bisection step jumps.  Each iterate
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
    grid = None
    for _ in range(_MU_ITERATIONS):
        with np.errstate(over="ignore", invalid="ignore"):
            number, slope, grid = _number_and_slope(mu, t, regime, grid)
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
            grid = None  # the jump may leave the kept u-grid's kernel window
    raise SolverError(
        f"particle-number equation did not converge at reduced temperature {t!r}: "
        f"last iterate {mu!r} on the bracket [{lo:.6g}, {hi:.6g}]"
    )


reduced_chemical_potential.cache_info = _reduced_chemical_potential.cache_info
reduced_chemical_potential.cache_clear = _reduced_chemical_potential.cache_clear


# === validity ===


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

