"""Fermi-gas bookkeeping for a uniform electron gas.

Fermi momentum/energy/temperature, degeneracy pressure, and the
conversions among density, pressure, and the pair-correlation distance,
for both dispersion regimes, in SI units; and the degeneracy and
ideality flags of a gas.

The thermal routines are in reduced form only (u = k/k_F, t = T/T_F,
mu_tilde = mu/eps_F), because every dimensional state with the same
reduced coordinates shares one dimensionless solve: the occupancy, the
chemical potential, the nonrelativistic Fermi-kernel rules (QUADPACK's
15-point Kronrod rule and its 7-point Gauss rule on graded panels in the
kernel variable) and the alternating sums of the relativistic closed
form, the backbone of the exchange-amplitude module.  The relativistic
chemical potential is the root of a closed-form identity; the
nonrelativistic one is the root of the Sommerfeld series in the
degenerate gas, then of the sum over the Matsubara poles
(``matsubara``), and is solved on the kernel rule at the hot end left.
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
from .degenerate import _TOL_MIN, _sommerfeld_bound, _sommerfeld_log_number
from .matsubara import _pole_floor, _pole_log_number, _polynomial
from .quadrature import QK15_NODES, composite_kronrod

THREE_PI_SQ = 3.0 * math.pi ** 2

# maxsize of every per-temperature cache: chemical potential, distance
# constant, kernel rules (a few rules per temperature) and panel widths
CACHE_SIZE = 1024
# e-foldings of occupancy decay kept before the integration range is truncated
_THERMAL_DECADES = 45.0
# offsets in s of the level-0 kernel panel edges from the kernel centre
_KERNEL_OFFSETS = np.array(
    [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 13.0, 17.0, 22.0, 29.0, 37.0, _THERMAL_DECADES]
)
# the band bottom s = -mu/t may lie at most this far above the kernel
# centre: the panel edges, whole offsets in s from it, map to d = mu + t s
# with an error of up to 2^-53 |mu| each, which must stay well below their
# spacing t (they stop increasing in u from about 2^52)
_BAND_BOTTOM_MAX = 2.0 ** 50
# largest u at the top of a kernel window: every weight is at most u^3,
# and every sum of weights and gap between two sums at most 2 u^3, finite
_KERNEL_U_MAX = (np.finfo(float).max / 4.0) ** (1.0 / 3.0)
# largest phase x * (panel width in u) of f0(x u) over one panel, in radians
_PHASE_PER_PANEL = 1.0
# most nodes one kernel rule may have (x t >> 1 needs many to resolve f0(x u))
_MAX_KERNEL_NODES = 2 ** 20
# most nodes the cached kernel rules may hold together (48 MiB)
_MAX_CACHED_NODES = 2 ** 21
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


def _require_member(name: str, value, kind: type[Enum]) -> None:
    """Raise a DomainError naming ``name`` unless ``value`` is a member of the enum ``kind``.

    Every branch on a regime or a mode tests a member by identity, so any
    other value, a string such as "nonrel" among them, would silently take
    the other branch.  No other value is coerced to a member.
    """
    if not isinstance(value, kind):
        raise DomainError(f"{name} must be a {kind.__name__} member, got {value!r}")


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
    _require_member("regime", regime, GasRegime)
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
    _require_member("regime", regime, GasRegime)
    return _fermi_temperature(fermi_momentum, regime)


def _fermi_temperature(fermi_momentum, regime: GasRegime):
    """``fermi_temperature`` of a Fermi momentum already known to be finite and positive."""
    return _fermi_energy(fermi_momentum, regime) / constants().boltzmann


def pressure_from_density(density: float, regime: GasRegime) -> float:
    """Degeneracy pressure (Pa) of the ground-state gas at the given density."""
    _require_positive("density", density)
    _require_member("regime", regime, GasRegime)
    c = constants()
    if regime is GasRegime.NONRELATIVISTIC:
        return THREE_PI_SQ ** (2.0 / 3.0) * c.hbar ** 2 * density ** (5.0 / 3.0) / (5.0 * c.electron_mass)
    return THREE_PI_SQ ** (1.0 / 3.0) * c.hbar * c.light_speed * density ** (4.0 / 3.0) / 4.0


def fermi_momentum_from_pressure(pressure: float, regime: GasRegime) -> float:
    """Fermi wavevector (1/m) of the gas exerting the given degeneracy pressure (Pa)."""
    _require_positive("pressure", pressure)
    _require_member("regime", regime, GasRegime)
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
    _require_member("regime", regime, GasRegime)
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
    _require_member("regime", regime, GasRegime)
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
        # x and t are the rows of one array, so that one reduction bounds both
        x_and_t = np.empty((2, r.size))
        x = np.multiply(k_f, r, out=x_and_t[0])
        t = np.divide(temp, _fermi_temperature(k_f, regime), out=x_and_t[1])
    # three reductions prove every input good.  k_F is a root of a multiple
    # of P, so NaN or nonnegative: a positive x = k_F r has r and k_F
    # positive, and a finite one both finite.  A NaN, infinite or
    # nonpositive pressure leaves k_F NaN, infinite or 0, and an infinite T
    # leaves t infinite or NaN.  An x that underflows to 0 fails the proof
    # without failing a check.  Only a failure looks for the input to name,
    # in the order of the checks
    if not (x.min(initial=1.0) > 0 and temp.min(initial=0.0) >= 0
            and x_and_t.max(initial=0.0) < math.inf):
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


def reduced_occupancy(u, mu_tilde: float, t: float, regime: GasRegime):
    """Occupancy in reduced variables, n(u) = 1/(exp((d(u) - mu_tilde)/t) + 1).

    The dispersion is d(u) = u^2 nonrelativistic and u relativistic, with
    u = k/k_F.  A DomainError names t unless it is finite and nonnegative,
    mu_tilde unless finite, and the momenta u unless all nonnegative.  At
    t = 0 n is the step, 1/2 at d(u) = mu_tilde.
    """
    _require_member("regime", regime, GasRegime)
    if not (0.0 <= t < math.inf):
        raise DomainError(f"reduced temperature must be finite and nonnegative, got {t!r}")
    if not math.isfinite(mu_tilde):
        raise DomainError(f"reduced chemical potential must be finite, got {mu_tilde!r}")
    u = np.asarray(u, dtype=float)
    if not (u.min(initial=0.0) >= 0.0):
        _require_all("reduced momentum", u, u >= 0.0, "be nonnegative")
    # an energy or argument that overflows to inf gives the occupancy's limit
    with np.errstate(over="ignore"):
        d = u * u if regime is GasRegime.NONRELATIVISTIC else u
        if t == 0.0:
            return np.where(d < mu_tilde, 1.0, np.where(d == mu_tilde, 0.5, 0.0))
        return _stable_fermi_factor((d - mu_tilde) / t)


def occupancy_cutoff(mu_tilde: float, t: float, regime: GasRegime) -> float:
    """Reduced wavevector beyond which the occupancy has decayed below ~3e-20."""
    d_max = max(max(mu_tilde, 0.0) + _THERMAL_DECADES * t, 1e-12)
    if regime is GasRegime.NONRELATIVISTIC:
        return math.sqrt(d_max)
    return d_max


# === Fermi-kernel quadrature rule (nonrelativistic) ===
#
# Integrating by parts, every thermal integral of this package takes the
# form int u^3 g(u) (-dn/du) du: the occupancy enters only through the
# logistic kernel -dn/du = k(s) ds/du, k(s) = e^s/(1+e^s)^2, in the variable
# s = (u^2 - mu_tilde)/t.  In s the kernel is the same bump for every t, so
# one fixed composite Kronrod rule in s serves every temperature.  The
# relativistic integrals have closed forms instead (``_relativistic_number``
# and ``exchange._relativistic_sum``), and no rule is built for them.


@dataclass(frozen=True, eq=False)
class KernelRule:
    """A composite Kronrod rule, int u^3 g(u) (-dn/du) du ~ sum_j weights[j, c] g(nodes_j).

    Column c = 0 of ``weights`` is the 15-point Kronrod rule on every
    piece, column 1 the 7-point Gauss rule on the same nodes (0 at each
    piece's 8 Kronrod-only nodes), so one evaluation of g serves both sums
    and their gap is the error estimate.  Column 0 is positive and the
    nodes are nondecreasing over the whole rule.
    """

    nodes: np.ndarray
    weights: np.ndarray


def _kernel_density(s: np.ndarray) -> np.ndarray:
    decay = np.exp(-np.abs(s))
    return decay / (1.0 + decay) ** 2


def _kernel_panels(mu_tilde: float, t: float):
    """Panel edges of the level-0 rule in s and in u, and whether nodes are spaced in u.

    The window is s in [max(s_lo, -45), max(s_lo, 0) + 45], with s_lo = -mu/t
    the band bottom u = 0, so the kernel is cut where it is below e^-45.
    u(s) = sqrt(mu + t s) has a branch point at s_lo; when s_lo lies inside
    the window the nodes are spaced in u instead.
    """
    s_lo = -mu_tilde / t
    s_first = max(s_lo, -_THERMAL_DECADES)
    centre = max(s_lo, 0.0)
    left = centre - _KERNEL_OFFSETS[::-1]
    s_edges = np.concatenate(([s_first], left[left > s_first], centre + _KERNEL_OFFSETS[1:]))
    u_edges = _kernel_u(mu_tilde + t * s_edges)
    return s_edges, u_edges, _spaced_in_u(mu_tilde, t)


def _require_kernel_window(mu_tilde: float, t: float) -> None:
    """Raise a DomainError naming mu_tilde unless the kernel window at (mu_tilde, t) has a rule.

    The window's panel edges stay increasing while mu_tilde >= -2^50 t,
    and its weights u^3 k(s) ds and their sums stay finite while the top
    of the window, u = sqrt(max(mu_tilde, 0) + 45 t), is at most
    _KERNEL_U_MAX (about 3.5e102).
    """
    if not (mu_tilde >= -_BAND_BOTTOM_MAX * t):
        raise DomainError(
            f"reduced chemical potential must be at least -2^50 t = {-_BAND_BOTTOM_MAX * t!r} "
            f"at reduced temperature {t!r}, got {mu_tilde!r}: the kernel window's panel "
            "edges stop increasing"
        )
    u_top = math.sqrt(max(mu_tilde, 0.0) + _THERMAL_DECADES * t)
    if not (u_top <= _KERNEL_U_MAX):
        raise DomainError(
            f"reduced chemical potential {mu_tilde!r} at reduced temperature {t!r} puts the "
            f"kernel window's top at u = {u_top:.3g}, above {_KERNEL_U_MAX:.3g}, where the "
            "weights u^3 overflow"
        )


def _spaced_in_u(mu_tilde: float, t: float) -> bool:
    """Whether the band bottom s = -mu/t lies inside the kernel window."""
    return -mu_tilde / t > -_THERMAL_DECADES


def _kernel_u(d: np.ndarray) -> np.ndarray:
    """Inverse reduced dispersion u(d) = sqrt(d), clipped at the band bottom."""
    return np.sqrt(np.maximum(d, 0.0))


def _pole_pieces(mu_tilde: float, t: float, u_edges: np.ndarray) -> np.ndarray:
    """Pieces (float, whole, at least 1) each level-0 panel spaced in u needs whatever x is.

    A piece is at most 1/pi of its distance to the kernel pole
    u = sqrt(mu + i pi t), the ratio that unit panels have to the poles
    s = +-i pi in s.
    """
    pole = cmath.sqrt(complex(mu_tilde, math.pi * t))
    nearest = np.clip(pole.real, u_edges[:-1], u_edges[1:])
    return np.maximum(np.ceil(math.pi * np.diff(u_edges) / np.abs(pole - nearest)), 1.0)


@lru_cache(maxsize=CACHE_SIZE)
def _kernel_widths(mu_tilde: float, t: float) -> tuple:
    """Widths in u of the level-0 panels, the pieces each needs whatever x is, the panels, and x_least and those pieces' bytes.

    With nodes spaced in u the least pieces are ``_pole_pieces``;
    otherwise one piece per panel suffices.  The panels are what
    ``_kernel_panels`` returns, kept for the rules built on them.  Up to
    x_least = (1 - 1e-12) min_p least_p _PHASE_PER_PANEL / w_p every
    phase x w_p / _PHASE_PER_PANEL, rounding included, is within its
    least pieces, so their int64 bytes are the level-0 splits of every
    such x.  A panel of zero width bounds nothing, and x_least stays
    finite, so that an infinite x meets the node cap.
    """
    panels = _kernel_panels(mu_tilde, t)
    _, u_edges, in_u = panels
    widths = np.diff(u_edges)
    least = _pole_pieces(mu_tilde, t, u_edges) if in_u else np.ones_like(widths)
    for array in (widths, least, *panels[:2]):
        array.flags.writeable = False  # every caller of the cache shares them
    with np.errstate(divide="ignore"):
        reach = least * _PHASE_PER_PANEL / widths
    x_least = (1.0 - 1e-12) * float(reach.min(initial=np.finfo(float).max))
    return widths, least, panels, x_least, least.astype(np.int64).tobytes()


def _kernel_splits(mu_tilde: float, t: float, x_max: float, level: int = 0) -> np.ndarray:
    """Pieces each level-0 panel is cut into so that the rule resolves f0(x u), x <= x_max.

    A piece spans at most _PHASE_PER_PANEL radians of f0(x_max u), and a
    panel has at least its least pieces; every level halves each piece.
    A rule of more than _MAX_KERNEL_NODES nodes raises ``QuadratureError``.
    """
    widths, least = _kernel_widths(mu_tilde, t)[:2]
    # a huge x_max takes the phases, or their sum, to inf, which the node cap rejects
    with np.errstate(over="ignore"):
        pieces = np.maximum(np.ceil(x_max * widths / _PHASE_PER_PANEL), least) * 2.0 ** level
        nodes = float(pieces.sum()) * QK15_NODES.size
    if not (nodes <= _MAX_KERNEL_NODES):
        raise QuadratureError(
            f"the kernel rule at t={t!r} would need {nodes:.3g} nodes to resolve "
            f"f0(x u) up to x={x_max!r} at level {level}, more than {_MAX_KERNEL_NODES}",
            error_estimate=math.inf,
        )
    return pieces.astype(np.int64)


def _u_density(u: np.ndarray, mu_tilde: float, t: float) -> np.ndarray:
    """u^3 k(s) ds/du at nodes u spaced in u (nonrelativistic), the factor of their widths dz."""
    return _kernel_density((u * u - mu_tilde) / t) * (2.0 * u / t) * u ** 3


def _kernel_nodes(mu_tilde: float, t: float, splits,
                  panels: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u_j and weight columns u_j^3 k(s_j) ds of the composite Kronrod rule.

    Panel p of the level-0 panels (what ``_kernel_panels`` returns for
    (mu_tilde, t), built here unless ``panels`` holds them) is cut
    into ``splits[p]`` equal pieces.
    """
    s_edges, u_edges, in_u = panels or _kernel_panels(mu_tilde, t)
    z, dz = composite_kronrod(u_edges if in_u else s_edges, splits)
    if in_u:
        return z, dz * _u_density(z, mu_tilde, t)[:, None]
    u = _kernel_u(mu_tilde + t * z)
    return u, dz * _kernel_density(z)[:, None] * (u ** 3)[:, None]


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

    def __call__(self, mu_tilde: float, t: float, splits: bytes) -> KernelRule:
        key = (mu_tilde, t, splits)
        entry = self._rules.get(key)
        if entry is not None:
            self.hits += 1
            self._rules.move_to_end(key)
            return entry[0]
        self.misses += 1
        rule = self.__wrapped__(mu_tilde, t, splits)
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


def _build_kernel_rule(mu_tilde: float, t: float, splits: bytes) -> KernelRule:
    """The rule of ``kernel_rule`` on level-0 panels cut into ``splits`` (int64 bytes) pieces."""
    nodes, weights = _kernel_nodes(mu_tilde, t, np.frombuffer(splits, dtype=np.int64),
                                   _kernel_widths(mu_tilde, t)[2])
    for array in (nodes, weights):
        array.flags.writeable = False  # every caller of the cache shares them
    return KernelRule(nodes, weights)


_cached_kernel_rule = _RuleCache(_build_kernel_rule, CACHE_SIZE, _MAX_CACHED_NODES)


def kernel_rule(mu_tilde: float, t: float, x_max: float = 0.0, level: int = 0) -> KernelRule:
    """Fermi-kernel rule at (mu_tilde, t), resolving f0(x u) for every x up to ``x_max``.

    Level 0 has up to 28 graded panels: unit width across the kernel bump,
    whose poles sit at s = +-i pi, and widening where the kernel has
    decayed.  ``_kernel_splits`` cuts them to resolve the oscillation of
    f0(x u), and every further level halves all pieces.  At level 0 an
    x_max up to the ``_kernel_widths`` entry's x_least needs only each
    panel's least pieces, whose bytes that entry holds, so such a fetch
    computes no splits; the least pieces, 35 at most, are far below the
    node cap.  Rules are cached, at most CACHE_SIZE of them
    and _MAX_CACHED_NODES nodes in all; one that would exceed
    _MAX_KERNEL_NODES raises ``QuadratureError``.
    """
    x_least, key = _kernel_widths(mu_tilde, t)[3:]
    if not (level == 0 and x_max <= x_least):
        key = _kernel_splits(mu_tilde, t, x_max, level).tobytes()
    return _cached_kernel_rule(mu_tilde, t, key)


# === chemical potential ===


def _number_and_slope(mu_tilde: float, t: float,
                      grid: tuple | None = None) -> tuple[float, float, tuple | None]:
    """Nonrelativistic particle-number integral int_0^inf u^2 n(u) du, its mu-derivative, and the u-grid used.

    Both are sums over the Kronrod column of the level-0 kernel rule for
    x = 0: one piece per panel where the nodes are spaced in s, else
    ``_pole_pieces``.  Spaced in u, the nodes and Kronrod widths of ``grid``, the
    u-grid a previous Newton iterate returned, are kept and only the
    kernel weights are new; without one the grid is built and returned
    (None when the nodes are spaced in s).  Nothing is cached, because
    every Newton iterate of mu is a new key.
    """
    if _spaced_in_u(mu_tilde, t):
        if grid is None:
            _, u_edges, _ = _kernel_panels(mu_tilde, t)
            u, dz = composite_kronrod(u_edges, _pole_pieces(mu_tilde, t, u_edges).astype(np.int64))
            grid = u, dz[:, 0]
        u = grid[0]
        weights = grid[1] * _u_density(u, mu_tilde, t)
    else:
        grid = None
        u, weights = _kernel_nodes(mu_tilde, t, 1)
        weights = weights[:, 0]
    # int u^2 n du = (1/3) int u^3 (-dn/du) du; d/dmu brings k(s)/t = k(s) ds/du / (2 u)
    return float(weights.sum()) / 3.0, float(weights @ (0.5 / (u * u))), grid


# === relativistic closed form ===
#
# With d(u) = u the kernel -dn/du is a logistic density in u itself, so the
# thermal integrals of the relativistic gas are sums of elementary terms:
# the part of the density below the band bottom u = 0 expands in powers of
# z = exp(-|mu_tilde|/t), a series alternating in sign.  It is summed
# plainly where z <= 1/2, where its terms fall in size and the first one
# omitted bounds the rest, and elsewhere with the acceleration of Cohen,
# Rodriguez Villegas and Zagier (Experimental Math. 9, 2000, algorithm 1).

# terms of the accelerated sum; for the moments of a positive measure, the
# sums at x = 0, its error is at most this bound times the sum
_ACCELERATED_TERMS = 30
_ACCELERATED_BOUND = 2.0 / (3.0 + math.sqrt(8.0)) ** _ACCELERATED_TERMS
# the plain sum stops once z^n <= _PLAIN_TAIL: its terms start at 1 and fall,
# so the first one omitted, and with it the whole tail, is below rounding
_PLAIN_TAIL = 0.25 * np.finfo(float).eps
_PLAIN_TERMS = math.ceil(math.log(_PLAIN_TAIL) / math.log(0.5))
# the term indices k = 1, 2, ..., their powers k^2, 1/k^2 and 1/k^3, and the signs (-1)^(k+1)
_SERIES_K = np.arange(1.0, max(_PLAIN_TERMS, _ACCELERATED_TERMS) + 1.0)
_SERIES_K2 = _SERIES_K ** 2
_SERIES_INV_K2 = 1.0 / _SERIES_K2
_SERIES_INV_K3 = 1.0 / _SERIES_K ** 3
_SERIES_SIGNS = np.where(_SERIES_K % 2.0 == 1.0, 1.0, -1.0)
_LOG_6 = math.log(6.0)
# the nonrelativistic seed's switch, where both err by about 6e-4; Joyce and
# Dixon's A_4 ... A_1 of mu/t = log u + sum_m A_m u^m, u = (4/(3 sqrt(pi))) t^(-3/2)
_SEED_SWITCH = 0.2
_JOYCE_DIXON = (-4.42563e-6, 1.48386e-4, -4.95009e-3, 1.0 / math.sqrt(8.0))
_LOG_CLASSICAL_NUMBER = math.log(4.0 / (3.0 * math.sqrt(math.pi)))
# largest log of a term of the closed form (mu^3, pi^2 t^2 mu, 6 t^3 z): e^700
# leaves their sums room below the float maximum, e^709.8
_LOG_TERM_MAX = 700.0


def _accelerated_weights(terms: int) -> np.ndarray:
    """Weights w_k with sum_{k>=1} (-1)^(k+1) a_k ~ sum_{k<=terms} w_k a_k, signs included."""
    d = (3.0 + math.sqrt(8.0)) ** terms
    d = 0.5 * (d + 1.0 / d)
    b, c = -1.0, -d
    weights = np.empty(terms)
    for k in range(terms):
        c = b - c
        weights[k] = c / d
        b *= (k + terms) * (k - terms) / ((k + 0.5) * (k + 1.0))
    return weights


_ACCELERATED_WEIGHTS = _accelerated_weights(_ACCELERATED_TERMS)


def _alternating_weights(z: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Indices k, weights v_k and a bound for sums sum_{k>=1} (-1)^(k+1) z^(k-1) c_k, 0 <= z <= 1.

    The sum is approximated by sum_k v_k c_k.  Where z <= 1/2 the weights
    are the plain terms' (-1)^(k+1) z^(k-1), up to the first k with
    z^k <= _PLAIN_TAIL, and the bound is z^n, n the number of terms: for
    0 <= c_k <= c_1 <= 1 (the x = 0 sums) and for any c_k whose products
    z^(k-1) c_k fall in size, the tail is at most its first term, below
    z^n.  Elsewhere they are the accelerated weights times z^(k-1), and
    the bound, _ACCELERATED_BOUND, is relative to the sum of a positive
    measure's moments.
    """
    if z <= 0.5:
        terms = 1 if z == 0.0 else min(math.ceil(math.log(_PLAIN_TAIL) / math.log(z)), _PLAIN_TERMS)
        k = _SERIES_K[:terms]
        return k, _SERIES_SIGNS[:terms] * np.power(z, k - 1.0), z ** terms
    k = _SERIES_K[:_ACCELERATED_TERMS]
    return k, _ACCELERATED_WEIGHTS * np.power(z, k - 1.0), _ACCELERATED_BOUND


def _relativistic_number(mu_tilde: float, t: float) -> tuple[float, float]:
    """log N and d(log N)/dmu of the relativistic number N = 3 int u^2 n(u) du, N = 1 on shell.

    For mu_tilde > 0 the identity mu^3 + pi^2 t^2 mu - 6 t^3 Li_3(-z) = N
    holds with z = exp(-mu/t) (DLMF 25.12), and N' = 3 mu^2 + pi^2 t^2
    + 6 t^2 Li_2(-z); for mu_tilde <= 0, N = -6 t^3 Li_3(-z) with
    z = exp(mu/t), its continuation, and N' = -6 t^2 Li_2(-z).  The
    polylogarithms are the x = 0 sums of ``_alternating_weights``, skipped
    where their first term 6 z t^3 is below rounding of the cubic.  The
    prefactor 6 t^3 z is exp(log 6 + 3 log t - |mu|/t), and for mu_tilde
    <= 0 log N is that log plus the log of the sum, so no power of t is
    formed and the Boltzmann side stays finite at every finite t.  A
    DomainError names t where N itself would overflow.  Unlike
    ``_relativistic_terms`` it caches nothing, since every Newton iterate
    is a new mu.
    """
    eta = -abs(mu_tilde) / t
    log_b = _LOG_6 + 3.0 * math.log(t) + eta
    cubic = slope = 0.0
    if mu_tilde > 0.0:
        if log_b > _LOG_TERM_MAX:
            raise DomainError(
                f"reduced temperature {t!r} is too large: the particle-number integral "
                f"overflows at mu_tilde={mu_tilde!r}"
            )
        pi_t2 = (math.pi * t) ** 2
        cubic = mu_tilde * (mu_tilde * mu_tilde + pi_t2)
        slope = 3.0 * mu_tilde * mu_tilde + pi_t2
        b = math.exp(log_b)
        if b <= _PLAIN_TAIL * cubic:
            return math.log(cubic), slope / cubic
    k, weights, _ = _alternating_weights(math.exp(eta))
    q3 = float(weights @ _SERIES_INV_K3[:len(k)])
    q2 = float(weights @ _SERIES_INV_K2[:len(k)])
    if mu_tilde <= 0.0:
        return log_b + math.log(q3), q2 / (t * q3)
    number = cubic + b * q3
    return math.log(number), (slope - b * q2 / t) / number


@lru_cache(maxsize=CACHE_SIZE)
def _relativistic_terms(mu_tilde: float, t: float) -> tuple:
    """The relativistic closed form's constants at (mu_tilde, t > 0), cached per pair.

    Returns the cubic mu^3 + pi^2 t^2 mu (0 for mu_tilde <= 0), the
    prefactor 6 t^3 z, z = exp(-|mu|/t), as exp(log 6 + 3 log t - |mu|/t),
    the band-bottom sum's indices k, their squares and its weights
    (``_alternating_weights``), or None where its first term 6 t^3 z is
    below rounding of the cubic, and the sum's truncation bound, 6 t^3 z
    times the weights' bound (all of 6 t^3 z where it is skipped).  A
    DomainError names mu_tilde where mu^3, or t where t^3 (as 6 t^3 z or
    pi^2 t^2 mu), passes e^700, so that every sum and product of the
    closed form stays finite.
    """
    mu = max(mu_tilde, 0.0)
    log_b = _LOG_6 + 3.0 * math.log(t) - abs(mu_tilde) / t
    if mu > 0.0 and 3.0 * math.log(mu) > _LOG_TERM_MAX:
        raise DomainError(f"reduced chemical potential {mu_tilde!r} is too large for the "
                          "relativistic amplitude: mu_tilde^3 overflows")
    if log_b > _LOG_TERM_MAX or (mu > 0.0 and math.log(mu) + 2.0 * math.log(math.pi * t) > _LOG_TERM_MAX):
        raise DomainError(f"reduced temperature {t!r} is too large for the relativistic "
                          f"amplitude at reduced chemical potential {mu_tilde!r}: t^3 overflows")
    cubic = mu * (mu * mu + (math.pi * t) ** 2) if mu > 0.0 else 0.0
    b = math.exp(log_b)
    if mu > 0.0 and b <= _PLAIN_TAIL * cubic:
        return cubic, b, None, b
    k, weights, bound = _alternating_weights(math.exp(-abs(mu_tilde) / t))
    weights.flags.writeable = False  # every caller of the cache shares them
    return cubic, b, (k, _SERIES_K2[:len(k)], weights), b * bound


def _degenerate_mu(t: float, step_tol: float) -> float | None:
    """The nonrelativistic mu as a Newton root of the Sommerfeld particle number, or None.

    Newton steps on ``_sommerfeld_log_number`` from the Sommerfeld seed
    (``_log_number_root``), stopped as the kernel-rule solve's are.  None,
    and the pole sum or the kernel rule solves (``_pole_mu``), where the
    series' estimate at x = 0 and the seed exceeds the
    tightest amplitude tolerance _TOL_MIN: the seed is within (pi t)^6 of
    the root.
    """
    mu = _mu_seed(t, GasRegime.NONRELATIVISTIC)
    if _sommerfeld_bound(mu, t, _TOL_MIN) is None:
        return None
    return _log_number_root(_sommerfeld_log_number, mu, t, step_tol)


def _pole_mu(t: float, step_tol: float) -> float | None:
    """The nonrelativistic mu as a Newton root of the pole sum's particle number, or None.

    The evaluation at the seed also bounds the number there; None, and the
    kernel rule solves, where that bound or its floor exceeds _TOL_MIN.
    """
    mu = _mu_seed(t, GasRegime.NONRELATIVISTIC)
    if _pole_floor(mu, t) > _TOL_MIN:
        return None
    value, slope, err = _pole_log_number(mu, t, bound=True)
    return None if err > _TOL_MIN else _log_number_root(_pole_log_number, mu - value / slope, t, step_tol)


def _log_number_root(log_number, mu: float, t: float, step_tol: float) -> float:
    """The root of log N = 0 by plain Newton steps from ``mu``; ``log_number(mu, t)`` gives log N and its mu-derivative.

    The solve stops once a step is at most ``step_tol`` and returns that
    last step applied.
    """
    for _ in range(_MU_ITERATIONS):
        value, slope = log_number(mu, t)
        step = value / slope
        if abs(step) <= step_tol:
            return mu - step
        mu -= step
    raise SolverError(
        f"particle-number equation did not converge at reduced temperature {t!r}: "
        f"last iterate {mu!r}"
    )


def _mu_seed(t: float, regime: GasRegime) -> float:
    """Nonrelativistic, the Sommerfeld mu to t^4 below _SEED_SWITCH, above it
    Joyce and Dixon's series (Appl. Phys. Lett. 31, 354, 1977) of the inverse
    Fermi-Dirac integral, within 7e-4 of the root for t in [0.031, 19];
    relativistic, the Sommerfeld cubic for t <= 1, else the classical mu."""
    if regime is GasRegime.NONRELATIVISTIC:
        if t < _SEED_SWITCH:
            p = (math.pi * t) ** 2
            return 1.0 - p / 12.0 - p * p / 80.0
        log_u = _LOG_CLASSICAL_NUMBER - 1.5 * math.log(t)
        u = math.exp(log_u)
        return t * (log_u + u * _polynomial(_JOYCE_DIXON, u))
    if t <= 1.0:
        # mu^3 + pi^2 t^2 mu = 1 holds up to 6 t^3 |Li_3(-e^(-mu/t))| (DLMF 25.12)
        p = (math.pi * t) ** 2
        a = (0.5 + math.sqrt(0.25 + p ** 3 / 27.0)) ** (1.0 / 3.0)
        return a - p / (3.0 * a)
    return -t * (_LOG_6 + 3.0 * math.log(t))


def reduced_chemical_potential(t: float, regime: GasRegime, mode: MuMode = MuMode.EXACT_NORMALIZATION) -> float:
    """Chemical potential over Fermi energy at reduced temperature ``t``.

    EXACT_NORMALIZATION solves the particle-number equation
    int u^2 n(u) du = 1/3 by Newton's method on its logarithm, from the
    seed of ``_mu_seed``.  The solve stops once a
    Newton step is below 1e-13 max(1, t) and returns that last step
    applied, so the result is converged to rounding (quadratic
    convergence) by a rule that depends on ``t`` alone; mu is reproducible
    to ~1e-14 across last-ulp changes in ``t``, which downstream
    scaling-invariance guarantees rely on.

    Relativistic, the number and its mu-derivative are the closed form of
    ``_relativistic_number``, whose logarithm is concave in mu, so the
    Newton steps need no bracket: from the left they rise to the root, and
    from the right one step crosses it.  The solve holds on the Boltzmann
    side too (mu ~ -t log(6 t^3)), at every t whose classical mu is finite
    (up to about 8e304).

    Nonrelativistic, the number is the first whose bound at the seed is
    at most 1e-14: the Sommerfeld series mu^(3/2) + (pi^2 t^2/8) mu^(-1/2)
    + ..., 12 terms (``_degenerate_mu``, up to t of about 0.0305; at t = 0
    mu is exactly 1, and so is the series' root below t of about 1e-8),
    the x = 0 term of the sum over the Matsubara poles (``_pole_mu``, up to
    t of about 19), and at the hot end the kernel rule's number integral
    and mu-derivative, on one node set for every iterate: spaced in u, the
    first iterate's u-grid, rebuilt only when the spacing changes or a
    bisection step jumps.  Its iterates narrow the bracket [-50 t, 2], and
    a step that leaves it bisects; from t of about 2.5e14, where the
    classical seed falls below -50 t, the floor is the seed less t.

    Results are cached per (t, regime, mode), however the arguments are
    spelled; ``cache_info`` and ``cache_clear`` reach that cache.
    """
    _require_member("regime", regime, GasRegime)
    _require_member("mode", mode, MuMode)
    return _reduced_chemical_potential(t, regime, mode)


@lru_cache(maxsize=CACHE_SIZE)
def _reduced_chemical_potential(t: float, regime: GasRegime, mode: MuMode) -> float:
    if not (0.0 <= t < math.inf):
        raise DomainError(f"reduced temperature must be finite and nonnegative, got {t!r}")
    if mode is MuMode.FERMI_ENERGY_APPROX or t == 0.0:
        return 1.0
    step_tol = _MU_STEP_TOL * max(1.0, t)
    if regime is GasRegime.EXTREME_RELATIVISTIC:
        return _relativistic_mu(t, step_tol)
    mu = _degenerate_mu(t, step_tol)
    if mu is None:
        mu = _pole_mu(t, step_tol)
    return _kernel_mu(t, step_tol) if mu is None else mu


def _kernel_mu(t: float, step_tol: float) -> float:
    """The nonrelativistic mu on the kernel rule's number integral (see ``reduced_chemical_potential``)."""
    seed = _mu_seed(t, GasRegime.NONRELATIVISTIC)
    # the seed lies below the root, and from t of about 2.5e14 below -50 t
    # too: there the floor moves below the seed
    floor = -50.0 * t if seed >= -50.0 * t else seed - t
    lo, hi = floor, 2.0
    mu = min(max(seed, lo), hi)
    grid = None
    for _ in range(_MU_ITERATIONS):
        with np.errstate(over="ignore", invalid="ignore"):
            number, slope, grid = _number_and_slope(mu, t, grid)
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
                    f"[{floor:.6g}, 2]: the iterates close on its end at "
                    f"{0.5 * (lo + hi):.6g} at reduced temperature {t!r}"
                )
            mu = 0.5 * (lo + hi)
            grid = None  # the jump may leave the kept u-grid's kernel window
    raise SolverError(
        f"particle-number equation did not converge at reduced temperature {t!r}: "
        f"last iterate {mu!r} on the bracket [{lo:.6g}, {hi:.6g}]"
    )


def _relativistic_mu(t: float, step_tol: float) -> float:
    """The relativistic root of log N = 0 by plain Newton steps (see ``reduced_chemical_potential``).

    Above t = 1 the step tolerance grows with the seed's |mu|/t,
    log(6 t^3), which the root shares, so that it stays above the
    rounding of mu.
    """
    mu = _mu_seed(t, GasRegime.EXTREME_RELATIVISTIC)
    if not math.isfinite(mu):
        raise DomainError(f"reduced temperature {t!r} is too large: the classical chemical "
                          "potential -t log(6 t^3) overflows")
    return _log_number_root(_relativistic_number, mu, t, step_tol * max(1.0, abs(mu) / t))


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

