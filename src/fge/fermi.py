"""Fermi-gas bookkeeping for a uniform electron gas.

Fermi momentum/energy/temperature, degeneracy pressure, and the
conversions among density, pressure, and the pair-correlation distance,
for both dispersion regimes, in SI units; and the degeneracy and
ideality flags of a gas.

The thermal routines are in reduced form only (u = k/k_F, t = T/T_F,
mu_tilde = mu/eps_F), because every dimensional state with the same
reduced coordinates shares one dimensionless solve: the occupancy, the
chemical potential, and the alternating sums in z = exp(-|mu_tilde|/t)
of the relativistic closed form and of the nonrelativistic Boltzmann
series, the backbone of the exchange-amplitude module.  The relativistic
chemical potential is the root of a closed-form identity; the
nonrelativistic one is the root of the Sommerfeld series in the
degenerate gas, then of the sum over the Matsubara poles
(``matsubara``), and of the Boltzmann series at the hot end left.
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .constants import constants
from .errors import DomainError, SolverError
from .degenerate import _TOL_MIN, _polynomial, _sommerfeld_bound, _sommerfeld_log_number
from .matsubara import _pole_floor, _pole_log_number

THREE_PI_SQ = 3.0 * math.pi ** 2

# maxsize of every per-temperature cache: chemical potential, distance
# constant and the closed forms' constants
CACHE_SIZE = 1024
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


# === alternating sums in z: the relativistic closed form, the Boltzmann series ===
#
# With d(u) = u the kernel -dn/du is a logistic density in u itself, so the
# thermal integrals of the relativistic gas are sums of elementary terms:
# the part of the density below the band bottom u = 0 expands in powers of
# z = exp(-|mu_tilde|/t), a series alternating in sign.  Nonrelativistic at
# mu_tilde <= 0 the whole occupancy expands so, n(u) = sum_k (-1)^(k+1)
# z^k exp(-k u^2/t), and each term's integral is a Gaussian one (DLMF
# 25.12).  Either series is summed plainly where z <= 1/2, where its terms
# fall in size and the first one omitted bounds the rest, and elsewhere
# with the acceleration of Cohen, Rodriguez Villegas and Zagier
# (Experimental Math. 9, 2000, algorithm 1).

# terms of the accelerated sum; for the moments of a positive measure, the
# sums at x = 0, its error is at most this bound times the sum
_ACCELERATED_TERMS = 30
_ACCELERATED_BOUND = 2.0 / (3.0 + math.sqrt(8.0)) ** _ACCELERATED_TERMS
# the plain sum stops once z^n <= _PLAIN_TAIL: its terms start at 1 and fall,
# so the first one omitted, and with it the whole tail, is below rounding
_PLAIN_TAIL = 0.25 * np.finfo(float).eps
_PLAIN_TERMS = math.ceil(math.log(_PLAIN_TAIL) / math.log(0.5))
# the term indices k = 1, 2, ..., their powers k^2, 1/k^2 and 1/k^3 (relativistic),
# k^(-1/2), k^(-3/2) and 1/(4k) (Boltzmann), and the signs (-1)^(k+1)
_SERIES_K = np.arange(1.0, max(_PLAIN_TERMS, _ACCELERATED_TERMS) + 1.0)
_SERIES_K2 = _SERIES_K ** 2
_SERIES_INV_K2 = 1.0 / _SERIES_K2
_SERIES_INV_K3 = 1.0 / _SERIES_K ** 3
_SERIES_INV_SQRT_K = 1.0 / np.sqrt(_SERIES_K)
_SERIES_INV_K15 = _SERIES_INV_SQRT_K / _SERIES_K
_SERIES_INV_4K = 0.25 / _SERIES_K
_SERIES_SIGNS = np.where(_SERIES_K % 2.0 == 1.0, 1.0, -1.0)
_LOG_6 = math.log(6.0)
# the nonrelativistic seed's switch, where both err by about 6e-4; Joyce and
# Dixon's A_4 ... A_1 of mu/t = log u + sum_m A_m u^m, u = (4/(3 sqrt(pi))) t^(-3/2)
_SEED_SWITCH = 0.2
_JOYCE_DIXON = (-4.42563e-6, 1.48386e-4, -4.95009e-3, 1.0 / math.sqrt(8.0))
_LOG_CLASSICAL_NUMBER = math.log(4.0 / (3.0 * math.sqrt(math.pi)))
# largest log of a term of the closed forms (mu^3, pi^2 t^2 mu, 6 t^3 z, and
# (3 sqrt(pi)/4) z t^(3/2)): e^700 leaves their sums room below the float
# maximum, e^709.8
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


def _boltzmann_number(mu_tilde: float, t: float) -> tuple[float, float]:
    """log N and d(log N)/dmu of the nonrelativistic number N = 3 int u^2 n(u) du at mu_tilde <= 0.

    N = -(3 sqrt(pi)/4) t^(3/2) Li_(3/2)(-z) and N' = -(3 sqrt(pi)/4)
    t^(1/2) Li_(1/2)(-z), z = exp(mu/t), the x = 0 sums of the Boltzmann
    series (``_boltzmann_terms``) and of their mu-derivatives, by
    ``_alternating_weights``.  log N is log((3 sqrt(pi)/4) z t^(3/2)) plus
    the log of the sum, so that z may underflow.  A SolverError names t
    at an iterate mu_tilde > 0, where the series diverges.
    """
    if mu_tilde > 0.0:
        raise SolverError(f"particle-number equation at reduced temperature {t!r} left the "
                          f"Boltzmann series: iterate mu_tilde={mu_tilde!r} > 0")
    k, weights, _ = _alternating_weights(math.exp(mu_tilde / t))
    q = float(weights @ _SERIES_INV_K15[:len(k)])
    slope = float(weights @ _SERIES_INV_SQRT_K[:len(k)])
    return 1.5 * math.log(t) + mu_tilde / t - _LOG_CLASSICAL_NUMBER + math.log(q), slope / (t * q)


@lru_cache(maxsize=CACHE_SIZE)
def _boltzmann_terms(mu_tilde: float, t: float) -> tuple:
    """The nonrelativistic Boltzmann series' constants at (mu_tilde <= 0, t > 0), cached per pair.

    f = b sum_k v_k k^(-3/2) exp(-x^2 t/(4k)), with the prefactor
    b = (3 sqrt(pi)/4) z t^(3/2), z = exp(mu/t), formed as
    exp(log(3 sqrt(pi)/4) + 3/2 log t + mu/t).  Returns b, 1/(4k) of the
    indices k, the weights v_k k^(-3/2) (``_alternating_weights``) and the
    truncation bound, b times the weights' bound.  A DomainError names t
    where b passes e^700.
    """
    log_b = 1.5 * math.log(t) + mu_tilde / t - _LOG_CLASSICAL_NUMBER
    if log_b > _LOG_TERM_MAX:
        raise DomainError(f"reduced temperature {t!r} is too large for the nonrelativistic "
                          f"amplitude at reduced chemical potential {mu_tilde!r}: t^(3/2) overflows")
    k, weights, bound = _alternating_weights(math.exp(mu_tilde / t))
    weights = weights * _SERIES_INV_K15[:len(k)]
    weights.flags.writeable = False  # every caller of the cache shares them
    b = math.exp(log_b)
    return b, _SERIES_INV_4K[:len(k)], weights, b * bound


def _degenerate_mu(t: float, step_tol: float) -> float | None:
    """The nonrelativistic mu as a Newton root of the Sommerfeld particle number, or None.

    Newton steps on ``_sommerfeld_log_number`` from the Sommerfeld seed
    (``_log_number_root``).  None, and the pole sum or the Boltzmann
    series solves (``_pole_mu``), where the series' estimate at x = 0 and
    the seed exceeds the tightest amplitude tolerance _TOL_MIN: the seed is
    within (pi t)^6 of the root.
    """
    mu = _mu_seed(t, GasRegime.NONRELATIVISTIC)
    if _sommerfeld_bound(mu, t, _TOL_MIN) is None:
        return None
    return _log_number_root(_sommerfeld_log_number, mu, t, step_tol)


def _pole_mu(t: float, step_tol: float) -> float | None:
    """The nonrelativistic mu as a Newton root of the pole sum's particle number, or None.

    The evaluation at the seed also bounds the number there; None, and the
    Boltzmann series solves, where that bound or its floor exceeds
    _TOL_MIN.
    """
    mu = _mu_seed(t, GasRegime.NONRELATIVISTIC)
    if _pole_floor(mu, t) > _TOL_MIN:
        return None
    value, slope, err = _pole_log_number(mu, t, bound=True)
    return None if err > _TOL_MIN else _log_number_root(_pole_log_number, mu - value / slope, t, step_tol)


def _closed_form_mu(log_number, t: float, regime: GasRegime, step_tol: float) -> float:
    """The root of a closed-form number, relativistic or Boltzmann, by plain Newton steps from ``_mu_seed``.

    Where the seed's |mu|/t exceeds 1 (log(6 t^3) relativistic, about
    (3/2) log t nonrelativistic), the step tolerance grows with it, as the
    root's rounding does.  A DomainError names t where the classical mu
    overflows.
    """
    mu = _mu_seed(t, regime)
    if not math.isfinite(mu):
        raise DomainError(f"reduced temperature {t!r} is too large: the classical chemical "
                          "potential overflows")
    return _log_number_root(log_number, mu, t, step_tol * max(1.0, abs(mu) / t))


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
    seed of ``_mu_seed``.  The solve stops once a Newton step is below
    1e-13 max(1, t) (times the seed's |mu|/t where that exceeds 1 on a
    Boltzmann side) and returns that last step applied, so the result is
    converged to rounding (quadratic convergence) by a rule that depends
    on ``t`` alone; mu is reproducible
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
    t of about 19), and at the hot end the Boltzmann series
    -(3 sqrt(pi)/4) t^(3/2) Li_(3/2)(-e^(mu/t)) (``_boltzmann_number``), in
    logs as the relativistic number is, at every t whose classical mu is
    finite (up to about 1.7e305).

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
        return _closed_form_mu(_relativistic_number, t, regime, step_tol)
    mu = _degenerate_mu(t, step_tol)
    if mu is None:
        mu = _pole_mu(t, step_tol)
    return _closed_form_mu(_boltzmann_number, t, regime, step_tol) if mu is None else mu


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

