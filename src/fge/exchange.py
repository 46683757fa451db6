"""Exchange amplitude of the ideal Fermi gas and its root structure.

The amplitude f is the normalized pair-correlation overlap that drives
every entanglement quantity in this package.  At zero temperature it
has a closed form f0; at finite temperature, in reduced variables
(u = k/k_F, x = k_F r, t = T/T_F), it is the kernel average
f(x,t) = int u^3 f0(u x) (-dn/du) du, evaluated for a whole array of x
at once on a fixed Fermi-kernel rule.  The distance constant zeta is the
smallest x where f^2 crosses 1/2.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, QuadratureError, SolverError
from .fermi import (
    CACHE_SIZE,
    GasRegime,
    MuMode,
    kernel_rule,
    reduced_chemical_potential,
    reduced_inputs,
)

# switch from the closed form 3(sin x - x cos x)/x^3 to its power series
# below this point; the closed form loses ~5 digits to cancellation near
# x ~ 1e-3, while the series to x^12 is converged at 0.25 (its first
# omitted term, k = 7, is 5e-22 there)
_SERIES_CROSSOVER = 0.25
# k-th series coefficient of f(x,0) in powers of x^2
_SERIES_COEFFS = tuple(
    (-1.0) ** k * 6.0 * (k + 1) / math.factorial(2 * k + 3) for k in range(7)
)

_TOL_MIN, _TOL_MAX = 1e-14, 1e-6
# kernel-rule refinement levels tried before the thermal amplitude gives up
_MAX_LEVEL = 6
# f0(x u) entries evaluated per block of a kernel sum, to bound peak memory
_BLOCK = 8192
# Brent refinement of zeta: absolute and relative x tolerances, iteration cap
_BRENT_XTOL, _BRENT_RTOL, _BRENT_MAXITER = 1e-13, 4.0 * np.finfo(float).eps, 200
# tolerance of every amplitude the zeta solve evaluates
_ZETA_QUAD_TOL = 1e-12


def _validate_quad_tol(tol: float) -> None:
    if not (_TOL_MIN <= tol <= _TOL_MAX):
        raise DomainError(
            f"quadrature tolerance must lie in [{_TOL_MIN:g}, {_TOL_MAX:g}], got {tol!r}"
        )


@dataclass(frozen=True)
class ReducedCoordinates:
    """Dimensionless evaluation point: x = k_F r, t = T/T_F, mu_tilde = mu/eps_F."""

    x: float
    t: float
    mu_tilde: float
    regime: GasRegime

    def __post_init__(self):
        if not (0 <= self.x < math.inf):
            raise DomainError(f"reduced separation must be finite and nonnegative, got {self.x!r}")
        if not (0 <= self.t < math.inf):
            raise DomainError(f"reduced temperature must be finite and nonnegative, got {self.t!r}")
        if not math.isfinite(self.mu_tilde):
            raise DomainError(f"reduced chemical potential must be finite, got {self.mu_tilde!r}")
        if self.t == 0 and self.mu_tilde != 1.0:
            raise DomainError(
                "at zero reduced temperature the reduced chemical potential must be "
                f"exactly 1, got {self.mu_tilde!r}"
            )


@dataclass(frozen=True)
class ExchangeAmplitude:
    """Amplitude value together with where and how well it was computed."""

    value: float
    coords: ReducedCoordinates
    quadrature_error_estimate: float


@dataclass(frozen=True)
class ZetaResult:
    """Smallest reduced separation where f^2 crosses 1/2."""

    zeta: float
    t: float
    regime: GasRegime
    residual: float


def f_zero_temperature(x):
    """Ground-state exchange amplitude 3(sin x - x cos x)/x^3 (scalar or array).

    Small arguments use the alternating series 1 - x^2/10 + x^4/280 - ...
    so the value stays accurate to full precision through the crossover.
    Above it the closed form divides by x one factor at a time,
    3((sin x / x - cos x)/x)/x, so no power of x is formed and every finite
    x stays within |f0(x)| <= 3(1 + x)/x^3 without overflow.
    """
    arr = np.asarray(x, dtype=float)
    flat = arr.reshape(-1)
    if (flat < 0).any():
        raise DomainError(f"reduced separation must be nonnegative, got {x!r}")
    # the closed form everywhere, with small x lifted to the crossover to
    # stay clear of 0/0; the series then replaces those entries
    xb = np.maximum(flat, _SERIES_CROSSOVER)
    out = np.sin(xb)
    out /= xb
    out -= np.cos(xb)
    out /= xb
    out /= xb
    out *= 3.0
    small = flat < _SERIES_CROSSOVER
    if small.any():
        y = flat[small]
        y *= y
        series = _SERIES_COEFFS[-1] * y
        for coeff in _SERIES_COEFFS[-2:0:-1]:
            series += coeff
            series *= y
        series += _SERIES_COEFFS[0]
        out[small] = series
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _kernel_sum(xs: np.ndarray, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j weights[j, c] f0(x nodes_j) for every x and weight column c.

    f0 is evaluated in blocks of at most _BLOCK entries.
    """
    out = np.zeros((len(xs), weights.shape[1]))
    cols = min(len(nodes), _BLOCK)
    rows = _BLOCK // cols
    for j in range(0, len(nodes), cols):
        u, w = nodes[j:j + cols], weights[j:j + cols]
        for i in range(0, len(xs), rows):
            out[i:i + rows] += f_zero_temperature(np.multiply.outer(xs[i:i + rows], u)) @ w
    return out


def thermal_amplitude(x, t: float, mu_tilde: float, regime: GasRegime,
                      tol: float = 1e-10) -> tuple:
    """Thermal amplitude f(x, t) for a scalar or an array of x, and its error estimate.

    f(x, t) = int u^3 f0(u x) (-dn/du) du (integration by parts of
    (3/x) int u n(u) sin(ux) du) is a positively weighted average of the
    ground-state amplitude, so every x is one dot product of f0(x u_j) with
    the weights of a Fermi-kernel rule.  The estimate is the largest gap,
    over the x given, between the rule and its lower-order companion on the
    same panels; the panels are halved until it is at most ``tol``
    (absolute; the amplitude is O(1)).  At x = 0 the sum is
    3 int u^2 n(u) du, which equals 1 when mu_tilde solves the
    particle-number equation.
    """
    _validate_quad_tol(tol)
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    x_max = float(flat.max(initial=0.0))
    if not (flat.min(initial=0.0) >= 0.0 and x_max < math.inf):
        raise DomainError(f"reduced separation must be finite and nonnegative, got {x!r}")
    for level in range(_MAX_LEVEL + 1):
        rule = kernel_rule(mu_tilde, t, regime, x_max, level)
        value, value_lo = _kernel_sum(flat, rule.nodes, rule.weights).T
        err = float(np.max(np.abs(value - value_lo), initial=0.0))
        if not math.isfinite(err):
            raise QuadratureError(
                f"thermal amplitude is not finite at t={t!r}, mu_tilde={mu_tilde!r}",
                error_estimate=err,
            )
        if err <= tol:
            return (float(value[0]) if xs.ndim == 0 else value.reshape(xs.shape)), err
    raise QuadratureError(
        f"kernel rule stalled at estimate {err:.3e} (tolerance {tol:.3e}, "
        f"{len(rule.nodes)} nodes) at t={t!r}, x up to {x_max!r}",
        error_estimate=err,
    )


def f_finite_temperature(coords: ReducedCoordinates, tol: float = 1e-10) -> ExchangeAmplitude:
    """Thermal exchange amplitude (3/x) int_0^inf u n(u) sin(ux) du at one point.

    Evaluated by ``thermal_amplitude`` as the Fermi-kernel average of the
    ground-state amplitude; ``tol`` bounds the gap between the rule and its
    lower-order companion, which is returned as the error estimate.
    """
    if not (coords.t > 0):
        raise DomainError(
            f"the thermal path needs a positive reduced temperature, got {coords.t!r}"
        )
    value, err = thermal_amplitude(coords.x, coords.t, coords.mu_tilde, coords.regime, tol)
    return ExchangeAmplitude(value=value, coords=coords, quadrature_error_estimate=err)


def f_from_pressure(separation: float, pressure: float, temperature: float,
                    regime: GasRegime, mu_mode: MuMode = MuMode.EXACT_NORMALIZATION,
                    tol: float = 1e-10) -> ExchangeAmplitude:
    """Exchange amplitude of the gas at the given pressure, evaluated at a pair separation.

    The dimensional inputs collapse to ReducedCoordinates through
    ``fermi.reduced_inputs`` (the pressure -> Fermi momentum inversion);
    the amplitude depends on the inputs only through those reduced numbers.
    """
    *_, x, t = reduced_inputs(separation, pressure, temperature, regime)
    x, t = x.item(), t.item()
    if t == 0.0:
        coords = ReducedCoordinates(x=x, t=0.0, mu_tilde=1.0, regime=regime)
        return ExchangeAmplitude(value=f_zero_temperature(x), coords=coords,
                                 quadrature_error_estimate=0.0)
    mu_tilde = reduced_chemical_potential(t, regime, mu_mode)
    coords = ReducedCoordinates(x=x, t=t, mu_tilde=mu_tilde, regime=regime)
    return f_finite_temperature(coords, tol)


def _brent(fn, a: float, b: float) -> float:
    """Root of ``fn`` on a bracket [a, b] where it changes sign, by Brent's method.

    Each step takes the secant or inverse quadratic estimate through the
    last iterates when it lies well inside the bracket and shrinks the
    step fast enough, else bisects.  Converged once half the bracket is
    below (_BRENT_XTOL + _BRENT_RTOL |x|)/2: the rule and the step choice
    of ``scipy.optimize.brentq``, which the tests use as the reference.
    """
    x_pre, x_cur = a, b
    f_pre, f_cur = fn(x_pre), fn(x_cur)
    if f_pre == 0.0:
        return x_pre
    if f_cur == 0.0:
        return x_cur
    if math.copysign(1.0, f_pre) == math.copysign(1.0, f_cur):
        raise SolverError(f"Brent bracket [{a!r}, {b!r}] has no sign change")
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(_BRENT_MAXITER):
        if f_pre != 0.0 and math.copysign(1.0, f_pre) != math.copysign(1.0, f_cur):
            # the root lies between x_cur and x_pre: x_pre becomes the far end
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            # x_cur is always the end with the smaller residual
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = 0.5 * (_BRENT_XTOL + _BRENT_RTOL * abs(x_cur))
        s_bis = 0.5 * (x_blk - x_cur)
        if f_cur == 0.0 or abs(s_bis) < delta:
            return x_cur
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (d_blk * d_pre * (f_blk - f_pre))
            if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
                s_pre, s_cur = s_cur, s_try
            else:
                s_pre = s_cur = s_bis
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        if abs(s_cur) > delta:
            x_cur += s_cur
        else:
            x_cur += delta if s_bis > 0.0 else -delta
        f_cur = fn(x_cur)
    raise SolverError(
        f"Brent refinement did not converge in {_BRENT_MAXITER} steps on [{a!r}, {b!r}]"
    )


# x = 0 (the origin check) followed by the scan grid of the bracket search
_SCAN_X = np.concatenate(([0.0, 1e-3], np.arange(0.1, 3.05, 0.1)))


@lru_cache(maxsize=CACHE_SIZE)
def solve_zeta(t: float, regime: GasRegime = GasRegime.NONRELATIVISTIC,
               mu_mode: MuMode = MuMode.EXACT_NORMALIZATION) -> ZetaResult:
    """Smallest x > 0 with f(x,t)^2 = 1/2, bracketed by a scan and refined by Brent.

    The origin and the whole scan grid x in {1e-3, 0.1, ..., 3} are one
    batched amplitude call; Brent's steps then reuse the cached kernel
    rule of the same (mu, t).  The amplitude is evaluated at the fixed
    tolerance _ZETA_QUAD_TOL = 1e-12, so that the returned residual stays
    below the 1e-10 contract.
    """
    if not (0 <= t < math.inf):
        raise DomainError(f"reduced temperature must be finite and nonnegative, got {t!r}")

    if t == 0.0:
        amplitude = f_zero_temperature
    else:
        mu_tilde = reduced_chemical_potential(t, regime, mu_mode)

        def amplitude(xv):
            return thermal_amplitude(xv, t, mu_tilde, regime, _ZETA_QUAD_TOL)[0]

    f_origin, *scan = amplitude(_SCAN_X)
    if not (f_origin ** 2 > 0.5):
        raise SolverError(
            f"no root exists: the amplitude at zero separation is {f_origin!r}, "
            "which does not exceed 1/sqrt(2), so f^2 = 1/2 has no crossing"
        )

    def gap(xv):
        return amplitude(xv) ** 2 - 0.5

    grid = _SCAN_X[1:]
    gaps = np.square(scan) - 0.5
    crossings = np.flatnonzero((gaps[:-1] == 0.0) | (gaps[:-1] * gaps[1:] < 0.0))
    if not crossings.size:
        raise SolverError(
            f"no sign change of f^2 - 1/2 on [{grid[0]:g}, {grid[-1]:g}] "
            f"at t={t!r}: the crossing either sits below the scan window "
            "(bracket too small) or the amplitude never reaches 1/2"
        )
    k = crossings[0]
    if gaps[k] == 0.0:
        root = float(grid[k])
    else:
        root = _brent(gap, float(grid[k]), float(grid[k + 1]))
    residual = abs(amplitude(root) ** 2 - 0.5)
    if not (residual < 1e-10):
        raise SolverError(
            f"root refinement stalled: residual {residual:.3e} at x={root!r}, t={t!r}"
        )
    return ZetaResult(zeta=float(root), t=float(t), regime=regime, residual=float(residual))
