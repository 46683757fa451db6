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
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, lru_cache, partial

import numpy as np

from .errors import DomainError, QuadratureError, SolverError
from .fermi import (
    CACHE_SIZE,
    GasRegime,
    KernelRule,
    MuMode,
    _cached_kernel_rule,
    kernel_rule,
    reduced_chemical_potential,
)

# switch from the closed form 3(sin x - x cos x)/x^3 to its power series
# below this point; the closed form loses ~5 digits to cancellation near
# x ~ 1e-3, while the series to x^12 is converged at 0.25 (its first
# omitted term, k = 7, is 5e-22 there)
_SERIES_CROSSOVER = 0.25
# the derivative f0' switches to its series below this larger point: the
# closed form 3(sin x / x - f0)/x loses a further factor 1/x to
# cancellation, and the series' first omitted term is 2e-16 at 0.5
_SLOPE_SERIES_CROSSOVER = 0.5
# k-th series coefficient of f(x,0) in powers of x^2, and of f0'(x)/x
_SERIES_COEFFS = tuple(
    (-1.0) ** k * 6.0 * (k + 1) / math.factorial(2 * k + 3) for k in range(7)
)
_SLOPE_COEFFS = tuple(2 * k * coeff for k, coeff in enumerate(_SERIES_COEFFS) if k)
# f0 decreases on [0, Y], Y the first zero of j_2, and f0(Y) is its minimum
_F0_MIN_AT, _F0_MIN = 5.76345919689455, -0.0861708941619074

_TOL_MIN, _TOL_MAX = 1e-14, 1e-6
# kernel-rule refinement levels tried before the thermal amplitude gives up
_MAX_LEVEL = 6
# f0(x u) entries evaluated per block of a kernel sum, to bound peak memory
_BLOCK = 8192
# root refinement (zeta and the average's clamp kink): absolute and
# relative x tolerances, iteration cap
_ROOT_XTOL, _ROOT_RTOL, _ROOT_MAXITER = 1e-13, 4.0 * np.finfo(float).eps, 200
# tolerance of every amplitude the zeta solve evaluates
_ZETA_QUAD_TOL = 1e-12


def _validate_quad_tol(tol: float) -> None:
    if not (_TOL_MIN <= tol <= _TOL_MAX):
        raise DomainError(
            f"quadrature tolerance must lie in [{_TOL_MIN:g}, {_TOL_MAX:g}], got {tol!r}"
        )


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
    if not (flat.min(initial=0.0) >= 0.0 and flat.max(initial=0.0) < math.inf):
        raise DomainError(f"reduced separation must be finite and nonnegative, got {x!r}")
    out = _f0(flat)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _f0(flat: np.ndarray) -> np.ndarray:
    """``f_zero_temperature`` of a flat float array already known to be finite and nonnegative."""
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
        out[small] = _even_series(flat[small], _SERIES_COEFFS)
    return out


def _even_series(y: np.ndarray, coeffs: tuple) -> np.ndarray:
    """sum_k coeffs[k] y^2k by Horner's rule."""
    y2 = y * y
    series = coeffs[-1] * y2
    for coeff in coeffs[-2:0:-1]:
        series += coeff
        series *= y2
    series += coeffs[0]
    return series


def _f0_and_slope(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_f0`` of a flat array, bit for bit, and its derivative f0'(y) = -3 j_2(y)/y.

    Above the crossovers f0' = 3(sin y / y - f0)/y, sharing one sin and one
    cos with f0; below _SLOPE_SERIES_CROSSOVER it is the differentiated
    series, which keeps f0' within about 1e-14 of -3 j_2(y)/y.
    """
    yb = np.maximum(flat, _SERIES_CROSSOVER)
    sinc = np.sin(yb)
    sinc /= yb
    out = sinc - np.cos(yb)
    out /= yb
    out /= yb
    out *= 3.0
    slope = sinc - out
    slope *= 3.0
    slope /= yb
    small = flat < _SLOPE_SERIES_CROSSOVER
    if small.any():
        y = flat[small]
        slope[small] = _even_series(y, _SLOPE_COEFFS) * y
        smaller = flat < _SERIES_CROSSOVER
        if smaller.any():
            out[smaller] = _even_series(flat[smaller], _SERIES_COEFFS)
    return out, slope


def _kernel_sum(xs: np.ndarray, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j weights[j, c] f0(x nodes_j) for every x >= 0 and weight column c.

    f0 is evaluated in blocks of at most _BLOCK entries; a sum that fits in
    one block is one product.
    """
    if len(xs) * len(nodes) <= _BLOCK:
        return _f0(np.multiply.outer(xs, nodes).ravel()).reshape(len(xs), len(nodes)) @ weights
    out = np.zeros((len(xs), weights.shape[1]))
    cols = min(len(nodes), _BLOCK)
    rows = _BLOCK // cols
    for j in range(0, len(nodes), cols):
        u, w = nodes[j:j + cols], weights[j:j + cols]
        for i in range(0, len(xs), rows):
            block = xs[i:i + rows]
            out[i:i + rows] += _f0(np.multiply.outer(block, u).ravel()).reshape(len(block), len(u)) @ w
    return out


def _kernel_sum_and_slope(x: float, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``_kernel_sum`` at one x >= 0, then d/dx of its first column, sum_j W_j u_j f0'(x u_j).

    Returns [rule, companion, slope].  f0 and f0' are evaluated in blocks
    of at most _BLOCK nodes.
    """
    out = np.zeros(3)
    for j in range(0, len(nodes), _BLOCK):
        u, w = nodes[j:j + _BLOCK], weights[j:j + _BLOCK]
        values, slopes = _f0_and_slope(x * u)
        out[:2] += values @ w
        slopes *= u
        out[2] += slopes @ w[:, 0]
    return out


def _refined_sum(kernel_sum, x_max: float, t: float, mu_tilde: float, regime: GasRegime,
                 tol: float, rules=None) -> tuple:
    """``kernel_sum(rule)`` on the kernel rules of levels 0, 1, ... until its estimate is within ``tol``.

    The rules resolve f0(x u) for x up to ``x_max``; ``rules(level)``
    returns the rule of a level when given, else ``kernel_rule`` builds or
    fetches it.  The last axis of what ``kernel_sum`` returns holds the
    rule's sum and its lower-order companion first, and the estimate is
    their largest gap.  Returns the sums and the estimate.  A call that
    raises leaves none of the rules it built in the cache.
    """
    mark = _cached_kernel_rule.mark()
    try:
        for level in range(_MAX_LEVEL + 1):
            rule = kernel_rule(mu_tilde, t, regime, x_max, level) if rules is None else rules(level)
            sums = kernel_sum(rule)
            err = float(np.abs(sums[..., 0] - sums[..., 1]).max(initial=0.0))
            if not math.isfinite(err):
                raise QuadratureError(
                    f"thermal amplitude is not finite at t={t!r}, mu_tilde={mu_tilde!r}",
                    error_estimate=err,
                )
            if err <= tol:
                return sums, err
        raise QuadratureError(
            f"kernel rule stalled at estimate {err:.3e} (tolerance {tol:.3e}, "
            f"{len(rule.nodes)} nodes) at t={t!r}, x up to {x_max!r}",
            error_estimate=err,
        )
    except Exception:
        _cached_kernel_rule.drop_since(mark)
        raise


def thermal_amplitude(x, t: float, mu_tilde: float, regime: GasRegime,
                      tol: float = 1e-10) -> tuple:
    """Exchange amplitude f(x, t) for a scalar or an array of x, and its error estimate.

    f(x, t) = int u^3 f0(u x) (-dn/du) du (integration by parts of
    (3/x) int u n(u) sin(ux) du) is a positively weighted average of the
    ground-state amplitude, so every x is one dot product of f0(x u_j) with
    the weights of a Fermi-kernel rule.  The estimate is the largest gap,
    over the x given, between the rule and its lower-order companion on the
    same panels; the panels are halved until it is at most ``tol``
    (absolute; the amplitude is O(1)).  At x = 0 the sum is
    3 int u^2 n(u) du, which equals 1 when mu_tilde solves the
    particle-number equation.  At t = 0 it is the ground state f0(x) with
    estimate 0, and mu_tilde must be exactly 1.
    """
    _validate_quad_tol(tol)
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    x_max = float(flat.max(initial=0.0))
    if not (flat.min(initial=0.0) >= 0.0 and x_max < math.inf):
        raise DomainError(f"reduced separation must be finite and nonnegative, got {x!r}")
    if not (0.0 <= t < math.inf):
        raise DomainError(f"reduced temperature must be finite and nonnegative, got {t!r}")
    if not math.isfinite(mu_tilde):
        raise DomainError(f"reduced chemical potential must be finite, got {mu_tilde!r}")
    if t == 0.0:
        if mu_tilde != 1.0:
            raise DomainError("at zero reduced temperature the reduced chemical potential "
                              f"must be exactly 1, got {mu_tilde!r}")
        value, err = _f0(flat), 0.0
    else:
        sums, err = _refined_sum(lambda rule: _kernel_sum(flat, rule.nodes, rule.weights),
                                 x_max, t, mu_tilde, regime, tol)
        value = sums[:, 0]
    return (float(value[0]) if xs.ndim == 0 else value.reshape(xs.shape)), err


def _amplitude_and_slope(x: float, t: float, mu_tilde: float, regime: GasRegime,
                         tol: float, rules=None) -> tuple[float, float]:
    """f(x, t) and df/dx at one x >= 0 (the ground state at t = 0).

    At finite t both come from the nodes of one kernel rule,
    df/dx = sum_j W_j u_j f0'(x u_j), refined level by level to ``tol``
    like ``thermal_amplitude``.  The rules are those ``thermal_amplitude(x)``
    uses unless ``rules(level)`` supplies them: the zeta solve passes the
    rules of its scan call, which resolve every x up to that call's last
    abscissa, so the value agrees with ``thermal_amplitude(x)`` to within
    the two estimates rather than to rounding.
    """
    if t == 0.0:
        value, slope = _f0_and_slope(np.array([x]))
        return float(value[0]), float(slope[0])
    sums, _ = _refined_sum(lambda rule: _kernel_sum_and_slope(x, rule.nodes, rule.weights),
                           x, t, mu_tilde, regime, tol, rules)
    return float(sums[0]), float(sums[2])


def _root_in_bracket(fn, lo: float, hi: float, g_lo: float, g_hi: float) -> tuple[float, float]:
    """Root of g on [lo, hi], given g(lo) = g_lo and g(hi) = g_hi of opposite signs, and g there.

    ``fn(x)`` returns g(x) and g'(x).  The first iterate is the secant
    point of the bracket, and each further one a Newton step, kept inside
    the bracket that the signs of g shrink; a step that would leave it, or
    that is not below half the step before, is replaced by bisection (the
    ``rtsafe`` scheme of Numerical Recipes, section 9.4).  Converged once a
    step is at most (_ROOT_XTOL + _ROOT_RTOL |x|)/2, the rule of Brent's
    method; the x returned is the last one evaluated, with its g.
    """
    if g_lo == 0.0:
        return lo, g_lo
    if g_hi == 0.0:
        return hi, g_hi
    if math.copysign(1.0, g_lo) == math.copysign(1.0, g_hi):
        raise SolverError(f"root bracket [{lo!r}, {hi!r}] has no sign change")
    x = lo - g_lo * (hi - lo) / (g_hi - g_lo)
    step = hi - lo
    for _ in range(_ROOT_MAXITER):
        g, slope = fn(x)
        if g == 0.0:
            return x, g
        if math.copysign(1.0, g) == math.copysign(1.0, g_lo):
            lo = x
        else:
            hi = x
        # the Newton point x - g/slope lies strictly inside (lo, hi), and
        # the step is at most half the one before; slope = 0 fails both
        if ((x - hi) * slope - g) * ((x - lo) * slope - g) < 0.0 and abs(2.0 * g) <= abs(step * slope):
            step = -g / slope
            new = x + step
        else:
            new = 0.5 * (lo + hi)
            step = new - x
        if abs(step) <= 0.5 * (_ROOT_XTOL + _ROOT_RTOL * abs(x)):
            return x, g
        x = new
    raise SolverError(
        f"root refinement did not converge in {_ROOT_MAXITER} steps on [{lo!r}, {hi!r}]"
    )


# x = 0 (the origin check) followed by the scan grid of the bracket search
_SCAN_X = np.concatenate(([0.0, 1e-3], np.arange(0.1, 3.05, 0.1)))
# the bracket search scans the grid below this x, which falls between its
# points 1.9 and 2.0, and the rest only if no crossing lies there.  Over t
# from 1e-6 to 30, both regimes and both mu modes, the largest zeta was
# 1.866 (fermi mu, rel, t = 0.172)
_SCAN_WINDOW_END = 1.95
# above this multiple of the classical zeta (``_classical_zeta``) the first
# scan call stops; exact-mu zeta stays below 0.9996 of it for t in [1e-3, 3]
_THERMAL_WINDOW = 1.25
# the scan's certificate: the weight fraction of the kernel rule left beyond
# its cut node, the equal-weight blocks the weight below the cut falls into,
# and the margin by which the bound must exceed 1/sqrt(2), a thousand times
# the tolerance of the amplitudes of the solve
_CERT_TAIL = 1e-3
_CERT_BLOCKS = 16
_CERT_MARGIN = 1e-9
# the fractions of the certified weight at which the blocks end, the last exactly 1
_CERT_FRACTIONS = np.arange(1, _CERT_BLOCKS + 1) / _CERT_BLOCKS


def _first_crossing(gaps: np.ndarray) -> int | None:
    """Index of the first grid gap that is 0 or changes sign to the next, if any."""
    crossings = np.flatnonzero((gaps[:-1] == 0.0) | (gaps[:-1] * gaps[1:] < 0.0))
    return int(crossings[0]) if crossings.size else None


def _certified_count(rule: KernelRule, xs: np.ndarray) -> int:
    """How many leading entries of the increasing ``xs`` the weights of ``rule`` prove entangled.

    The rule's sum is f(x) = sum_j W_j f0(x u_j) with W_j >= 0 and its
    nodes u_j nondecreasing (``composite_gauss`` builds them piece by piece,
    and the map s -> u is monotone); the companion's nodes follow them with
    weight 0 in this column.  The weight up to 1 - _CERT_TAIL of the total
    is cut into _CERT_BLOCKS blocks of equal weight, block b of weight W_b
    ending at node U_b, and W_tail is the rest.  As f0 decreases on [0, Y]
    and never drops below f0(Y), every node of block b has
    f0(x u_j) >= g(x U_b) with g(y) = f0(min(y, Y)), so
    f(x) >= sum_b W_b g(x U_b) + W_tail f0(Y), a bound that falls with x
    (with one block it is the single cut at U).  The count is of the
    leading x where it exceeds 1/sqrt(2) by _CERT_MARGIN, without an
    amplitude evaluated.
    """
    below = np.cumsum(rule.weights[:, 0])
    ends = np.searchsorted(below, (1.0 - _CERT_TAIL) * below[-1] * _CERT_FRACTIONS)
    block_weights = below[ends]
    block_weights[1:] -= below[ends[:-1]]
    y = np.minimum(np.multiply.outer(xs, rule.nodes[ends]), _F0_MIN_AT)
    bound = _f0(y.ravel()).reshape(y.shape) @ block_weights
    bound += (below[-1] - below[ends[-1]]) * _F0_MIN
    return int(np.logical_and.accumulate(bound > math.sqrt(0.5) + _CERT_MARGIN).sum())


def _classical_zeta(t: float, regime: GasRegime) -> float:
    """zeta of the Maxwell-Boltzmann gas, where f = exp(-x^2 t/4) nonrel and (1 + x^2 t^2)^-2 rel."""
    if regime is GasRegime.NONRELATIVISTIC:
        return math.sqrt(2.0 * math.log(2.0) / t)
    return math.sqrt(2.0 ** 0.25 - 1.0) / t


def _scan_stops(t: float, regime: GasRegime) -> list[int]:
    """Where the scan calls end on ``_SCAN_X``: each call covers the grid up to its stop.

    The last two calls end at _SCAN_WINDOW_END and at the end of the grid.
    At finite t a first call ends at the first grid point at or above
    _THERMAL_WINDOW times the classical zeta, when that point lies below
    _SCAN_WINDOW_END.
    """
    stops = [int(np.searchsorted(_SCAN_X, _SCAN_WINDOW_END)), len(_SCAN_X)]
    if t > 0.0:
        thermal = int(np.searchsorted(_SCAN_X, _THERMAL_WINDOW * _classical_zeta(t, regime))) + 1
        if thermal < stops[0]:
            stops.insert(0, thermal)
    return stops


def solve_zeta(t: float, regime: GasRegime = GasRegime.NONRELATIVISTIC,
               mu_mode: MuMode = MuMode.EXACT_NORMALIZATION) -> ZetaResult:
    """Smallest x > 0 with f(x,t)^2 = 1/2, bracketed by a scan and refined by Newton steps.

    The scan grid is x in {1e-3, 0.1, 0.2, ..., 3}, evaluated in batched
    amplitude calls whose kernel rules resolve only the x of their call
    (``_scan_stops``).  At finite t the first call ends near the thermal
    length, at the first grid point at or above 1.25 times the classical
    zeta when that is below 1.95; the next ends at 1.9, the last at 3.
    Each further call is made only when the calls before it hold no
    crossing, and the crossing is looked for on the gaps of all of them, so
    the bracket is the first sign change on the whole grid.  The first call
    also evaluates the origin, and at finite t it skips the leading grid
    points that the weights of its own rule prove to have f^2 > 1/2
    (``_certified_count``), all but the last of them.  When the first grid
    point scanned is 1e-3 and already has f^2 < 1/2, the crossing lies
    below the grid and the solve fails at once.  The root is refined by
    ``_root_in_bracket``, whose Newton steps take f and df/dx from the same
    kernel nodes: those of the rules of the scan call that evaluated the
    bracket's upper end, each level fetched once per solve.  The residual
    is the gap at the last x evaluated.  The amplitude is evaluated at the
    fixed tolerance _ZETA_QUAD_TOL = 1e-12, so that the returned residual
    stays below the 1e-10 contract.  Results are cached per
    (t, regime, mu_mode), however the arguments are spelled; ``cache_info``
    and ``cache_clear`` reach that cache.
    """
    return _solve_zeta(t, regime, mu_mode)


@lru_cache(maxsize=CACHE_SIZE)
def _solve_zeta(t: float, regime: GasRegime, mu_mode: MuMode) -> ZetaResult:
    if not (0 <= t < math.inf):
        raise DomainError(f"reduced temperature must be finite and nonnegative, got {t!r}")
    mark = _cached_kernel_rule.mark()
    try:
        return _zeta_from_scan(t, regime, mu_mode)
    except Exception:
        _cached_kernel_rule.drop_since(mark)  # a failed solve's rules serve no one
        raise


def _zeta_from_scan(t: float, regime: GasRegime, mu_mode: MuMode) -> ZetaResult:
    """The uncached body of ``solve_zeta`` at a valid t."""
    stops = _scan_stops(t, regime)
    mu_tilde = reduced_chemical_potential(t, regime, mu_mode)

    def amplitude(xv):
        return thermal_amplitude(xv, t, mu_tilde, regime, _ZETA_QUAD_TOL)[0]

    first = 1
    if t > 0.0:
        # the level-0 rule of the first scan call, which resolves its last point
        rule = kernel_rule(mu_tilde, t, regime, float(_SCAN_X[stops[0] - 1]))
        first = max(1, _certified_count(rule, _SCAN_X[1:stops[0]]))
    f_origin, *scan = amplitude(np.concatenate(([0.0], _SCAN_X[first:stops[0]])))
    if not (f_origin ** 2 > 0.5):
        raise SolverError(
            f"no root exists: the amplitude at zero separation is {f_origin!r}, "
            "which does not exceed 1/sqrt(2), so f^2 = 1/2 has no crossing"
        )

    grid = _SCAN_X[first:]
    gaps = np.square(scan) - 0.5
    # a first point already below 1/2 puts the crossing below the grid
    below_grid = gaps[0] < 0.0
    k = None if below_grid else _first_crossing(gaps)
    for start, stop in zip(stops, stops[1:]):
        if k is not None or below_grid:
            break
        gaps = np.concatenate((gaps, np.square(amplitude(_SCAN_X[start:stop])) - 0.5))
        k = _first_crossing(gaps)
    if k is None:
        raise SolverError(
            f"no sign change of f^2 - 1/2 on [{_SCAN_X[1]:g}, {_SCAN_X[-1]:g}] "
            f"at t={t!r}: the crossing either sits below the scan window "
            "(bracket too small) or the amplitude never reaches 1/2"
        )

    rules = None
    if t > 0.0:
        # the rules of the scan call that evaluated the bracket's upper end
        x_max = float(_SCAN_X[stops[bisect_right(stops, first + k + 1)] - 1])
        rules = cache(partial(kernel_rule, mu_tilde, t, regime, x_max))

    def gap_and_slope(xv):
        f, slope = _amplitude_and_slope(xv, t, mu_tilde, regime, _ZETA_QUAD_TOL, rules)
        return f * f - 0.5, 2.0 * f * slope

    root, gap = _root_in_bracket(gap_and_slope, float(grid[k]), float(grid[k + 1]),
                                 float(gaps[k]), float(gaps[k + 1]))
    residual = abs(gap)
    if not (residual < 1e-10):
        raise SolverError(
            f"root refinement stalled: residual {residual:.3e} at x={root!r}, t={t!r}"
        )
    return ZetaResult(zeta=root, t=float(t), regime=regime, residual=residual)


solve_zeta.cache_info = _solve_zeta.cache_info
solve_zeta.cache_clear = _solve_zeta.cache_clear
