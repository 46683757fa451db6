"""Exchange amplitude of the ideal Fermi gas and its root structure.

The amplitude f is the normalized pair-correlation overlap that drives
every entanglement quantity in this package.  At zero temperature it
has a closed form f0; at finite temperature, in reduced variables
(u = k/k_F, x = k_F r, t = T/T_F), it is the kernel average
f(x,t) = int u^3 f0(u x) (-dn/du) du.  Relativistic, where -dn/du is a
logistic density in u, the average has a closed form at every
temperature (``_relativistic_sum``); nonrelativistic, it is the
Sommerfeld series of ``degenerate`` where that meets the tolerance (the
degenerate gas, up to t of about 0.03 to 0.04), then the sum over the
Matsubara poles of ``matsubara`` where that does (up to t of about 30
to 300), and at the hot end left a sum on a fixed Fermi-kernel rule.
Each branch gives, over an array of x, f, its error estimate and, on
request, the slope df/dx.
The distance constant zeta is the smallest x where f^2 crosses 1/2.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .degenerate import (
    _CLOSED_FORM_ROUNDING,
    _TOL_MAX,
    _TOL_MIN,
    _f0,
    _sommerfeld_estimate,
    _sommerfeld_floor,
    _sommerfeld_sum,
    _sommerfeld_terms,
    _square_powers,
)
from .errors import DomainError, QuadratureError, SolverError
from .matsubara import _matsubara_terms, _pole_estimate, _pole_floor, _pole_sum
from .fermi import (
    CACHE_SIZE,
    GasRegime,
    KernelRule,
    MuMode,
    _cached_kernel_rule,
    _relativistic_terms,
    _require_kernel_window,
    _require_member,
    kernel_rule,
    reduced_chemical_potential,
)

def _y_coth_y_coefficients(terms: int) -> list:
    """Coefficients c_n of y coth y = sum_n c_n y^2n, from sinh(y) (y coth y) = y cosh(y)."""
    coeffs = []
    for m in range(terms):
        coeffs.append(1.0 / math.factorial(2 * m) - sum(
            c / math.factorial(2 * (m - n) + 1) for n, c in enumerate(coeffs)))
    return coeffs


# p(y) = (1 - y coth y)/y^2 of the relativistic closed form switches to its
# series in y^2 below this y, where 1 - y coth y cancels.  The series has
# radius pi; 18 terms put the first omitted one at 1e-18 at the crossover,
# where the closed form loses a factor 4 to cancellation, and p' a factor 54
_COTH_CROSSOVER = 1.0
_COTH_COEFFS = -np.array(_y_coth_y_coefficients(19)[1:])
# the series of p'(y)/y, sum_n 2 n a_n y^(2n-2), on the same powers of y^2
_COTH_SLOPE_COEFFS = 2.0 * np.arange(1.0, len(_COTH_COEFFS)) * _COTH_COEFFS[1:]
# the closed form's arguments x t and mu x are capped here: past it every
# term they enter is below 1e-150 of the amplitude's scale, and the cap keeps
# their powers finite
_ARGUMENT_MAX = 1e75
# positive floor of y = pi t x and of mu x, where y/sinh(y) and sin(v)/v are 1
_ARGUMENT_MIN = 1e-300
# y/sinh(y) is formed directly while sinh(y) stays far from overflow
_SINH_MAX = 700.0
# largest amplitude at zero separation whose square the zeta solve can form
_ORIGIN_MAX = 1e150

# tolerance of an amplitude request that names none
_DEFAULT_TOL = 1e-10
# kernel-rule refinement levels tried before the thermal amplitude gives up
_MAX_LEVEL = 6
# a kernel sum's estimate at most this times its scale is rounding: the
# floor of QUADPACK's qk15, 50 eps times the sum of |integrand| weights
_ROUNDOFF = 50.0 * np.finfo(float).eps
# f0(x u) entries evaluated per block of a kernel sum, to bound peak memory
_BLOCK = 8192
# root refinement (zeta and the average's clamp kink): absolute and
# relative x tolerances, iteration cap
_ROOT_XTOL, _ROOT_RTOL, _ROOT_MAXITER = 1e-13, 4.0 * np.finfo(float).eps, 200
# tolerance of every amplitude the zeta solve evaluates
_ZETA_QUAD_TOL = 1e-12


# the Sommerfeld series' constants, per (mu_tilde, t)
_degenerate_terms = lru_cache(maxsize=CACHE_SIZE)(_sommerfeld_terms)


def _degenerate_branch(mu_tilde: float, t: float, x_max: float, tol: float) -> tuple:
    """The Sommerfeld series' constants and estimate on [0, x_max] where that meets ``tol``, else None.

    The floor alone, which needs no table, rules out most t the series
    cannot serve before its constants are built.
    """
    if _sommerfeld_floor(mu_tilde, t) > tol:
        return None
    terms = _degenerate_terms(mu_tilde, t)
    err = _sommerfeld_estimate(terms, x_max)
    return (terms, err) if err <= tol else None


# the pole sum's constants, per (mu_tilde, t)
_pole_terms = lru_cache(maxsize=CACHE_SIZE)(_matsubara_terms)


def _pole_branch(mu_tilde: float, t: float, x_max: float, tol: float):
    """The pole sum's constants where its estimate on [0, x_max] meets ``tol`` or its rounding floor, else None.

    The floor is the kernel rule's, _ROUNDOFF times the scale f(0).  The
    table-free ``_pole_floor`` rules out the hot gas before a table is built.
    """
    if _pole_floor(mu_tilde, t) > tol:
        return None
    terms = _pole_terms(mu_tilde, t)
    err = _pole_estimate(terms, x_max)
    return terms if err <= tol or err <= _ROUNDOFF * abs(terms.scale) else None


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


def _kernel_sum(xs: np.ndarray, rule: KernelRule, slope: bool = False) -> np.ndarray:
    """sum_j W[j, c] f0(x u_j) for every x >= 0 of ``xs`` and weight column c of ``rule``.

    With ``slope`` a last column holds d/dx of the first,
    sum_j W[j, 0] u_j f0'(x u_j), from the same sin and cos.  f0 is
    evaluated in blocks of at most _BLOCK entries; a sum that fits in one
    block, one x on a rule of up to _BLOCK nodes among them, is one
    product f0(x u) @ W on the broadcast x u.
    """
    nodes, weights = rule.nodes, rule.weights
    if len(xs) * len(nodes) <= _BLOCK:
        y = xs[:, None] * nodes
        if not slope:
            return _f0(y) @ weights
        values, df = _f0(y, slope=True)
        df *= nodes
        # summed into zeros as in the block loop, so that a sum of -0.0 is +0.0 on both paths
        out = np.zeros((len(xs), 3))
        out[:, :2] += values @ weights
        out[:, 2] += df @ weights[:, 0]
        return out
    out = np.zeros((len(xs), 3 if slope else 2))
    sums, slopes = out[:, :2], (out[:, 2] if slope else None)
    cols = min(len(nodes), _BLOCK)
    rows = _BLOCK // cols
    for j in range(0, len(nodes), cols):
        u, w = nodes[j:j + cols], weights[j:j + cols]
        for i in range(0, len(xs), rows):
            y = xs[i:i + rows, None] * u
            if slope:
                values, df = _f0(y, slope=True)
                df *= u
                slopes[i:i + rows] += df @ w[:, 0]
            else:
                values = _f0(y)
            sums[i:i + rows] += values @ w
    return out


def _coth_part(y: np.ndarray, y_max: float, slope: bool) -> tuple:
    """p(y) = (1 - y coth y)/y^2 and, with ``slope``, p'(y), at every y >= 0 of ``y``, the largest ``y_max``.

    Above _COTH_CROSSOVER the closed forms, coth y = 1/tanh y and
    p' = (y coth y + y^2 (coth^2 y - 1) - 2)/y^3, on y lifted to the
    crossover; below it the series in y^2, as products of one table of
    the powers of y^2 with the coefficients, on one gather of the small
    entries when there are large ones.
    """
    if y_max < _COTH_CROSSOVER:
        return _coth_series(y, slope)
    yb = np.maximum(y, _COTH_CROSSOVER)
    coth = 1.0 / np.tanh(yb)
    yb_coth = yb * coth
    y2 = yb * yb
    p = (1.0 - yb_coth) / y2
    dp = (yb_coth + y2 * (coth * coth - 1.0) - 2.0) / (y2 * yb) if slope else None
    small = y < _COTH_CROSSOVER
    if small.any():
        p[small], below = _coth_series(y[small], slope)
        if slope:
            dp[small] = below
    return p, dp


def _coth_series(y: np.ndarray, slope: bool) -> tuple:
    """``_coth_part`` below the crossover: p and p' (or None) from their series in y^2."""
    powers = _square_powers(y, len(_COTH_COEFFS))
    return powers @ _COTH_COEFFS, ((powers[:, :-1] @ _COTH_SLOPE_COEFFS) * y if slope else None)


def _relativistic_sum(xs: np.ndarray, t: float, mu_tilde: float, slope: bool) -> tuple:
    """The relativistic f(x, t) in closed form: (values, slopes or None, estimate, scale).

    With d(u) = u, -dn/du is the logistic density of mean mu and scale t,
    and f is its expectation of g(u) = u^3 f0(u x) over u >= 0.  Over the
    whole line (mu_tilde > 0 only) the logistic characteristic function
    pi x t / sinh(pi x t) gives
    F = h(y) [mu^3 f0(mu x) - 3 pi^2 t^2 mu sinc(mu x) p(y)],
    y = pi t x, h(y) = y/sinh y, p(y) = (1 - y coth y)/y^2 (``_coth_part``),
    a form with no cancellation at small x.  The density's part below the
    band bottom, expanded in z = exp(-|mu|/t), has the Laplace transforms
    int_0^inf g(w) e^(-a w) dw = 6/(a^2 + x^2)^2, so with xi = x t
    S = 6 t^3 z sum_k (-1)^(k+1) z^(k-1) k/(k^2 + xi^2)^2, summed by
    ``_alternating_weights``.  f = F + S for mu_tilde > 0, where S is
    skipped once its first term 6 t^3 z is below rounding of the cubic,
    and f = S for mu_tilde <= 0.  The slope is
    F' = h [pi^2 t^2 x p (G + mu^3 f0) + mu^4 f0' - 3 pi^3 t^3 mu sinc p']
    with G the bracket above, and
    dS/dx = -24 t^4 z xi sum_k (-1)^(k+1) z^(k-1) k/(k^2 + xi^2)^3.
    The estimate is the sum's truncation bound, 6 t^3 z times its bound
    (all of it where S is skipped), plus _CLOSED_FORM_ROUNDING times the
    scale, the cubic plus 6 t^3 z, which bounds |f| at every x.  x t and
    mu x are capped at _ARGUMENT_MAX.  Which formulas serve y/sinh y and p
    depends on the largest of ``xs`` alone.  ``_relativistic_terms`` holds
    the constants, and proves the scale finite or raises a DomainError.
    """
    cubic, b, series, truncation = _relativistic_terms(mu_tilde, t)
    x_cap = _ARGUMENT_MAX / max(t, mu_tilde)
    x_max = float(xs.max(initial=0.0))
    if x_max > x_cap:
        xs = np.minimum(xs, x_cap)
        x_max = x_cap
    values = np.zeros(len(xs))
    slopes = np.zeros(len(xs)) if slope else None
    if mu_tilde > 0.0:
        pi_t = math.pi * t
        y = np.maximum(pi_t * xs, _ARGUMENT_MIN)
        y_max = pi_t * x_max
        if y_max < _SINH_MAX:
            h = y / np.sinh(y)
        else:
            # y/sinh y = 2 y e^-y/(1 - e^-2y), which falls to 0 without overflow
            h = 2.0 * y * np.exp(-y) / -np.expm1(-2.0 * y)
        p, dp = _coth_part(y, y_max, slope)
        v = mu_tilde * xs
        f0 = _f0(v, slope)
        if slope:
            f0, df0 = f0
        vs = np.maximum(v, _ARGUMENT_MIN)
        sinc = np.sin(vs) / vs
        spread = 3.0 * pi_t * pi_t * mu_tilde * sinc
        cubic_f0 = mu_tilde ** 3 * f0
        g = cubic_f0 - spread * p
        values = h * g
        if slope:
            slopes = h * ((pi_t * pi_t) * xs * p * (g + cubic_f0) + mu_tilde ** 4 * df0
                          - pi_t * spread * dp)
    if series is not None:
        k, k_squared, weights = series
        xi = xs * t
        d = np.add.outer(k_squared, xi * xi)
        c = k[:, None] / (d * d)
        values = values + b * (weights @ c)
        if slope:
            slopes = slopes - (4.0 * t * b) * (xi * (weights @ (c / d)))
    scale = cubic + b
    return values, slopes, truncation + _CLOSED_FORM_ROUNDING * scale, scale


def _refined_sum(xs: np.ndarray, x_max: float, t: float, mu_tilde: float, regime: GasRegime,
                 tol: float, slope: bool = False) -> tuple:
    """f(x, t) at every x >= 0 of the flat ``xs``, with ``slope`` also df/dx, and the estimate.

    Returns (values, slopes or None, estimate).  Each branch checks its
    own window and raises a DomainError outside it.  At t = 0 the values
    are f0(x) with estimate 0, and mu_tilde must be exactly 1;
    relativistic at finite t, the closed form ``_relativistic_sum``.
    Nonrelativistic, the first branch whose estimate on [0, x_max] is
    within ``tol`` serves: the Sommerfeld series (``_degenerate_branch``),
    the pole sum (``_pole_branch``), whose estimate returned is the one
    over the x given, then ``_kernel_sum`` on the kernel rules of levels
    0, 1, ... until the gap between their Kronrod and Gauss sums is.  The
    pole sum, the closed form and the kernel rule also stop at QUADPACK's
    rounding floor _ROUNDOFF sum_j W_j0, a bound on sum_j |W_j0 f0(x u_j)|,
    with f(0) or the closed form's scale for sum_j W_j0.  ``x_max``, at
    least the largest of ``xs``, is the largest x the kernel rules resolve
    and the series' and pole sum's estimates bound.  The callers have
    checked x, t, the regime and ``tol``.  A call that raises leaves none
    of the rules it built in the cache.
    """
    if t == 0.0:
        if mu_tilde != 1.0:
            raise DomainError("at zero reduced temperature the reduced chemical potential "
                              f"must be exactly 1, got {mu_tilde!r}")
        return (*_f0(xs, True), 0.0) if slope else (_f0(xs), None, 0.0)
    if regime is GasRegime.EXTREME_RELATIVISTIC:
        values, slopes, err, scale = _relativistic_sum(xs, t, mu_tilde, slope)
        if err <= tol or err <= _ROUNDOFF * scale:
            return values, slopes, err
        raise QuadratureError(
            f"relativistic closed form's estimate {err:.3e} exceeds the tolerance {tol:.3e} "
            f"at t={t!r}, mu_tilde={mu_tilde!r}",
            error_estimate=err,
        )
    _require_kernel_window(mu_tilde, t)
    series = _degenerate_branch(mu_tilde, t, x_max, tol)
    if series is not None:
        terms, err = series
        return (*_sommerfeld_sum(xs, terms, slope), err)
    poles = _pole_branch(mu_tilde, t, x_max, tol)
    if poles is not None:
        return _pole_sum(xs, poles, slope)
    mark = _cached_kernel_rule.mark()
    try:
        for level in range(_MAX_LEVEL + 1):
            rule = kernel_rule(mu_tilde, t, x_max, level)
            sums = _kernel_sum(xs, rule, slope)
            err = float(np.abs(sums[:, 0] - sums[:, 1]).max(initial=0.0))
            if not math.isfinite(err):
                raise QuadratureError(
                    f"thermal amplitude is not finite at t={t!r}, mu_tilde={mu_tilde!r}",
                    error_estimate=err,
                )
            if err <= tol or err <= _ROUNDOFF * float(rule.weights[:, 0].sum()):
                return sums[:, 0], (sums[:, 2] if slope else None), err
        raise QuadratureError(
            f"kernel rule stalled at estimate {err:.3e} (tolerance {tol:.3e}, "
            f"{len(rule.nodes)} nodes) at t={t!r}, x up to {x_max!r}",
            error_estimate=err,
        )
    except Exception:
        _cached_kernel_rule.drop_since(mark)
        raise


def thermal_amplitude(x, t: float, mu_tilde: float, regime: GasRegime,
                      tol: float = _DEFAULT_TOL) -> tuple:
    """Exchange amplitude f(x, t) for a scalar or an array of x, and its error estimate.

    f(x, t) = int u^3 f0(u x) (-dn/du) du (integration by parts of
    (3/x) int u n(u) sin(ux) du) is a positively weighted average of the
    ground-state amplitude.  At x = 0 it is 3 int u^2 n(u) du, which
    equals 1 when mu_tilde solves the particle-number equation.  At t = 0
    it is the ground state f0(x) with estimate 0, and mu_tilde must be
    exactly 1.  The inputs are checked here, and ``_refined_sum``
    evaluates f, each branch checking its own window of (mu_tilde, t).

    Relativistic, f is a closed form at every t and x
    (``_relativistic_sum``), and the estimate bounds its truncation and
    rounding.  Any mu_tilde is accepted whose mu_tilde^3, and any t whose
    6 t^3 exp(-|mu_tilde|/t) and pi^2 t^2 mu_tilde, stay below e^700; a
    DomainError names the one that does not.

    Nonrelativistic, f is the first of three branches whose estimate on
    [0, max x] is at most ``tol``: the Sommerfeld series
    (``degenerate._sommerfeld_sum``; at the solved mu and x up to 6, t up
    to about 0.029 at tol 1e-14, 0.035 at 1e-12 and 0.042 at 1e-10), the
    sum over the Matsubara poles (``matsubara._pole_sum``, also at its
    rounding floor; up to t of about 1.2, 28 and 340), and at the hot end
    one dot product of f0(x u_j) with the weights of a Fermi-kernel rule,
    whose estimate is the gap between its 15-point Kronrod and 7-point
    Gauss sums, halved until it is at most ``tol`` or the sum's rounding
    floor.  At finite t, mu_tilde must be at least -2^50 t, or the kernel
    window's panel edges stop increasing, and the window's top,
    u = sqrt(max(mu_tilde, 0) + 45 t), at most about 3.5e102, or its
    weights u^3 overflow; the solved chemical potential lies inside.
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
    _require_member("regime", regime, GasRegime)
    value, _, err = _refined_sum(flat, x_max, t, mu_tilde, regime, tol)
    return (float(value[0]) if xs.ndim == 0 else value.reshape(xs.shape)), err


def _root_in_bracket(fn, lo: float, hi: float, g_lo: float, g_hi: float) -> tuple[float, float]:
    """Root of g on [lo, hi], given g(lo) = g_lo and g(hi) = g_hi of opposite signs, and g there.

    ``fn(x)`` returns g(x) and g'(x).  The first iterate is the secant
    point of the bracket, and each further one a Newton step, kept inside
    the bracket that the signs of g shrink; a step that would leave it, or
    that is not below half the step before, is replaced by bisection (the
    ``rtsafe`` scheme of Numerical Recipes, section 9.4).  Converged once a
    step is at most (_ROOT_XTOL min(1, |hi|) + _ROOT_RTOL |x|)/2, the rule
    of Brent's method with its absolute part scaled down by a bracket that
    has shrunk below 1, so that a root far below _ROOT_XTOL is still found
    to _ROOT_RTOL; the x returned is the last one evaluated, with its g.
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
        if abs(step) <= 0.5 * (_ROOT_XTOL * min(1.0, abs(hi)) + _ROOT_RTOL * abs(x)):
            return x, g
        x = new
    raise SolverError(
        f"root refinement did not converge in {_ROOT_MAXITER} steps on [{lo!r}, {hi!r}]"
    )


# x = 0 (the origin check) followed by the scan grid of the bracket search
_SCAN_X = np.concatenate(([0.0, 1e-3], np.arange(0.1, 3.05, 0.1)))
# the decades below the grid, 1e-300 to 1e-4, that the relativistic scan
# adds when f^2 < 1/2 already at 1e-3
_SCAN_DECADES = 10.0 ** np.arange(-300.0, -3.0)
# the bracket search scans the grid below this x, which falls between its
# points 1.9 and 2.0, and the rest only if no crossing lies there.  Over t
# from 1e-6 to 30, both regimes and both mu modes, the largest zeta was
# 1.866 (fermi mu, rel, t = 0.172)
_SCAN_WINDOW_END = 1.95
# above this multiple of the classical zeta sqrt(2 ln 2 / t) (``_scan_stops``)
# the first scan call stops; exact-mu zeta stays below 0.9996 of it for t in [1e-3, 3]
_THERMAL_WINDOW = 1.25


def _first_crossing(gaps: np.ndarray) -> int | None:
    """Index of the first grid gap that is 0 or changes sign to the next, if any."""
    signs = np.sign(gaps)
    crossings = np.flatnonzero((signs[:-1] == 0.0) | (signs[:-1] * signs[1:] < 0.0))
    return int(crossings[0]) if crossings.size else None


def _scan_stops(t: float) -> list[int]:
    """Where the kernel scan's calls end on ``_SCAN_X``: each call covers the grid up to its stop.

    The last two calls end at _SCAN_WINDOW_END and at the end of the grid.
    A first call ends at the first grid point at or above _THERMAL_WINDOW
    times the classical zeta sqrt(2 ln 2 / t) (where the Maxwell-Boltzmann
    f = exp(-x^2 t/4) crosses), when that point lies below _SCAN_WINDOW_END.
    """
    stops = [int(np.searchsorted(_SCAN_X, _SCAN_WINDOW_END)), len(_SCAN_X)]
    classical = math.sqrt(2.0 * math.log(2.0) / t)
    thermal = int(np.searchsorted(_SCAN_X, _THERMAL_WINDOW * classical)) + 1
    if thermal < stops[0]:
        stops.insert(0, thermal)
    return stops


def solve_zeta(t: float, regime: GasRegime = GasRegime.NONRELATIVISTIC,
               mu_mode: MuMode = MuMode.EXACT_NORMALIZATION) -> ZetaResult:
    """Smallest x > 0 with f(x,t)^2 = 1/2, bracketed by a scan and refined by Newton steps.

    The scan grid is x in {1e-3, 0.1, 0.2, ..., 3}, after the origin x = 0,
    whose f^2 must exceed 1/2.  The bracket is the first sign change of
    f^2 - 1/2 on the grid, refined by ``_root_in_bracket``, whose Newton
    steps take f and df/dx from one evaluation.  The residual is the gap
    at the last x evaluated.  The amplitude is evaluated at the fixed
    tolerance _ZETA_QUAD_TOL = 1e-12, so that the returned residual stays
    below the 1e-10 contract.

    Where f has a closed form it is scanned on the whole grid, origin
    included, in one call: at t = 0, relativistic, and nonrelativistic on
    the Sommerfeld series or the pole sum wherever either's estimate over
    the grid serves _ZETA_QUAD_TOL (t up to about 0.036, then up to about
    28 in exact mu and 300 in fermi mu).  Where f^2 < 1/2 already at 1e-3
    (relativistic, exact mu from t of about 435, fermi mu from about 2e12)
    the bracket is [0, 1e-3], so zeta solves at every t whose f(0)^2 is
    finite.  At the hot end left to the kernel rule, the scan runs in
    calls whose rules resolve only their own x (``_scan_stops``): the
    first, from the origin, to the first grid point at or above 1.25 times
    the classical zeta when that is below 1.95, the next to 1.9 and the
    last to 3, each made only while no crossing is found, so the bracket
    is the first sign change on the whole grid; a first grid point with
    f^2 < 1/2 fails the solve at once.  The Newton steps pass the last
    scan call's x_max, and so sum on the cached rules of the call that
    evaluated the bracket's upper end.

    Results are cached per (t, regime, mu_mode), however the arguments
    are spelled; ``cache_info`` and ``cache_clear`` reach that cache.
    """
    _require_member("regime", regime, GasRegime)
    _require_member("mu_mode", mu_mode, MuMode)
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


def _require_origin(f_origin: float) -> None:
    """Raise a SolverError unless f(0)^2 > 1/2, the condition for any crossing."""
    if not (f_origin ** 2 > 0.5):
        raise SolverError(
            f"no root exists: the amplitude at zero separation is {f_origin!r}, "
            "which does not exceed 1/sqrt(2), so f^2 = 1/2 has no crossing"
        )


def _closed_form_scan(t: float, regime: GasRegime, mu_tilde: float) -> tuple:
    """The closed-form scan: the grid, f and f^2 - 1/2 on all of _SCAN_X, the origin included.

    Where f^2 < 1/2 already at 1e-3 the decades _SCAN_DECADES join the
    grid between the origin and 1e-3, in one more call, so that the
    bracket spans at most a decade above 1e-300.
    """
    def amplitude(xs):
        return _refined_sum(xs, float(xs[-1]), t, mu_tilde, regime, _ZETA_QUAD_TOL)[0]

    grid, values = _SCAN_X, amplitude(_SCAN_X)
    if not (values[0] <= _ORIGIN_MAX):
        raise DomainError(
            f"reduced temperature {t!r} is too large for a zeta solve: the amplitude at zero "
            f"separation, {values[0]:.3g}, squares past the float range"
        )
    _require_origin(values[0])
    if values[1] ** 2 < 0.5:
        grid = np.concatenate((_SCAN_X[:1], _SCAN_DECADES, _SCAN_X[1:]))
        values = np.concatenate((values[:1], amplitude(_SCAN_DECADES), values[1:]))
    return grid, values, np.square(values) - 0.5


def _kernel_scan(t: float, regime: GasRegime, mu_tilde: float) -> tuple:
    """The kernel rule's scan (nonrelativistic, t > 0): grid, and f and f^2 - 1/2 from its first point to its last call's end."""
    stops = _scan_stops(t)

    def amplitude(xv):
        return _refined_sum(xv, float(xv[-1]), t, mu_tilde, regime, _ZETA_QUAD_TOL)[0]

    f_origin, *scan = amplitude(_SCAN_X[:stops[0]])
    _require_origin(f_origin)

    values = np.array(scan)
    gaps = np.square(values) - 0.5
    # a first point already below 1/2 puts the crossing below the grid
    if not gaps[0] < 0.0:
        for start, stop in zip(stops, stops[1:]):
            if _first_crossing(gaps) is not None:
                break
            values = np.concatenate((values, amplitude(_SCAN_X[start:stop])))
            gaps = np.square(values) - 0.5
    return _SCAN_X[1:], values, gaps


def _zeta_from_scan(t: float, regime: GasRegime, mu_mode: MuMode) -> ZetaResult:
    """The uncached body of ``solve_zeta`` at a valid t."""
    mu_tilde = reduced_chemical_potential(t, regime, mu_mode)
    # f0 at t = 0 is a closed form; nonrelativistic at finite t so are the
    # Sommerfeld series and the pole sum, where either serves the whole grid
    x_max = float(_SCAN_X[-1])
    closed_form = (t == 0.0 or regime is GasRegime.EXTREME_RELATIVISTIC
                   or _degenerate_branch(mu_tilde, t, x_max, _ZETA_QUAD_TOL) is not None
                   or _pole_branch(mu_tilde, t, x_max, _ZETA_QUAD_TOL) is not None)
    if closed_form:
        grid, values, gaps = _closed_form_scan(t, regime, mu_tilde)
        k = _first_crossing(gaps)
    else:
        grid, values, gaps = _kernel_scan(t, regime, mu_tilde)
        k = None if gaps[0] < 0.0 else _first_crossing(gaps)
    if k is None:
        raise SolverError(
            f"no sign change of f^2 - 1/2 on [{grid[0]:g}, {grid[-1]:g}] "
            f"at t={t!r}: the crossing either sits below the scan window "
            "(bracket too small) or the amplitude never reaches 1/2"
        )
    if values[k] < 0.0:
        # f fell through +1/sqrt(2) and back between two scan points: this
        # crossing, where f = -1/sqrt(2), is not the first
        raise SolverError(
            f"the scan's first sign change of f^2 - 1/2, on [{grid[k]:g}, {grid[k + 1]:g}] "
            f"at t={t!r} ({mu_mode.value} mu), is a crossing of f = -1/sqrt(2): "
            "the crossings of f = +1/sqrt(2) before it lie between two scan points"
        )

    # the scan stops after the first call that holds a crossing, so that
    # call, the last, evaluated the bracket's upper end: its x_max, the last
    # abscissa scanned, fetches its cached kernel rules
    x_scan = float(grid[len(values) - 1])

    def gap_and_slope(xv):
        value, slope, _ = _refined_sum(np.array([xv]), x_scan, t, mu_tilde, regime,
                                       _ZETA_QUAD_TOL, slope=True)
        f = float(value[0])
        return f * f - 0.5, 2.0 * f * float(slope[0])

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
