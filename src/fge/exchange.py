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
Matsubara poles of ``matsubara`` where that does (up to t of about 1 to
340), and at the hot end left, where mu_tilde <= 0, the Boltzmann series
in z = exp(mu_tilde/t) (``_boltzmann_sum``).  Each branch gives, over an
array of x, f and its error estimate; no branch serves a hot gas with
mu_tilde > 0 past the pole sum's reach.
The distance constant zeta is the smallest x where f^2 crosses 1/2:
the first crossing of a Chebyshev interpolant of f, proven first on a
chain of windows, whose samples also give the average over [0, zeta]
its amplitude.
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
from .quadrature import chebyshev_coefficients, chebyshev_lobatto, chebyshev_series
from .fermi import (
    CACHE_SIZE,
    GasRegime,
    MuMode,
    _boltzmann_terms,
    _relativistic_terms,
    _require_member,
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
# where the closed form loses a factor 4 to cancellation
_COTH_CROSSOVER = 1.0
_COTH_COEFFS = -np.array(_y_coth_y_coefficients(19)[1:])
# the closed forms' arguments x t and mu x (relativistic) and x sqrt(t)
# (Boltzmann) are capped here: past it every term they enter is below 1e-150
# of the amplitude's scale, and the cap keeps their powers finite
_ARGUMENT_MAX = 1e75
# positive floor of y = pi t x and of mu x, where y/sinh(y) and sin(v)/v are 1
_ARGUMENT_MIN = 1e-300
# y/sinh(y) is formed directly while sinh(y) stays far from overflow
_SINH_MAX = 700.0
# largest amplitude at zero separation whose square the zeta solve can form
_ORIGIN_MAX = 1e150

# tolerance of an amplitude request that names none
_DEFAULT_TOL = 1e-10
# a branch's estimate at most this times its scale, a bound of |f| at every
# x, is rounding, and the branch serves whatever the tolerance
_ROUNDOFF = 50.0 * float(np.finfo(float).eps)
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

    The floor is _ROUNDOFF times the scale f(0).  The table-free
    ``_pole_floor`` rules out the hot gas before a table is built.
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


def _coth_part(y: np.ndarray, y_max: float) -> np.ndarray:
    """p(y) = (1 - y coth y)/y^2 at every y >= 0 of ``y``, the largest ``y_max``.

    Above _COTH_CROSSOVER the closed form, coth y = 1/tanh y, on y lifted
    to the crossover; below it the series in y^2, one product of a table of
    the powers of y^2 with the coefficients, on one gather of the small
    entries when there are large ones.
    """
    if y_max < _COTH_CROSSOVER:
        return _coth_series(y)
    yb = np.maximum(y, _COTH_CROSSOVER)
    p = (1.0 - yb * (1.0 / np.tanh(yb))) / (yb * yb)
    small = y < _COTH_CROSSOVER
    if small.any():
        p[small] = _coth_series(y[small])
    return p


def _coth_series(y: np.ndarray) -> np.ndarray:
    """``_coth_part`` below the crossover, from its series in y^2."""
    return _square_powers(y, len(_COTH_COEFFS)) @ _COTH_COEFFS


def _relativistic_sum(xs: np.ndarray, t: float, mu_tilde: float) -> tuple:
    """The relativistic f(x, t) in closed form: (values, estimate, scale).

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
    and f = S for mu_tilde <= 0.  The estimate is the sum's truncation
    bound, 6 t^3 z times its bound (all of it where S is skipped), plus
    _CLOSED_FORM_ROUNDING times the scale, the cubic plus 6 t^3 z, which
    bounds |f| at every x.  x t and mu x are capped at _ARGUMENT_MAX.
    Which formulas serve y/sinh y and p depends on the largest of ``xs``
    alone.  ``_relativistic_terms`` holds the constants, and proves the
    scale finite or raises a DomainError.
    """
    cubic, b, series, truncation = _relativistic_terms(mu_tilde, t)
    x_cap = _ARGUMENT_MAX / max(t, mu_tilde)
    x_max = float(xs.max(initial=0.0))
    if x_max > x_cap:
        xs = np.minimum(xs, x_cap)
        x_max = x_cap
    values = np.zeros(len(xs))
    if mu_tilde > 0.0:
        pi_t = math.pi * t
        y = np.maximum(pi_t * xs, _ARGUMENT_MIN)
        y_max = pi_t * x_max
        if y_max < _SINH_MAX:
            h = y / np.sinh(y)
        else:
            # y/sinh y = 2 y e^-y/(1 - e^-2y), which falls to 0 without overflow
            h = 2.0 * y * np.exp(-y) / -np.expm1(-2.0 * y)
        v = mu_tilde * xs
        vs = np.maximum(v, _ARGUMENT_MIN)
        sinc = np.sin(vs) / vs
        spread = 3.0 * pi_t * pi_t * mu_tilde * sinc
        values = h * (mu_tilde ** 3 * _f0(v) - spread * _coth_part(y, y_max))
    if series is not None:
        k, k_squared, weights = series
        xi = xs * t
        d = np.add.outer(k_squared, xi * xi)
        values = values + b * (weights @ (k[:, None] / (d * d)))
    scale = cubic + b
    return values, truncation + _CLOSED_FORM_ROUNDING * scale, scale


def _boltzmann_sum(xs: np.ndarray, t: float, mu_tilde: float) -> tuple:
    """The nonrelativistic f(x, t) at mu_tilde <= 0 as its Boltzmann series: (values, estimate, scale).

    Each term z^k exp(-k u^2/t) of the occupancy gives a Gaussian integral,
    so f = b sum_k (-1)^(k+1) z^(k-1) k^(-3/2) exp(-x^2 t/(4k)), with
    b = (3 sqrt(pi)/4) z t^(3/2) (``fermi._boltzmann_terms``).  With
    w = exp(-u^2/t), the k-th term is b times the (k-1)-th moment of a
    signed measure on w in [0, z] whose total variation is at most 1 at
    every x, so the bound of ``_alternating_weights`` holds at every x, and
    b bounds |f|.  The estimate is b times that bound plus
    _CLOSED_FORM_ROUNDING times the scale b.  x sqrt(t) is capped at
    _ARGUMENT_MAX, past which every term is 0.
    """
    b, quarter, weights, truncation = _boltzmann_terms(mu_tilde, t)
    root_t = math.sqrt(t)
    y = np.minimum(xs, _ARGUMENT_MAX / root_t) * root_t
    values = b * (np.exp(-np.multiply.outer(y * y, quarter)) @ weights)
    return values, truncation + _CLOSED_FORM_ROUNDING * b, b


def _refined_sum(xs: np.ndarray, x_max: float, t: float, mu_tilde: float, regime: GasRegime,
                 tol: float) -> tuple:
    """f(x, t) at every x >= 0 of the flat ``xs``, and its estimate.

    Returns (values, estimate).  At t = 0 the values are f0(x) with
    estimate 0, and mu_tilde must be exactly 1; relativistic at finite t,
    the closed form ``_relativistic_sum``.  Nonrelativistic, the first
    branch whose estimate on [0, x_max] is within ``tol`` serves: the
    Sommerfeld series (``_degenerate_branch``), the pole sum
    (``_pole_branch``), whose estimate returned is the one over the x
    given, then at mu_tilde <= 0 the Boltzmann series
    (``_boltzmann_sum``).  The closed forms also serve at the rounding
    floor _ROUNDOFF times their scale, which the Boltzmann series always
    meets.  At mu_tilde > 0 past the pole sum a ``QuadratureError`` names
    t, mu_tilde and the pole sum's estimate.  ``x_max``, at least the
    largest of ``xs``, is the largest x the series' and pole sum's
    estimates bound.  The callers have checked x, t, the regime and
    ``tol``; each closed form raises a DomainError where its scale would
    overflow.
    """
    if t == 0.0:
        if mu_tilde != 1.0:
            raise DomainError("at zero reduced temperature the reduced chemical potential "
                              f"must be exactly 1, got {mu_tilde!r}")
        return _f0(xs), 0.0
    if regime is GasRegime.EXTREME_RELATIVISTIC:
        values, err, scale = _relativistic_sum(xs, t, mu_tilde)
    else:
        series = _degenerate_branch(mu_tilde, t, x_max, tol)
        if series is not None:
            terms, err = series
            return _sommerfeld_sum(xs, terms), err
        poles = _pole_branch(mu_tilde, t, x_max, tol)
        if poles is not None:
            return _pole_sum(xs, poles)
        if mu_tilde > 0.0:
            err = _pole_floor(mu_tilde, t)
            if err <= tol:
                err = _pole_estimate(_pole_terms(mu_tilde, t), x_max)
            raise QuadratureError(
                f"no nonrelativistic closed form serves t={t!r}, mu_tilde={mu_tilde!r} at the "
                f"tolerance {tol:.3e}: the pole sum's estimate is {err:.3e}, and the Boltzmann "
                "series needs mu_tilde <= 0",
                error_estimate=err,
            )
        values, err, scale = _boltzmann_sum(xs, t, mu_tilde)
    if err <= tol or err <= _ROUNDOFF * scale:
        return values, err
    raise QuadratureError(
        f"closed form's estimate {err:.3e} exceeds the tolerance {tol:.3e} "
        f"at t={t!r}, mu_tilde={mu_tilde!r}",
        error_estimate=err,
    )


def thermal_amplitude(x, t: float, mu_tilde: float, regime: GasRegime,
                      tol: float = _DEFAULT_TOL) -> tuple:
    """Exchange amplitude f(x, t) for a scalar or an array of x, and its error estimate.

    f(x, t) = int u^3 f0(u x) (-dn/du) du (integration by parts of
    (3/x) int u n(u) sin(ux) du) is a positively weighted average of the
    ground-state amplitude.  At x = 0 it is 3 int u^2 n(u) du, which
    equals 1 when mu_tilde solves the particle-number equation.  At t = 0
    it is the ground state f0(x) with estimate 0, and mu_tilde must be
    exactly 1.  The inputs are checked here, and ``_refined_sum``
    evaluates f.

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
    rounding floor; up to t of about 1.2, 28 and 340), and, where
    mu_tilde <= 0, the Boltzmann series (``_boltzmann_sum``), at every t
    whose (3 sqrt(pi)/4) exp(mu_tilde/t) t^(3/2) stays below e^700.  With
    mu pinned at the Fermi energy no branch serves from t of about 40,
    300 and 340-356 at those tolerances, and a ``QuadratureError`` names t.
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
    value, err = _refined_sum(flat, x_max, t, mu_tilde, regime, tol)
    return (float(value[0]) if xs.ndim == 0 else value.reshape(xs.shape)), err


def _root_in_bracket(fn, lo: float, hi: float, g_lo: float, g_hi: float) -> tuple[float, float]:
    """Root of g on [lo, hi], given g(lo) = g_lo and g(hi) = g_hi of opposite signs, and g there.

    ``fn(x)`` returns g(x) and g'(x).  From the secant point of the
    bracket, Newton steps kept inside the bracket that the signs of g
    shrink, bisecting instead of a step that would leave it or is not below
    half the one before (``rtsafe``, Numerical Recipes 9.4).  Converged once
    a step is at most (_ROOT_XTOL min(1, |hi|) + _ROOT_RTOL |x|)/2, Brent's
    rule with its absolute part scaled down by a bracket below 1; the x
    returned is the last one evaluated, with its g.
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


# every window of the zeta solve lies in [0, _ZETA_X_MAX], and every amplitude
# it evaluates is summed to it, so that every window takes one branch
_ZETA_X_MAX = 3.0
# the zeta solve's Chebyshev-Lobatto samples of a window (``_lobatto_samples``)
_ZETA_SAMPLES, _ZETA_MAX_SAMPLES, _ZETA_TAIL_TOL = 33, 257, 1e-14
# dense points per sample interval on which the first crossing is certified
_DENSE_PER_SAMPLE = 4
_CROSSING = math.sqrt(0.5)


def _classical_zeta(t: float, regime: GasRegime) -> float:
    """zeta of the Maxwell-Boltzmann gas at t > 0: where exp(-x^2 t/4) (nonrel) or (1 + x^2 t^2)^-2 (rel) crosses."""
    if regime is GasRegime.NONRELATIVISTIC:
        return math.sqrt(2.0 * math.log(2.0) / t)
    return math.sqrt(2.0 ** 0.25 - 1.0) / t


@lru_cache(maxsize=None)
def _dense_tables(count: int) -> tuple:
    """What certifies a crossing of a ``count``-term Chebyshev series: (values, slopes, steps, curvature).

    At the m + 1 = 4 (count - 1) + 1 Chebyshev-Lobatto points y of [-1, 1],
    increasing, ``values`` and ``slopes`` hold T_j(y) and T_j'(y), j <
    ``count``: times the coefficients, p and p' there.  With y = cos(phi),
    T_j = cos(j phi) and T_j' = j sin(j phi)/sin(phi), j^2 (+-1)^(j+1) at
    y = +-1, and j phi is reduced modulo 2 pi first, as in
    ``chebyshev_coefficients``.  ``steps`` are the gaps between the points,
    and curvature[j] = j^2 (j^2 - 1)/3 is max |T_j''| on [-1, 1].
    """
    m = _DENSE_PER_SAMPLE * (count - 1)
    i = np.arange(m, -1, -1)  # phi = i pi/m, so that y rises
    j = np.arange(count)
    angles = np.outer(i, j) % (2 * m) * (math.pi / m)
    slopes = np.empty(angles.shape)
    slopes[1:-1] = j * np.sin(angles[1:-1]) / np.sin(i[1:-1] * (math.pi / m))[:, None]
    slopes[0] = j * j * np.where(j % 2, 1.0, -1.0)
    slopes[-1] = j * j
    tables = (np.cos(angles), slopes, 2.0 * np.diff(chebyshev_lobatto(m + 1)[0]),
              j * j * (j * j - 1.0) / 3.0)
    for table in tables:
        table.flags.writeable = False  # every caller of the cache shares them
    return tables


def _first_crossing(coeffs: np.ndarray, lo: float, hi: float, t: float):
    """The dense step of [lo, hi] where the interpolant p first falls through c = 1/sqrt(2), or None.

    Returns (x_lo, x_hi, p(x_lo) - c, p(x_hi) - c) of the step, or None
    where p > c on the whole window.  On the dense points of
    ``_dense_tables``, in y, with B = sum_j |c_j| j^2 (j^2 - 1)/3 >= |p''|,
    every step of width d before the first point with p <= c is proven
    free of a crossing: both its ends exceed c by more than B d^2/8, the
    most p can dip below its chord, or p falls throughout it,
    max(p'_lo, p'_hi) + B d/2 < 0.  The step that reaches that point must
    fall throughout, so that it holds one crossing.  p' is formed only at
    the ends of the steps that need it.  A step that is not proven, or a
    window that starts at p <= c, raises a SolverError naming t and the
    window.
    """
    values, slopes, steps, curvature = _dense_tables(len(coeffs))
    excess = values @ coeffs - _CROSSING
    points = lo + (hi - lo) * chebyshev_lobatto(len(excess))[0]
    below = np.flatnonzero(excess <= 0.0)
    # the steps that must hold no crossing: all of them, or those before the crossing's
    clear = max(int(below[0]) - 1, 0) if below.size else len(steps)
    bound = float(curvature @ np.abs(coeffs))
    doubtful = np.flatnonzero(~(np.minimum(excess[:clear], excess[1:clear + 1])
                                > 0.125 * bound * np.square(steps[:clear]))).tolist()
    # a step no chord clears, and the crossing's, must fall throughout
    for i in doubtful + [clear] if below.size else doubtful:
        rise = max((slopes[i:i + 2] @ coeffs).tolist()) + 0.5 * bound * steps[i]
        if not (rise < 0.0 and excess[0] > 0.0):
            raise SolverError(
                f"the first crossing of f^2 = 1/2 on [{lo:g}, {hi:g}] at t={t!r} is not certified: the "
                f"interpolant may reach 1/sqrt(2) unseen between {points[i]:g} and {points[i + 1]:g}"
            )
    if not below.size:
        return None
    return float(points[clear]), float(points[clear + 1]), float(excess[clear]), float(excess[clear + 1])


def _lobatto_samples(amplitude, lo: float, hi: float, t: float) -> tuple:
    """``amplitude`` at enough Chebyshev-Lobatto points on [lo, hi]: the samples and their coefficients.

    The first _ZETA_SAMPLES points are one call; while the tail, the larger
    of the last two coefficients, exceeds both _ZETA_TAIL_TOL and _ROUNDOFF
    times the largest |sample|, and the last doubling halved it (else it is
    the samples' noise), one more call at the points between doubles them;
    past _ZETA_MAX_SAMPLES a ``QuadratureError`` carries it.
    """
    count = _ZETA_SAMPLES
    samples = amplitude(lo + (hi - lo) * chebyshev_lobatto(count)[0])
    tail = math.inf
    while True:
        coeffs = chebyshev_coefficients(samples)
        last, tail = tail, float(np.abs(coeffs[-2:]).max())
        tol = max(_ZETA_TAIL_TOL, _ROUNDOFF * float(np.abs(samples).max()))
        if tail <= tol or tail > 0.5 * last:
            return samples, coeffs
        if count == _ZETA_MAX_SAMPLES:
            raise QuadratureError(
                f"amplitude samples on [{lo:g}, {hi:g}] stalled at tail {tail:.3e} (tolerance "
                f"{tol:.3e}, {count} points) at t={t!r}",
                error_estimate=tail,
            )
        count = 2 * count - 1
        merged = np.empty(count)
        merged[::2] = samples
        merged[1::2] = amplitude(lo + (hi - lo) * chebyshev_lobatto(count)[0][1::2])
        samples = merged


def solve_zeta(t: float, regime: GasRegime = GasRegime.NONRELATIVISTIC,
               mu_mode: MuMode = MuMode.EXACT_NORMALIZATION) -> ZetaResult:
    """Smallest x > 0 with f(x,t)^2 = 1/2: the first crossing, certified on a chain of Chebyshev windows.

    Each window [lo, hi] is sampled once by ``_lobatto_samples`` (33
    Chebyshev-Lobatto points, doubled while the tail asks), every amplitude
    summed to x = 3 at the fixed tolerance _ZETA_QUAD_TOL.  The first
    window is [0, 3] at t = 0, else [0, min(3, 1.01 zeta_cl)], zeta_cl the
    classical gas's zeta, which holds the exact-mu crossing at every t;
    f(0)^2 must exceed 1/2 there.  ``_first_crossing`` finds the first
    dense step of the window's interpolant p where p falls through
    1/sqrt(2), and proves that no crossing hides before it; a window with
    none is followed by [hi, min(3, 2 hi)], and none by x = 3 fails the
    solve.

    The root is refined by ``_root_in_bracket``'s Newton steps on p.  The
    residual, below 1e-10, is |p(zeta)^2 - 1/2| + E (2 |p(zeta)| + E), E
    the last two coefficients plus _CLOSED_FORM_ROUNDING times the largest
    sample: an estimate, not a bound, of the gap to the amplitude, which
    leaves out the samples' own error.

    Results are cached per (t, regime, mu_mode), however the arguments
    are spelled, with the windows sampled (``_solve_zeta``);
    ``cache_info`` and ``cache_clear`` reach that cache.
    """
    _require_member("regime", regime, GasRegime)
    _require_member("mu_mode", mu_mode, MuMode)
    return _solve_zeta(t, regime, mu_mode)[0]


@lru_cache(maxsize=CACHE_SIZE)
def _solve_zeta(t: float, regime: GasRegime, mu_mode: MuMode) -> tuple:
    """``solve_zeta``'s result and the windows it sampled, a tuple of (lo, hi, samples).

    The samples, read-only, are the amplitude at the window's
    ``chebyshev_lobatto`` points, and the windows run from x = 0 past
    zeta: ``entanglement.average_entanglement`` interpolates f on
    [0, zeta] from them.
    """
    if not (0 <= t < math.inf):
        raise DomainError(f"reduced temperature must be finite and nonnegative, got {t!r}")
    mu_tilde = reduced_chemical_potential(t, regime, mu_mode)

    def amplitude(xs):
        return _refined_sum(xs, _ZETA_X_MAX, t, mu_tilde, regime, _ZETA_QUAD_TOL)[0]

    lo, hi = 0.0, _ZETA_X_MAX if t == 0.0 else min(_ZETA_X_MAX, 1.01 * _classical_zeta(t, regime))
    windows = []
    while True:
        samples, coeffs = _lobatto_samples(amplitude, lo, hi, t)
        samples.flags.writeable = False  # the cache entry shares them
        windows.append((lo, hi, samples))
        if lo == 0.0:
            _require_origin(float(samples[0]), t)
        bracket = _first_crossing(coeffs, lo, hi, t)
        if bracket is not None:
            break
        if hi == _ZETA_X_MAX:
            raise SolverError(f"no crossing of f^2 = 1/2 on [0, {_ZETA_X_MAX:g}] at t={t!r}")
        lo, hi = hi, min(_ZETA_X_MAX, 2.0 * hi)
    value_and_slope = chebyshev_series(coeffs, lo, hi)

    def excess_and_slope(x):
        f, df = value_and_slope(x)
        return f - _CROSSING, df

    root, excess = _root_in_bracket(excess_and_slope, *bracket)
    # an estimate of the gap between the interpolant and the amplitude at the
    # root: the interpolant's tail and the samples' rounding
    estimate = (abs(float(coeffs[-2])) + abs(float(coeffs[-1]))
                + _CLOSED_FORM_ROUNDING * float(np.abs(samples).max()))
    f = excess + _CROSSING
    residual = abs(excess * (f + _CROSSING)) + estimate * (2.0 * f + estimate)
    if not (residual < 1e-10):
        raise SolverError(
            f"root refinement stalled: residual {residual:.3e} at x={root!r}, t={t!r}"
        )
    return ZetaResult(zeta=root, t=float(t), regime=regime, residual=residual), tuple(windows)


def _require_origin(f_origin: float, t: float) -> None:
    """Raise unless f(0)^2 > 1/2, the condition for any crossing, and f(0)^2 is finite."""
    if not (f_origin <= _ORIGIN_MAX):
        raise DomainError(
            f"reduced temperature {t!r} is too large for a zeta solve: the amplitude at zero "
            f"separation, {f_origin:.3g}, squares past the float range"
        )
    if not (f_origin ** 2 > 0.5):
        raise SolverError(
            f"no root exists: the amplitude at zero separation is {f_origin!r}, "
            "which does not exceed 1/sqrt(2), so f^2 = 1/2 has no crossing"
        )


solve_zeta.cache_info = _solve_zeta.cache_info
solve_zeta.cache_clear = _solve_zeta.cache_clear
