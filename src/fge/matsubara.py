"""The nonrelativistic amplitude as its sum over the Matsubara poles.

n(u) has its poles at u^2 = c_m = mu + i pi t (2m + 1) (DLMF 4.36), and closing
(3/(2x)) int u n(u) e^(iux) du in the upper half-plane gives, for x > 0,
f = -(3 pi t/x) sum_m Re exp(i x s_m), s_m = sqrt(c_m).  The pole side sums
M = _POLES poles directly and the rest by the midpoint Euler-Maclaurin formula
(DLMF 2.10) on G(nu) = exp(i x sqrt(mu + 2 i pi t nu)) from nu = M, one Laurent
polynomial in w = i x s(M) per (mu, t).  At small x the Taylor side sums
f = sum_k c_k x^2k, c_k = 3 pi t (-1)^k Im Z(k + 1/2)/(2k + 1)!, Z(p) the
regularized sum of c_m^p (Hurwitz zeta, DLMF 25.11; Johansson, Numer.
Algorithms 69, 2015) by the same formula; c_0 is the particle number.  The
estimate is the Euler-Maclaurin remainder (Cauchy's estimate where |G| <= 1, or
the derivative of c^p), eps times the sum of the terms' sizes, and on the Taylor
side the first omitted term, which bounds the rest as f0's series does.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .degenerate import _CLOSED_FORM_ROUNDING, _SOMMERFELD_COEFFS, _polynomial, _square_powers

# poles summed directly, Bernoulli corrections of the rest, and Taylor terms
# kept, the next one bounding the Taylor side's remainder
_POLES, _BERNOULLI_TERMS, _TAYLOR_TERMS = 8, 14, 16
# the powers p = -1/2, 1/2, ... of the moments Z(p): the number's mu-derivative and the Taylor coefficients
_MOMENT_POWERS = np.arange(_TAYLOR_TERMS + 2) - 0.5
# the pole side's table: the direct poles, then the tail's powers w^j, j = -3 ... 2K - 1
_COLUMNS = _POLES + 2 * _BERNOULLI_TERMS + 3
_EPS, _LONG_EPS = float(np.finfo(float).eps), float(np.finfo(np.longdouble).eps)
_LONG_PI = np.longdouble(math.pi)
_BERNOULLI_RANGE = np.arange(_BERNOULLI_TERMS)
# beyond this decay exp(-x Im s(M)) the tail is below 1e-280 and is dropped
_TAIL_DECAY_MAX = 660.0
# the tail is dropped, too, beyond this |w| = x |s(M)|, where its powers w^j
# would overflow; that happens only at t/mu below about 1e-7, where the tail
# is about 3 |s(M)|^3/|w|^2, below 1e-19 of the scale
_TAIL_POWER_MAX = 1e10
# the pole sum needs |1/beta| = |c(M)|/(2 pi t) in double precision up to
# this, and |c(M)| at least the least size, so that the tail's e^w w^-3 stays
# finite from the smallest crossover candidate, x = 0.05, on
_INVERSE_BETA_MAX, _POLE_SIZE_MIN = 1e300, 1e-180
# the candidates for the crossover between the Taylor and the pole side
_CROSSOVER_CANDIDATES = 0.05 * 80.0 ** (np.arange(25) / 24.0)

_PoleTables = namedtuple("PoleTables", "rows tail moments inverse remainder pole_remainder signs "
                                       "roundings laurent_orders candidate_powers")


@lru_cache(maxsize=1)
def _pole_tables() -> _PoleTables:
    """The tables that depend on neither mu nor t, built on first use.

    ``tail`` times beta^(2k-1), summed over k, gives the coefficient of w^j in
    the corrections, -b_k (2k - 1)! C[2k - 1, j], with b_k = B_2k(1/2)/(2k)!
    and C[n, j] that of H^n w^j in exp(w (sqrt(1 + H) - 1)); ``moments`` is
    b_k (p)_(2k-1), (p)_n falling, and ``inverse`` 1/(p + 1), in extended
    precision; then the remainder bounds, and the Taylor side's constants.
    """
    order = 2 * _BERNOULLI_TERMS
    # b_k = -(1 - 2^(1 - 2k)) B_2k/(2k)! = (-1)^k a_k/(2 pi)^2k, a_k the Sommerfeld coefficients
    b = np.array([(-1) ** k * a / (2.0 * math.pi) ** (2 * k)
                  for k, a in enumerate(_SOMMERFELD_COEFFS[:_BERNOULLI_TERMS], start=1)])
    falling = np.cumprod(_MOMENT_POWERS[:, None] - np.arange(order), axis=1)  # [p, n - 1] = (p)_n
    factorial = np.cumprod(np.append(1.0, np.arange(1.0, 2.0 * order)))  # [n] = n!
    # n! C[n, j], n = 2k - 1, are the Bessel-polynomial coefficients
    # (-1)^(n-j) (2n - j - 1)!/((j - 1)! (n - j)! 2^(2n - j)), j <= n
    n, j = np.arange(1, order, 2)[:, None], np.arange(1, order)
    bessel = (-1.0) ** (n - j) * factorial[2 * n - j - 1] / (
        factorial[j - 1] * factorial[np.maximum(n - j, 0)] * 2.0 ** (2 * n - j))
    # |R| <= 2 |B_2K|/(2K)! int_M^inf |g^(2K)|, and 2 |B_2K|/(2K)! <= kernel
    kernel = 4.0 * (1.0 + 2.0 ** (1 - order)) / (2.0 * math.pi) ** order
    k = np.arange(_TAYLOR_TERMS + 1)
    # i (2m + 1) of the poles summed directly, and 2 i M of the origin nu = M
    rows = 1j * np.append(np.arange(1.0, 2.0 * _POLES, 2.0), 2.0 * _POLES).astype(np.clongdouble)
    tables = _PoleTables(
        rows, np.where(j <= n, -b[:, None] * bessel, 0.0), b * falling[:, n[:, 0] - 1],
        np.longdouble(2.0) / (2.0 * _MOMENT_POWERS + 2.0).astype(np.longdouble),
        kernel * np.abs(falling[:, -1]) * _POLES ** (_MOMENT_POWERS + 1 - order)
        / (order - _MOMENT_POWERS - 1),
        kernel * factorial[order] * _POLES ** (1 - order) / (order - 1),
        (-1.0) ** k / factorial[2 * k + 1], (k + 2.0) * _EPS,
        np.arange(-2.0, order + 1.0), _square_powers(_CROSSOVER_CANDIDATES, _TAYLOR_TERMS + 1))
    for table in tables:
        if isinstance(table, np.ndarray):
            table.flags.writeable = False  # every caller of the cache shares them
    return tables


def _moments(mu_tilde: float, t: float, count: int, bound: bool = False) -> tuple:
    """The first ``count`` sums Z(p), the poles s_m (m <= M), beta, and with ``bound`` the sums' bounds.

    Z(p) = sum_{m<M} c_m^p - c(M)^p [1/((p + 1) beta) + sum_k b_k (p)_(2k-1) beta^(2k-1)],
    c(nu) = mu + 2 i pi t nu.  The direct sum and the integral cancel to
    about (2 pi t M)^(3/2) times the result, so they are formed in numpy's
    long double (where that is double, the bound says so).
    """
    tables = _pole_tables()
    pi_t = _LONG_PI * t
    c = mu_tilde + pi_t * tables.rows
    s = np.sqrt(c)
    powers = np.empty((_POLES + 1, count), dtype=np.clongdouble)
    powers[:, 0] = 1.0 / s
    powers[:, 1:] = c[:, None]
    np.multiply.accumulate(powers, axis=1, out=powers)
    beta = 2j * pi_t / c[-1]
    integral = tables.inverse[:count] / beta
    # the corrections are small beside the result, and are formed in double precision
    odd = complex(beta) * (complex(beta) ** 2) ** _BERNOULLI_RANGE
    sums = powers[:-1].sum(axis=0) - powers[-1] * (integral + tables.moments[:count] @ odd)
    if not bound:
        return sums, s, beta
    sizes = np.abs(powers).astype(float)
    direct = sizes[:-1].sum(axis=0) + sizes[-1] * np.abs(integral).astype(float)
    rest = sizes[-1] * (np.abs(tables.moments[:count]) @ np.abs(odd))
    return sums, s, beta, (tables.remainder[:count] * (2.0 * math.pi * t) ** _MOMENT_POWERS[:count]
                           + _LONG_EPS * direct + _EPS * rest)


def _pole_log_number(mu_tilde: float, t: float, bound: bool = False) -> tuple:
    """log N and d(log N)/dmu, N = 3 pi t Im Z(1/2) and N' = (3 pi t/2) Im Z(-1/2); with ``bound`` N's bound too."""
    out = _moments(mu_tilde, t, 2, bound)
    number, slope = float(out[0][1].imag), 0.5 * float(out[0][0].imag)
    log_number = math.log(3.0 * math.pi * t * number), slope / number
    return (*log_number, 3.0 * math.pi * t * float(out[3][1])) if bound else log_number


_PoleSide = namedtuple("PoleSide", "table sizes crossover bound x_tail x_cap")


@dataclass(eq=False)
class _PoleTerms:
    """The pole sum's constants at one (mu_tilde, t), the pole side's (``side``) built on first use.

    ``reach`` indexes the last candidate where the Taylor estimate (highest
    first, growing with x) is within rounding; the crossover is not below it.
    """

    prefactor: float
    poles: np.ndarray
    beta: complex
    taylor: np.ndarray
    taylor_bound: tuple
    taylor_side: np.ndarray
    reach: int
    scale: float

    @cached_property
    def side(self) -> _PoleSide:
        return _pole_side_terms(self)


def _matsubara_terms(mu_tilde: float, t: float) -> _PoleTerms:
    """The pole sum's constants at (mu_tilde, t > 0): 3 pi t, i s_m, beta and the Taylor side's."""
    tables = _pole_tables()
    sums, s, beta, errors = _moments(mu_tilde, t, len(_MOMENT_POWERS), bound=True)
    prefactor = 3.0 * math.pi * t
    factor = prefactor * tables.signs
    coeffs = factor * sums[1:].imag.astype(float)
    taylor = coeffs[:-1]
    # the moments' errors, k + 2 roundings of c_k x^2k, and the first omitted term
    taylor_bound = np.abs(factor) * errors[1:] + tables.roundings * np.abs(coeffs)
    taylor_bound[-1] += abs(coeffs[-1])
    taylor_side = tables.candidate_powers @ taylor_bound
    reach = int(np.count_nonzero(taylor_side <= _CLOSED_FORM_ROUNDING * abs(coeffs[0])))
    poles = 1j * s.astype(complex)
    for array in (poles, taylor, taylor_side):
        array.flags.writeable = False  # every caller of a cache of these shares them
    return _PoleTerms(prefactor, poles, complex(beta), taylor, tuple(taylor_bound[::-1].tolist()),
                      taylor_side, max(reach - 1, 0), float(coeffs[0]))


def _pole_side_terms(terms: _PoleTerms) -> _PoleSide:
    """The pole side's weights, their sizes, the crossover, the estimate's bound, x_tail and x_cap.

    Weights 1 on the poles and the Laurent coefficients D_j on w^j; their
    sizes, and those times |s_m| or |s(M)|, by which the rounding of the
    exponents x s_m enters; the crossover is the candidate past ``reach``
    where the larger of the two sides' estimates is least.
    """
    poles, beta = terms.poles, terms.beta
    laurent = np.zeros(2 * _BERNOULLI_TERMS + 4, dtype=complex)  # D_j, j = -3 ... 2K
    laurent[1], laurent[2] = 2.0 / beta, -2.0 / beta
    laurent[4:-1] = (beta * (beta * beta) ** _BERNOULLI_RANGE) @ _pole_tables().tail
    table = np.empty(_COLUMNS, dtype=complex)
    table[:_POLES], table[_POLES:] = 1.0, laurent[:-1]
    sizes = np.empty((_COLUMNS, 2))
    sizes[:, 0] = np.abs(table)
    sizes[:_POLES, 1] = np.abs(poles[:-1])
    sizes[_POLES:, 1] = sizes[_POLES:, 0] * abs(poles[-1])
    x = _CROSSOVER_CANDIDATES[terms.reach:]
    estimates = np.maximum(terms.taylor_side[terms.reach:],
                           _pole_side_bound(x, -1j * poles, sizes, terms.prefactor))
    best = int(np.argmin(estimates))
    for array in (table, sizes):
        array.flags.writeable = False  # every caller of a cache of these shares them
    x_tail = min(_TAIL_DECAY_MAX / float(-poles[-1].real), _TAIL_POWER_MAX / float(abs(poles[-1])))
    return _PoleSide(table, sizes, float(x[best]), float(estimates[best]), x_tail,
                     _TAIL_DECAY_MAX / float(-poles[0].real))


def _pole_side_bound(x_low: np.ndarray, s: np.ndarray, sizes: np.ndarray,
                     prefactor: float) -> np.ndarray:
    """A bound of the pole side's estimate at every x >= x_low, for each x_low; inf where it overflows.

    Each size e^(-x a) (1 + x |s|), a = Im s, and e^(-x a) (x |s|)^j (1 + x |s|)
    on the tail, is at most its parts' maxima over x >= x_low, where
    (x |s|)^j e^(-x a) peaks at x = j/a; 3 pi t/x is at most 3 pi t/x_low.
    The tail's log sizes log |D_j| join the exponent, so that a tiny D_j
    offsets a huge peak in a cold gas.
    """
    a, x = s.imag, x_low[:, None]
    orders = np.append(_pole_tables().laurent_orders, 2.0 * _BERNOULLI_TERMS + 1.0) - 1.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        log_sizes = np.log(sizes[_POLES:, 0])
        peak = np.maximum(orders / a[-1], x)
        log_tail = orders * np.log(peak * abs(s[-1])) - peak * a[-1]
        peak = np.maximum(1.0 / a[:-1], x)
        direct = np.exp(-x * a[:-1]) + sizes[:_POLES, 1] * peak * np.exp(-peak * a[:-1])
        tail = np.exp(log_tail[:, :-1] + log_sizes) + np.exp(log_tail[:, 1:] + log_sizes)
        size = direct.sum(axis=1) + tail.sum(axis=1)
        bound = prefactor / x_low * (_pole_tables().pole_remainder + _EPS * size)
    return np.where(bound >= 0.0, bound, math.inf)


def _pole_floor(mu_tilde: float, t: float) -> float:
    """The rounding of the number's integral term, _LONG_EPS |c(M)|^(3/2): a table-free floor of the estimate.

    inf where |1/beta| = |c(M)|/(2 pi t) passes _INVERSE_BETA_MAX (t below
    about 1e-300), whose long double would not fit a double, or |c(M)| is
    below _POLE_SIZE_MIN.
    """
    size = abs(complex(mu_tilde, 2.0 * math.pi * t * _POLES))
    if not (_POLE_SIZE_MIN <= size <= _INVERSE_BETA_MAX * 2.0 * math.pi * t):
        return math.inf
    return _LONG_EPS * size * math.sqrt(size)


def _pole_estimate(terms: _PoleTerms, x_max: float) -> float:
    """The pole sum's estimate at every x in [0, x_max]; below the candidate ``reach`` it needs no pole side."""
    if x_max < _CROSSOVER_CANDIDATES[terms.reach] or x_max < terms.side.crossover:
        return _polynomial(terms.taylor_bound, x_max * x_max)
    return terms.side.bound


def _pole_sum(xs: np.ndarray, terms: _PoleTerms) -> tuple:
    """f at every x >= 0 of ``xs``: the Taylor side below the crossover, the pole side above.

    Returns (values, estimate), the largest estimate over the x given.
    """
    x_max = float(xs.max(initial=0.0))
    if x_max < _CROSSOVER_CANDIDATES[terms.reach] or x_max < terms.side.crossover:
        return _taylor_side(xs, x_max, terms)
    if float(xs.min(initial=x_max)) >= terms.side.crossover:
        return _pole_side(xs, x_max, terms)
    below = xs < terms.side.crossover
    low = _taylor_side(xs[below], float(xs[below].max()), terms)
    high = _pole_side(xs[~below], x_max, terms)
    values = np.empty(len(xs))
    values[below], values[~below] = low[0], high[0]
    return values, max(low[1], high[1])


def _taylor_side(xs: np.ndarray, x_max: float, terms: _PoleTerms) -> tuple:
    """The Taylor side at every x of ``xs``, the largest ``x_max``: (values, estimate)."""
    return (_square_powers(xs, _TAYLOR_TERMS) @ terms.taylor,
            _polynomial(terms.taylor_bound, x_max * x_max))


def _pole_side(xs: np.ndarray, x_max: float, terms: _PoleTerms) -> tuple:
    """The pole side at every x > 0 of ``xs``, the largest ``x_max``: (values, estimate).

    One row per x: e^(i x s_m), m < M, then e^w w^j, so that S is one
    product with the weights, and f = -(3 pi t/x) Re S.  Past x_tail,
    where x Im s(M) > _TAIL_DECAY_MAX or x |s(M)| > _TAIL_POWER_MAX, the
    tail is dropped, and x is capped where x Im s_0 is _TAIL_DECAY_MAX,
    past which every term is below 1e-280.
    """
    side = terms.side
    if x_max > side.x_cap:
        xs, x_max = np.minimum(xs, side.x_cap), side.x_cap
    z = np.multiply.outer(xs, terms.poles)
    table = np.empty((len(xs), _COLUMNS), dtype=complex)
    np.exp(z[:, :-1], out=table[:, :_POLES])
    w, near = z[:, -1], None
    if x_max > side.x_tail:
        near = xs <= side.x_tail
        w = np.where(near, w, 1.0)
    tail = table[:, _POLES:]
    tail[:, 0] = np.exp(w) / (w * w * w)
    if near is not None:
        tail[~near, 0] = 0.0
    tail[:, 1:] = w[:, None]
    np.multiply.accumulate(tail, axis=1, out=tail)
    sums, sizes = table @ side.table, np.abs(table) @ side.sizes
    scale = terms.prefactor / xs
    values = -scale * sums.real
    err = scale * (_pole_tables().pole_remainder + _EPS * (sizes[:, 0] + xs * sizes[:, 1]))
    return values, float(err.max())
