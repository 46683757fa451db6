"""The degenerate nonrelativistic gas: the ground-state amplitude and its Sommerfeld series.

At t = 0 the amplitude is f0(x) = 3(sin x - x cos x)/x^3 (``_f0``).  At
finite t, with eps = u^2, the nonrelativistic amplitude is
int h(eps) (-dn/deps) deps, h(eps) = eps^(3/2) f0(x sqrt(eps)), and
h'(eps) = (3/(2x)) sin(x sqrt(eps)) exactly.  Where the band bottom lies
many t below mu the Sommerfeld expansion (Ashcroft and Mermin, ch. 2)
sums it as h(mu) + sum_n a_n t^2n h^(2n)(mu), a_n = 2 (1 - 2^(1-2n)) zeta(2n),
the continuation of the t = 0 branch.  The derivatives of
g = sin(x sqrt(eps)) obey g^(m+2) = -((4m+2) g^(m+1) + x^2 g^(m))/(4 eps),
so with y = x sqrt(mu) and tau = t/mu,
g^(m)(mu) = mu^-m [A_m(y^2) sin y + y B_m(y^2) cos y] for polynomials
whose coefficients are integers over 4^m, and the series is
f = mu^(3/2) [f0(y) + (3/2) (y P(y^2) sin y + Q(y^2) cos y)], P the sum of
a_n tau^2n A_(2n-1)/y^2 and Q that of a_n tau^2n B_(2n-1).  At x = 0 it is
the particle number mu^(3/2) + (pi^2 t^2/8) mu^(-1/2) + ...  The series is
asymptotic, with a floor near exp(-mu/t), and serves wherever its
estimate (``_sommerfeld_estimate``) meets the tolerance asked for:
``exchange._refined_sum`` for the amplitude and ``fermi._degenerate_mu``
for the chemical potential.
"""

import math
from collections import namedtuple
from functools import lru_cache

import numpy as np

# the tightest tolerance an amplitude may be asked for, and the largest
_TOL_MIN, _TOL_MAX = 1e-14, 1e-6
# the rounding bound of a closed form or series, in units of its scale (the
# amplitude at x = 0 or above): f0's series and the sums' terms each round to
# a few eps
_CLOSED_FORM_ROUNDING = 16.0 * float(np.finfo(float).eps)

# f0 switches from its closed form 3(sin x - x cos x)/x^3 to its power
# series below this point.  The closed form loses digits to cancellation
# as x falls (up to 8e-15 on [0.25, 0.5), ~5 digits near 1e-3), while the
# series to x^12 has its first omitted term, k = 7, at 8e-18 at 0.5
_SERIES_CROSSOVER = 0.5
# k-th series coefficient of f(x,0) in powers of x^2
_SERIES_COEFFS = tuple(
    (-1.0) ** k * 6.0 * (k + 1) / math.factorial(2 * k + 3) for k in range(7)
)

# terms n = 1 ... K of the series kept
_SOMMERFELD_TERMS = 12
# a_n = 2 (1 - 2^(1-2n)) zeta(2n) for n = 1 ... K + 2: the terms kept, the first
# omitted term, and the last of the Euler-Maclaurin corrections of ``matsubara``
_SOMMERFELD_COEFFS = (
    1.6449340668482264, 1.8940656589944918, 1.9711021825948702, 1.9924660037052957,
    1.998079015196543, 1.9995153702877164, 1.9998783406919594, 1.9999695284298122,
    1.9999923757392202, 1.9999980932231631, 1.9999995232264616, 1.9999998807977848,
    1.999999970198464, 1.9999999925495069,
)
# the powers n of tau^2 of the terms kept
_POWERS = np.arange(1.0, _SOMMERFELD_TERMS + 1.0)
# y = x sqrt(mu) is capped here: past it, wherever the series serves, f is
# below 1e-24 of the scale, and the powers y^2j, j < K, stay finite
_Y_MAX = 1e13


def _f0(y: np.ndarray, trig: bool = False):
    """Ground-state amplitude f0(y) = 3(sin y - y cos y)/y^3 of a finite, nonnegative float array.

    With ``trig`` also sin y and cos y, which ``_sommerfeld_sum`` shares.
    Above the crossover the closed form divides by y one factor at a time,
    3((sin y / y - cos y)/y)/y, so no power of y is formed and every finite
    y stays within |f0(y)| <= 3(1 + y)/y^3 without overflow.  Below it f0 is
    its series 1 - y^2/10 + y^4/280 - ..., on one gather of the small
    entries, within about 2e-15, and sin and cos are taken at y itself.
    """
    # the closed form everywhere, with small y lifted to the crossover to
    # stay clear of 0/0; the series then replaces those entries
    yb = np.maximum(y, _SERIES_CROSSOVER)
    sin, cos = np.sin(yb), np.cos(yb)
    out = sin / yb
    out -= cos
    out /= yb
    out /= yb
    out *= 3.0
    small = y < _SERIES_CROSSOVER
    if small.any():
        below = y[small]
        out[small] = _even_series(below * below, _SERIES_COEFFS)
        if trig:
            sin[small], cos[small] = np.sin(below), np.cos(below)
    return (out, sin, cos) if trig else out


def _even_series(y2: np.ndarray, coeffs: tuple) -> np.ndarray:
    """sum_k coeffs[k] y^2k by Horner's rule, given y^2."""
    series = coeffs[-1] * y2
    for coeff in coeffs[-2:0:-1]:
        series += coeff
        series *= y2
    series += coeffs[0]
    return series


def _square_powers(y: np.ndarray, count: int) -> np.ndarray:
    """The (len(y), count) table of (y^2)^k, k = 0 ... count - 1."""
    powers = np.empty((len(y), count))
    powers[:, 0] = 1.0
    powers[:, 1:] = (y * y)[:, None]
    np.multiply.accumulate(powers, axis=1, out=powers)
    return powers


def _sommerfeld_sum(xs: np.ndarray, terms) -> np.ndarray:
    """The nonrelativistic f(x, t) as its Sommerfeld series.

    With y = x sqrt(mu) and P and Q the two polynomials in y^2 of
    ``_sommerfeld_terms``, f = mu^(3/2) f0(y) + y P sin y + Q cos y, the
    polynomials summed on one table of the powers of y^2 and the sine and
    cosine those of ``_f0``; y is capped at _Y_MAX.
    """
    y = np.minimum(xs * terms.sqrt_mu, _Y_MAX)
    powers = _square_powers(y, len(terms.coeffs))
    f0, sin, cos = _f0(y, trig=True)
    p, q = (powers @ terms.coeffs).T
    return terms.scale * f0 + y * p * sin + q * cos


@lru_cache(maxsize=1)
def _sommerfeld_tables() -> tuple:
    """The coefficients that depend on neither mu nor t, built on first use.

    Returns a (K, 2, K) array whose [j, c, n - 1] entry is the coefficient
    of y^2j tau^2n in (3/2) P and (3/2) Q (``_sommerfeld_terms``); and the
    coefficients in y, highest first, of (3/2) a_(K+1) (y |A_(2K+1)|(y^2)/y^2
    + |B_(2K+1)|(y^2)), |.| taking each coefficient's absolute value: the
    first omitted term's bound over mu^(3/2) tau^(2K+2).  The coefficients
    of 4^m A_m and 4^m B_m are integers of one sign at each power, so their
    recurrence never cancels and rounds to a few ulp.
    """
    terms = _SOMMERFELD_TERMS
    # rows[m, 0 or 1, j]: the coefficient of y^2j in 4^m A_m or 4^m B_m, from
    # A_0 = 1, A_1 = 0, B_0 = 0 and B_1 = 1/2
    rows = np.zeros((2 * terms + 2, 2, terms + 2))
    rows[0, 0, 0], rows[1, 1, 0] = 1.0, 2.0
    for m in range(2 * terms):
        rows[m + 2] = -(4 * m + 2) * rows[m + 1]
        rows[m + 2, :, 1:] -= 4.0 * rows[m, :, :-1]
    rows *= (0.25 ** np.arange(2 * terms + 2))[:, None, None]
    # the rows of the terms kept, m = 2n - 1, times (3/2) a_n, as [j, A or B, n - 1]
    kept = (rows[1:2 * terms:2] * (1.5 * np.array(_SOMMERFELD_COEFFS[:terms]))[:, None, None]).T
    table = np.empty((terms, 2, terms))
    table[:, 0], table[:, 1] = kept[1:terms + 1, 0], kept[:terms, 1]
    table.flags.writeable = False  # every caller of the cache shares it
    omitted = np.empty(2 * terms + 1)
    omitted[1::2], omitted[::2] = rows[-1, 0, 1:terms + 1], rows[-1, 1, :terms + 1]
    return table, tuple(np.abs(1.5 * _SOMMERFELD_COEFFS[terms] * omitted[::-1]).tolist())


def _sommerfeld_floor(mu_tilde: float, t: float) -> float:
    """The series' error that no term count removes, inf unless 0 < t < mu_tilde.

    mu^(3/2) times the kernel's mass below the band bottom,
    1/(exp(mu/t) + 1) < exp(-mu/t), which the series counts as if h
    continued below eps = 0, plus _CLOSED_FORM_ROUNDING for the sum's
    rounding (wherever the estimate is at most 1e-6 the terms after the
    first sum in size to below 1e-2 of the scale, at every x).  It needs
    no table, so it rules out most t where the series cannot serve before
    the tables are built.
    """
    if not 0.0 < t < mu_tilde:
        return math.inf
    return mu_tilde * math.sqrt(mu_tilde) * (math.exp(-mu_tilde / t) + _CLOSED_FORM_ROUNDING)


def _sommerfeld_bound(mu_tilde: float, t: float, tol: float) -> tuple[tuple, float] | None:
    """The estimate's two parts at (mu_tilde, t), or None unless, at x = 0, it meets ``tol``.

    The first omitted term's bound (``_sommerfeld_tables``) times
    mu^(3/2) tau^(2K+2), as coefficients, highest first, of a polynomial
    in w = tau y = x t/sqrt(mu): a_j mu^(3/2) tau^(2K+2-j) at w^j, each
    power of y carrying one of tau, so that neither overflows where the
    other underflows; and ``_sommerfeld_floor``.
    """
    floor = _sommerfeld_floor(mu_tilde, t)
    if floor > tol:
        return None
    tau = t / mu_tilde
    power, omitted = mu_tilde * math.sqrt(mu_tilde) * tau * tau, []
    for coeff in _sommerfeld_tables()[1]:
        omitted.append(coeff * power)
        power *= tau
    if omitted[-1] + floor > tol:
        return None
    return tuple(omitted), floor


_SommerfeldTerms = namedtuple("SommerfeldTerms", "sqrt_mu scale coeffs slope omitted floor")


def _sommerfeld_terms(mu_tilde: float, t: float) -> _SommerfeldTerms | None:
    """The series' constants at (mu_tilde, t), or None where it cannot serve.

    sqrt(mu), the scale mu^(3/2), the (K, 2) coefficients in y^2 of
    (3/2) mu^(3/2) P and (3/2) mu^(3/2) Q, w/x = t/sqrt(mu), and the two
    parts of ``_sommerfeld_bound``.  None where the estimate exceeds the
    largest amplitude tolerance already at x = 0.
    """
    bound = _sommerfeld_bound(mu_tilde, t, _TOL_MAX)
    if bound is None:
        return None
    scale = mu_tilde * math.sqrt(mu_tilde)
    coeffs = _sommerfeld_tables()[0] @ np.power((t / mu_tilde) ** 2, _POWERS)
    coeffs *= scale
    coeffs.flags.writeable = False  # every caller of a cache of these shares them
    return _SommerfeldTerms(math.sqrt(mu_tilde), scale, coeffs, t / math.sqrt(mu_tilde), *bound)


def _sommerfeld_estimate(terms: _SommerfeldTerms | None, x_max: float) -> float:
    """The series' error bound at every x in [0, x_max], inf where ``terms`` is None.

    The first omitted term's bound, a polynomial in w = x t/sqrt(mu) with
    nonnegative coefficients and so largest at x_max, plus the floor.
    """
    if terms is None:
        return math.inf
    return _polynomial(terms.omitted, x_max * terms.slope) + terms.floor


def _polynomial(coeffs: tuple, y: float) -> float:
    """The polynomial of ``coeffs``, highest first, at y, by Horner's rule.

    The sum starts at the first coefficient, not at 0 y, so that an
    infinite y gives an infinite bound rather than a NaN.
    """
    out = coeffs[0]
    for coeff in coeffs[1:]:
        out = out * y + coeff
    return out


def _sommerfeld_log_number(mu_tilde: float, t: float) -> tuple[float, float]:
    """log N and d(log N)/dmu of the series' particle number N at (mu_tilde > 0, t).

    N = mu^(3/2) (1 + sum_n q_n tau^2n), its value at x = 0, with
    q_n = (3/2) a_n B_(2n-1)(0) > 0, so N and N' are sums of positive
    terms and neither cancels.
    """
    q = _sommerfeld_tables()[0][0, 1]
    w = np.power((t / mu_tilde) ** 2, _POWERS)
    bracket = 1.0 + float(q @ w)
    slope = 1.5 + float((q * (1.5 - 2.0 * _POWERS)) @ w)
    return 1.5 * math.log(mu_tilde) + math.log(bracket), slope / (mu_tilde * bracket)
