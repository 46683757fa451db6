"""Entanglement quantities induced by the exchange amplitude.

The two-spin reduced state of a randomly chosen electron pair is a
Werner mixture controlled by f^2 alone.  Closed forms give the
separability predicate, concurrence, and entropy of formation, each for
a scalar or an array of f; the matrix-level Wootters and
partial-transpose routines are independent oracles for those closed
forms, not alternative fast paths.  ``eos_grid`` evaluates the whole
pipeline (r, P, T) -> f -> measures on arrays, one amplitude call per
distinct reduced temperature; ``eos_evaluate`` is its one-point view.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, QuadratureError
from .exchange import (
    _DEFAULT_TOL,
    _lobatto_samples,
    _refined_sum,
    _root_in_bracket,
    _validate_quad_tol,
    solve_zeta,
)
from .fermi import (
    GasRegime,
    MuMode,
    _require_member,
    reduced_chemical_potential,
    reduced_inputs,
)
from .quadrature import barycentric, chebyshev_series, composite_kronrod

_SWAP = np.array(
    [[1, 0, 0, 0],
     [0, 0, 1, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1]], dtype=complex)

# sigma_y (x) sigma_y in the (up-up, up-down, down-up, down-down) basis
_SPIN_FLIP = np.array(
    [[0, 0, 0, -1],
     [0, 0, 1, 0],
     [0, 1, 0, 0],
     [-1, 0, 0, 0]], dtype=complex)

_STATE_TOL = 1e-10

# the average over [0, zeta]: panel edges zeta (1 - 2^-k) for k below
# _CASCADE_PANELS, then zeta, each with the 15-point Kronrod rule, whose gap to
# the 7-point Gauss rule on every second of its nodes is the estimate; levels
# of panel halving tried before giving up; the absolute floor of the error
# budget.  Near zeta the entropy of formation goes as C^2 log C with C linear
# in zeta - x, so a panel of width h next to zeta carries O(h^3): with 10
# panels the last one is zeta 2^-9 wide, and deeper panels change nothing the
# Kronrod rule resolves.  The level-0 estimate is then at most ~6e-13, nearly
# all of it the 7-point rule's error on the first panel, [0, zeta/2] (11 or 12
# panels give the same), against 4e-12 with 9 panels and an absolute floor of
# 1e-12.  The Kronrod abscissas, 150 at level 0, take the amplitude from its
# interpolant, so the panel count and the levels cost no amplitude evaluation
_CASCADE_PANELS = 10
_AVERAGE_MAX_LEVEL = 4
_AVERAGE_TOL_ABS = 1e-12
# the amplitude's samples: Chebyshev-Lobatto points on [0, zeta], first
# _AVERAGE_SAMPLES of them, doubled on nested points up to
# _AVERAGE_MAX_SAMPLES until the tail of the Chebyshev coefficients is at most
# _AVERAGE_TAIL_TOL; the tolerance of each sample; both absolute, as the
# amplitude's own test is.  17 samples resolve every exact-mu amplitude to a
# tail below 2e-14; the fermi-mu amplitude, 10^2 to 10^4 at the origin for t
# of a few, takes up to 129 for t in [3, 50], whose tail there meets its
# rounding at 1e-12 to 4e-12 when f(0) is 10^4.  The interpolant's error runs
# at about half the tail, and a tail of 1e-10 would let 33 samples through
# at rel fermi-mu t = 2 (tail 1.7e-11), whose interpolant is off by 1.3e-12
# where f < 1 and moves the average by 4e-14 of itself
_AVERAGE_SAMPLES = 17
_AVERAGE_MAX_SAMPLES = 257
_AVERAGE_TAIL_TOL = 1e-11
_AVERAGE_AMPLITUDE_TOL = 1e-10


class Measure(Enum):
    """Entanglement measures available for averaging."""

    CONCURRENCE = "concurrence"
    ENTROPY_OF_FORMATION = "eof"


@dataclass(frozen=True, eq=False)
class TwoSpinState:
    """4x4 density matrix in the fixed (up-up, up-down, down-up, down-down) basis."""

    matrix: np.ndarray
    f_source: float


@dataclass(frozen=True, eq=False)
class EosGrid:
    """The equation of state on a grid of points, one array per quantity.

    Every field has the broadcast shape of the (r, P, T) inputs: ``r`` in
    m, ``p`` in Pa, ``t`` in K, ``x`` = k_F r, the amplitude ``f``, the
    measures (``entropy_of_formation`` in bits) and the entanglement
    distance ``r_e`` in m.
    """

    f: np.ndarray
    entangled: np.ndarray
    concurrence: np.ndarray
    entropy_of_formation: np.ndarray
    r: np.ndarray
    p: np.ndarray
    t: np.ndarray
    x: np.ndarray
    r_e: np.ndarray


@dataclass(frozen=True)
class EntanglementReport:
    """Entanglement summary at one evaluation point.

    ``r`` is the pair separation in m, ``p`` the pressure in Pa, ``t``
    the temperature in K; ``r_e`` is the entanglement distance of the
    gas, and ``entropy_of_formation`` is in bits.
    """

    f: float
    entangled: bool
    concurrence: float
    entropy_of_formation: float
    r: float
    p: float
    t: float
    regime: GasRegime
    r_e: float


def _amplitudes(f) -> np.ndarray:
    """``f`` as a float array, after checking |f| <= 1 everywhere."""
    arr = np.asarray(f, dtype=float)
    ok = np.abs(arr) <= 1.0
    if not ok.all():
        bad = arr[~ok].flat[0]
        raise DomainError(f"exchange amplitude must satisfy |f| <= 1, got {float(bad)!r}")
    return arr


def _scalar_or_array(values, like: np.ndarray):
    """``values`` as a Python scalar when the input ``like`` was 0-d."""
    return values.item() if like.ndim == 0 else values


def werner_state_from_f(f: float) -> TwoSpinState:
    """Unit-trace two-spin state (I - f^2 SWAP) / (4 - 2 f^2)."""
    f = _amplitudes(f).item()
    f2 = f * f
    matrix = (np.eye(4, dtype=complex) - f2 * _SWAP) / (4.0 - 2.0 * f2)
    return TwoSpinState(matrix=matrix, f_source=f)


def is_entangled(f):
    """Separability predicate: entangled iff f^2 exceeds 1/2 strictly (scalar or array)."""
    arr = _amplitudes(f)
    return _scalar_or_array(_werner_measures(arr)[0], arr)


def concurrence_closed_form(f):
    """Concurrence of the induced state, max{(2 f^2 - 1)/(2 - f^2), 0} (scalar or array)."""
    arr = _amplitudes(f)
    return _scalar_or_array(_werner_measures(arr)[1], arr)


def _werner_measures(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Separability predicate and concurrence of amplitudes known to satisfy |f| <= 1.

    Both come from one f^2; ``is_entangled`` and ``concurrence_closed_form``
    are this after their own check of f.
    """
    f2 = f * f
    return f2 > 0.5, np.maximum((2.0 * f2 - 1.0) / (2.0 - f2), 0.0)


def entropy_of_formation(f):
    """Entropy of formation in bits, h((1 + sqrt(1 - C^2))/2) (scalar or array).

    h(y) = -y log2 y - (1 - y) log2(1 - y) is the binary entropy; where
    C = 0, y = 1 and the value is exactly 0.
    """
    c = np.asarray(concurrence_closed_form(f))
    return _scalar_or_array(_entropy_of_concurrence(c), c)


def _entropy_of_concurrence(c: np.ndarray) -> np.ndarray:
    y = 0.5 * (1.0 + np.sqrt(np.maximum(1.0 - c * c, 0.0)))
    rest = 1.0 - y
    # 0 log2 0 = 0: y lies in [1/2, 1], so rest is 0 or at least 2^-53, and
    # the floor 2^-54 changes only the zeros, whose term is then 0 * -54
    log_rest = np.log2(np.maximum(rest, 2.0 ** -54))
    # starting from 0.0 makes the separable value +0.0 rather than -0.0
    return 0.0 - y * np.log2(y) - rest * log_rest


def _validate_state(state: TwoSpinState) -> np.ndarray:
    matrix = np.asarray(state.matrix, dtype=complex)
    if matrix.shape != (4, 4):
        raise DomainError(f"two-spin state must be a 4x4 matrix, got shape {matrix.shape}")
    if np.max(np.abs(matrix - matrix.conj().T)) > _STATE_TOL:
        raise DomainError("two-spin state is not Hermitian within tolerance")
    if abs(np.trace(matrix).real - 1.0) > _STATE_TOL or abs(np.trace(matrix).imag) > _STATE_TOL:
        raise DomainError(f"two-spin state must have unit trace, got {np.trace(matrix)!r}")
    if np.linalg.eigvalsh(matrix)[0] < -_STATE_TOL:
        raise DomainError("two-spin state is not positive semidefinite within tolerance")
    return matrix


def wootters_concurrence(state: TwoSpinState) -> float:
    """Spin-flip concurrence max{0, l1 - l2 - l3 - l4} from rho (sy x sy) rho* (sy x sy).

    Matrix-level oracle: makes no use of the Werner closed form.
    """
    rho = _validate_state(state)
    flipped = _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
    eigenvalues = np.linalg.eigvals(rho @ flipped)
    roots = np.sqrt(np.clip(eigenvalues.real, 0.0, None))
    roots = np.sort(roots)[::-1]
    return float(max(roots[0] - roots[1] - roots[2] - roots[3], 0.0))


def ppt_min_eigenvalue(state: TwoSpinState) -> float:
    """Minimum eigenvalue of the partial transpose over the second spin.

    Negative exactly when the state is entangled; second independent oracle.
    """
    rho = _validate_state(state)
    transposed = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    return float(np.linalg.eigvalsh(transposed)[0])


def eos_grid(separation, pressure, temperature, regime: GasRegime,
             mu_mode: MuMode = MuMode.EXACT_NORMALIZATION, tol: float = _DEFAULT_TOL) -> EosGrid:
    """The equation of state on a grid: arrays of (r, P, T) -> amplitude and measures.

    ``separation``, ``pressure`` and ``temperature`` broadcast together;
    each is checked once and reduced to x = k_F r and t = T/T_F as array
    expressions.  The points are grouped by t, and each distinct t costs
    one chemical-potential solve, one zeta solve and one batched
    amplitude call (``_refined_sum``) on all of its x.  A grid of one t (every
    0-d call and most sweeps) is that one group, with no per-point
    buffers or masks.  The amplitude is clamped into [-1, 1] before the
    closed forms, which then need no check of their own; the
    approximate-mu mode can overshoot 1 near zero separation by O(t^2),
    which is an artifact of pinning mu to the Fermi energy.  The measures come from one f^2, and r_e = zeta/k_F,
    with k_F and zeta already known to be finite and positive.
    """
    _validate_quad_tol(tol)
    _require_member("mu_mode", mu_mode, MuMode)
    r, p, temp, k_f, x, t = reduced_inputs(separation, pressure, temperature, regime)
    xs, ts = x.reshape(-1), t.reshape(-1)
    groups = sorted(set(ts.tolist()))
    if len(groups) == 1:
        f, zeta = _amplitude_and_zeta(xs, groups[0], regime, mu_mode, tol)
    else:
        f, zeta = np.empty(xs.shape), np.empty(xs.shape)
        for t_group in groups:
            members = ts == t_group
            f[members], zeta[members] = _amplitude_and_zeta(xs[members], t_group, regime,
                                                            mu_mode, tol)
    entangled, concurrence = _werner_measures(np.minimum(np.maximum(f, -1.0), 1.0))
    return EosGrid(
        f=f.reshape(x.shape),
        entangled=entangled.reshape(x.shape),
        concurrence=concurrence.reshape(x.shape),
        entropy_of_formation=_entropy_of_concurrence(concurrence).reshape(x.shape),
        r=r,
        p=p,
        t=temp,
        x=x,
        r_e=(zeta / k_f.reshape(-1)).reshape(x.shape),
    )


def _amplitude_and_zeta(xs: np.ndarray, t: float, regime: GasRegime, mu_mode: MuMode,
                        tol: float) -> tuple[np.ndarray, float]:
    """The amplitude at the flat reduced separations ``xs`` of one t, and zeta(t).

    ``reduced_inputs`` has proved every x and t finite and nonnegative, and
    ``eos_grid`` the regime, mode and tolerance, so ``thermal_amplitude``'s
    checks are done; ``_refined_sum`` checks the window of the solved mu.
    """
    mu_tilde = reduced_chemical_potential(t, regime, mu_mode)
    f, _ = _refined_sum(xs, float(xs.max()), t, mu_tilde, regime, tol)
    return f, solve_zeta(t, regime, mu_mode).zeta


def eos_evaluate(separation: float, pressure: float, temperature: float,
                 regime: GasRegime, mu_mode: MuMode = MuMode.EXACT_NORMALIZATION,
                 tol: float = _DEFAULT_TOL) -> EntanglementReport:
    """Full pipeline at one point: (r, P, T) -> exchange amplitude -> entanglement report.

    The 0-d case of ``eos_grid``.
    """
    grid = eos_grid(separation, pressure, temperature, regime, mu_mode, tol)
    return EntanglementReport(
        f=grid.f.item(),
        entangled=grid.entangled.item(),
        concurrence=grid.concurrence.item(),
        entropy_of_formation=grid.entropy_of_formation.item(),
        r=grid.r.item(),
        p=grid.p.item(),
        t=grid.t.item(),
        regime=regime,
        r_e=grid.r_e.item(),
    )


_MEASURE_MAPS = {
    Measure.CONCURRENCE: concurrence_closed_form,
    Measure.ENTROPY_OF_FORMATION: entropy_of_formation,
}


def average_entanglement(t: float, regime: GasRegime = GasRegime.NONRELATIVISTIC,
                         measure: Measure = Measure.CONCURRENCE,
                         mu_mode: MuMode = MuMode.EXACT_NORMALIZATION,
                         tol: float = 1e-8) -> float:
    """Mean of the chosen measure over separations x in [0, zeta(t)].

    The amplitude is smooth on [0, zeta] (an entire function of x), and
    only the measure is not, so the two are handled apart.  The amplitude
    is sampled at 17 Chebyshev-Lobatto points on [0, zeta], x = 0 and
    zeta among them, in one batched amplitude call; while the
    larger of the last two Chebyshev coefficients of the samples (the
    tail) exceeds 1e-11, the grid doubles on nested points (33, 65, 129,
    257), one more call at the new points each time, and past 257 points
    a ``QuadratureError`` carries the tail.  Elsewhere f is the
    barycentric interpolant of the samples, within the samples' own
    estimate (1e-10) times the Lebesgue constant (at most 4.1 for 129
    points, 4.6 for 257) plus the tail.  The measure is averaged by one
    fixed composite rule: the 15-point Kronrod rule on a geometric
    cascade of 10 panels toward the upper endpoint, edges
    zeta (1 - 2^-k), where the entropy of formation has a mild C^2 log C
    singularity in its higher derivatives.  A panel of width h next to
    zeta carries O(h^3) of the integral, so panels deeper than the last,
    zeta 2^-9 wide, would change nothing the rule resolves.  The 7-point
    Gauss rule on every second Kronrod node gives the error estimate (the
    summed gap between the two on every panel), as in QUADPACK's qk15.
    As in ``eos_grid``, the amplitude is clamped into [-1, 1] before the
    measure.  In the approximate-mu mode f overshoots 1 near the origin,
    and the point where the interpolant falls through 1 is one more panel
    edge: its root on [0, zeta], refined by the zeta solve's safeguarded
    Newton steps on the interpolant's value and derivative.  Every panel
    is halved until the estimate is at most max(1e-12, tol |integral|),
    each level on the same samples, and after a few levels a
    ``QuadratureError`` carries the estimate.  ``tol`` must lie in the
    quadrature tolerance range.
    """
    _require_member("regime", regime, GasRegime)
    _require_member("mu_mode", mu_mode, MuMode)
    if measure not in _MEASURE_MAPS:
        raise DomainError(f"unknown entanglement measure {measure!r}")
    _validate_quad_tol(tol)
    zeta = solve_zeta(t, regime, mu_mode).zeta
    measure_of = _MEASURE_MAPS[measure]
    mu_tilde = reduced_chemical_potential(t, regime, mu_mode)
    points, weights, samples, coeffs = _amplitude_samples(t, mu_tilde, regime, zeta)

    edges = np.append(zeta * (1.0 - 0.5 ** np.arange(_CASCADE_PANELS)), zeta)
    if mu_mode is MuMode.FERMI_ENERGY_APPROX and samples[0] > 1.0:
        # the clamp bends the integrand where f falls through 1: an edge
        # there, the root of the interpolant's series
        value_and_slope = chebyshev_series(coeffs, 0.0, zeta)

        def excess_and_slope(x):
            value, slope = value_and_slope(float(x))
            return value - 1.0, slope

        # an overshoot at rounding, which the series does not repeat at x = 0,
        # has its root at x = 0 itself and bends nothing
        if excess_and_slope(0.0)[0] > 0.0:
            kink, _ = _root_in_bracket(excess_and_slope, 0.0, zeta, samples[0] - 1.0,
                                       samples[-1] - 1.0)
            edges = np.union1d(edges, kink)
    for level in range(_AVERAGE_MAX_LEVEL + 1):
        nodes, rule = composite_kronrod(edges, 2 ** level)
        f = barycentric(nodes, points, weights, samples)
        terms = measure_of(np.minimum(np.maximum(f, -1.0), 1.0))[:, None] * rule
        # the integral over each piece by the Kronrod and the Gauss rule
        kronrod, gauss = terms.reshape(-1, 15, 2).sum(axis=1).T
        integral = float(kronrod.sum())
        err = float(np.abs(kronrod - gauss).sum())
        budget = max(_AVERAGE_TOL_ABS, tol * abs(integral))
        if err <= budget:
            return integral / zeta
    raise QuadratureError(
        f"average over [0, zeta] stalled at estimate {err:.3e} (tolerance "
        f"{budget:.3e}, {nodes.size} nodes) at t={t!r}",
        error_estimate=err,
    )


def _amplitude_samples(t: float, mu_tilde: float, regime: GasRegime, zeta: float) -> tuple:
    """``_lobatto_samples`` of f on [0, zeta], whose inputs ``average_entanglement`` has checked."""
    def amplitude(xs):
        return _refined_sum(xs, float(xs.max()), t, mu_tilde, regime, _AVERAGE_AMPLITUDE_TOL)[0]

    return _lobatto_samples(amplitude, 0.0, zeta, _AVERAGE_SAMPLES, _AVERAGE_MAX_SAMPLES,
                            _AVERAGE_TAIL_TOL, t)
