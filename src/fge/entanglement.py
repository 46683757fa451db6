"""Entanglement quantities induced by the exchange amplitude.

The two-spin reduced state of a randomly chosen electron pair is a
Werner mixture controlled by f^2 alone.  Closed forms give the
separability predicate, concurrence, and entropy of formation; the
matrix-level Wootters and partial-transpose routines are independent
oracles for those closed forms, not alternative fast paths.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .exchange import (
    f_from_pressure,
    f_zero_temperature,
    solve_zeta,
    thermal_amplitude,
)
from .fermi import (
    GasRegime,
    MuMode,
    entanglement_distance,
    fermi_momentum_from_pressure,
    reduced_chemical_potential,
)
from .quadrature import integrate_refined

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


class Measure(Enum):
    """Entanglement measures available for averaging."""

    CONCURRENCE = "concurrence"
    ENTROPY_OF_FORMATION = "eof"


@dataclass(frozen=True, eq=False)
class TwoSpinState:
    """4x4 density matrix in the fixed (up-up, up-down, down-up, down-down) basis."""

    matrix: np.ndarray
    f_source: float


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


def _validate_amplitude(f: float) -> None:
    if not (abs(f) <= 1.0):
        raise DomainError(f"exchange amplitude must satisfy |f| <= 1, got {f!r}")


def werner_state_from_f(f: float) -> TwoSpinState:
    """Unit-trace two-spin state (I - f^2 SWAP) / (4 - 2 f^2)."""
    _validate_amplitude(f)
    f2 = f * f
    matrix = (np.eye(4, dtype=complex) - f2 * _SWAP) / (4.0 - 2.0 * f2)
    return TwoSpinState(matrix=matrix, f_source=float(f))


def is_entangled(f: float) -> bool:
    """Separability predicate: entangled iff f^2 exceeds 1/2 strictly."""
    _validate_amplitude(f)
    return bool(f * f > 0.5)


def concurrence_closed_form(f: float) -> float:
    """Concurrence of the induced state, max{(2 f^2 - 1)/(2 - f^2), 0}."""
    _validate_amplitude(f)
    f2 = f * f
    return max((2.0 * f2 - 1.0) / (2.0 - f2), 0.0)


def _binary_entropy(y: float) -> float:
    total = 0.0
    for p in (y, 1.0 - y):
        if p > 0.0:
            total -= p * math.log2(p)
    return total


def entropy_of_formation(f: float) -> float:
    """Entropy of formation in bits, h((1 + sqrt(1 - C^2))/2)."""
    c = concurrence_closed_form(f)
    if c == 0.0:
        return 0.0
    spread = math.sqrt(max(1.0 - c * c, 0.0))
    return _binary_entropy(0.5 * (1.0 + spread))


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


def eos_evaluate(separation: float, pressure: float, temperature: float,
                 regime: GasRegime, mu_mode: MuMode = MuMode.EXACT_NORMALIZATION,
                 tol: float = 1e-10) -> EntanglementReport:
    """Full pipeline: (r, P, T) -> exchange amplitude -> entanglement report.

    The amplitude is clamped into [-1, 1] before the closed forms; the
    approximate-mu mode can overshoot 1 near zero separation by O(t^2),
    which is an artifact of pinning mu to the Fermi energy.
    """
    amp = f_from_pressure(separation, pressure, temperature, regime, mu_mode, tol)
    f_used = min(max(amp.value, -1.0), 1.0)
    zeta = solve_zeta(amp.coords.t, regime, mu_mode)
    k_f = fermi_momentum_from_pressure(pressure, regime)
    return EntanglementReport(
        f=float(amp.value),
        entangled=is_entangled(f_used),
        concurrence=concurrence_closed_form(f_used),
        entropy_of_formation=entropy_of_formation(f_used),
        r=float(separation),
        p=float(pressure),
        t=float(temperature),
        regime=regime,
        r_e=entanglement_distance(k_f, zeta.zeta),
    )


def _concurrence_of_amplitudes(f: np.ndarray) -> np.ndarray:
    f2 = f * f
    return np.maximum((2.0 * f2 - 1.0) / (2.0 - f2), 0.0)


def _eof_of_amplitudes(f: np.ndarray) -> np.ndarray:
    c = _concurrence_of_amplitudes(f)
    y = 0.5 * (1.0 + np.sqrt(np.clip(1.0 - c * c, 0.0, None)))
    out = np.zeros_like(y)
    interior = (y > 0.0) & (y < 1.0)
    yi = y[interior]
    out[interior] = -yi * np.log2(yi) - (1.0 - yi) * np.log2(1.0 - yi)
    return out


_MEASURE_MAPS = {
    Measure.CONCURRENCE: _concurrence_of_amplitudes,
    Measure.ENTROPY_OF_FORMATION: _eof_of_amplitudes,
}


def average_entanglement(t: float, regime: GasRegime = GasRegime.NONRELATIVISTIC,
                         measure: Measure = Measure.CONCURRENCE,
                         mu_mode: MuMode = MuMode.EXACT_NORMALIZATION,
                         tol: float = 1e-8) -> float:
    """Mean of the chosen measure over separations x in [0, zeta(t)].

    Integration uses high-order panels with a geometric cascade toward
    the upper endpoint, where the entropy of formation has a mild
    C^2 log C singularity in its higher derivatives.  At finite t each
    panel's abscissas are one batched ``thermal_amplitude`` call.
    """
    if measure not in _MEASURE_MAPS:
        raise DomainError(f"unknown entanglement measure {measure!r}")
    zeta = solve_zeta(t, regime, mu_mode).zeta
    measure_of = _MEASURE_MAPS[measure]

    if t == 0.0:
        def integrand(xs):
            return measure_of(f_zero_temperature(xs))
    else:
        mu_tilde = reduced_chemical_potential(t, regime, mu_mode)

        def integrand(xs):
            return measure_of(thermal_amplitude(xs, t, mu_tilde, regime, 1e-10)[0])

    edges = [zeta * (1.0 - 0.5 ** k) for k in range(31)] + [zeta]
    value, _ = integrate_refined(
        integrand, edges, tol_abs=1e-12, tol_rel=tol, max_panels=600,
        order_hi=64, order_lo=32,
    )
    return value / zeta
