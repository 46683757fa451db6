"""Independent reference values for checking the benchmark's outputs.

Nothing here imports fge.  The ground-state amplitude and the closed
forms are evaluated in mpmath, the thermal amplitude and the
particle-number integral with QUADPACK (``scipy.integrate.quad``, with the
sine weight for the oscillatory factor), the chemical potential and the
window constant with ``scipy.optimize.brentq`` on those integrals, and
averages with a fixed Gauss-Legendre rule over oracle amplitudes.  Unit
conversions use the CODATA 2018 values written out below.
"""

import json
import math
from functools import lru_cache

import mpmath
import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.optimize import brentq

# CODATA 2018 and IAU values, the data fge.constants also uses
HBAR = 1.054571817e-34
ELECTRON_MASS = 9.1093837015e-31
LIGHT_SPEED = 299792458.0
BOLTZMANN = 1.380649e-23
HYDROGEN_MASS = 1.6735328e-27
ELEMENTARY_CHARGE = 1.602176634e-19
VACUUM_PERMITTIVITY = 8.8541878128e-12
SOLAR_MASS = 1.98892e30
SOLAR_RADIUS = 6.957e8

CSV_HEADER = "r_m,P_Pa,T_K,x,f,C,EF_bits,entangled,re_m"

# tolerances of the checks: absolute for amplitudes and measures,
# relative for dimensional outputs and averages
F0_ABS = 1e-12
THERMAL_F_ABS = 1e-8
CLOSED_FORM_ABS = 1e-12
ZETA_RESIDUAL = 1e-10
CONVERSION_REL = 1e-12
DISTANCE_REL = 1e-9
AVERAGE_REL = 1e-6

_GAUSS_NODES, _GAUSS_WEIGHTS = leggauss(128)
_MP_DPS = 30


# === conversions (plain floats; shared with the request generator) ===


def fermi_energy(k_f, rel):
    return HBAR * LIGHT_SPEED * k_f if rel else (HBAR * k_f) ** 2 / (2.0 * ELECTRON_MASS)


def fermi_temperature(k_f, rel):
    return fermi_energy(k_f, rel) / BOLTZMANN


def pressure_from_kf(k_f, rel):
    if rel:
        return HBAR * LIGHT_SPEED * k_f ** 4 / (12.0 * math.pi ** 2)
    return HBAR ** 2 * k_f ** 5 / (15.0 * math.pi ** 2 * ELECTRON_MASS)


def kf_from_pressure(pressure, rel):
    if rel:
        return (12.0 * math.pi ** 2 * pressure / (HBAR * LIGHT_SPEED)) ** 0.25
    return (15.0 * math.pi ** 2 * ELECTRON_MASS * pressure / HBAR ** 2) ** 0.2


def close(value, expected, rel):
    return abs(value - expected) <= rel * abs(expected)


# === ground state, in mpmath ===


@lru_cache(maxsize=None)
def f0(x):
    """3 (sin x - x cos x) / x^3 at 30 digits, rounded to a float."""
    with mpmath.workdps(_MP_DPS):
        xm = mpmath.mpf(x)
        return float(3 * (mpmath.sin(xm) - xm * mpmath.cos(xm)) / xm ** 3)


@lru_cache(maxsize=None)
def zeta0():
    """Smallest root of f0(x)^2 = 1/2."""
    with mpmath.workdps(_MP_DPS):
        root = mpmath.findroot(
            lambda x: (3 * (mpmath.sin(x) - x * mpmath.cos(x)) / x ** 3) ** 2 - mpmath.mpf(1) / 2,
            mpmath.mpf("1.8"))
        return float(root)


def f0_residual(x):
    with mpmath.workdps(_MP_DPS):
        xm = mpmath.mpf(x)
        f = 3 * (mpmath.sin(xm) - xm * mpmath.cos(xm)) / xm ** 3
        return float(abs(f * f - mpmath.mpf(1) / 2))


@lru_cache(maxsize=None)
def closed_forms(f):
    """(entangled, concurrence, entropy of formation in bits) of amplitude f, in mpmath."""
    with mpmath.workdps(_MP_DPS):
        fm = mpmath.mpf(min(max(f, -1.0), 1.0))
        f2 = fm * fm
        c = max((2 * f2 - 1) / (2 - f2), mpmath.mpf(0))
        if c == 0:
            return bool(f2 > 0.5), 0.0, 0.0
        y = (1 + mpmath.sqrt(1 - c * c)) / 2
        eof = -y * mpmath.log(y, 2) - (1 - y) * mpmath.log(1 - y, 2)
        return bool(f2 > 0.5), float(c), float(eof)


# === finite temperature, with QUADPACK ===


def _occupancy(d, mu, t):
    a = (d - mu) / t
    decay = math.exp(-abs(a))
    return decay / (1.0 + decay) if a > 0 else 1.0 / (1.0 + decay)


def _knots(mu, t, rel):
    """Segment ends in u, dense around the occupancy edge, ending where n < 1e-26."""
    energies = [0.0] + [mu + k * t for k in (-40, -8, -2, 0, 2, 8, 40, 60) if mu + k * t > 0]
    return [d if rel else math.sqrt(d) for d in energies]


def _segments(integrand, mu, t, rel, **weight):
    knots = _knots(mu, t, rel)
    return sum(quad(integrand, a, b, epsabs=1e-14, epsrel=1e-13, limit=400, **weight)[0]
               for a, b in zip(knots, knots[1:]))


def normalization(mu, t, rel):
    """3 int u^2 n(u) du, which equals 1 at the true chemical potential."""
    if rel:
        return 3.0 * _segments(lambda u: u * u * _occupancy(u, mu, t), mu, t, rel)
    return 3.0 * _segments(lambda u: u * u * _occupancy(u * u, mu, t), mu, t, rel)


@lru_cache(maxsize=None)
def chemical_potential(t, rel):
    """mu / eps_F solving the particle-number equation, by Brent on the QUADPACK integral."""
    return brentq(lambda mu: normalization(mu, t, rel) - 1.0, -50.0 * t - 1.0, 2.0,
                  xtol=1e-15, rtol=1e-15, maxiter=200)


@lru_cache(maxsize=None)
def amplitude(x, t, rel):
    """(3/x) int u n(u) sin(u x) du with the oracle chemical potential."""
    mu = chemical_potential(t, rel)
    if rel:
        integral = _segments(lambda u: u * _occupancy(u, mu, t), mu, t, rel, weight="sin", wvar=x)
    else:
        integral = _segments(lambda u: u * _occupancy(u * u, mu, t), mu, t, rel, weight="sin", wvar=x)
    return 3.0 * integral / x


@lru_cache(maxsize=None)
def zeta(t, rel):
    """Smallest x with amplitude(x)^2 = 1/2, scanned from the origin and refined by Brent."""
    if t == 0.0:
        return zeta0()

    def gap(x):
        return amplitude(x, t, rel) ** 2 - 0.5

    lo = 0.05
    while gap(lo + 0.05) > 0.0:
        lo += 0.05
    return brentq(gap, lo, lo + 0.05, xtol=1e-14, rtol=1e-15, maxiter=200)


def zeta_residual(x, t, rel):
    if t == 0.0:
        return f0_residual(x)
    return abs(amplitude(x, t, rel) ** 2 - 0.5)


def _measure(f, measure):
    f2 = f * f
    c = np.maximum((2.0 * f2 - 1.0) / (2.0 - f2), 0.0)
    if measure == "concurrence":
        return c
    y = np.clip(0.5 * (1.0 + np.sqrt(np.clip(1.0 - c * c, 0.0, None))), 0.5, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -y * np.log2(y) - (1.0 - y) * np.log2(1.0 - y)
    return np.where(y < 1.0, h, 0.0)


@lru_cache(maxsize=None)
def average(t, rel, measure):
    """Mean measure over x in [0, zeta(t)] by a 128-node Gauss-Legendre rule."""
    z = zeta(t, rel)
    xs = 0.5 * z * (_GAUSS_NODES + 1.0)
    if t == 0.0:
        fs = np.array([f0(float(x)) for x in xs])
    else:
        fs = np.array([amplitude(float(x), t, rel) for x in xs])
    return 0.5 * float(np.dot(_GAUSS_WEIGHTS, _measure(fs, measure)))


# === checks of one request's output; each returns None or the reason it failed ===


def _check_point(out, r, pressure, temperature, rel):
    """One (r, P, T) evaluation: the amplitude, the closed forms and r_e."""
    k_f = kf_from_pressure(pressure, rel)
    x = k_f * r
    t = temperature / fermi_temperature(k_f, rel) if temperature > 0 else 0.0
    if t == 0.0:
        f_ref, f_tol = f0(x), F0_ABS
    else:
        f_ref, f_tol = amplitude(x, t, rel), THERMAL_F_ABS
    if not abs(out["f"] - f_ref) <= f_tol:
        return f"f={out['f']!r} but the oracle gives {f_ref!r} at x={x!r}, t={t!r}"
    entangled, concurrence, eof = closed_forms(out["f"])
    if bool(out["entangled"]) != entangled:
        return f"entangled={out['entangled']!r} for f={out['f']!r}"
    if not abs(out["concurrence"] - concurrence) <= CLOSED_FORM_ABS:
        return f"concurrence={out['concurrence']!r}, closed form {concurrence!r}"
    if not abs(out["eof"] - eof) <= CLOSED_FORM_ABS:
        return f"entropy of formation={out['eof']!r}, closed form {eof!r}"
    residual = zeta_residual(out["r_e"] * k_f, t, rel)
    if not residual < ZETA_RESIDUAL:
        return f"r_e={out['r_e']!r} gives zeta residual {residual:.3e} at t={t!r}"
    return None


def _check_csv(out, points, rel):
    lines = out.get("csv", "").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return f"CSV header {lines[:1]!r}"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if len(rows) != len(points):
        return f"{len(rows)} CSV rows, expected {len(points)}"
    for row, (r, pressure) in zip(rows, points):
        r_m, p_pa, t_k, x, f, c, eof, entangled, r_e = row
        if not (close(r_m, r, CONVERSION_REL) and close(p_pa, pressure, CONVERSION_REL) and t_k == 0.0):
            return f"row ({r_m!r}, {p_pa!r}, {t_k!r}) is not the requested point ({r!r}, {pressure!r}, 0)"
        if not close(x, kf_from_pressure(p_pa, rel) * r_m, CONVERSION_REL):
            return f"x={x!r} is not k_F r at r={r_m!r}, P={p_pa!r}"
        if not abs(f - f0(x)) <= F0_ABS:
            return f"f={f!r} but the mpmath closed form gives {f0(x)!r} at x={x!r}"
        ref_entangled, ref_c, ref_eof = closed_forms(f)
        if int(entangled) != int(ref_entangled) or not (
                abs(c - ref_c) <= CLOSED_FORM_ABS and abs(eof - ref_eof) <= CLOSED_FORM_ABS):
            return f"closed forms ({c!r}, {eof!r}, {entangled!r}) for f={f!r}"
        if not close(r_e, zeta0() / kf_from_pressure(p_pa, rel), DISTANCE_REL):
            return f"r_e={r_e!r} at P={p_pa!r}"
    return None


def _geomspace(lo, hi, count):
    return [float(v) for v in np.geomspace(lo, hi, count)]


def _check_cli(request, out):
    if out.get("code") != 0:
        return f"exit code {out.get('code')!r}"
    p = request["params"]
    command = request["argv"][0]
    rel = p.get("regime") == "rel"
    doc = json.loads(out["stdout"]) if out["stdout"].strip() else None
    if command == "figure1":
        z = zeta0()
        grid = _geomspace(pressure_from_kf(z / 1e-8, False), 4.0 * pressure_from_kf(z / 1e-10, False), p["count"])
        return _check_csv(out, [(1e-10, v) for v in grid], False)
    if command == "sweep" and p["var"] == "pressure":
        return _check_csv(out, [(p["r"], v) for v in _geomspace(p["min"], p["max"], p["count"])], rel)
    if command == "sweep":
        return _check_csv(out, [(v, p["P"]) for v in _geomspace(p["min"], p["max"], p["count"])], rel)
    if command == "eval":
        if (doc["r"], doc["p"], doc["t"], doc["regime"]) != (p["r"], p["P"], 0.0, p["regime"]):
            return f"eval echoed {doc!r}"
        return _check_point(dict(doc, eof=doc["entropy_of_formation"]), p["r"], p["P"], 0.0, rel)
    if command == "zeta":
        if doc["t"] != 0.0 or doc["regime"] != p["regime"]:
            return f"zeta echoed {doc!r}"
        residual = f0_residual(doc["zeta"])
        if not (residual < ZETA_RESIDUAL and doc["residual"] < ZETA_RESIDUAL):
            return f"zeta={doc['zeta']!r} has residual {residual:.3e} (reported {doc['residual']!r})"
        return None
    if command == "avg":
        expected = average(0.0, False, p["measure"])
        if not close(doc["average"], expected, AVERAGE_REL):
            return f"average {doc['average']!r}, oracle {expected!r}"
        if not close(doc["zeta"], zeta0(), DISTANCE_REL):
            return f"avg reported zeta={doc['zeta']!r}"
        return None
    if command == "dwarf":
        return _check_dwarf(p, doc, rel)
    return f"no oracle for command {command!r}"


def _check_dwarf(p, doc, rel):
    mass = p["M_solar"] * SOLAR_MASS
    radius = p["R_solar"] * SOLAR_RADIUS
    mass_density = mass / ((4.0 / 3.0) * math.pi * radius ** 3)
    electron_density = p["Z"] * mass_density / (p["A"] * HYDROGEN_MASS)
    k_f = (3.0 * math.pi ** 2 * electron_density) ** (1.0 / 3.0)
    t_f = fermi_temperature(k_f, rel)
    relativity = fermi_energy(k_f, rel) / (ELECTRON_MASS * LIGHT_SPEED ** 2)
    coulomb = ELEMENTARY_CHARGE ** 2 / (4.0 * math.pi * VACUUM_PERMITTIVITY)
    density_ratio = electron_density / ((coulomb * ELECTRON_MASS / HBAR ** 2) ** 3 * p["Z"] ** 2)
    expected = {
        "mass_density": mass_density,
        "electron_density": electron_density,
        "fermi_momentum": k_f,
        "fermi_temperature": t_f,
        "t_over_tf": p["T"] / t_f,
        "relativity_parameter": relativity,
    }
    for key, value in expected.items():
        if not close(doc[key], value, CONVERSION_REL):
            return f"dwarf {key}={doc[key]!r}, oracle {value!r}"
    if not (close(doc["zeta"], zeta0(), DISTANCE_REL) and close(doc["r_e"], zeta0() / k_f, DISTANCE_REL)):
        return f"dwarf zeta={doc['zeta']!r}, r_e={doc['r_e']!r}"
    validity = doc["validity"]
    if not close(validity["density_ratio"], density_ratio, CONVERSION_REL):
        return f"dwarf density ratio {validity['density_ratio']!r}, oracle {density_ratio!r}"
    flags = (doc["nonrelativistic_ok"], validity["degenerate"], validity["ideal"])
    if flags != (relativity <= 0.1, p["T"] / t_f <= 0.01, density_ratio >= 100.0):
        return f"dwarf flags {flags!r}"
    return None


def check(request, out):
    """None when ``out`` is right for ``request``, else the first reason it is not."""
    if "error" in out:
        return out["error"]
    try:
        return _check(request, out)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def _check(request, out):
    kind = request["kind"]
    if kind == "cli":
        return _check_cli(request, out)
    rel = request["regime"] == "rel"
    if kind == "eos":
        echoed = (out["r"], out["p"], out["t"], out["regime"])
        if echoed != (request["r"], request["P"], request["T"], request["regime"]):
            return f"report echoed {echoed!r}"
        return _check_point(out, request["r"], request["P"], request["T"], rel)
    if kind == "avg":
        expected = average(request["t"], rel, request["measure"])
        if not close(out["average"], expected, AVERAGE_REL):
            return f"average {out['average']!r}, oracle {expected!r} at t={request['t']!r}"
        return None
    return f"no oracle for request kind {kind!r}"
