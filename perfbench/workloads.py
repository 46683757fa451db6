"""Seeded request sets of the three workloads.

A request set is a list of plain dicts; fge receives only the numbers
generated here.  Every round of a run replays the same set in a fresh
interpreter, one request after another (a closed loop with one client).
Request counts are fixed per workload, so the latency percentiles of a
round always rank the same number of samples.
"""

import math
import random

from oracle import fermi_temperature, kf_from_pressure, pressure_from_kf

REGIMES = ("nonrel", "rel")
MEASURES = ("concurrence", "eof")
SWEEP_POINTS = 200
# ground: request kind -> requests per round (200 in all)
GROUND_MIX = {"figure1": 40, "pressure_sweep": 40, "distance_sweep": 40,
              "eval": 20, "zeta": 20, "dwarf": 20, "avg": 20}
THERMAL_POINTS = 100
WINDOW_POINTS = 100
WINDOW_X_MAX = 6.0
# thermal_window temperatures: a band over which one average costs about the
# same at every t, so that the seed changes the inputs but hardly the work
WINDOW_T = (0.02, 0.07)
# (Z, A) of helium, carbon and oxygen interiors
DWARF_NUCLEI = ((2, 4), (6, 12), (8, 16))


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _cli(argv, params, csv=False):
    return {"kind": "cli", "argv": [str(a) for a in argv],
            "params": params, "csv": csv}


def _ground_request(rng, kind, csv_path):
    regime = rng.choice(REGIMES)
    rel = regime == "rel"
    if kind == "figure1":
        return _cli(["figure1", "--out", csv_path, "--count", SWEEP_POINTS],
                    {"count": SWEEP_POINTS}, csv=True)
    if kind == "pressure_sweep":
        r = _log_uniform(rng, 2e-11, 5e-10)
        p = {"var": "pressure", "r": r, "count": SWEEP_POINTS, "regime": regime,
             "min": pressure_from_kf(0.05 / r, rel), "max": pressure_from_kf(12.0 / r, rel)}
        return _cli(["sweep", "--var", "pressure", "--min", p["min"], "--max", p["max"], "--r", r,
                     "--count", SWEEP_POINTS, "--regime", regime, "--out", csv_path], p, csv=True)
    if kind == "distance_sweep":
        k_f = _log_uniform(rng, 1e9, 1e12)
        p = {"var": "distance", "P": pressure_from_kf(k_f, rel), "count": SWEEP_POINTS,
             "regime": regime, "min": 0.05 / k_f, "max": 12.0 / k_f}
        return _cli(["sweep", "--var", "distance", "--min", p["min"], "--max", p["max"], "--P", p["P"],
                     "--count", SWEEP_POINTS, "--regime", regime, "--out", csv_path], p, csv=True)
    if kind == "eval":
        k_f = _log_uniform(rng, 1e9, 1e12)
        p = {"r": rng.uniform(0.05, 12.0) / k_f, "P": pressure_from_kf(k_f, rel), "regime": regime}
        return _cli(["eval", "--r", p["r"], "--P", p["P"], "--regime", regime], p)
    if kind == "zeta":
        return _cli(["zeta", "--t", "0", "--regime", regime], {"regime": regime})
    if kind == "dwarf":
        z, a = rng.choice(DWARF_NUCLEI)
        p = {"M_solar": rng.uniform(0.5, 1.3), "R_solar": rng.uniform(0.006, 0.02),
             "T": rng.uniform(5e3, 4e4), "Z": z, "A": a, "regime": regime}
        return _cli(["dwarf", "--M-solar", p["M_solar"], "--R-solar", p["R_solar"], "--T", p["T"],
                     "--Z", z, "--A", a, "--regime", regime], p)
    if kind == "avg":
        measure = rng.choice(MEASURES)
        return _cli(["avg", "--t", "0", "--measure", measure], {"measure": measure})
    raise ValueError(f"unknown ground request kind {kind!r}")


def ground(rng, csv_path, scale=1.0):
    kinds = [kind for kind, count in GROUND_MIX.items() for _ in range(max(1, round(count * scale)))]
    rng.shuffle(kinds)
    return [_ground_request(rng, kind, csv_path) for kind in kinds]


def _eos(x, k_f, t, regime):
    rel = regime == "rel"
    return {"kind": "eos", "r": x / k_f, "P": pressure_from_kf(k_f, rel),
            "T": t * fermi_temperature(k_f, rel), "regime": regime}


def thermal_points(rng, scale=1.0):
    return [_eos(rng.uniform(0.2, 5.0), _log_uniform(rng, 1e9, 1e12), _log_uniform(rng, 1e-3, 1.0),
                 REGIMES[i % 2])
            for i in range(max(2, round(THERMAL_POINTS * scale)))]


def thermal_window(rng, scale=1.0):
    points = max(2, round(WINDOW_POINTS * scale))
    requests = []
    for regime in REGIMES:
        rel = regime == "rel"
        k_f = _log_uniform(rng, 1e9, 1e12)
        t = _log_uniform(rng, *WINDOW_T)
        curve = [_eos(WINDOW_X_MAX * i / points, k_f, t, regime) for i in range(1, points + 1)]
        # the reduced temperature of the curve's gas as fge derives it from
        # (T, P), so that the average can reuse the curve's cached mu and zeta
        t_gas = curve[0]["T"] / fermi_temperature(kf_from_pressure(curve[0]["P"], rel), rel)
        requests += curve
        requests.append({"kind": "avg", "t": t_gas, "regime": regime, "measure": rng.choice(MEASURES)})
    return requests


def build(name, seed, csv_path, scale=1.0):
    """The request set of workload ``name`` for ``seed``; ``scale`` < 1 shrinks it for smoke checks."""
    rng = random.Random(f"{name}:{seed}")
    if name == "ground":
        return ground(rng, csv_path, scale)
    if name == "thermal_points":
        return thermal_points(rng, scale)
    if name == "thermal_window":
        return thermal_window(rng, scale)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("ground", "thermal_points", "thermal_window")
