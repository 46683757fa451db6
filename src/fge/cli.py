"""Command-line front end.

Subcommands: eval (one point), zeta (distance constant), sweep (CSV grid),
figure1 (preset pressure sweep), dwarf (white-dwarf report), avg (mean
entanglement over the entangled window).  A sweep or figure1 is one
``eos_grid`` call over its whole grid.  JSON goes to stdout, CSV to
--out.  Exit codes: 0 success, 1 domain/numerical/IO error, 2 usage.
The argument parser is built once, at the first ``main`` call.
"""

import argparse
import dataclasses
import functools
import itertools
import json
import os
import sys
from enum import Enum

import numpy as np

from .constants import constants
from .entanglement import Measure, average_entanglement, eos_evaluate, eos_grid
from .errors import DomainError, QuadratureError, SolverError
from .exchange import _validate_quad_tol, solve_zeta
from .fermi import GasRegime, MuMode, pressure_from_entanglement_distance
from .whitedwarf import WhiteDwarf, dwarf_report

_CSV_HEADER = "r_m,P_Pa,T_K,x,f,C,EF_bits,entangled,re_m"
_DEFAULT_TOL = 1e-10


class _UsageError(Exception):
    """Flag combinations argparse cannot catch on its own."""


def _add_common(parser, mu_mode=True, tol=True):
    parser.add_argument("--regime", choices=["nonrel", "rel"], default="nonrel",
                        help="dispersion regime (default nonrel)")
    if mu_mode:
        parser.add_argument("--mu-mode", choices=["fermi", "exact"], default="exact",
                            help="chemical-potential policy at finite temperature")
    if tol:
        parser.add_argument("--tol", type=float, default=None,
                            help="quadrature tolerance (default 1e-10, or FGE_QUAD_TOL)")


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fge",
        description="Pairwise electron entanglement in a degenerate Fermi gas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="entanglement report at one (r, P, T) point")
    p.add_argument("--r", type=float, required=True, help="pair separation in m")
    p.add_argument("--P", type=float, required=True, help="degeneracy pressure in Pa")
    p.add_argument("--T", type=float, default=0.0, help="temperature in K (default 0)")
    _add_common(p)

    p = sub.add_parser("zeta", help="distance constant zeta(t)")
    p.add_argument("--t", type=float, default=0.0, help="reduced temperature T/T_F")
    _add_common(p, tol=False)

    p = sub.add_parser("sweep", help="CSV sweep over pressure, distance, or temperature")
    p.add_argument("--var", choices=["pressure", "distance", "temperature"], required=True)
    p.add_argument("--min", type=float, required=True)
    p.add_argument("--max", type=float, required=True)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--spacing", choices=["linear", "log"], default="log")
    p.add_argument("--r", type=float, default=None, help="fixed separation in m")
    p.add_argument("--P", type=float, default=None, help="fixed pressure in Pa")
    p.add_argument("--T", type=float, default=0.0, help="fixed temperature in K")
    p.add_argument("--out", required=True, help="output CSV path")
    _add_common(p)

    p = sub.add_parser("figure1", help="preset zero-temperature pressure sweep CSV")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--count", type=int, default=200)
    _add_common(p, mu_mode=False)

    p = sub.add_parser("dwarf", help="white-dwarf entanglement report")
    mass = p.add_mutually_exclusive_group()
    mass.add_argument("--M", type=float, default=None, help="mass in kg")
    mass.add_argument("--M-solar", type=float, default=None, help="mass in solar masses")
    radius = p.add_mutually_exclusive_group()
    radius.add_argument("--R", type=float, default=None, help="radius in m")
    radius.add_argument("--R-solar", type=float, default=None, help="radius in solar radii")
    p.add_argument("--T", type=float, default=27000.0, help="surface temperature in K")
    p.add_argument("--Z", type=int, default=6, help="protons per nucleus")
    p.add_argument("--A", type=int, default=12, help="nucleons per nucleus")
    p.add_argument("--zeta", type=float, default=None,
                   help="distance constant (default: zero-temperature value)")
    _add_common(p, mu_mode=False, tol=False)

    p = sub.add_parser("avg", help="mean entanglement over separations in [0, zeta]")
    p.add_argument("--t", type=float, default=0.0, help="reduced temperature T/T_F")
    p.add_argument("--measure", choices=["concurrence", "eof"], default="concurrence")
    _add_common(p, tol=False)

    return parser


def _resolve_tol(args):
    tol = args.tol
    if tol is None:
        raw = os.environ.get("FGE_QUAD_TOL")
        if raw is not None:
            try:
                tol = float(raw)
            except ValueError:
                raise DomainError(
                    f"FGE_QUAD_TOL must parse as a number, got {raw!r}"
                ) from None
    if tol is None:
        return _DEFAULT_TOL
    _validate_quad_tol(tol)
    return tol


def _regime(args):
    return GasRegime(args.regime)


def _mu_mode(args):
    return MuMode(args.mu_mode)


def _formatted(column):
    """Lazy ``repr`` of each entry of a 1-d column; one repeated value is formatted once.

    Entries repeat when their bits do, so that -0.0 and 0.0 stay apart.
    """
    values = column.tolist()
    bits = column.view(np.int64)
    if values and (bits == bits[0]).all():
        return itertools.repeat(repr(values[0]), len(values))
    return map(repr, values)


def _write_csv(path, grid):
    columns = (grid.r, grid.p, grid.t, grid.x, grid.f, grid.concurrence,
               grid.entropy_of_formation, grid.entangled.astype(np.int64), grid.r_e)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(_CSV_HEADER + "\n")
        handle.writelines(",".join(row) + "\n" for row in zip(*map(_formatted, columns)))


def _print_fields(report):
    """Print a result dataclass as one JSON object: its fields in order, enums as values."""
    print(json.dumps(dataclasses.asdict(report, dict_factory=lambda items: {
        key: value.value if isinstance(value, Enum) else value for key, value in items})))


def _grid(lo, hi, count, spacing):
    if count < 2:
        raise _UsageError(f"--count must be at least 2, got {count}")
    if not (lo < hi):
        raise _UsageError(f"--min must be less than --max, got {lo!r} >= {hi!r}")
    if spacing == "log":
        if not (lo > 0):
            raise _UsageError(f"log spacing requires --min > 0, got {lo!r}")
        return np.geomspace(lo, hi, count)
    return np.linspace(lo, hi, count)


def _cmd_eval(args, tol):
    _print_fields(eos_evaluate(args.r, args.P, args.T, _regime(args), _mu_mode(args), tol))
    return 0


def _cmd_zeta(args):
    _print_fields(solve_zeta(args.t, _regime(args), _mu_mode(args)))
    return 0


def _cmd_sweep(args, tol):
    grid = _grid(args.min, args.max, args.count, args.spacing)
    if args.var == "pressure":
        if args.r is None:
            raise _UsageError("--r is required for a pressure sweep")
        points = (args.r, grid, args.T)
    elif args.var == "distance":
        if args.P is None:
            raise _UsageError("--P is required for a distance sweep")
        points = (grid, args.P, args.T)
    else:
        if args.r is None or args.P is None:
            raise _UsageError("--r and --P are required for a temperature sweep")
        points = (args.r, args.P, grid)
    _write_csv(args.out, eos_grid(*points, _regime(args), _mu_mode(args), tol))
    return 0


def _cmd_figure1(args, tol):
    regime = GasRegime.NONRELATIVISTIC
    zeta0 = solve_zeta(0.0, regime, MuMode.EXACT_NORMALIZATION).zeta
    p_lo = pressure_from_entanglement_distance(1e-8, regime, zeta0)
    p_hi = 4.0 * pressure_from_entanglement_distance(1e-10, regime, zeta0)
    grid = _grid(p_lo, p_hi, args.count, "log")
    _write_csv(args.out, eos_grid(1e-10, grid, 0.0, regime, MuMode.EXACT_NORMALIZATION, tol))
    return 0


def _cmd_dwarf(args):
    c = constants()
    if args.M is not None:
        mass = args.M
    else:
        mass = (args.M_solar if args.M_solar is not None else 1.0) * c.solar_mass
    if args.R is not None:
        radius = args.R
    else:
        radius = (args.R_solar if args.R_solar is not None else 0.008) * c.solar_radius
    dwarf = WhiteDwarf(mass=mass, radius=radius, surface_temperature=args.T,
                       protons=args.Z, nucleons=args.A)
    report = dwarf_report(dwarf, args.zeta, _regime(args))
    # the dwarf's fields first, then the report's, its validity flags nested
    d = dataclasses.asdict(report)
    print(json.dumps({**d.pop("dwarf"), **d}))
    return 0


def _cmd_avg(args):
    regime, mu_mode = _regime(args), _mu_mode(args)
    measure = Measure(args.measure)
    value = average_entanglement(args.t, regime, measure, mu_mode)
    result = solve_zeta(args.t, regime, mu_mode)
    print(json.dumps({
        "average": value,
        "measure": measure.value,
        "t": args.t,
        "regime": regime.value,
        "zeta": result.zeta,
    }))
    return 0


_DISPATCH = {
    "eval": _cmd_eval,
    "zeta": _cmd_zeta,
    "sweep": _cmd_sweep,
    "figure1": _cmd_figure1,
    "dwarf": _cmd_dwarf,
    "avg": _cmd_avg,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = _DISPATCH[args.command]
    try:
        # only the commands whose results depend on the quadrature tolerance take --tol
        if "tol" in vars(args):
            return command(args, _resolve_tol(args))
        return command(args)
    except _UsageError as exc:
        print(f"fge: usage error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, SolverError, QuadratureError, OSError) as exc:
        print(f"fge: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
