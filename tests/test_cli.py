"""Command-line interface: JSON output, CSV contract, exit codes, and environment."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import fge
from fge import (
    GasRegime,
    MuMode,
    concurrence_closed_form,
    eos_evaluate,
    fermi_momentum_from_pressure,
    fermi_temperature,
    pressure_from_fermi_momentum,
    reduced_chemical_potential,
    reduced_occupancy,
    solve_zeta,
)
from fge import cli
from fge.cli import _CSV_HEADER, main
from fge.fermi import occupancy_cutoff

NR = GasRegime.NONRELATIVISTIC


def run_python(*args):
    """Run the interpreter on ``args`` with the tested fge package importable."""
    package_root = os.path.dirname(os.path.dirname(fge.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})


def run_cli(argv, capsys):
    """Invoke the entry point, catching argparse's SystemExit on usage errors."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# === JSON subcommands ===


def test_eval_json(capsys):
    code, out, err = run_cli(["eval", "--r", "1e-10", "--P", "1e9"], capsys)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert set(payload) == {
        "f", "entangled", "concurrence", "entropy_of_formation",
        "r", "p", "t", "regime", "r_e",
    }
    assert payload["f"] == pytest.approx(0.95765295304139318, rel=1e-10)
    assert payload["concurrence"] == pytest.approx(0.77033680310477515, rel=1e-10)
    assert payload["entropy_of_formation"] == pytest.approx(0.68265468946300357, rel=1e-10)
    assert payload["entangled"] is True
    assert payload["regime"] == "nonrel"
    assert (payload["r"], payload["p"], payload["t"]) == (1e-10, 1e9, 0.0)


def test_zeta_json(capsys):
    code, out, _ = run_cli(["zeta"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["zeta"] == pytest.approx(1.8148229770012292, abs=1e-9)
    assert payload["residual"] < 1e-10
    assert payload["t"] == 0.0
    assert payload["regime"] == "nonrel"

    code, out, _ = run_cli(["zeta", "--t", "0.05", "--regime", "rel"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["zeta"] == pytest.approx(1.7821620418424771, abs=1e-9)
    assert payload["regime"] == "rel"


@pytest.mark.parametrize("argv, expected", [
    (["eval", "--r", "1e-10", "--P", "1e9"],
     '{"f": 0.9576529530413929, "entangled": true, "concurrence": 0.7703368031047736, '
     '"entropy_of_formation": 0.6826546894630017, "r": 1e-10, "p": 1000000000.0, '
     '"t": 0.0, "regime": "nonrel", "r_e": 2.767507034360613e-10}\n'),
    (["zeta", "--t", "0.05", "--regime", "rel"],
     '{"zeta": 1.7821620418424757, "t": 0.05, "regime": "rel", '
     '"residual": 1.1102230246251565e-16}\n'),
])
def test_eval_and_zeta_stdout_bytes(argv, expected, capsys):
    # the report fields in declaration order, the regime as its value
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize("argv, expected", [
    (["dwarf"],
     '{"mass": 1.98892e+30, "radius": 5565600.0, "surface_temperature": 27000.0, '
     '"protons": 6, "nucleons": 12, "mass_density": 2754182627.482284, '
     '"electron_density": 8.22864848386086e+35, "fermi_momentum": 2899010823451.2783, '
     '"fermi_temperature": 3715777676.310597, "t_over_tf": 7.266312021877572e-06, '
     '"r_e": 6.260145572139254e-13, "zeta": 1.8148229770012292, '
     '"relativity_parameter": 0.6266176195674803, "nonrelativistic_ok": false, '
     '"validity": {"degenerate": true, "ideal": true, "t_over_tf": 7.266312021877572e-06, '
     '"density_ratio": 3387.110824792637}}\n'),
    (["dwarf", "--M-solar", "1.1", "--Z", "8", "--A", "16", "--regime", "rel"],
     '{"mass": 2.187812e+30, "radius": 5565600.0, "surface_temperature": 27000.0, '
     '"protons": 8, "nucleons": 16, "mass_density": 3029600890.2305126, '
     '"electron_density": 9.051513332246946e+35, "fermi_momentum": 2992591227541.544, '
     '"fermi_temperature": 6852688324.264083, "t_over_tf": 3.940059539027635e-06, '
     '"r_e": 6.06438647650562e-13, "zeta": 1.8148229770012292, '
     '"relativity_parameter": 1.1556168370255568, "nonrelativistic_ok": false, '
     '"validity": {"degenerate": true, "ideal": true, "t_over_tf": 3.940059539027635e-06, '
     '"density_ratio": 2095.774822840444}}\n'),
])
def test_dwarf_stdout_bytes(argv, expected, capsys):
    # the dwarf's fields first, then the report's, the validity flags nested
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (0, expected, "")


def test_dwarf_json_defaults(capsys):
    code, out, _ = run_cli(["dwarf"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["electron_density"] == pytest.approx(8.228648483860859e35, rel=1e-10)
    assert payload["r_e"] == pytest.approx(6.2601455721392432e-13, rel=1e-10)
    assert payload["t_over_tf"] == pytest.approx(7.266312021877547e-06, rel=1e-10)
    assert payload["nonrelativistic_ok"] is False
    assert payload["validity"]["degenerate"] is True
    assert payload["validity"]["ideal"] is True
    assert payload["protons"] == 6 and payload["nucleons"] == 12


def test_dwarf_solar_unit_flags(capsys):
    code, out, _ = run_cli(["dwarf", "--M-solar", "1", "--R-solar", "0.008"], capsys)
    assert code == 0
    default = json.loads(out)
    code, out, _ = run_cli(["dwarf", "--M", repr(default["mass"]), "--R", repr(default["radius"])], capsys)
    assert code == 0
    assert json.loads(out) == default


@pytest.mark.parametrize("flag, name", [
    ("--M", "mass"), ("--M-solar", "mass"), ("--R", "radius"), ("--R-solar", "radius"),
    ("--T", "surface temperature"), ("--zeta", "zeta"),
])
@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_dwarf_rejects_non_finite_inputs(flag, name, bad, capsys):
    # an infinite mass once printed Infinity, which is not JSON
    code, out, err = run_cli(["dwarf", flag, bad], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("fge: error:") and f"{name} must be finite" in err


def test_avg_json(capsys):
    code, out, _ = run_cli(["avg"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["average"] == pytest.approx(0.57068737010830709, rel=1e-6)
    assert payload["measure"] == "concurrence"
    assert payload["zeta"] == pytest.approx(1.8148229770012292, abs=1e-9)

    code, out, _ = run_cli(["avg", "--measure", "eof"], capsys)
    assert code == 0
    assert json.loads(out)["average"] == pytest.approx(0.48652629533027971, rel=1e-6)


# === CSV subcommands ===


def read_rows(path):
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    return lines[0], [[float(v) for v in row] for row in rows]


def test_sweep_pressure_csv(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code, _, err = run_cli(
        ["sweep", "--var", "pressure", "--min", "1e9", "--max", "1e11",
         "--count", "5", "--r", "1e-10", "--out", str(out_csv)],
        capsys,
    )
    assert code == 0 and err == ""
    header, rows = read_rows(out_csv)
    assert header == _CSV_HEADER
    assert len(rows) == 5
    zeta0 = solve_zeta(0.0, NR).zeta
    for r_m, p_pa, t_k, x, f, c, ef, entangled, re_m in rows:
        assert r_m == 1e-10 and t_k == 0.0
        k_f = fermi_momentum_from_pressure(p_pa, NR)
        assert x == pytest.approx(k_f * r_m, rel=1e-12)
        assert c == pytest.approx(concurrence_closed_form(max(min(f, 1.0), -1.0)), abs=1e-10)
        assert re_m == pytest.approx(zeta0 / k_f, rel=1e-10)
        assert entangled in (0.0, 1.0)
    assert rows[0][1] == 1e9 and rows[-1][1] == pytest.approx(1e11, rel=1e-12)


def test_sweep_line_endings_and_determinism(tmp_path, capsys):
    args = ["sweep", "--var", "distance", "--min", "1e-11", "--max", "1e-9",
            "--count", "4", "--P", "1e9"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(first)], capsys)[0] == 0
    assert run_cli(args + ["--out", str(second)], capsys)[0] == 0
    data = first.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")
    assert data == second.read_bytes()


def test_sweep_temperature_linear(tmp_path, capsys):
    out_csv = tmp_path / "temps.csv"
    k_f = fermi_momentum_from_pressure(1e9, NR)
    t_lo = 0.005 * fermi_temperature(k_f, NR)
    t_hi = 0.05 * fermi_temperature(k_f, NR)
    code, _, _ = run_cli(
        ["sweep", "--var", "temperature", "--min", repr(t_lo), "--max", repr(t_hi),
         "--count", "3", "--spacing", "linear", "--r", "1e-10", "--P", "1e9",
         "--out", str(out_csv)],
        capsys,
    )
    assert code == 0
    _, rows = read_rows(out_csv)
    assert [row[2] for row in rows] == pytest.approx([t_lo, (t_lo + t_hi) / 2, t_hi], rel=1e-12)
    # warming the gas at fixed (r, P) weakens the correlation
    assert rows[0][4] > rows[-1][4]


def test_figure1_csv(tmp_path, capsys):
    out_csv = tmp_path / "fig1.csv"
    code, _, _ = run_cli(["figure1", "--count", "10", "--out", str(out_csv)], capsys)
    assert code == 0
    header, rows = read_rows(out_csv)
    assert header == _CSV_HEADER
    assert len(rows) == 10
    assert rows[0][8] == pytest.approx(1e-8, rel=1e-9)   # opening point: r_e = 10 nm
    assert rows[0][5] > 0.999 and rows[0][6] > 0.999
    assert rows[-1][7] == 0.0 and rows[-1][5] == 0.0     # compressed past the window
    assert all(a[1] < b[1] for a, b in zip(rows, rows[1:]))


@pytest.mark.parametrize("argv", [
    ["figure1", "--count", "12"],
    ["sweep", "--var", "pressure", "--min", "1e8", "--max", "1e13", "--r", "1.3e-10",
     "--count", "15", "--regime", "rel"],
    ["sweep", "--var", "distance", "--min", "1e-12", "--max", "1e-9", "--P", "3e10", "--count", "15"],
    ["sweep", "--var", "distance", "--min", "1e-12", "--max", "1e-9", "--P", "1e9", "--T", "5e3",
     "--count", "15"],
    ["sweep", "--var", "pressure", "--min", "1e9", "--max", "1e10", "--r", "1e-10", "--T", "1e4",
     "--count", "5", "--mu-mode", "fermi"],
    ["sweep", "--var", "temperature", "--min", "1e2", "--max", "1e5", "--r", "1e-10", "--P", "1e9",
     "--count", "5", "--regime", "rel", "--spacing", "linear"],
])
def test_csv_rows_match_point_evaluations(argv, tmp_path, capsys):
    # a sweep is one grid evaluation; each row must still be the one-point pipeline
    out_csv = tmp_path / "grid.csv"
    assert run_cli(argv + ["--out", str(out_csv)], capsys)[0] == 0
    regime = GasRegime.EXTREME_RELATIVISTIC if "rel" in argv else NR
    mu_mode = MuMode.FERMI_ENERGY_APPROX if "fermi" in argv else MuMode.EXACT_NORMALIZATION
    _, rows = read_rows(out_csv)
    for r_m, p_pa, t_k, x, f, c, ef, entangled, re_m in rows:
        point = eos_evaluate(r_m, p_pa, t_k, regime, mu_mode)
        assert x == fermi_momentum_from_pressure(p_pa, regime) * r_m
        assert abs(f - point.f) <= 1e-13
        assert abs(c - point.concurrence) <= 1e-13
        assert abs(ef - point.entropy_of_formation) <= 1e-13
        assert entangled == int(point.entangled)
        assert re_m == point.r_e


def test_thermal_pressure_sweep_against_dense_oracle(tmp_path, capsys):
    # every point of a pressure sweep at fixed (r, T) has its own t, hence its
    # own mu and kernel rule; each must meet the 1e-8 bound of a dense
    # midpoint integration of (3/x) int u n(u) sin(ux) du
    out_csv = tmp_path / "thermal.csv"
    k_lo, k_hi = 4e9, 1e10
    argv = ["sweep", "--var", "pressure", "--count", "4", "--r", repr(1.5 / k_lo),
            "--min", repr(pressure_from_fermi_momentum(k_lo, NR)),
            "--max", repr(pressure_from_fermi_momentum(k_hi, NR)),
            "--T", repr(0.3 * fermi_temperature(k_lo, NR)), "--out", str(out_csv)]
    assert run_cli(argv, capsys)[0] == 0
    _, rows = read_rows(out_csv)
    nodes = 2_000_000
    for _, p_pa, t_k, x, f, *_ in rows:
        t = t_k / fermi_temperature(fermi_momentum_from_pressure(p_pa, NR), NR)
        mu = reduced_chemical_potential(t, NR)
        du = occupancy_cutoff(mu + 15.0 * t, t, NR) / nodes
        u = (np.arange(nodes) + 0.5) * du
        oracle = 3.0 / x * float((u * reduced_occupancy(u, mu, t, NR) * du) @ np.sin(u * x))
        assert abs(f - oracle) < 1e-8
    assert len({row[2] for row in rows}) == 1 and len({row[1] for row in rows}) == 4


# === exit codes ===


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["eval", "--r", "1e-10", "--P", "-3"], "pressure"),
        (["eval", "--r=-1e-10", "--P", "1e9"], "separation"),
        (["dwarf", "--A", "3"], "nucleon count"),
        (["eval", "--r", "1e-10", "--P", "1e9", "--tol", "1e-20"], "tolerance"),
        (["eval", "--r", "1e-10", "--P", "1e9", "--tol", "0.1"], "tolerance"),
        (["sweep", "--var", "pressure", "--min", "1", "--max", "2", "--r", "1e-10",
          "--out", "/nonexistent-dir/x.csv"], "x.csv"),
    ],
)
def test_domain_and_io_failures_exit_1(argv, fragment, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert err.startswith("fge: error:")
    assert fragment in err


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["eval", "--r", "1e-10", "--P", "1e9", "--T", "inf"], "temperature"),
        (["eval", "--r", "1e-10", "--P", "1e9", "--T", "nan"], "temperature"),
        (["eval", "--r", "inf", "--P", "1e9"], "separation"),
        (["eval", "--r", "nan", "--P", "1e9", "--T", "1e4"], "separation"),
        (["eval", "--r", "1e-10", "--P", "inf"], "pressure"),
        (["eval", "--r", "1e-10", "--P", "nan", "--T", "1e4"], "pressure"),
        (["zeta", "--t", "inf"], "temperature"),
        (["avg", "--t", "nan"], "temperature"),
    ],
)
def test_non_finite_inputs_exit_1(argv, fragment, capsys):
    # rejected where they enter, before any NaN or numpy warning can arise
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("fge: error:")
    assert fragment in err


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["eval", "--r", "1e-10", "--P", "1e300"], "pressure"),
        (["eval", "--r", "1e-10", "--P", "1e-300", "--T", "1e3"], "pressure"),
        (["eval", "--r", "1e300", "--P", "1e30"], "separation"),
        (["eval", "--r", "1e-10", "--P", "1e-290", "--T", "1e308"], "temperature"),
    ],
)
def test_inputs_leaving_the_float_range_exit_1(argv, fragment, capsys):
    # finite inputs whose k_F, x or t overflows (or k_F underflows) are named
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("fge: error:") and fragment in err


def test_huge_separation_is_bounded_without_warnings(capsys):
    # f0 divides by x one factor at a time: |f| <= 3 (1 + x) / x^3, no overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["eval", "--r", "1e200", "--P", "1e9"], capsys)
    assert code == 0 and err == ""
    payload = json.loads(out)
    x = fermi_momentum_from_pressure(1e9, NR) * 1e200
    assert abs(payload["f"]) <= 3.0 * (1.0 + x) / x / x / x
    assert payload["entangled"] is False and payload["concurrence"] == 0.0


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["sweep", "--var", "pressure", "--min", "1e9", "--max", "1e11",
          "--out", "x.csv"], "--r is required"),
        (["sweep", "--var", "distance", "--min", "1e-11", "--max", "1e-9",
          "--out", "x.csv"], "--P is required"),
        (["sweep", "--var", "temperature", "--min", "1", "--max", "2",
          "--out", "x.csv"], "required for a temperature sweep"),
        (["sweep", "--var", "pressure", "--min", "1e9", "--max", "1e9", "--r", "1e-10",
          "--out", "x.csv"], "less than"),
        (["sweep", "--var", "pressure", "--min", "1e9", "--max", "1e11", "--r", "1e-10",
          "--count", "1", "--out", "x.csv"], "count"),
        (["sweep", "--var", "pressure", "--min", "-1", "--max", "1", "--r", "1e-10",
          "--out", "x.csv"], "log spacing"),
    ],
)
def test_usage_failures_exit_2(argv, fragment, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("fge: usage error:")
    assert fragment in err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["eval", "--r", "1e-10"],                       # missing --P
        ["eval", "--r", "1e-10", "--P", "1e9", "--regime", "ultra"],
        ["dwarf", "--M", "1e30", "--M-solar", "1"],     # mutually exclusive
        ["sweep", "--var", "pressure", "--min", "1e9", "--r", "1e-10", "--out", "x.csv"],
    ],
)
def test_argparse_failures_exit_2(argv, capsys):
    code, _, _ = run_cli(argv, capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [["avg", "--tol", "1e-6"], ["dwarf", "--tol", "1e-6"],
                                  ["zeta", "--tol", "1e-6"]])
def test_tolerance_flag_rejected_where_unused(argv, capsys):
    # avg and dwarf run no tolerance-controlled quadrature, and zeta always
    # runs its own at 1e-12, so --tol is unknown there
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert "--tol" in err


# === quadrature tolerance resolution ===


def test_env_tolerance_is_used(monkeypatch, capsys):
    monkeypatch.setenv("FGE_QUAD_TOL", "1e-8")
    assert run_cli(["eval", "--r", "1e-10", "--P", "1e9"], capsys)[0] == 0


def test_env_tolerance_must_parse(monkeypatch, capsys):
    monkeypatch.setenv("FGE_QUAD_TOL", "not-a-number")
    code, _, err = run_cli(["eval", "--r", "1e-10", "--P", "1e9"], capsys)
    assert code == 1
    assert "FGE_QUAD_TOL" in err


def test_env_tolerance_must_be_in_range(monkeypatch, capsys):
    monkeypatch.setenv("FGE_QUAD_TOL", "1e-3")
    code, _, err = run_cli(["eval", "--r", "1e-10", "--P", "1e9"], capsys)
    assert code == 1 and "tolerance" in err


def test_env_tolerance_not_read_where_unused(monkeypatch, capsys):
    monkeypatch.setenv("FGE_QUAD_TOL", "not-a-number")
    assert run_cli(["avg"], capsys)[0] == 0
    assert run_cli(["dwarf"], capsys)[0] == 0


def test_flag_overrides_env(monkeypatch, capsys):
    # the flag wins, so the broken environment value is never consulted
    monkeypatch.setenv("FGE_QUAD_TOL", "not-a-number")
    assert run_cli(["eval", "--r", "1e-10", "--P", "1e9", "--tol", "1e-10"], capsys)[0] == 0


# === one parser for every call ===


SEQUENCE = [
    ["eval", "--r", "1e-10", "--P", "1e9", "--T", "5"],
    ["eval", "--r", "1e-10", "--P", "1e9"],                 # --T falls back to 0
    ["zeta", "--t", "0.05", "--regime", "rel", "--mu-mode", "fermi"],
    ["zeta"],                                               # nonrel, exact, t = 0
    ["avg", "--measure", "eof", "--regime", "rel"],
    ["avg"],
    ["dwarf", "--M-solar", "1.1", "--Z", "8", "--A", "16"],
    ["dwarf"],
]


def test_calls_in_a_row_match_fresh_processes(capsys):
    # the parser is built once; no flag of one call may leak into the next
    in_process = []
    for argv in SEQUENCE:
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and err == ""
        in_process.append(out)
    for argv, out in zip(SEQUENCE, in_process):
        proc = run_python("-m", "fge", *argv)
        assert proc.returncode == 0
        assert proc.stdout == out
    assert json.loads(in_process[1])["t"] == 0.0


# === module execution ===


def test_import_leaves_scipy_out():
    # scipy is a test-only dependency: the package runs on numpy alone
    proc = run_python(
        "-c",
        "import sys, fge, fge.cli; print('scipy' in sys.modules or "
        "any(name.startswith('scipy.') for name in sys.modules))",
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "False"



def test_module_invocation_succeeds():
    proc = run_python("-m", "fge", "zeta", "--t", "0")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["zeta"] == pytest.approx(1.8148229770012292, abs=1e-9)


def test_module_invocation_reports_errors():
    proc = run_python("-m", "fge", "eval", "--r", "1e-10", "--P", "-1")
    assert proc.returncode == 1
    assert "fge: error:" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["sweep", "--var", "pressure", "--min", "1e9", "--max", "1e13", "--r", "1.3e-10",
     "--count", "40", "--regime", "rel"],
    ["sweep", "--var", "distance", "--min", "1e-12", "--max", "1e-9", "--P", "3e10",
     "--count", "40"],
    ["sweep", "--var", "temperature", "--min", "1e2", "--max", "1e5", "--r", "1e-10",
     "--P", "1e9", "--count", "5"],
    ["figure1", "--count", "40"],
    ["sweep", "--var", "pressure", "--min", "1e9", "--max", "1e11", "--r", "1e-10",
     "--T", "-0.0", "--count", "6"],
])
def test_csv_bytes_match_an_entry_by_entry_writer(argv, tmp_path, capsys, monkeypatch):
    # a column of one repeated value is formatted once; the file must be the
    # one that formatting every entry on its own writes
    grids, original = [], cli.eos_grid

    def recorded(*args, **kwargs):
        grids.append(original(*args, **kwargs))
        return grids[-1]

    monkeypatch.setattr(cli, "eos_grid", recorded)
    out_csv = tmp_path / "grid.csv"
    assert run_cli(argv + ["--out", str(out_csv)], capsys)[0] == 0
    (grid,) = grids
    columns = (grid.r, grid.p, grid.t, grid.x, grid.f, grid.concurrence,
               grid.entropy_of_formation, grid.entangled, grid.r_e)
    lines = [_CSV_HEADER] + [
        ",".join(repr(int(v) if isinstance(v, bool) else v) for v in row)
        for row in zip(*(column.tolist() for column in columns))]
    assert out_csv.read_text() == "\n".join(lines) + "\n"
    if "-0.0" in argv:
        assert {row.split(",")[2] for row in lines[1:]} == {"-0.0"}


def test_csv_column_entries_repeat_only_when_their_bits_do():
    for column, expected in [
        (np.array([0.0, -0.0, 0.0]), ["0.0", "-0.0", "0.0"]),
        (np.array([-0.0, -0.0]), ["-0.0", "-0.0"]),
        (np.broadcast_to(1e-10, 3), ["1e-10"] * 3),
        (np.array([1, 0, 1]), ["1", "0", "1"]),
        (np.array([]), []),
    ]:
        assert list(cli._formatted(column)) == expected
