"""Command-line interface: JSON output, CSV contract, exit codes, and environment."""

import json
import subprocess
import sys
import warnings

import pytest

from fge import (
    GasRegime,
    concurrence_closed_form,
    fermi_momentum_from_pressure,
    fermi_temperature,
    solve_zeta,
)
from fge.cli import _CSV_HEADER, main

NR = GasRegime.NONRELATIVISTIC


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


@pytest.mark.parametrize("argv", [["avg", "--tol", "1e-6"], ["dwarf", "--tol", "1e-6"]])
def test_tolerance_flag_rejected_where_unused(argv, capsys):
    # avg and dwarf run no tolerance-controlled quadrature, so --tol is unknown there
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


# === module execution ===


def test_module_invocation_succeeds():
    proc = subprocess.run(
        [sys.executable, "-m", "fge", "zeta", "--t", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["zeta"] == pytest.approx(1.8148229770012292, abs=1e-9)


def test_module_invocation_reports_errors():
    proc = subprocess.run(
        [sys.executable, "-m", "fge", "eval", "--r", "1e-10", "--P", "-1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert "fge: error:" in proc.stderr
