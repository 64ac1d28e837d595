"""CLI surface: subcommands, exit codes, config, golden mode, determinism."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

from laxforge.cli import main

REPO = Path(__file__).resolve().parent.parent


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr() if capsys else ("", "")
    return code, out, err


def test_help_exits_zero():
    proc = subprocess.run([sys.executable, "-m", "laxforge.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "laxforge" in proc.stdout


def test_unknown_flag_is_usage_error():
    proc = subprocess.run([sys.executable, "-m", "laxforge.cli",
                           "riccati", "--bogus"], capture_output=True, text=True)
    assert proc.returncode == 2


def test_riccati_json(capsys):
    code, out, _ = run_cli("riccati", "--order", "3", "--out", "json", capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 3 and len(payload["w"]) == 3


def test_hierarchy_u_latex(capsys):
    code, out, _ = run_cli("hierarchy", "u", "--route", "dress", "--n", "3",
                           "--mode", "matrix", "--out", "latex", capsys=capsys)
    assert code == 0
    assert r"\begin{pmatrix}" in out and r"\hat{u}" in out


def test_hierarchy_u_dress_reaches_flow_8(capsys):
    code, out, _ = run_cli("hierarchy", "u", "--route", "dress", "--n", "8",
                           "--mode", "matrix", "--out", "json", capsys=capsys)
    assert code == 0 and json.loads(out)["n"] == 8


@pytest.mark.parametrize("argv", [
    ["riccati", "--order"], ["hierarchy", "u", "--n"],
    ["hierarchy", "charges", "--max-k"], ["hierarchy", "verify", "--k"]])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_orders_below_one_are_refused_at_parse_time(argv, value, capsys):
    """A zero order once fell back silently to the default 4."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, value])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and "must be >= 1" in err


@pytest.mark.parametrize("argv", [
    ["boundary", "reflect-check", "--out", "json"],
    ["boundary", "reflect-check", "--out-path", "x.txt"],
    ["boundary", "poisson-check", "--out", "text"],
    ["boundary", "poisson-check", "--out-path", "x.txt"],
    ["boundary", "extract-bc", "--out", "latex"],
    ["boundary", "extract-bc", "--out-path", "x.txt"],
    ["hierarchy", "verify", "--k", "2", "--out", "latex"],
    ["hierarchy", "verify", "--k", "2", "--out-path", "x.txt"]])
def test_options_a_command_ignores_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, _ = capsys.readouterr()
    assert exc.value.code == 2 and out == ""


@pytest.mark.parametrize("argv", [
    ["hierarchy", "verify", "--k", "2", "--out", "json"],
    ["boundary", "extract-bc", "--out", "json"],
    ["boundary", "reflect-check"],
    ["boundary", "poisson-check"],
    ["verify", "numeric", "--target", "route", "--trials", "1"],
    ["expr", "u*uh", "--out", "json"]])
def test_golden_is_refused_without_a_golden_table(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--golden", str(REPO / "goldens"), *argv])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and "no golden table" in err


def test_hierarchy_verify_json_prints_the_payload_once(capsys):
    code, out, _ = run_cli("hierarchy", "verify", "--k", "2", "--out", "json",
                           capsys=capsys)
    line, payload = out.split("\n", 1)
    assert code == 0 and line.startswith("charge 2: total t-derivative certified")
    assert json.loads(payload)["k"] == 2


def test_boundary_reflect_check(capsys):
    code, out, _ = run_cli("boundary", "reflect-check", capsys=capsys)
    assert code == 0 and "residual == 0" in out


def test_boundary_poisson_check(capsys):
    for which in ("V", "U"):
        code, out, _ = run_cli("boundary", "poisson-check", "--which", which,
                               capsys=capsys)
        assert code == 0 and "residual == 0" in out


def test_boundary_reflect_check_fails_on_a_non_solution(capsys, monkeypatch):
    from laxforge import boundary
    from laxforge.ratfunc import MPoly, MPolyMatrix
    lam, one = MPoly.variable(boundary.RVARS, "lam"), MPoly.constant(boundary.RVARS, 1)
    monkeypatch.setattr(boundary, "k_matrix", lambda: MPolyMatrix(
        boundary.RVARS, [[lam, lam * lam], [one, -lam]]))
    code, out, err = run_cli("boundary", "reflect-check", capsys=capsys)
    assert code == 1 and out == "" and "NOT zero" in err
    assert "  entry (0,1): " in err


@pytest.mark.parametrize("which", ["V", "U"])
def test_boundary_poisson_check_fails_on_a_wrong_bracket(which, capsys, monkeypatch):
    from laxforge import boundary
    table = {pair: -sign for pair, sign in boundary._BRACKETS[which].items()}
    monkeypatch.setitem(boundary._BRACKETS, which, table)
    code, out, err = run_cli("boundary", "poisson-check", "--which", which,
                             capsys=capsys)
    assert code == 1 and out == ""
    assert f"Poisson residual for {which} is NOT zero" in err
    entries = [line for line in err.splitlines() if line.startswith("  entry (")]
    assert len(entries) == len(boundary.poisson_residual(which).nonzero_entries()) > 0


def test_boundary_extract_bc(capsys):
    code, out, _ = run_cli("boundary", "extract-bc", "--side", "both", capsys=capsys)
    assert code == 0
    assert "u(tau) = 0" in out and "uh(tau) = (xi_p)/(ka_p)" in out
    assert "uh(-tau) = 0" in out and "u(-tau) = (xi_m)/(ka_m)" in out
    assert "flag" in out


def test_boundary_charges_with_plus_flags(capsys):
    code, out, _ = run_cli("boundary", "charges", "--order", "2",
                           "--xi+", "2", "--kappa+", "3", "--out", "json",
                           capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert "2/3*u" in payload["plus"]


@pytest.mark.parametrize("order", ["0", "3"])
def test_boundary_charges_refuses_other_orders(order, capsys):
    """Only the lam^-2 charge is computed, so no other order gets its label."""
    with pytest.raises(SystemExit) as exc:
        main(["boundary", "charges", "--order", order])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and "invalid choice" in err


@pytest.mark.parametrize("target", ["algebra", "route"])
def test_verify_numeric_every_target(target, capsys):
    code, out, _ = run_cli("verify", "numeric", "--target", target,
                           "--trials", "3", "--seed", "7", capsys=capsys)
    rep = json.loads(out)
    assert code == 0 and rep["passed"] is True and rep["target"] == target


def test_verify_numeric_refuses_unknown_target(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "numeric", "--target", "bogus"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and "invalid choice" in err


def test_commands_other_than_verify_numeric_do_not_load_numpy():
    code = ("import sys\n"
            "from laxforge import cli\n"
            "assert cli.main(['expr', 'u*uh']) == 0\n"
            "sys.exit(3 if 'numpy' in sys.modules else 0)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_verify_numeric_json_and_exit(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _, _ = run_cli("verify", "numeric", "--target", "conservation",
                         "--trials", "5", "--tol", "1e-9", "--seed", "7",
                         "--out-path", str(out_file), capsys=capsys)
    assert code == 0
    rep = json.loads(out_file.read_text())
    assert rep["passed"] is True


def test_verify_numeric_byte_identical(tmp_path, capsys):
    """Same seed => byte-identical JSON report."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for f in (a, b):
        code, _, _ = run_cli("verify", "numeric", "--target", "eom",
                             "--trials", "10", "--seed", "4242",
                             "--out-path", str(f), capsys=capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_expr_roundtrip(capsys):
    code, out, _ = run_cli("expr", "u_t*uh + u*uh_t", "--out", "json", capsys=capsys)
    assert code == 0
    from laxforge import serialize
    val = serialize.from_dict(json.loads(out)["value"])
    from laxforge.parser import parse_expression
    assert val == parse_expression("u_t*uh + u*uh_t")


def test_malformed_expression_fails(capsys):
    code, _, err = run_cli("expr", "u +* uh", capsys=capsys)
    assert code == 1


def test_golden_match(tmp_path, capsys):
    golden = REPO / "goldens"
    code, _, _ = run_cli("--golden", str(golden), "riccati", "--order", "4",
                         "--mode", "scalar", "--out", "json",
                         "--out-path", str(tmp_path / "x.json"), capsys=capsys)
    assert code == 0


def test_boundary_charges_golden_match(capsys):
    code, out, err = run_cli("--golden", str(REPO / "goldens"), "boundary", "charges",
                             "--order", "2", "--out", "json", capsys=capsys)
    assert code == 0 and "golden match" in err
    assert out == (REPO / "goldens" / "boundary-charges-2.json").read_text()


def test_golden_mismatch_fails(tmp_path, capsys):
    bad = tmp_path / "goldens"
    bad.mkdir()
    (bad / "riccati-scalar-4.json").write_text("{}\n")
    code, _, err = run_cli("--golden", str(bad), "riccati", "--order", "4",
                           "--mode", "scalar", "--out", "json",
                           "--out-path", str(tmp_path / "x.json"), capsys=capsys)
    assert code == 1 and "mismatch" in err


def test_config_file_and_seed_env(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 5\ntolerance = 1e-8\ntrials = 3\n"
                   "order.riccati = 2\n")
    monkeypatch.setenv("LAXFORGE_SEED", "99")
    from laxforge.cli import RunConfig
    rc = RunConfig.from_file(str(cfg))
    assert rc.seed == 99 and rc.orders["riccati"] == 2 and rc.trials == 3
    code, out, _ = run_cli("--config", str(cfg), "riccati", "--out", "json",
                           capsys=capsys)
    assert code == 0 and json.loads(out)["order"] == 2


def test_seed_env_applies_without_a_config_file(monkeypatch):
    monkeypatch.setenv("LAXFORGE_SEED", "99")
    from laxforge.cli import RunConfig
    assert RunConfig.from_file(None).seed == 99


def test_config_rejects_bad_values(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("order.riccati = 0\n")
    from laxforge.cli import RunConfig
    with pytest.raises(ValueError):
        RunConfig.from_file(str(cfg))
    cfg.write_text("tolerance = -1\n")
    with pytest.raises(ValueError):
        RunConfig.from_file(str(cfg))


@pytest.mark.parametrize("line", ["mode = scalar", "format = json", "out-path = x.json",
                                  "order.charges = 3", "bogus = 1"])
def test_config_refuses_keys_no_command_reads(line, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 5\n{line}\n")
    code, out, err = run_cli("--config", str(cfg), "riccati", "--order", "2",
                             capsys=capsys)
    key = line.split(" = ")[0]
    assert code == 2 and out == "" and err == f"config error: unknown config key {key!r}\n"
