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


def test_boundary_reflect_check(capsys):
    code, out, _ = run_cli("boundary", "reflect-check", capsys=capsys)
    assert code == 0 and "residual == 0" in out


def test_boundary_poisson_check(capsys):
    for which in ("V", "U"):
        code, out, _ = run_cli("boundary", "poisson-check", "--which", which,
                               capsys=capsys)
        assert code == 0 and "residual == 0" in out


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
    cfg.write_text("mode = scalar\nseed = 5\ntolerance = 1e-8\ntrials = 3\n"
                   "order.riccati = 2\n")
    monkeypatch.setenv("LAXFORGE_SEED", "99")
    from laxforge.cli import RunConfig
    rc = RunConfig.from_file(str(cfg))
    assert rc.seed == 99 and rc.orders["riccati"] == 2 and rc.trials == 3
    code, out, _ = run_cli("--config", str(cfg), "riccati", "--out", "json",
                           capsys=capsys)
    assert code == 0 and json.loads(out)["order"] == 2


def test_config_rejects_bad_values(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("order.riccati = 0\n")
    from laxforge.cli import RunConfig
    with pytest.raises(ValueError):
        RunConfig.from_file(str(cfg))
    cfg.write_text("tolerance = -1\n")
    with pytest.raises(ValueError):
        RunConfig.from_file(str(cfg))
