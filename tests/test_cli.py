"""CLI surface: subcommands, exit codes, config, golden mode, determinism."""
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laxforge.cli import main

REPO = Path(__file__).resolve().parent.parent


def _python(*args, **env):
    """A fresh interpreter that imports laxforge from src/, installed or not."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path, **env))


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr() if capsys else ("", "")
    return code, out, err


def test_one_parser_serves_every_call_of_a_process(monkeypatch, capsys):
    """A usage error or a --golden refusal leaves nothing in the reused parser
    that changes a later call: exit code, stdout and stderr stay byte-identical."""
    import laxforge.cli as cli
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())
    calls = [["expr", "u_t*uh + u*uh_t", "--out", "json"],
             ["riccati", "--order", "3", "--out", "json"],
             ["verify", "numeric", "--target", "algebra", "--trials", "2"],
             ["expr", "u*"],
             ["riccati", "--order", "0"]]
    before = [run(argv) for argv in calls]
    assert run(["riccati", "--mode", "both"])[0] == 2
    after_usage_error = [run(argv) for argv in calls]
    code, out, err = run(["--golden", str(REPO / "goldens"), "expr", "u*uh"])
    assert code == 2 and "no golden table" in err
    assert [run(argv) for argv in calls] == after_usage_error == before
    assert [code for code, *_ in before] == [0, 0, 0, 1, 2]
    assert built == [1]


def test_help_exits_zero():
    proc = _python("-m", "laxforge.cli", "--help")
    assert proc.returncode == 0
    assert "laxforge" in proc.stdout


def test_unknown_flag_is_usage_error():
    proc = _python("-m", "laxforge.cli", "riccati", "--bogus")
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
    ["hierarchy", "verify", "--k", "2", "--out-path", "x.txt"],
    ["riccati", "--which", "gamma", "--mode", "scalar"],
    ["riccati", "--which", "gamma-hat", "--mode", "scalar", "--order", "2"]])
def test_options_a_command_ignores_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, _ = capsys.readouterr()
    assert exc.value.code == 2 and out == ""


def test_gamma_hat_golden_match(capsys):
    code, out, err = run_cli("--golden", str(REPO / "goldens"), "riccati", "--which",
                             "gamma-hat", "--order", "4", "--out", "json", capsys=capsys)
    assert code == 0 and "golden match: riccati-gamma_hat-4.json" in err
    assert out == (REPO / "goldens" / "riccati-gamma_hat-4.json").read_text()


@pytest.mark.parametrize("mode", [[], ["--mode", "matrix"]])
def test_gamma_is_the_matrix_mode_block(mode, capsys):
    """Gamma prints the same golden bytes with no --mode and with --mode matrix."""
    code, out, err = run_cli("--golden", str(REPO / "goldens"), "riccati", "--which",
                             "gamma", "--order", "4", *mode, "--out", "json", capsys=capsys)
    assert code == 0 and "golden match" in err
    assert out == (REPO / "goldens" / "riccati-gamma-4.json").read_text()


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
    assert code == 0 and json.loads(out)["k"] == 2


def test_a_failed_conservation_certificate_is_one_error_line(capsys, monkeypatch):
    from laxforge import hierarchy

    def fail(k):
        raise RuntimeError(f"charge {k}: residual is not a total x-derivative")
    monkeypatch.setattr(hierarchy, "verify_conservation", fail)
    for out_format in ("text", "json"):
        code, out, err = run_cli("hierarchy", "verify", "--k", "3", "--out", out_format,
                                 capsys=capsys)
        assert (code, out) == (1, "")
        assert err == "error: charge 3: residual is not a total x-derivative\n"


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
    from laxforge.matrices import PolyMatrix
    from laxforge.ncpoly import NCPolynomial
    from laxforge.ratfunc import MPoly
    lam = MPoly.variable(boundary.RVARS, "lam")
    monkeypatch.setattr(boundary, "k_matrix", lambda: PolyMatrix(
        "scalar", ("1", "1"), ("1", "1"),
        [[NCPolynomial.unit("scalar", "1", c) for c in row]
         for row in ((lam, lam * lam), (1, -lam))]))
    code, out, err = run_cli("boundary", "reflect-check", capsys=capsys)
    assert code == 1 and out == "" and "NOT zero" in err
    assert _flagged(err) == ["(0,0)", "(0,1)", "(0,2)", "(1,0)", "(1,1)", "(1,3)",
                             "(2,0)", "(2,2)", "(2,3)", "(3,1)", "(3,2)", "(3,3)"]
    assert "  entry (0,1): (2)*lam^2*mu^2 + (-2)*lam^3*mu\n" in err


def _flagged(err):
    """The positions of the ``  entry (i,j): ...`` lines of a failed check."""
    return [line.split()[1].rstrip(":") for line in err.splitlines()
            if line.startswith("  entry (")]


_ALL_FLIPPED = {"V": ["(0,1)", "(0,2)", "(1,0)", "(1,2)", "(1,3)",
                      "(2,0)", "(2,1)", "(2,3)", "(3,1)", "(3,2)"],
                "U": ["(1,2)", "(2,1)"]}


@pytest.mark.parametrize("which", ["V", "U"])
def test_boundary_poisson_check_fails_on_a_wrong_bracket(which, capsys, monkeypatch):
    from laxforge import boundary
    table = {pair: -sign for pair, sign in boundary._BRACKETS[which].items()}
    monkeypatch.setitem(boundary._BRACKETS, which, table)
    code, out, err = run_cli("boundary", "poisson-check", "--which", which,
                             capsys=capsys)
    assert code == 1 and out == ""
    assert f"Poisson residual for {which} is NOT zero" in err
    assert _flagged(err) == _ALL_FLIPPED[which]


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


def test_boundary_charges_solves_to_the_order_it_reads(capsys, monkeypatch):
    """The lam^-2 charge reads Z^(2), so the Riccati solve stops at order 3."""
    from laxforge import boundary
    seen = []
    expand = boundary.open_charge_expansion

    def spy(params=None, order=4):
        seen.append(order)
        return expand(params, order)
    monkeypatch.setattr(boundary, "open_charge_expansion", spy)
    assert run_cli("boundary", "charges", "--order", "2", capsys=capsys)[0] == 0
    assert seen == [3]


@pytest.mark.parametrize("order", ["0", "3"])
def test_boundary_charges_refuses_other_orders(order, capsys):
    """Only the lam^-2 charge is computed, so no other order gets its label."""
    with pytest.raises(SystemExit) as exc:
        main(["boundary", "charges", "--order", order])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and "invalid choice" in err


@pytest.mark.parametrize("flag", ["--xi+", "--xi-", "--kappa+", "--kappa-", "--kappa-minus",
                                  "--xi-p", "--kappa-m"])
@pytest.mark.parametrize("value", ["-1/2", "-3", "-0.25"])
def test_boundary_constants_take_negative_values(flag, value, capsys):
    """``--xi+ -1/2`` once exited 2 with "expected one argument": argparse took the
    negative fraction for an option.  It now gives the output of ``--xi+=-1/2``."""
    spaced = run_cli("boundary", "charges", flag, value, "--out", "json", capsys=capsys)
    joined = run_cli("boundary", "charges", f"{flag}={value}", "--out", "json", capsys=capsys)
    assert spaced == joined and spaced[0] == 0
    assert spaced != run_cli("boundary", "charges", "--out", "json", capsys=capsys)


def test_an_abbreviated_constant_flag_takes_a_negative_fraction_after_equals(capsys):
    """An abbreviated flag takes a negative fraction after '=' as after a space."""
    short = run_cli("boundary", "charges", "--xi-p=-1/2", "--out", "json", capsys=capsys)
    full = run_cli("boundary", "charges", "--xi-plus", "-1/2", "--out", "json", capsys=capsys)
    assert short == full and short[0] == 0


@pytest.mark.parametrize("flag", ["--xi+", "--xi-", "--kappa+", "--kappa-"])
@pytest.mark.parametrize("value", ["1/0", "-1/0", "abc", "nan"])
def test_boundary_constants_refuse_what_is_not_a_rational(flag, value, capsys):
    """``--xi+ 1/0`` once escaped as a ZeroDivisionError traceback."""
    with pytest.raises(SystemExit) as exc:
        main(["boundary", "charges", flag, value])
    out, err = capsys.readouterr()
    errors = [line for line in err.splitlines() if "error:" in line]
    assert exc.value.code == 2 and out == "" and "Traceback" not in err
    assert len(errors) == 1 and errors[0].startswith("laxforge boundary charges: error: ")
    assert errors[0].endswith(f": not a rational number: {value!r}")


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
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr


HASH_ORDER_ARGV = [
    ["riccati", "--order", "6", "--mode", "matrix", "--out", "json"],
    ["hierarchy", "u", "--route", "dress", "--n", "6", "--out", "json"]]


@pytest.mark.parametrize("argv", HASH_ORDER_ARGV)
def test_output_does_not_depend_on_the_hash_seed(argv):
    """String hashes follow the hash seed; no order they give may reach an output.

    Atoms hash by identity, which the seed does not move; the next test
    perturbs atom addresses instead."""
    procs = [_python("-m", "laxforge.cli", *argv, PYTHONHASHSEED=seed) for seed in ("1", "2")]
    assert [p.returncode for p in procs] == [0, 0], procs[0].stderr
    assert procs[0].stdout and procs[0].stdout == procs[1].stdout


# interns every atom the commands below may meet, in a shuffled order, so that
# atom addresses (their hashes) and the order of atom sets differ from a plain run
_SHUFFLED_ATOMS_FIRST = """\
import random, sys
from laxforge import cli
from laxforge.atoms import BASES, FieldAtom
batch = [(b, dt, dx, flow, shape) for b in BASES for dt in range(6) for dx in range(3)
         for flow in (2, 3) for shape in (("1", "1"), ("M", "N"), ("N", "M"), ("N", "N"),
                                          ("M", "M"))]
random.Random(5).shuffle(batch)
interned = [FieldAtom(*key) for key in batch]
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", HASH_ORDER_ARGV + [["boundary", "charges", "--out", "json"]])
def test_output_does_not_depend_on_atom_identity(argv):
    """Atoms are interned and hash by address; no address order may reach an output."""
    procs = [_python("-m", "laxforge.cli", *argv), _python("-c", _SHUFFLED_ATOMS_FIRST, *argv)]
    assert [p.returncode for p in procs] == [0, 0], procs[1].stderr
    assert procs[0].stdout and procs[0].stdout == procs[1].stdout


def test_verify_numeric_json_and_exit(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _, _ = run_cli("verify", "numeric", "--target", "conservation",
                         "--trials", "5", "--tol", "1e-9", "--seed", "7",
                         "--out-path", str(out_file), capsys=capsys)
    assert code == 0
    rep = json.loads(out_file.read_text())
    assert rep["passed"] is True


def test_verify_numeric_prints_a_failed_report_and_exits_1(capsys, monkeypatch):
    from laxforge import checks
    failed = {"passed": False, "checks": [{"name": "eom", "max_abs": 1.0, "passed": False}]}
    monkeypatch.setattr(checks, "run_numeric", lambda *args: failed)
    code, out, err = run_cli("verify", "numeric", "--target", "eom", capsys=capsys)
    assert (code, err) == (1, "") and json.loads(out) == failed


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


@pytest.mark.parametrize("text,message", [
    ("", "unexpected end of expression"),
    ("u*", "unexpected end of expression"),
    ("u +", "unexpected end of expression"),
    ("u)", "trailing input near ')'"),
    ("u_tx2", "trailing input near '2'"),
])
def test_expr_refusals_name_the_text_not_a_token(text, message, capsys):
    # these once read "unexpected token None" and "trailing input near token
    # ('op', ')')" or "('num', Fraction(2, 1))"
    code, out, err = run_cli("expr", "--", text, capsys=capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_expr_refuses_a_zero_denominator(capsys):
    # "1/0" once escaped as a ZeroDivisionError traceback
    code, out, err = run_cli("expr", "--", "1/0*u", capsys=capsys)
    assert (code, out) == (1, "")
    assert err == "error: zero denominator in '1/0'\n"


def test_expr_refuses_deep_nesting(capsys):
    code, out, err = run_cli("expr", "(" * 2000 + "u" + ")" * 2000, capsys=capsys)
    assert (code, out) == (1, "")
    assert err == "error: expression nested too deeply\n"


# whole number literals besides the single characters, so that a zero
# denominator turns up in a few dozen examples rather than a few thousand
_EXPR_TOKENS = st.one_of(st.from_regex(r"[0-9]{1,2}(/[0-9]{1,2})?", fullmatch=True),
                         st.sampled_from([*"0123456789/*+-() ", "u", "uh_tx", "lam", "i", "w"]))


@given(mode=st.sampled_from(["scalar", "matrix"]),
       text=st.lists(_EXPR_TOKENS, max_size=24).map("".join))
@settings(max_examples=200, deadline=None)
def test_expr_answers_any_token_text_with_a_result_or_one_error_line(mode, text):
    """Text over the grammar's tokens either parses (exit 0) or is refused with
    exit 1 and exactly one ``error:`` line; no other exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["expr", "--mode", mode, "--", text])
    assert code in (0, 1)
    if code == 1:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].startswith("error: ") and lines[0].endswith("\n")
    else:
        assert err.getvalue() == ""


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


@pytest.mark.parametrize("argv", [
    ["riccati", "--order", "4", "--mode", "scalar"],
    ["hierarchy", "charges", "--max-k", "3"],
    ["boundary", "charges", "--order", "2"],
])
def test_golden_json_is_serialized_once(argv, capsys, monkeypatch):
    """--golden with --out json writes and compares one serialization."""
    import laxforge.cli as cli
    calls = []
    dumps = cli.serialize.dumps
    monkeypatch.setattr(cli.serialize, "dumps", lambda obj: calls.append(1) or dumps(obj))
    code, out, err = run_cli("--golden", str(REPO / "goldens"), *argv, "--out", "json",
                             capsys=capsys)
    assert code == 0 and "golden match" in err and len(calls) == 1
    assert out == (REPO / "goldens" / err.split()[-1]).read_text()


def test_goldens_regenerate_byte_for_byte(tmp_path):
    import runpy
    make = runpy.run_path(str(REPO / "scripts" / "make_goldens.py"), run_name="goldens")
    make["main"](str(tmp_path))
    golden = REPO / "goldens"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in golden.iterdir())
    assert len(list(golden.iterdir())) == 14
    for p in golden.iterdir():
        assert (tmp_path / p.name).read_bytes() == p.read_bytes(), p.name


def test_run_all_checks_exits_1_on_a_failed_check(monkeypatch, capsys):
    import runpy

    import laxforge.checks
    failed = {"passed": False, "checks": [
        {"name": "riccati", "max_abs": 1.0, "passed": False}]}
    monkeypatch.setattr(laxforge.checks, "run_numeric", lambda *a: failed)
    monkeypatch.setattr(sys, "argv", ["run_all_checks.py"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(REPO / "scripts" / "run_all_checks.py"), run_name="__main__")
    assert exc.value.code == 1
    assert "riccati" in capsys.readouterr().err


def test_run_all_checks_refuses_zero_trials(monkeypatch, capsys):
    import runpy
    monkeypatch.setattr(sys, "argv", ["run_all_checks.py", "--trials", "0"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(REPO / "scripts" / "run_all_checks.py"), run_name="__main__")
    assert exc.value.code == 2 and "--trials must be >= 1" in capsys.readouterr().err


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
    from laxforge.cli import RunConfig
    for line in ("order.riccati = 0", "tolerance = -1", "tolerance = nan",
                 "tolerance = inf", "trials = 0", "trials = -3"):
        cfg.write_text(line + "\n")
        with pytest.raises(ValueError):
            RunConfig.from_file(str(cfg))


@pytest.mark.parametrize("argv", [["--trials", "0"], ["--trials", "-3"], ["--tol", "nan"],
                                  ["--tol", "inf"], ["--tol", "0"], ["--tol=-1e-9"]])
def test_verify_numeric_refuses_an_empty_or_unreadable_check(argv, capsys):
    """Zero trials once passed with max_abs 0.0; a NaN or infinite tolerance
    reached the report, and an infinite one passed every finite residual."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "numeric", "--target", "route", *argv])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and "must be" in err


def test_verify_numeric_refuses_zero_trials_from_a_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 0\n")
    code, out, err = run_cli("--config", str(cfg), "verify", "numeric", "--target",
                             "route", capsys=capsys)
    assert code == 2 and out == "" and "trials and orders must be >= 1" in err


def test_verify_numeric_refuses_out_and_writes_no_file(tmp_path, monkeypatch, capsys):
    """``--out json`` was once read as an abbreviation of ``--out-path``: the
    report went to a file named json, with nothing printed and exit 0."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "numeric", "--target", "algebra", "--trials", "3", "--out", "json"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and "unrecognized arguments: --out json" in err
    assert list(tmp_path.iterdir()) == []
    code, out, _ = run_cli("verify", "numeric", "--target", "algebra", "--trials", "3",
                           "--out-path", "report.json", capsys=capsys)
    assert code == 0 and out == "" and json.loads((tmp_path / "report.json").read_text())


@pytest.mark.parametrize("line, env", [("seed = -5", None), (None, "-5"), ("seed = 5", "-1")])
def test_a_negative_seed_from_a_config_file_or_the_environment_is_refused(
        line, env, tmp_path, capsys, monkeypatch):
    """``random.Random(-5)`` draws what ``random.Random(5)`` does, so a negative
    seed once gave seed 5's report labelled -5."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{line or ''}\n")
    if env is None:
        monkeypatch.delenv("LAXFORGE_SEED", raising=False)
    else:
        monkeypatch.setenv("LAXFORGE_SEED", env)
    code, out, err = run_cli("--config", str(cfg), "verify", "numeric", "--target",
                             "algebra", "--trials", "2", capsys=capsys)
    value = env or line.split(" = ")[1]
    assert code == 2 and out == "" and err == f"config error: seed must be >= 0, got {value}\n"


@pytest.mark.parametrize("line", ["mode = scalar", "format = json", "out-path = x.json",
                                  "order.charges = 3", "bogus = 1"])
def test_config_refuses_keys_no_command_reads(line, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 5\n{line}\n")
    code, out, err = run_cli("--config", str(cfg), "riccati", "--order", "2",
                             capsys=capsys)
    key = line.split(" = ")[0]
    assert code == 2 and out == "" and err == f"config error: unknown config key {key!r}\n"

