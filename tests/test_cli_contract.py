"""Every CLI leaf command keeps one contract, checked from one table.

A call exits 0 with output that parses (one JSON document, the whole of
stdout, for ``--out json`` and for the numeric report; some text
otherwise), or it exits 1 or 2 with nothing on stdout and exactly one
failure line on stderr; argparse's usage lines may come before an exit-2
line.  No exception escapes ``main``.  README's CLI examples keep the same
contract.
"""
import argparse
import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from laxforge.cli import build_parser, main

# leaf command -> [(arguments, exit code[, a fragment of stderr])]
CONTRACT = {
    ("riccati",): [
        (["--order", "2"], 0),
        (["--order", "2", "--out", "json"], 0),
        (["--order", "2", "--mode", "matrix", "--out", "latex"], 0),
        (["--which", "gamma", "--order", "2", "--out", "json"], 0),
        (["--order", "0"], 2, "must be >= 1"),
        (["--order", "-1"], 2, "must be >= 1"),
        (["--order", "nan"], 2),
        (["--mode", "vector"], 2),
        (["--which", "gamma-hat", "--mode", "scalar"], 2),
        (["--which", "gamma", "--mode", "scalar"], 2),
        (["--which", "gamma-hat", "--mode", "scalar", "--order", "2"], 2),
    ],
    ("hierarchy", "u"): [
        (["--n", "2"], 0),
        (["--n", "2", "--route", "dress", "--mode", "matrix", "--out", "json"], 0),
        (["--n", "0"], 2, "must be >= 1"),
        (["--n", "-1"], 2, "must be >= 1"),
        (["--n", "1/0"], 2),
        (["--mode", "vector"], 2),
        (["--route", "guess"], 2),
    ],
    ("hierarchy", "charges"): [
        (["--max-k", "2", "--out", "json"], 0),
        (["--kind", "I", "--max-k", "2", "--out", "latex"], 0),
        (["--max-k", "0"], 2, "must be >= 1"),
        (["--max-k", "-1"], 2, "must be >= 1"),
        (["--kind", "J"], 2),
    ],
    ("hierarchy", "verify"): [
        (["--k", "2"], 0),
        (["--k", "2", "--out", "json"], 0),
        (["--k", "3", "--out", "json"], 0),
        (["--k", "0"], 2, "must be >= 1"),
        (["--k", "-1"], 2, "must be >= 1"),
        (["--k", "nan"], 2),
        ([], 2),
        (["--k", "2", "--out", "latex"], 2),
        (["--k", "2", "--out-path", "x.txt"], 2),
    ],
    ("boundary", "reflect-check"): [
        ([], 0),
        (["--order", "2"], 2),
        (["--out", "json"], 2),
        (["--out-path", "x.txt"], 2),
    ],
    ("boundary", "poisson-check"): [
        (["--which", "V"], 0),
        (["--which", "U"], 0),
        (["--which", "W"], 2),
        (["--out", "text"], 2),
        (["--out-path", "x.txt"], 2),
    ],
    ("boundary", "charges"): [
        ([], 0),
        (["--out", "json", "--xi+", "1/2", "--kappa-", "-3"], 0),
        (["--out", "latex", "--xi-", "-1/2", "--kappa+", "0.25"], 0),
        # only the lam^-2 charge is computed, so no other order gets its label
        (["--order", "0"], 2, "invalid choice"),
        (["--order", "-1"], 2),
        (["--order", "3"], 2, "invalid choice"),
        (["--order", "4"], 2),
        (["--xi+", "1/0"], 2),
        (["--kappa-", "nan"], 2),
        (["--kappa+", "0"], 1),
    ],
    ("boundary", "extract-bc"): [
        ([], 0),
        (["--side", "+", "--out", "json"], 0),
        (["--side", "both", "--out", "json"], 0),
        (["--side", "-", "--out", "json"], 0),
        (["--side", "x"], 2),
        (["--out", "latex"], 2),
        (["--out-path", "x.txt"], 2),
    ],
    ("verify", "numeric"): [
        (["--target", "all", "--trials", "2"], 0),
        (["--target", "algebra", "--trials", "2", "--seed", "7"], 0),
        (["--target", "guess", "--trials", "2"], 2, "invalid choice"),
        (["--trials", "0"], 2, "must be"),
        (["--trials", "-1"], 2, "must be"),
        (["--target", "route", "--trials", "-3"], 2, "must be"),
        (["--tol", "nan", "--trials", "2"], 2, "must be"),
        (["--target", "route", "--tol", "inf"], 2, "must be"),
        (["--target", "route", "--tol", "0"], 2, "must be"),
        (["--target", "route", "--tol=-1e-9"], 2, "must be"),
        (["--seed", "nan", "--trials", "2"], 2),
        # a negative seed would draw the samples of its absolute value
        (["--target", "algebra", "--trials", "2", "--seed", "-5"], 2, "must be >= 0"),
        (["--target", "algebra", "--trials", "2", "--seed=-1"], 2, "must be >= 0"),
        # the report is JSON already; --out is not read as --out-path
        (["--target", "algebra", "--trials", "2", "--out", "json"], 2,
         "unrecognized arguments: --out json"),
    ],
    ("expr",): [
        (["u_t*uh + u*uh_t"], 0),
        (["lam*u - 1/2", "--out", "json"], 0),
        (["u*uh", "--mode", "matrix", "--out", "latex"], 0),
        (["--", "1/0"], 1),
        (["nan"], 1),
        (["--", ""], 1),
        (["u", "--mode", "vector"], 2),
    ],
}


def _leaves(parser: argparse.ArgumentParser, path=()):
    """The command paths of every parser with no subcommands under ``parser``."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaves(child, path + (name,))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_parses(argv, out):
    if "json" in argv or argv[:2] == ["verify", "numeric"]:
        json.loads(out)
    else:
        assert out.strip()


def test_every_leaf_command_has_a_contract_row():
    leaves = set(_leaves(build_parser()))
    assert leaves == set(CONTRACT), "commands without a row, or rows without a command"


@pytest.mark.parametrize("argv,code,fragment", [
    pytest.param(list(cmd) + args, code, "".join(part), id=f"{' '.join(cmd + tuple(args))}-{code}")
    for cmd, rows in CONTRACT.items() for args, code, *part in rows])
def test_cli_keeps_its_contract(argv, code, fragment):
    got, out, err = _run(argv)
    assert got == code and fragment in err, err
    if code == 0:
        _assert_parses(argv, out)
        return
    lines = err.splitlines()
    assert out == "" and "Traceback" not in err
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert sum(": error: " in line for line in lines) == 1 and ": error: " in lines[-1]


# every ``laxforge ...`` line of README's code blocks: the CLI block and the golden example
REPO = Path(__file__).resolve().parent.parent
README_EXAMPLES = re.findall(r"^laxforge (.+)$", (REPO / "README.md").read_text(), re.M)


def test_readme_shows_the_cli_block_and_the_golden_example():
    assert len(README_EXAMPLES) >= 12 and any("--golden" in e for e in README_EXAMPLES)


@pytest.mark.parametrize("example", README_EXAMPLES)
def test_readme_cli_examples_run(example, monkeypatch):
    """Each example exits 0 from the repo root (``--golden goldens`` is relative)."""
    monkeypatch.chdir(REPO)
    argv = shlex.split(example)
    code, out, err = _run(argv)
    assert code == 0, err
    _assert_parses(argv, out)
