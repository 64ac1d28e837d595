"""The four workloads: fixed op lists, seeded inputs and output checks.

An op is one call a researcher makes: ``derive`` ops produce symbolic
results, ``verify`` ops check them (exact residuals, conservation
certificates, route agreement, the numeric battery).  Every op has a check
that runs after the timed pass.  Ops named in ``expected.json`` are also
checked by the sha256 digest of the canonical ``serialize.dumps`` of their
output, recorded at commit 889be94.

Inputs come only from the workload seed (oracle samples, ``expr`` requests,
rational boundary constants); the program never sees the seed itself except
as ``run_numeric``'s sample seed, which is one of those inputs.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from laxforge import (boundary, checks, cli, hierarchy, latex, ncpoly, parser,
                      riccati, serialize, tables)
from laxforge.atoms import atom
from laxforge.coeff import gr
from laxforge.matrices import PolyMatrix
from laxforge.series import LaurentSeries


@dataclass
class Op:
    name: str
    tag: str                                   # "derive" | "verify"
    run: Callable[[], object]
    check: Callable[[object], list[str]]       # problems found; empty when correct
    canonical: Callable[[object], str] | None = None  # text whose digest is pinned


def build(workload: str, seed: int, scale: str = "full") -> list[Op]:
    """The op list of one pass; scale "smoke" uses tiny orders and trial counts."""
    return {"tower": _tower, "open-chain": _open_chain, "oracle": _oracle,
            "cli-small": _cli_small}[workload](seed, scale == "smoke")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------

def _expect(cond: bool, what: str) -> list[str]:
    return [] if cond else [what]


def _zero(res) -> list[str]:
    return _expect(res.is_zero, "residual is not zero")


def _report_check(rep) -> list[str]:
    return (_expect(rep["passed"] is True, "run_numeric report not passed")
            + [f"{c['name']}: max_abs {c['max_abs']} >= tol {c['tol']}"
               for c in rep["checks"] if not c["max_abs"] < c["tol"]])


def _riccati_tables(sol) -> list[str]:
    bad = []
    for k in range(1, min(4, sol.order) + 1):
        e12, e21 = tables.w_scalar(k)
        if not (sol.w(k).entries[0][1] == e12 and sol.w(k).entries[1][0] == e21):
            bad.append(f"W^({k}) differs from laxforge.tables")
    for k in range(1, min(4, sol.order - 1) + 1):
        e11, e22 = tables.z_scalar(k)
        if not (sol.z(k).entries[0][0] == e11 and sol.z(k).entries[1][1] == e22):
            bad.append(f"Z^({k}) differs from laxforge.tables")
    return bad


def _gamma_tables(sol) -> list[str]:
    return [f"Gamma^({k}) differs from laxforge.tables"
            for k in range(1, min(4, sol.order) + 1)
            if sol.gamma(k) != tables.gamma_matrix(k)]


def _riccati_json(sol) -> str:
    return serialize.dumps({"w": [serialize.to_dict(m) for m in sol.w_coeffs],
                            "z": [serialize.to_dict(m) for m in sol.z_coeffs]})


def _gamma_json(sol) -> str:
    return serialize.dumps([serialize.to_dict(p) for p in sol.coeffs])


def _terms_json(p) -> str:
    """Canonical text of a polynomial whose coefficients serialize cannot format."""
    return serialize.dumps([{"word": [serialize.atom_to_dict(a) for a in w.atoms],
                             "coeff": str(c)} for w, c in p.sorted_terms()])


# ---------------------------------------------------------------------------
# tower: closed-chain derivation at high order
# ---------------------------------------------------------------------------

def _tower(seed: int, small: bool) -> list[Op]:
    wz_s, wz_m, g, gen_s, gen_m, dress, h, i_k, route, cons = (
        (4, 3, 3, 3, 2, 2, 3, 2, 2, 2) if small else (12, 9, 9, 8, 5, 4, 8, 7, 4, 7))
    ops = [
        Op(f"solve_w_z({wz_s},scalar)", "derive", lambda: riccati.solve_w_z(wz_s, "scalar"),
           _riccati_tables, _riccati_json),
        Op(f"solve_w_z({wz_m},matrix)", "derive", lambda: riccati.solve_w_z(wz_m, "matrix"),
           lambda sol: _expect(sol.order == wz_m, "wrong order"), _riccati_json),
        Op(f"solve_gamma({g})", "derive", lambda: riccati.solve_gamma(g),
           _gamma_tables, _gamma_json),
        Op(f"solve_gamma({g},gamma_hat)", "derive",
           lambda: riccati.solve_gamma(g, "gamma_hat"),
           lambda sol: _expect(sol.order == g, "wrong order"), _gamma_json),
        Op(f"generate_u({gen_s},scalar)", "derive", lambda: hierarchy.generate_u(gen_s, "scalar"),
           lambda op: _expect(op.flow == gen_s, "wrong flow"),
           lambda op: serialize.dumps(op.series)),
        Op(f"generate_u({gen_m},matrix)", "derive", lambda: hierarchy.generate_u(gen_m, "matrix"),
           lambda op: _expect(op.flow == gen_m, "wrong flow"),
           lambda op: serialize.dumps(op.series)),
    ]
    for n in range(1, dress + 1):
        ops.append(Op(f"dress_u({n},matrix)", "derive",
                      lambda n=n: hierarchy.dress_u(n, "matrix"),
                      lambda op, n=n: _expect(
                          op.series.coeffs == tables.u_dress_matrix(n).coeffs,
                          f"dress_u({n}) differs from laxforge.tables")))

    def h_check(ch):
        return [f"H^({k}) differs from laxforge.tables"
                for k in range(1, min(4, len(ch)) + 1)
                if ch[k - 1].density != tables.h_scalar(k)]

    def i_check(ch):
        return [f"I^({k}) differs from laxforge.tables"
                for k in range(1, min(3, len(ch)) + 1)
                if ch[k - 1].density != tables.i_matrix(k)]

    def densities_json(ch):
        return serialize.dumps([serialize.to_dict(c.density) for c in ch])

    ops += [
        Op(f"charges(H,{h})", "derive", lambda: hierarchy.charges("H", h), h_check,
           densities_json),
        Op(f"charges(I,{i_k})", "derive", lambda: hierarchy.charges("I", i_k), i_check,
           densities_json),
        Op(f"riccati_residual({wz_s},scalar)", "verify",
           lambda: riccati.riccati_residual(riccati.solve_w_z(wz_s, "scalar")), _zero),
        Op(f"riccati_residual({wz_m},matrix)", "verify",
           lambda: riccati.riccati_residual(riccati.solve_w_z(wz_m, "matrix")), _zero),
        Op(f"gamma_residual({g})", "verify",
           lambda: riccati.gamma_residual(riccati.solve_gamma(g)), _zero),
        Op(f"gamma_residual({g},gamma_hat)", "verify",
           lambda: riccati.gamma_residual(riccati.solve_gamma(g, "gamma_hat")), _zero),
    ]
    for n in range(1, route + 1):
        ops.append(Op(f"route_difference({n})", "verify",
                      lambda n=n: hierarchy.route_difference(n), _zero))
    for k in range(1, cons + 1):
        ops.append(Op(f"verify_conservation({k})", "verify",
                      lambda k=k: hierarchy.verify_conservation(k),
                      lambda pr: _expect(pr.flux.differentiate_t() == pr.x_derivative,
                                         "flux witness does not differentiate to d_x rho"),
                      lambda pr: serialize.dumps(pr.flux)))
    return ops


# ---------------------------------------------------------------------------
# open-chain: boundary terms with rational-function coefficients
# ---------------------------------------------------------------------------

# Values pinned in tests/test_boundary.py, in the printed form that
# `laxforge boundary charges` emits.  The minus term is the direct expansion
# (test_open_minus_term_direct_expansion), not the symmetric reference that
# the red acceptance assertion 07c compares against.
PINNED_PLUS = "(xi_p)/(ka_p)*u + ((-i)/(ka_p))*pih + 1/2*u*u"
PINNED_MINUS = "(xi_m)/(ka_m)*uh + (i)/(ka_m)*pi - u*uh + 1/2*uh*uh"
PINNED_BULK = "-u_t*uh - pi*pih + u*u*uh*uh"
PINNED_PREFIXES = (("-ka_p", 1), ("ka_m", 1))
PINNED_BC = {"+": {"u": "0", "uh": "(xi_p)/(ka_p)"},
             "-": {"uh": "0", "u": "(xi_m)/(ka_m)"}}


def _boundary_constants(seed: int) -> dict[str, Fraction]:
    rng = random.Random(f"open-chain:{seed}")
    out = {}
    for name in ("xi_p", "xi_m", "ka_p", "ka_m"):
        num = rng.choice([n for n in range(-9, 10) if n or name.startswith("xi")])
        out[name] = Fraction(num, rng.randint(1, 9))
    return out


def _pinned_at(values: dict[str, Fraction]):
    """The pinned plus and minus terms with the constants substituted."""
    P = parser.parse_poly
    xp, kp, xm, km = (values[k] for k in ("xi_p", "ka_p", "xi_m", "ka_m"))
    plus = (P("u").scale(gr(xp / kp)) + P("pih").scale(gr(0, -1 / kp))
            + P("u*u").scale(gr(Fraction(1, 2))))
    minus = (P("uh").scale(gr(xm / km)) + P("pi").scale(gr(0, 1 / km))
             + P("u*uh").scale(gr(-1)) + P("uh*uh").scale(gr(Fraction(1, 2))))
    return plus, minus


def _expansion_check(plus: str, minus: str):
    def check(exp):
        got_prefixes = tuple((str(c), k) for c, k in (exp.plus_prefix, exp.minus_prefix))
        return (_expect(str(exp.plus_term) == plus, f"plus term {exp.plus_term}")
                + _expect(str(exp.minus_term) == minus, f"minus term {exp.minus_term}")
                + _expect(str(exp.bulk_density) == PINNED_BULK, f"bulk {exp.bulk_density}")
                + _expect(got_prefixes == PINNED_PREFIXES, f"prefixes {got_prefixes}"))
    return check


def _bc_check(side: str):
    def check(bc):
        ka = "ka_p" if side == "+" else "ka_m"
        return (_expect(bc.as_dict() == PINNED_BC[side], f"conditions {bc.as_dict()}")
                + _expect(len(bc.flags) == 1 and ka in bc.flags[0], f"flags {bc.flags}"))
    return check


def _open_chain(seed: int, small: bool) -> list[Op]:
    sym_order, num_order, trials = (3, 3, 5) if small else (6, 4, 300)
    values = _boundary_constants(seed)
    params = boundary.BoundaryParams(values["xi_p"], values["xi_m"],
                                     values["ka_p"], values["ka_m"])
    plus_at, minus_at = _pinned_at(values)
    ops = [
        Op(f"open_charge_expansion(order={sym_order})", "derive",
           lambda: boundary.open_charge_expansion(order=sym_order),
           _expansion_check(PINNED_PLUS, PINNED_MINUS),
           lambda exp: serialize.dumps({"plus": _terms_json(exp.plus_term),
                                        "minus": _terms_json(exp.minus_term),
                                        "bulk": _terms_json(exp.bulk_density)})),
        Op(f"open_charge_expansion(order={num_order},seeded)", "derive",
           lambda: boundary.open_charge_expansion(params, order=num_order),
           _expansion_check(str(plus_at), str(minus_at))),
    ]
    for side in ("+", "-"):
        ops.append(Op(f"extract_boundary_conditions({side})", "derive",
                      lambda side=side: boundary.extract_boundary_conditions(
                          boundary.bulk_u2(), boundary.boundary_u(side), side),
                      _bc_check(side)))
    ops += [
        Op("reflection_residual", "verify",
           lambda: boundary.reflection_residual(boundary.k_matrix()), _zero),
        Op("poisson_residual(V)", "verify", lambda: boundary.poisson_residual("V"), _zero),
        Op("poisson_residual(U)", "verify", lambda: boundary.poisson_residual("U"), _zero),
        # the same algebra on seeded numeric constants and fields, through numpy
        Op(f"run_numeric(algebra,{trials})", "verify",
           lambda: checks.run_numeric("algebra", trials, 1e-9, seed), _report_check),
    ]
    return ops


# ---------------------------------------------------------------------------
# oracle: the numeric battery
# ---------------------------------------------------------------------------

def _oracle(seed: int, small: bool) -> list[Op]:
    trials = 5 if small else 300
    tol = 1e-9

    def gen_check(op):
        return _expect(op.series.coeffs == tables.u_gen_scalar(op.flow).coeffs,
                       f"generate_u({op.flow}) differs from laxforge.tables")

    def eom_check(rules):
        return _expect(rules.evolution.get("u") == parser.parse_poly(tables.EOM_SCALAR)
                       and rules.evolution.get("uh") == parser.parse_poly(tables.EOM_SCALAR_HAT),
                       f"equations of motion {rules.evolution}")

    # The symbolic objects the battery checks numerically, derived first as a
    # script that derives and then verifies would; the battery reuses the
    # solvers through their caches and rebuilds the flow operators itself.
    ops = [
        Op("solve_w_z(5,scalar)", "derive", lambda: riccati.solve_w_z(5, "scalar"),
           _riccati_tables),
        Op("solve_w_z(5,matrix)", "derive", lambda: riccati.solve_w_z(5, "matrix"),
           lambda sol: _expect(sol.order == 5, "wrong order")),
        Op("solve_gamma(5)", "derive", lambda: riccati.solve_gamma(5), _gamma_tables),
    ]
    for n in range(1, 5):
        ops.append(Op(f"generate_u({n},scalar)", "derive",
                      lambda n=n: hierarchy.generate_u(n, "scalar"), gen_check))
        ops.append(Op(f"dress_u({n},scalar)", "derive",
                      lambda n=n: hierarchy.dress_u(n, "scalar"),
                      lambda op, n=n: _expect(
                          op.series.coeffs == tables.u_dress_matrix(n).scalarized().coeffs,
                          f"dress_u({n},scalar) differs from laxforge.tables")))
    ops += [
        Op("extract_eom(2,scalar)", "derive",
           lambda: hierarchy.extract_eom(hierarchy.generate_u(2, "scalar"),
                                         hierarchy.nls_v_operator("scalar")), eom_check),
        Op(f"run_numeric(all,{trials})", "verify",
           lambda: checks.run_numeric("all", trials, tol, seed), _report_check),
    ]
    return ops


# ---------------------------------------------------------------------------
# cli-small: many small CLI requests
# ---------------------------------------------------------------------------

GOLDEN_COMMANDS = (
    ["riccati", "--order", "4", "--mode", "scalar"],
    ["riccati", "--which", "gamma", "--order", "4"],
    *[["hierarchy", "u", "--route", "gen", "--n", str(n), "--mode", "scalar"]
      for n in range(1, 5)],
    *[["hierarchy", "u", "--route", "dress", "--n", str(n), "--mode", "matrix"]
      for n in range(1, 5)],
    ["hierarchy", "charges", "--kind", "H", "--max-k", "3"],
    ["hierarchy", "charges", "--kind", "I", "--max-k", "3"],
)

# (argv, tag, texts that stdout must contain)
FIXED_COMMANDS = (
    (["hierarchy", "verify", "--k", "2"], "verify", ("total t-derivative certified",)),
    (["hierarchy", "verify", "--k", "3"], "verify", ("total t-derivative certified",)),
    (["boundary", "reflect-check"], "verify", ("reflection residual == 0",)),
    (["boundary", "poisson-check", "--which", "V"], "verify", ("residual == 0",)),
    (["boundary", "poisson-check", "--which", "U"], "verify", ("residual == 0",)),
    (["boundary", "extract-bc", "--side", "both"], "derive",
     ("u(tau) = 0\nuh(tau) = (xi_p)/(ka_p)\nflag: lam^1 coefficient",
      "u(-tau) = (xi_m)/(ka_m)\nuh(-tau) = 0\nflag: lam^1 coefficient")),
)


def request(argv):
    """One CLI call with stdout and stderr captured in memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:   # argparse rejects the request
            rc = e.code
    return rc, out.getvalue(), err.getvalue()


def _stdout(reply) -> str:
    """Pinned by digest: the latex and text renderings have no golden file."""
    return reply[1]


def _reply_check(stdout=(), stderr=()):
    def check(reply):
        rc, out, err = reply
        return (_expect(rc == 0, f"exit code {rc}: {err.strip()}")
                + [f"stdout lacks {w!r}" for w in stdout if w not in out]
                + [f"stderr lacks {w!r}" for w in stderr if w not in err])
    return check


_ROW_BASES = {"M": ("u", "pih"), "N": ("uh", "pi")}   # bases whose row block is M / N


def random_expr(rng: random.Random):
    """One seeded `expr` request and the series it must produce.

    Matrix words alternate u/pih (M x N) with uh/pi (N x M) so that shapes
    chain, and all words of one expression share first row block and length
    parity, so the terms can be added.  The expected series is assembled
    through the polynomial constructors, not the parser.
    """
    mode = rng.choice(("scalar", "matrix"))
    first, odd = rng.choice("MN"), rng.random() < 0.5
    terms, expected = [], {}
    for _ in range(rng.randint(1, 4)):
        if mode == "scalar":
            length = rng.randint(1, 3)
        else:
            length = rng.choice((1, 3)) if odd else 2
        names, atoms, block = [], [], first
        for _ in range(length):
            base = rng.choice(("u", "uh", "pi", "pih") if mode == "scalar"
                              else _ROW_BASES[block])
            dt, dx = rng.randint(0, 2), rng.choice((0, 0, 1))
            names.append(base + ("_" + "t" * dt + "x" * dx if dt + dx else ""))
            atoms.append(atom(base, dt, dx, mode=mode))
            block = "N" if block == "M" else "M"
        num, den = rng.randint(1, 9), rng.choice((1, 1, 2, 3, 5))
        imag = rng.random() < 0.25
        power = rng.choice((0, 0, 1, 2))
        coeff = Fraction(num, den)
        # a leading "-" would read as an option, so the first term is positive
        sign = rng.choice((1, -1)) if terms else 1
        factors = [f"{num}/{den}" if den > 1 else str(num)] + ["i"] * imag \
            + ["lam"] * power + names
        terms.append(("- " if sign < 0 else "+ ") + "*".join(factors))
        c = gr(0, sign * coeff) if imag else gr(sign * coeff)
        poly = ncpoly.NCPolynomial.from_word(atoms, mode, c)
        expected[power] = expected[power] + poly if power in expected else poly
    text = " ".join(terms)[2:]
    shape = next(iter(expected.values())).shape
    series = LaurentSeries.zero(mode, (shape[0],), (shape[1],))
    for p, poly in sorted(expected.items()):
        series = series + LaurentSeries.of(
            PolyMatrix(mode, (shape[0],), (shape[1],), [[poly]]), p)
    return text, mode, series


def _expr_check(want: LaurentSeries, fmt: str):
    def check(reply):
        rc, out, err = reply
        if rc != 0:
            return [f"exit code {rc}: {err.strip()}"]
        if fmt == "latex":
            return _expect(out == latex.tex(want) + "\n", f"latex output {out!r}")
        got = serialize.from_dict(json.loads(out)["value"])
        return _expect(got == want, f"json output {out!r}")
    return check


def _cli_small(seed: int, small: bool) -> list[Op]:
    rng = random.Random(f"cli-small:{seed}")
    golden = GOLDEN_COMMANDS[:1] if small else GOLDEN_COMMANDS
    ops = []
    for cmd in golden:
        for fmt in ("json", "latex", "text"):
            argv = ["--golden", "goldens", *cmd, "--out", fmt]
            ops.append(Op(" ".join(argv), "verify", lambda argv=argv: request(argv),
                          _reply_check(stderr=("golden match",)), _stdout))
    for argv, tag, want in FIXED_COMMANDS[1:] if small else FIXED_COMMANDS:
        ops.append(Op(" ".join(argv), tag, lambda argv=argv: request(argv),
                      _reply_check(stdout=want), _stdout))
    for _ in range(10 if small else 150):
        text, mode, want = random_expr(rng)
        fmt = rng.choice(("json", "latex"))
        argv = ["expr", text, "--mode", mode, "--out", fmt]
        ops.append(Op(" ".join(argv), "derive", lambda argv=argv: request(argv),
                      _expr_check(want, fmt)))
    return ops
