"""Command-line entry point.

Exit codes: 0 success, 1 verification or golden-comparison failure, 2 usage
error.  All JSON output is canonical (sorted keys, fixed separators) so that
identical inputs produce byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from pathlib import Path

from . import serialize
from .latex import tex


@dataclass
class RunConfig:
    """Run configuration merged from defaults, config file, env, and flags."""
    seed: int = 42
    tolerance: float = 1e-9
    trials: int = 100
    orders: dict = dc_field(default_factory=dict)   # read: riccati, hierarchy

    @staticmethod
    def from_file(path: str | None) -> "RunConfig":
        """Defaults, then the key = value file at path (if any), then LAXFORGE_SEED.

        A key that no command reads is refused, as is any unknown key.
        """
        cfg = RunConfig()
        for line in Path(path).read_text().splitlines() if path else ():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key in ("seed", "trials"):
                setattr(cfg, key, int(val))
            elif key == "tolerance":
                cfg.tolerance = float(val)
            elif key in ("order.riccati", "order.hierarchy"):
                cfg.orders[key.split(".", 1)[1]] = int(val)
            else:
                raise ValueError(f"unknown config key {key!r}")
        if "LAXFORGE_SEED" in os.environ:
            cfg.seed = int(os.environ["LAXFORGE_SEED"])
        if cfg.seed < 0:   # random.Random(-5) draws what random.Random(5) does
            raise ValueError(f"seed must be >= 0, got {cfg.seed}")
        if cfg.trials < 1 or any(v < 1 for v in cfg.orders.values()):
            raise ValueError("trials and orders must be >= 1")
        if not 0 < cfg.tolerance < float("inf"):  # NaN is refused too
            raise ValueError("tolerance must be positive and finite")
        return cfg


def _emit(args, payload_json: dict, payload_objs: list, golden_name: str | None = None) -> int:
    """Write the artifact in the requested format; run golden comparison."""
    json_text = serialize.dumps(payload_json) if args.out == "json" or args.golden else None
    if args.out == "json":
        text = json_text
    elif args.out == "latex":
        text = "\n".join(tex(o) for o in payload_objs) + "\n"
    else:
        text = "\n".join(str(o) for o in payload_objs) + "\n"
    if args.out_path:
        Path(args.out_path).write_text(text)
    else:
        sys.stdout.write(text)
    if args.golden:
        want_path = Path(args.golden) / golden_name
        if not want_path.exists():
            sys.stderr.write(f"golden file missing: {want_path}\n")
            return 1
        want = want_path.read_text()
        if json_text != want:
            sys.stderr.write(f"golden mismatch against {want_path}\n")
            return 1
        sys.stderr.write(f"golden match: {want_path.name}\n")
    return 0


def _cmd_riccati(args, cfg) -> int:
    from .riccati import solve_gamma, solve_w_z
    order = args.order if args.order is not None else cfg.orders.get("riccati", 4)
    if args.which == "wz":
        mode = args.mode or "scalar"
        sol = solve_w_z(order, mode)
        payload = {
            "command": "riccati", "order": order, "mode": mode,
            "w": [serialize.to_dict(sol.w(k)) for k in range(1, order + 1)],
            "z": [serialize.to_dict(sol.z(k)) for k in range(1, order)],
        }
        objs = [sol.w(k) for k in range(1, order + 1)] + \
               [sol.z(k) for k in range(1, order)]
        return _emit(args, payload, objs, f"riccati-{mode}-{order}.json")
    which = "gamma" if args.which == "gamma" else "gamma_hat"
    sol = solve_gamma(order, which)
    payload = {"command": "riccati", "which": which, "order": order,
               "coeffs": [serialize.to_dict(sol.gamma(k)) for k in range(1, order + 1)]}
    return _emit(args, payload, [sol.gamma(k) for k in range(1, order + 1)],
                 f"riccati-{which}-{order}.json")


def _cmd_hierarchy_u(args, cfg) -> int:
    from .hierarchy import dress_u, generate_u
    n = args.n if args.n is not None else cfg.orders.get("hierarchy", 4)
    op = generate_u(n, args.mode) if args.route == "gen" else dress_u(n, args.mode)
    payload = {"command": "hierarchy-u", "route": args.route, "n": n,
               "mode": args.mode, "series": serialize.to_dict(op.series)}
    return _emit(args, payload, [op.series],
                 f"hierarchy-u-{args.route}-{n}-{args.mode}.json")


def _cmd_hierarchy_charges(args, cfg) -> int:
    from .hierarchy import charges
    ch = charges(args.kind, args.max_k)
    payload = {"command": "hierarchy-charges", "kind": args.kind, "max_k": args.max_k,
               "densities": [serialize.to_dict(c.density) for c in ch]}
    return _emit(args, payload, [c.density for c in ch],
                 f"charges-{args.kind}-{args.max_k}.json")


def _cmd_hierarchy_verify(args, cfg) -> int:
    from .hierarchy import verify_conservation
    proof = verify_conservation(args.k)
    payload = {"command": "hierarchy-verify", "k": args.k,
               "density": serialize.to_dict(proof.density),
               "x_derivative": serialize.to_dict(proof.x_derivative),
               "flux": serialize.to_dict(proof.flux)}
    return _emit(args, payload, [f"charge {args.k}: total t-derivative certified; "
                                 f"flux = {proof.flux}"])


def _residual_exit(res, holds: str, fails: str) -> int:
    """Exit 0 on a zero residual matrix, else 1 with its nonzero entries on stderr."""
    if res.is_zero:
        sys.stdout.write(holds + "\n")
        return 0
    sys.stderr.write(fails + "\n")
    for i, row in enumerate(res.entries):
        for j, e in enumerate(row):
            if e:
                sys.stderr.write(f"  entry ({i},{j}): {e}\n")
    return 1


def _cmd_boundary_reflect(args, cfg) -> int:
    from .boundary import k_matrix, reflection_residual
    return _residual_exit(reflection_residual(k_matrix()),
                          "reflection residual == 0 (fully symbolic constants)",
                          "reflection residual is NOT zero; nonzero entries of "
                          "(lam^2 - mu^2) * residual:")


def _cmd_boundary_poisson(args, cfg) -> int:
    from .boundary import poisson_residual
    return _residual_exit(poisson_residual(args.which),
                          f"linear Poisson structure holds for {args.which} (residual == 0)",
                          f"Poisson residual for {args.which} is NOT zero; nonzero "
                          "entries of (lam - mu) * residual:")


def _cmd_boundary_charges(args, cfg) -> int:
    from .boundary import BoundaryParams, open_charge_expansion
    params = BoundaryParams(args.xi_plus, args.xi_minus,
                            args.kappa_plus, args.kappa_minus)
    exp = open_charge_expansion(params, order=args.order + 1)
    payload = {"command": "boundary-charges", "order": args.order,
               "bulk": str(exp.bulk_density),
               "plus": str(exp.plus_term), "minus": str(exp.minus_term),
               "plus_prefix": [str(exp.plus_prefix[0]), exp.plus_prefix[1]],
               "minus_prefix": [str(exp.minus_prefix[0]), exp.minus_prefix[1]]}
    objs = [exp.bulk_density, exp.plus_term, exp.minus_term]
    return _emit(args, payload, objs, f"boundary-charges-{args.order}.json")


def _cmd_boundary_extract(args, cfg) -> int:
    from .boundary import boundary_u, bulk_u2, extract_boundary_conditions
    sides = ["+", "-"] if args.side == "both" else [args.side]
    results, lines = {}, []
    for side in sides:
        bc = extract_boundary_conditions(bulk_u2(), boundary_u(side), side)
        results[side] = {"equations": bc.as_dict(), "flags": bc.flags}
        point = "tau" if side == "+" else "-tau"
        lines += [f"{f}({point}) = {v}" for f, v in bc.equations]
        lines += [f"flag: {fl}" for fl in bc.flags]
    return _emit(args, {"command": "boundary-extract-bc", "sides": results}, lines)


def _positive(text: str) -> int:
    """An order, flow or charge index or a trial count: refused at parse time below 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed(text: str) -> int:
    """A seed: refused at parse time below 0, as ``random.Random(-s)`` draws what
    ``random.Random(s)`` does."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _tolerance(text: str) -> float:
    """A numeric tolerance: refused at parse time unless positive and finite."""
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {value}")
    return value


def _rational(text: str) -> Fraction:
    """A boundary constant: an exact rational such as 3, -1/2 or 0.25."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


# the boundary-constant flags: (option strings, dest)
_CONSTANTS = ((("--xi+", "--xi-plus"), "xi_plus"), (("--kappa+", "--kappa-plus"), "kappa_plus"),
              (("--xi-", "--xi-minus"), "xi_minus"), (("--kappa-", "--kappa-minus"), "kappa_minus"))


class _BoundaryParser(argparse.ArgumentParser):
    """A ``boundary`` subcommand's parser; it reads ``--xi+ -1/2`` as ``--xi+=-1/2``.

    argparse takes a value that starts with '-' for an option unless it
    matches the parser's negative-number pattern, by default a negative
    decimal such as -2 or -0.5, so it would refuse a negative fraction after
    its flag with "expected one argument".  Here any '-' followed by a digit
    or '.' is a value, after a full or an abbreviated flag alike.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-[0-9.]")


def _target(name: str) -> str:
    """A ``verify numeric`` target; only this command imports checks, and numpy."""
    from .checks import TARGETS
    if name not in (*TARGETS, "all"):
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from {', '.join((*TARGETS, 'all'))})")
    return name


def _cmd_verify_numeric(args, cfg) -> int:
    from .checks import run_numeric
    seed = args.seed if args.seed is not None else cfg.seed
    tol = args.tol if args.tol is not None else cfg.tolerance
    trials = args.trials if args.trials is not None else cfg.trials
    report = run_numeric(args.target, trials, tol, seed)
    _emit(args, report, [])
    return 0 if report["passed"] else 1


def _cmd_expr(args, cfg) -> int:
    from .parser import parse_expression
    s = parse_expression(args.expression, mode=args.mode)
    payload = {"command": "expr", "mode": args.mode,
               "value": serialize.to_dict(s)}
    return _emit(args, payload, [s])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="laxforge",
        description="Symbolic engine for the time-like NLS hierarchy: Riccati "
                    "series, conserved charges, Lax operators, and integrable "
                    "time-like boundary conditions.")
    ap.add_argument("--config", help="key=value configuration file")
    ap.add_argument("--golden", metavar="DIR",
                    help="compare emitted JSON against checked-in tables (riccati, "
                         "hierarchy u, hierarchy charges, boundary charges)")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", choices=("text", "json", "latex"), default="text")
        p.add_argument("--out-path", help="write the artifact here instead of stdout")

    p = sub.add_parser("riccati", help="solve the time Riccati system")
    p.add_argument("--order", type=_positive)
    p.add_argument("--mode", choices=("scalar", "matrix"),
                   help="mode of W and Z (default scalar); gamma and gamma-hat "
                        "are matrix-mode blocks and refuse scalar")
    p.add_argument("--which", choices=("wz", "gamma", "gamma-hat"), default="wz")
    add_common(p)
    p.set_defaults(fn=_cmd_riccati)

    ph = sub.add_parser("hierarchy", help="flow operators, charges, conservation")
    hsub = ph.add_subparsers(dest="subcommand", required=True)
    p = hsub.add_parser("u", help="construct a flow operator")
    p.add_argument("--route", choices=("gen", "dress"), default="gen")
    p.add_argument("--n", type=_positive)
    p.add_argument("--mode", choices=("scalar", "matrix"), default="scalar")
    add_common(p)
    p.set_defaults(fn=_cmd_hierarchy_u)
    p = hsub.add_parser("charges", help="conserved charge densities")
    p.add_argument("--kind", choices=("H", "I"), default="H")
    p.add_argument("--max-k", type=_positive, default=4)
    add_common(p)
    p.set_defaults(fn=_cmd_hierarchy_charges)
    p = hsub.add_parser("verify", help="certify conservation of one charge")
    p.add_argument("--k", type=_positive, required=True)
    p.add_argument("--out", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_hierarchy_verify, out_path=None)

    pb = sub.add_parser("boundary", help="reflection, Poisson, boundary operators")
    bsub = pb.add_subparsers(dest="subcommand", required=True, parser_class=_BoundaryParser)
    p = bsub.add_parser("reflect-check", help="reflection-equation residual")
    p.set_defaults(fn=_cmd_boundary_reflect)
    p = bsub.add_parser("poisson-check", help="ultralocal Poisson residual")
    p.add_argument("--which", choices=("V", "U"), default="V")
    p.set_defaults(fn=_cmd_boundary_poisson)
    p = bsub.add_parser("charges", help="open-chain charge expansion")
    p.add_argument("--order", type=int, choices=(2,), default=2,
                   help="order of the charge; only 2 (the lam^-2 charge) until "
                        "the expansion reads other orders")
    for flags, dest in _CONSTANTS:
        p.add_argument(*flags, dest=dest, type=_rational)
    add_common(p)
    p.set_defaults(fn=_cmd_boundary_charges)
    p = bsub.add_parser("extract-bc", help="boundary conditions from delta U = 0")
    p.add_argument("--side", choices=("+", "-", "both"), default="both")
    p.add_argument("--out", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_boundary_extract, out_path=None)

    pv = sub.add_parser("verify", help="numeric verification battery")
    vsub = pv.add_subparsers(dest="subcommand", required=True)
    # no abbreviations: --out would otherwise be read as --out-path
    p = vsub.add_parser("numeric", help="evaluate symbolic zeros numerically",
                        allow_abbrev=False)
    p.add_argument("--target", type=_target, default="all",
                   help="a name in checks.TARGETS, or all")
    p.add_argument("--trials", type=_positive)
    p.add_argument("--tol", type=_tolerance)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--out-path")
    p.set_defaults(fn=_cmd_verify_numeric, out="json")

    p = sub.add_parser("expr", help="parse and emit an expression")
    p.add_argument("expression")
    p.add_argument("--mode", choices=("scalar", "matrix"), default="scalar")
    add_common(p)
    p.set_defaults(fn=_cmd_expr)
    return ap


_parser: argparse.ArgumentParser | None = None   # built by the first ``main`` call


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    ap = _parser
    args = ap.parse_args(argv)
    if args.golden and args.fn not in (_cmd_riccati, _cmd_hierarchy_u, _cmd_hierarchy_charges,
                                       _cmd_boundary_charges):
        ap.error("--golden: this command has no golden table")
    if args.fn is _cmd_riccati and args.which != "wz" and args.mode == "scalar":
        ap.error(f"--mode scalar: --which {args.which} is a block of the matrix-mode W")
    try:
        cfg = RunConfig.from_file(args.config)
    except (OSError, ValueError) as e:
        sys.stderr.write(f"config error: {e}\n")
        return 2
    try:
        return args.fn(args, cfg)
    except (ValueError, RuntimeError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
