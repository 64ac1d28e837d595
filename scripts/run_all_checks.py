#!/usr/bin/env python3
"""Derive the whole tower and run every verification; print a summary.

Usage: python scripts/run_all_checks.py [--trials N] [--seed S]

Exits 1, naming each failing line on stderr, when a symbolic residual does
not vanish or a numeric check fails.
"""
from __future__ import annotations

import argparse
import sys
import time

from laxforge.boundary import (boundary_u, bulk_u2, extract_boundary_conditions,
                               k_matrix, open_charge_expansion,
                               poisson_antisymmetry_defect, poisson_residual,
                               reflection_residual)
from laxforge.checks import run_numeric
from laxforge.hierarchy import (charges, dress_u, extract_eom, generate_u,
                                nls_v_operator, route_difference,
                                verify_conservation)
from laxforge.riccati import (gamma_residual, riccati_residual, solve_gamma,
                              solve_w_z)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()
    if args.trials < 1:
        ap.error(f"--trials must be >= 1, got {args.trials}")
    t0 = time.perf_counter()
    failures = []

    def claim(line: str, ok: bool):
        print(f"  {line}: {ok}")
        if not ok:
            failures.append(line)

    print("== Riccati tower ==")
    sol = solve_w_z(5, "scalar")
    for k in range(1, 6):
        print(f"  W^({k}) = {sol.w(k)}")
    for k in range(1, 5):
        print(f"  Z^({k}) = {sol.z(k)}")
    claim("W/Z residual vanishes", riccati_residual(sol).is_zero)
    gam = solve_gamma(4)
    for k in range(1, 5):
        print(f"  G^({k}) = {gam.gamma(k)}")
    claim("G residual vanishes", gamma_residual(gam).is_zero)

    print("== Flow operators ==")
    for n in range(1, 5):
        print(f"  generating n={n}: {generate_u(n, 'scalar').series}")
        print(f"  dressing   n={n}: {dress_u(n).series}")
    for mode in ("scalar", "matrix"):
        for n in range(1, 13):
            claim(f"routes agree at n={n} ({mode}, up to bare shift)",
                  route_difference(n, mode).is_zero)

    print("== Charges and conservation ==")
    for c in charges("H", 4):
        print(f"  H^({c.index}) = {c.density}")
    for c in charges("I", 3):
        print(f"  I^({c.index}) = {c.density}")
    rules = extract_eom(generate_u(2, "matrix"), nls_v_operator("matrix"))
    for f, e in rules.evolution.items():
        print(f"  evolution of {f}: {e} = 0")
    for k in (1, 2, 3):
        proof = verify_conservation(k)
        print(f"  charge {k}: flux witness {proof.flux} "
              f"({proof.elapsed:.3f}s)")

    print("== Boundary algebra ==")
    claim("reflection residual zero", reflection_residual(k_matrix()).is_zero)
    for which in ("V", "U"):
        claim(f"Poisson residual ({which}) zero", poisson_residual(which).is_zero)
        claim(f"Poisson antisymmetry defect ({which}) zero",
              poisson_antisymmetry_defect(which).is_zero)
    exp = open_charge_expansion()
    print(f"  open bulk density: {exp.bulk_density}")
    print(f"  boundary term (+): {exp.plus_term}")
    print(f"  boundary term (-): {exp.minus_term}")
    for side in ("+", "-"):
        bc = extract_boundary_conditions(bulk_u2(), boundary_u(side), side)
        print(f"  side {side}: {bc.as_dict()}  flags: {bc.flags}")

    print("== Numeric battery ==")
    rep = run_numeric("all", args.trials, 1e-9, args.seed)
    for c in rep["checks"]:
        line = f"{c['name']:13s} max |.| = {c['max_abs']:.3e}"
        print(f"  {line}  {'ok' if c['passed'] else 'FAIL'}")
        if not c["passed"]:
            failures.append(f"numeric {line}")
    print(f"total: {time.perf_counter() - t0:.1f}s; "
          f"numeric battery {'pass' if rep['passed'] else 'FAIL'}")
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
