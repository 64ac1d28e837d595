"""Smoke run of the benchmark: all four workloads at tiny orders and trials."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--scale", "smoke"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
        proc.stderr
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == \
        {k: v["unit"] for k, v in result["metrics"].items()}


def test_seed_fixes_the_inputs():
    names = lambda seed: [op.name for op in workloads.build("cli-small", seed)]  # noqa: E731
    assert names(7) == names(7)
    assert names(7) != names(8)
    assert workloads._boundary_constants(7) == workloads._boundary_constants(7)


def test_tracer_rebinds_aliases_and_restores_them():
    import inspect

    import laxforge
    from laxforge import atoms, checks, hierarchy, ncpoly, riccati

    def snapshot():
        mods = [m for n, m in sorted(sys.modules.items()) if n.startswith("laxforge")]
        owners = mods + [c for m in mods for c in vars(m).values() if inspect.isclass(c)]
        return [dict(vars(o)) for o in owners] + [dict(checks.TARGETS)]

    before = snapshot()
    before_add = ncpoly.NCPolynomial.__add__
    solve_w_z, nc_mul = riccati.solve_w_z, ncpoly.nc_mul
    tracer = Tracer("smoke").install()
    try:
        assert hierarchy.solve_w_z is riccati.solve_w_z is not solve_w_z
        assert laxforge.nc_mul is ncpoly.nc_mul is riccati.nc_mul is not nc_mul
        assert riccati.solve_w_z.cache_info().maxsize is None
        hierarchy.generate_u(2, "scalar")
        names = tracer.by_name()
        assert names["riccati.solve_w_z"]["calls"] >= 1
        assert names["atoms.Word.__hash__"]["calls"] > 0
    finally:
        tracer.uninstall()
    assert snapshot() == before

    hash_fn = atoms.Word.__hash__
    tracer = Tracer("smoke-times", hashes=False).install()
    try:
        assert atoms.Word.__hash__ is hash_fn
        assert ncpoly.NCPolynomial.__add__ is not before_add
    finally:
        tracer.uninstall()
    assert snapshot() == before
