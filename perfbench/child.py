"""One pass of a workload in a fresh interpreter, or one set-up measurement.

    python3 perfbench/child.py <spawn_time> <mode> <workload> <seed> <scale>

``mode`` is ``setup`` (set-up only), ``pass`` (an untraced pass), ``trace``
(a traced pass that wraps every public function and operator method) or
``trace-times`` (the same, but leaving ``__hash__`` unwrapped; see layers.py).

``spawn_time`` is the parent's ``time.perf_counter()`` just before it started
this process (the clock is system-wide on Linux), so ``setup_s`` covers
interpreter start-up plus importing ``laxforge.cli`` and ``laxforge.checks``
with numpy: the cost every CLI command pays.  Nothing else is imported
before that point.  The result is one JSON object on the last stdout line.
"""
import sys
import time

import laxforge.checks
import laxforge.cli

READY = time.perf_counter()


def run_pass(workload: str, seed: int, scale: str, mode: str) -> dict:
    import resource
    import traceback
    from pathlib import Path

    import layers
    import workloads

    ops = workloads.build(workload, seed, scale)
    runs = [op.run for op in ops]
    traced = mode != "pass"
    tracer = probes = None
    if traced:
        from tracer import Tracer
        tracer = Tracer(f"{workload}-{seed}-{mode}", hashes=mode == "trace")
        probes = layers.Probes()
        probes.attach(tracer)
        tracer.install()
        runs = [tracer.span(op.name)(op.run) for op in ops]

    perf = time.perf_counter
    outputs, op_s, errors = [], [], []
    start = perf()
    for run in runs:
        t0 = perf()
        try:
            out, err = run(), None
        except Exception:   # a failing op is counted, and the pass goes on
            out, err = None, traceback.format_exc(limit=4)
        op_s.append(perf() - t0)
        outputs.append(out)
        errors.append(err)
    wall = perf() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # A request is one CLI call on cli-small; on the other workloads the user
    # waits for the whole derive-and-verify job, so the pass is the request.
    requests = op_s if workload == "cli-small" else [wall]
    result = {"wall_s": wall, "request_s": requests, "peak_rss_mb": rss_mb,
              "derive_s": sum(t for op, t in zip(ops, op_s) if op.tag == "derive"),
              "verify_s": sum(t for op, t in zip(ops, op_s) if op.tag == "verify")}
    if traced:
        from laxforge import riccati
        tracer.uninstall()
        cache = [riccati.solve_w_z.cache_info(), riccati.solve_gamma.cache_info()]
        result["layers"] = layers.reduce(tracer, probes, outputs, cache)
        result["layer_self_s"] = {k: v["self_s"] for k, v in tracer.by_layer().items()}
        result["spans"] = len(tracer.start)
        missing = layers.missing_dominant(tracer, workload)
        if missing:
            raise SystemExit(f"traced {workload}: no spans from layers {missing}; "
                             "the tracer no longer reaches them")
        out_dir = Path(__file__).resolve().parent.parent / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{tracer.pass_id}.npz")

    expected = {}
    if scale == "full":
        import json
        with open(Path(__file__).with_name("expected.json")) as f:
            expected = json.load(f)["digests"].get(workload, {})
    failures, digests = [], {}
    for op, out, err in zip(ops, outputs, errors):
        if err is not None:
            failures.append({"op": op.name, "problems": [err]})
            continue
        try:
            problems = op.check(out)
            if op.canonical is not None:
                digests[op.name] = workloads.digest(op.canonical(out))
                if scale == "full" and expected.get(op.name) != digests[op.name]:
                    problems.append(f"digest {digests[op.name]} != recorded "
                                    f"{expected.get(op.name)}")
        except Exception:
            problems = [traceback.format_exc(limit=4)]
        if problems:
            failures.append({"op": op.name, "problems": problems})
    result.update(attempted=len(ops), failed=len(failures), failures=failures,
                  digests=digests)
    return result


def main(argv) -> int:
    import json
    spawned, mode, workload, seed, scale = argv[1:6]
    result = {"setup_s": READY - float(spawned), "laxforge": laxforge.__file__}
    if mode in ("pass", "trace", "trace-times"):
        result.update(run_pass(workload, int(seed), scale, mode))
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
