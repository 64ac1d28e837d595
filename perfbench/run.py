"""laxforge benchmark: one workload, measured in fresh interpreters.

    python3 perfbench/run.py --workload tower --seed 1 --seconds 30 --trace 0

A closed loop with one caller: each pass of the workload's op list runs in a
new interpreter (``child.py``), one child at a time, single-threaded.  The
``lru_cache``d solvers start cold in every pass, as they do for each CLI
command, and no cache a program change adds can carry over between passes.

``--trace 0`` reports the pass times as means over the passes of the run,
set-up time and peak RSS as medians, and request latency as quantiles over
every request of the run.  ``--trace 1`` runs one untraced and two traced
passes and reports the per-layer metrics of the traced ones.  The last stdout
line is the JSON result; the line before it names the sample counts.  ``--scale smoke`` runs
tiny orders and trial counts for the benchmark's own tests.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("tower", "open-chain", "oracle", "cli-small")
MIN_PASSES = {"full": 3, "smoke": 1}
SETUP_EVERY_S = 5.0     # one set-up-only child per this much pass time
DEADLINE_S = 170.0                         # a run must end within 180 s


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, scale: str):
        self.workload, self.seed, self.scale = workload, seed, scale
        self.start = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def spawn(self, mode: str) -> dict:
        remaining = DEADLINE_S - (time.perf_counter() - self.start)
        if remaining <= 0:
            raise BenchError("run deadline passed")
        spawned = time.perf_counter()
        argv = [sys.executable, str(HERE / "child.py"), repr(spawned), mode,
                self.workload, str(self.seed), self.scale]
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child of {self.workload} passed the run deadline")
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        src = ROOT / "src"
        if Path(result["laxforge"]).resolve().parent.parent != src.resolve():
            raise BenchError(f"imported {result['laxforge']}, not the package under {src}")
        return result

    def elapsed(self) -> float:
        return time.perf_counter() - self.start


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all the sorted values, the i-th weighted by the
    Beta((n+1)q, (n+1)(1-q)) mass of ((i-1)/n, i/n].  The sample quantile
    reads one or two of the few passes of a run, which jump between the
    machine's fast and slow states; this one moves with all of them.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = max(1, 20000 // n)         # midpoint rule, about 20 000 points in all
    weights = []
    for i in range(n):
        ts = ((i + (j + 0.5) / steps) / n for j in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
                           for t in ts))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def report(values: dict, spec: list) -> dict:
    """The metrics BENCHMARK.json names, with their units, from measured values."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def end_to_end(runner: Runner, seconds: float, spec: list):
    scale = runner.scale
    if scale == "full":
        runner.spawn("setup")   # unmeasured: writes the bytecode caches once
    # Set-up samples are taken between the passes, not in one block, so that
    # they see the machine as the passes do: every pass child gives one, and
    # set-up-only children add more in proportion to pass time, so that a run
    # of a few long passes has about as many as one of many short ones.
    setups, passes = [], []
    measured = time.perf_counter()
    while len(passes) < MIN_PASSES[scale] or time.perf_counter() - measured < seconds:
        longest = max((p["elapsed"] for p in passes), default=0.0)
        if passes and runner.elapsed() + longest > DEADLINE_S - 5:
            if len(passes) < MIN_PASSES[scale]:
                raise BenchError(f"only {len(passes)} passes fit in the run deadline")
            break
        t0 = time.perf_counter()
        result = runner.spawn("pass")
        result["elapsed"] = time.perf_counter() - t0
        passes.append(result)
        for _ in range(round(result["elapsed"] / SETUP_EVERY_S)):
            setups.append(runner.spawn("setup")["setup_s"])
    # Pass times are means: this machine alternates between a fast and a slow
    # state that lasts several seconds, and a median of a few passes jumps
    # between the two, where the mean follows the share of the run spent in
    # each (NOTES.md, "Steadiness").
    mean = lambda key: statistics.fmean(p[key] for p in passes)  # noqa: E731
    requests = [1e3 * t for p in passes for t in p["request_s"]]
    metrics = {
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "wall_s": mean("wall_s"),
        "derive_s": mean("derive_s"),
        "verify_s": mean("verify_s"),
        "request_p50_ms": quantile(requests, 0.5),
        "request_p90_ms": quantile(requests, 0.9),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    counts = (f"{len(passes)} passes, {len(setups) + len(passes)} set-up samples, "
              f"{len(requests)} requests ({len(passes[0]['request_s'])} per pass)")
    return passes, report(metrics, spec), counts


def per_layer(runner: Runner, spec: list):
    """Counts and ratios from a fully traced pass, times from a second one.

    ``__hash__`` runs millions of times per pass for well under a microsecond
    each, less than the wrapper that would time it, so self times come from
    a traced pass that leaves it unwrapped; hashing is then counted in the
    self time of its callers, mostly ``ncpoly``'s dict updates.
    """
    plain = runner.spawn("pass")
    counted = runner.spawn("trace")
    timed = runner.spawn("trace-times")
    values = {k: timed["layers"][k] if k.endswith("self_s") else v
              for k, v in counted["layers"].items()}
    values["trace_overhead_ratio"] = timed["wall_s"] / plain["wall_s"]
    self_s = timed["layer_self_s"]
    top = sorted(self_s.items(), key=lambda kv: -kv[1])[:5]
    # the corrected self times of all layers should add up to about the
    # untraced wall time; a large gap means the overhead correction is off
    counts = (f"{timed['spans']} spans stored; self times sum to "
              f"{sum(self_s.values()):.3f} s against {plain['wall_s']:.3f} s untraced "
              f"({timed['wall_s']:.3f} s timed, {counted['wall_s']:.3f} s fully traced); "
              "largest: " + ", ".join(f"{k} {v:.3f} s" for k, v in top))
    return [plain, counted, timed], report(values, spec), counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "laxforge" / "__init__.py").is_file():
        sys.stderr.write(f"error: no laxforge package under {ROOT / 'src'}\n")
        return 2
    # SystemExit inside subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runner = Runner(args.workload, args.seed, args.scale)
    try:
        if args.trace:
            passes, metrics, counts = per_layer(runner, spec["per_layer"])
        else:
            passes, metrics, counts = end_to_end(runner, args.seconds, spec["end_to_end"])
    except BenchError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for f in p["failures"]:
            sys.stderr.write(f"FAILED {f['op']}: {' | '.join(f['problems'])}\n")
    print(f"{args.workload} seed {args.seed}: {counts}; "
          f"ops_failed_ratio {failed}/{attempted} = {failed / attempted:.4f}; "
          f"{runner.elapsed():.1f} s")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
