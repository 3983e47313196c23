"""Benchmark entry point: run one workload and print its metrics.

    python3 bench/run.py --workload {sweep,lookup,structure} --seed N \
        --seconds S --trace {0,1}

Passes run one after another, each in a fresh interpreter (worker.py),
until S seconds have gone by and at least the workload's minimum number
of passes has run.  Every pass is the same set of operations, so the
share of failed operations is the same in every run.  Set-up is also
timed in extra fresh interpreters until there are SETUP_SAMPLES samples.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1).  Details of every pass
go to bench/results/.  Exit 1 if a pass could not be run, 2 if the
program's sources are missing.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "lookup", "structure")
# Enough passes that the tail percentile has ten operations beyond it.
MIN_PASSES = {"sweep": 4, "lookup": 2, "structure": 2}
SETUP_SAMPLES = 7
DEADLINE_S = 170  # a run must end within 180 s


class WorkerError(RuntimeError):
    pass


def run_worker(args: list[str], timeout: float) -> dict:
    if timeout <= 0:
        raise WorkerError(f"{' '.join(args)}: no time left in the run")
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{' '.join(args)}: no result within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{' '.join(args)}: exit {proc.returncode}\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = perf_counter()

    def remaining() -> float:
        return DEADLINE_S - (perf_counter() - start)

    common = ["--workload", workload, "--seed", str(seed)]
    # A traced run reports neither latencies nor set-up, and its passes
    # are slower.
    min_passes = 1 if trace else MIN_PASSES[workload]
    passes = []
    while len(passes) < min_passes or perf_counter() - start < seconds:
        passes.append(run_worker(common + (["--trace"] if trace else []), remaining()))
    setups = [p["setup_s"] for p in passes]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(common + ["--setup-only"], remaining())["setup_s"])

    # A failed operation misses any latency limit: it sorts above every time.
    op_ms = [
        math.inf if failed else 1000 * s
        for p in passes
        for s, failed in zip(p["op_seconds"], p["op_failed"])
    ]
    ops = checks.op_statistics(op_ms, len(passes[0]["op_seconds"]), min_passes)
    end_to_end = {
        "setup_s": median(setups),
        "wall_s": median(p["wall_s"] for p in passes),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
        "op_p50_ms": ops["p50"],
        "op_tail_ms": ops["tail"],
    }
    # Names and units as BENCHMARK.json declares them.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if trace:
        values = {m: median(p["layers"][m] for p in passes) for m in passes[0]["layers"]}
        declared = spec["per_layer"]
    else:
        values, declared = end_to_end, spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    errors = [e for p in passes for e in p["errors"]]
    return {
        "correct": not errors,
        "attempted": len(op_ms),
        "failed": sum(sum(p["op_failed"]) for p in passes),
        "metrics": metrics,
        "details": {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "passes": len(passes), "tail_percentile": ops["tail_percentile"], "setup_samples": setups,
            "end_to_end": end_to_end,
            "errors": errors[:50], "pass_results": passes,
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True, help="seed of the lookup stream")
    ap.add_argument("--seconds", type=int, required=True, help="how long passes are started")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced run")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "toothpicks" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1
    details = result.pop("details")
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(dict(result, details=details), indent=1))
    for e in details["errors"]:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
