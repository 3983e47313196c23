"""One pass of one workload in a fresh interpreter; prints one JSON line.

    python3 bench/worker.py --workload sweep --seed 1 [--trace] [--setup-only]

Set-up (import the package, build the binding registry, parse every
bundled fixture) is timed first.  The pass follows, then the peak RSS of
this process is read, then the outputs are checked.  The program runs
from `src/` of the checkout this file sits in.
"""

import argparse
import importlib
import json
import resource
import sys
import types
from pathlib import Path
from time import perf_counter

import tracing
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def set_up():
    """Import the program and every layer, build bindings() and parse
    every bundled fixture."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import toothpicks

    tp = types.SimpleNamespace(
        fixture_dir=Path(toothpicks.__file__).parent / "fixtures",
        **{layer: importlib.import_module(f"toothpicks.{layer}") for layer in tracing.LAYERS},
    )
    tp.verify.bindings()
    for path in sorted(tp.fixture_dir.glob("*.txt")):
        tp.verify.load_fixture(path.stem)
    return tp, perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tp, setup_s = set_up()
    out = {"setup_s": setup_s}
    if not args.setup_only:
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        workload = workloads.WORKLOADS[args.workload](tp, args.seed, tracer)
        if tracer is not None:
            tracer.reset()
        t0 = perf_counter()
        result = workload.run()
        wall_s = perf_counter() - t0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        layers = tracer.metrics() if tracer is not None else None
        errors = workload.check(result)
        out.update(
            wall_s=wall_s,
            peak_rss_mb=rss_mb,
            op_seconds=result.op_seconds,
            op_failed=result.op_failed,
            errors=errors,
            layers=layers,
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
