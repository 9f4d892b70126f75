"""One workload in one fresh interpreter; started by run.py.

Prints one JSON line.  With --setup-only it stops once the inputs exist and
reports the clock reading at that moment, so run.py can time set-up from
before the interpreter started.  Otherwise it runs a discarded warm-up, then
the measured closed loop (one caller, next operation issued when the last
returns), checking every output; the measured time is the sum of operation
latencies, and checks run outside it.  With --trace 1 the loop runs for
half the time untraced, then as many operations again traced, and the
worker reports per-layer metrics from the spans instead of latencies.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import rht  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def measure(ops_source, seconds: float, min_ops: int):
    """Closed loop over whole passes until `seconds` of operation time and
    `min_ops` operations are reached.  ops_source yields lists of ops."""
    latencies, classes, failures, counts = [], [], [], {}
    failed, busy = 0, 0.0
    clock = time.perf_counter
    for ops in ops_source:
        for op in ops:
            start = clock()
            try:
                out = op.run()
                error = None
            except Exception:
                error = traceback.format_exc(limit=3)
            elapsed = clock() - start
            if error is None:
                try:
                    counts.update(op.check(out))
                except workloads.CheckFailed as e:
                    error = f"{op.name}: {e}"
            if error is not None:
                failed += 1
                failures.append(error)
            busy += elapsed
            latencies.append(elapsed)
            classes.append(op.cls)
        if busy >= seconds and len(latencies) >= min_ops:
            break
    return {
        "latencies": latencies,
        "classes": classes,
        "busy_s": busy,
        "attempted": len(latencies),
        "failed": failed,
        "failures": failures[:5],
        "counts": counts,
    }


def facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "rht_file": str(Path(rht.__file__).relative_to(ROOT)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    ref = json.loads((Path(__file__).parent / "reference.json").read_text())
    rng = np.random.default_rng(args.seed)
    wl = workloads.WORKLOADS[args.workload](rng, args.seed, args.small, ref, args.workdir)
    setup_end = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0

    for op in wl.warmup():
        op.run()

    result = {"setup_end": setup_end, "facts": facts(), "tail_pct": wl.tail_pct}
    if not args.trace:
        run = measure(wl.passes(), args.seconds, wl.min_ops)
    else:
        # the traced half continues the same stream of passes for as many
        # operations, so it repeats no order the untraced half ran
        passes = wl.passes(in_process=True)
        plain = measure(passes, args.seconds / 2, 1)
        tr = tracer.Tracer()
        undo = tracer.install(tr)
        try:
            traced = measure(passes, 0.0, plain["attempted"])
        finally:
            tracer.uninstall(undo)
        run = {k: plain[k] + traced[k] for k in ("attempted", "failed", "failures")}
        run["counts"] = {**plain["counts"], **traced["counts"]}
        layers = tracer.layer_metrics(tr)
        layers["trace.overhead_frac"] = traced["busy_s"] / plain["busy_s"] - 1.0
        result["layers"] = layers
        tracer.dump(tr, Path(args.workdir) / "spans.json")
    result.update(run)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if wl.rss_of_children else resource.RUSAGE_SELF)
    result["peak_rss_kb"] = usage.ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
