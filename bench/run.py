"""rht benchmark: one workload, one run, one JSON line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {norm-sweep,exact-sweep,transform,cli} \
        --seed N --seconds S --trace {0,1}

Every workload runs in fresh interpreters started here (bench/worker.py),
so set-up time and peak memory belong to that workload alone.  With
--trace 0 it reports the end-to-end metrics of BENCHMARK.json: set-up time
is the median over several fresh interpreters, timed from just before each
starts until its inputs exist; the other metrics come from one measured
closed loop after a discarded warm-up.  With --trace 1 it reports the
per-layer metrics from a traced run.  Facts about the machine, the
deterministic counts and a metric table are printed first; the last line
is {"correct", "attempted", "failed", "metrics"}.  A full record goes to
.bench_out/.  Exits 2 when run outside a checkout that holds src/rht.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORKLOADS = ("norm-sweep", "exact-sweep", "transform", "cli")
SETUP_SAMPLES = 5  # fresh interpreters per run, the measured one included
WORKER_TIMEOUT = 150


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def child_env(nproc: int) -> dict:
    env = os.environ.copy()
    env["PYTHONPATH"] = str(ROOT / "src")
    threads = min(nproc, int(env.get("OPENBLAS_NUM_THREADS") or nproc))
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
    return env


def run_worker(args, workdir, env, extra=()):
    """Start worker.py in a fresh interpreter; returns (start clock, result)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir), *extra,
    ]
    if args.small:
        cmd.append("--small")
    workdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    # its own session, so a timeout also stops the rht processes it started
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return start, json.loads(stdout.strip().splitlines()[-1])


def setup_seconds(args, tmp, env, count):
    """Set-up times of `count` fresh interpreters, after one discarded."""
    samples = []
    for i in range(count + 1):
        start, out = run_worker(args, tmp / f"setup{i}", env, ["--setup-only"])
        if i:
            samples.append(out["setup_end"] - start)
    return samples


def interpreter_probe(env, code, count=5):
    """Median wall time of `count` fresh `python3 -c code`, after one discarded."""
    times, out = [], None
    for i in range(count + 1):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=ROOT, timeout=60, check=True)
        if i:
            times.append(time.perf_counter() - start)
    return statistics.median(times), out.stdout


def end_to_end(args, tmp, env, record):
    setup = setup_seconds(args, tmp, env, SETUP_SAMPLES - 1)
    start, out = run_worker(args, tmp / "run", env)
    setup.append(out["setup_end"] - start)
    lat = out["latencies"]
    pct = out["tail_pct"]
    record["setup_samples_s"] = setup
    record["latencies_s"] = lat
    record["classes"] = out["classes"]
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "ops_per_s": f"{len(lat)} ops in {out['busy_s']:.3f} s of operation time",
        "op_p50_ms": f"median of {len(lat)} ops",
        "op_tail_ms": f"p{pct} of {len(lat)} ops, {len(lat) - 1 - int((len(lat) - 1) * pct / 100)} beyond",
        "peak_rss_mb": "largest rht child process" if args.workload == "cli" else "worker process",
    }
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(lat) / out["busy_s"],
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_tail_ms": 1000 * statistics.quantiles(lat, n=100, method="inclusive")[pct - 1],
        "peak_rss_mb": out["peak_rss_kb"] / 1024,
    }
    return out, values, notes


def per_layer(args, tmp, env, record):
    _, out = run_worker(args, tmp / "run", env)
    values = dict(out["layers"])
    interp, _ = interpreter_probe(env, "pass")
    with_rht, _ = interpreter_probe(env, "import rht")
    _, loaded = interpreter_probe(env, "import sys, rht; print(int('scipy' in sys.modules))", count=1)
    values["cli.interpreter_s"] = interp
    values["cli.import_s"] = with_rht - interp
    values["cli.scipy_loaded"] = int(loaded.strip())
    spans = tmp / "run" / "spans.json"
    if spans.is_file():
        shutil.move(spans, ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}.spans.json")
    return out, values, {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--small", action="store_true", help="minimal sizes, for bench/selftest.py")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rht" / "__init__.py").is_file():
        print("run.py: no src/rht here; run from the root of an rht checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    out_dir = ROOT / ".bench_out"
    tmp = out_dir / f"tmp-{os.getpid()}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    try:
        measure = per_layer if args.trace else end_to_end
        out, values, notes = measure(args, tmp, env, record)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"run.py: no value for declared metrics {missing}", file=sys.stderr)
        return 1
    facts = {"nproc": nproc, "blas_threads": int(env["OPENBLAS_NUM_THREADS"]), "git_commit": git_commit(), **out["facts"]}
    for key, value in facts.items():
        print(f"fact {key}={value}")
    for key, value in sorted(out["counts"].items(), key=lambda kv: (kv[0].split("[")[0], int(kv[0].split("[")[1][:-1]))):
        print(f"count {key}={value}")
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        note = notes.get(m["name"])
        print(f"metric {m['name']}={values[m['name']]:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    for failure in out["failures"]:
        print(f"failure {failure.strip()}")
    print(f"failed_frac={out['failed'] / out['attempted']:.6g} ({out['failed']}/{out['attempted']})")
    result = {"correct": out["failed"] == 0, "attempted": out["attempted"], "failed": out["failed"], "metrics": metrics}
    record.update(facts=facts, counts=out["counts"], result=result)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
