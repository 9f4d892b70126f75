"""Fast self-test of the benchmark; run from the repository root:

    python3 bench/selftest.py

It runs every workload at minimal size through run.py, untraced and traced,
with every output check on; shows that each workload's check rejects a
corrupted output; shows that tracing wraps names imported by name and
unwraps them again; and shows that run.py refuses a directory without
src/rht.  Exits 1 on the first failure.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import rht  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], capture_output=True, text=True, cwd=cwd, timeout=170)


def check_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in workloads.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            done = run("--workload", name, "--seed", "7", "--seconds", "0.2", "--trace", str(trace), "--small")
            assert done.returncode == 0, f"{name} trace={trace}: exit {done.returncode}\n{done.stderr}"
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, f"{name} trace={trace}: {done.stdout}"
            assert set(result["metrics"]) == {m["name"] for m in spec[kind]}, f"{name}: metric names"
            print(f"ok   {name} trace={trace}: {result['attempted']} ops checked")


def rejects(op, out):
    try:
        op.check(out)
    except workloads.CheckFailed:
        return True
    return False


def check_checks(workdir):
    ref = json.loads((HERE / "reference.json").read_text())
    make = lambda name: workloads.WORKLOADS[name](np.random.default_rng(3), 3, True, ref, workdir)  # noqa: E731

    op = next(make("norm-sweep").passes())[0]
    q, fit, report = op.run()
    op.check((q, fit, report))
    assert rejects(op, (q + 1, fit, report)), "norm-sweep accepted a wrong q"

    ex = make("exact-sweep")
    op = next(ex.passes())[0]
    inv = op.run()
    op.check(inv)
    nums = inv.numerators.copy()
    nums[0, 0] += 1
    assert rejects(op, rht.RationalMatrix(inv.order, nums, inv.denominator)), "exact-sweep accepted a wrong inverse"

    ops = next(make("transform").passes())
    ops[0].check(ops[0].run())  # the plan the fast_rht op uses
    spectrum, count = ops[1].run()
    ops[1].check((spectrum, count))
    bad = dataclasses.replace(spectrum, coefficients=spectrum.coefficients + 1.0)
    assert rejects(ops[1], (bad, count)), "transform accepted a wrong spectrum"
    assert rejects(ops[1], (spectrum, rht.OpCount(count.additions, 1))), "transform accepted a multiplication"

    cli = make("cli")
    for op in next(cli.passes(in_process=True)):
        code, stdout = op.run()
        op.check((code, stdout))
        assert rejects(op, (code, stdout + "0\n")), f"cli accepted wrong {op.name} output"
        assert rejects(op, (4, stdout)), f"cli accepted exit 4 from {op.name}"
    print("ok   every workload's check rejects a corrupted output")


def check_tracer():
    import rht.analysis
    import rht.cli

    original = rht.analysis.build_rht_matrix
    tr = tracer.Tracer()
    undo = tracer.install(tr)
    try:
        assert rht.analysis.build_rht_matrix is not original
        assert rht.cli.fast_rht is rht.fast.fast_rht and hasattr(rht.fast.fast_rht, "__wrapped__")
        rht.residual_square_sum(8)
    finally:
        tracer.uninstall(undo)
    assert rht.analysis.build_rht_matrix is original
    names = [span[0] for span in tr.spans]
    assert names == ["analysis.residual_square_sum", "core.build_rht_matrix", "core.cas"], names
    assert tr.spans[1][3] == 0 and tr.spans[2][3] == 1, "parent links"
    own = tr.self_times()
    total = tr.spans[0][2] - tr.spans[0][1]
    assert abs(sum(own) - total) < 1e-9, "self times must add up to the outer span"
    print("ok   tracer wraps imported names, links parents and unwraps")


def check_refuses_bare_directory(scratch):
    bare = scratch / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = run("--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    assert done.returncode != 0 and not done.stdout.strip(), (done.returncode, done.stdout)
    print(f"ok   run.py exits {done.returncode} without printing a result where src/rht is missing")


def main() -> int:
    scratch = ROOT / ".bench_out" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        check_tracer()
        check_checks(scratch)
        check_refuses_bare_directory(scratch)
        check_runs()
    except AssertionError as e:
        print(f"FAIL {e}")
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
