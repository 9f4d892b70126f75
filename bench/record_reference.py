"""Record bench/reference.json from the code in src/: the exact q per order
of the norm-sweep band, the denominator bits of the exact-sweep orders,
count_model additions at the transform orders, and the stdout digests of
the seed-independent CLI commands.

Run from the repository root: python3 bench/record_reference.py
A change to rht must leave every one of these values as it is.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
os.environ["PYTHONPATH"] = str(ROOT / "src")

import numpy as np  # noqa: E402

import rht  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    q = {n: rht.residual_square_sum(n) for n in range(769, 1025)}
    orders = sum(workloads.ExactSweep.CLASSES + workloads.ExactSweep.SMALL_CLASSES, ())
    den_bits = {n: rht.exact_inverse(n).denominator.bit_length() for n in orders}
    additions = {n: rht.count_model(n).additions for n in (256, 512, 1024, 2048, 4096)}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        cli = workloads.Cli(np.random.default_rng(0), 0, False, {"cli": {"stdout_sha256": {}}}, tmp)
        sha = {}
        for label, argv in cli.commands:
            if label in ("gen-matrix", "image2d"):
                continue  # seed-dependent; checked against oracle.py instead
            done = subprocess.run([sys.executable, "-m", "rht", *argv], capture_output=True, text=True, check=True)
            sha[label] = hashlib.sha256(done.stdout.encode()).hexdigest()
    ref = {
        "norm_sweep": {"q": q},
        "exact_sweep": {"den_bits": den_bits},
        "transform": {"additions": additions},
        "cli": {"stdout_sha256": sha},
    }
    out = Path(__file__).parent / "reference.json"
    out.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
