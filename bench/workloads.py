"""The four benchmark workloads.

Each workload makes its inputs from the seed, then hands the measuring loop
a stream of passes; a pass is a list of operations, and every operation is
a zero-argument call into rht plus a check of its output.  Workloads whose
order mix matters are measured in whole passes, so the share of each class
of operation, and hence which class a percentile falls in, is the same in
every run.  The checks compare against `oracle` and against `reference.json`
(tables recorded from the unmodified code) and return the deterministic
counts of the operation: q per order, denominator bits, additions.

Each workload fixes the least number of operations a run makes; the tail
percentile it reports is the highest whole percentile that leaves at least
ten of those operations beyond it.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
import rht
from tracer import order_class

EPS = Fraction(2, 9)


class CheckFailed(Exception):
    """An operation's output disagrees with the reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    cls: str
    run: Callable[[], object]
    check: Callable[[object], dict]  # deterministic counts, or CheckFailed


class Workload:
    min_ops = 1
    rss_of_children = False

    @property
    def tail_pct(self) -> int:
        return max(50, math.floor(100 * (1 - 10 / self.min_ops)))


class NormSweep(Workload):
    """residual_square_sum over a band of orders ending at 1024, each order
    followed by a Freundlich fit of the curve so far and a k=2, eps=2/9
    quasi-period check.  Orders are drawn without repetition in a seeded
    order, as `rht norm-curve` visits each order once."""

    min_ops = 100

    def __init__(self, rng, seed, small, ref, workdir):
        self.band = range(1009, 1025) if small else range(769, 1025)
        self.q_ref = {int(n): q for n, q in ref["norm_sweep"]["q"].items()}
        self.rng = rng
        self.points = {}
        if small:
            self.min_ops = 4

    def _op(self, n):
        def run():
            q = rht.residual_square_sum(n)
            self.points[n] = math.sqrt(q) / n**2
            curve = rht.NormCurve(tuple(sorted(self.points.items())))
            fit = rht.freundlich_fit(curve) if len(curve.points) >= 2 else None
            return q, fit, rht.quasi_period_check([n], 2, EPS)

        def check(out):
            q, fit, report = out
            require(q == self.q_ref[n], f"q({n}) = {q}, reference {self.q_ref[n]}")
            require(Fraction(q, n**4) <= EPS * EPS, f"mu^2 > (2/9)^2 at n={n}")
            require(report.results == ((n, True),), f"quasi_period_check failed at n={n}")
            if fit is not None:
                ok = math.isfinite(fit.a) and math.isfinite(fit.b) and not fit.excluded
                require(ok, f"freundlich_fit not finite at n={n}")
            return {f"q[{n}]": q}

        return Op(f"norm n={n}", "norm", run, check)

    def warmup(self):
        lo = self.band.start - 8
        return [self._op(n) for n in range(lo, lo + 4)]

    def passes(self, in_process=False):
        while True:
            for n in self.rng.permutation(np.array(self.band)):
                yield [self._op(int(n))]


class ExactSweep(Workload):
    """exact_inverse over two fixed classes of order, three smooth to one
    rough: smooth orders are the multiples of 4 from 156 to 200, with
    denominators of 26-110 bits, rough orders are primes with 660-710-bit
    denominators.  The class lists are fixed so the denominator bits repeat
    exactly; the seed sets the visiting order.  The median falls at the
    second third of the smooth orders, and the costs of consecutive
    multiples of 4 in this band leave no wide gap there for it to jump
    across when the host slows."""

    CLASSES = (tuple(range(156, 201, 4)), (191, 193, 197, 199))
    SMALL_CLASSES = ((96, 112, 120), (97,))
    min_ops = 64

    def __init__(self, rng, seed, small, ref, workdir):
        self.smooth, self.rough = self.SMALL_CLASSES if small else self.CLASSES
        self.bits_ref = {int(n): b for n, b in ref["exact_sweep"]["den_bits"].items()}
        self.rng = rng
        if small:
            self.min_ops = 4

    def _op(self, n):
        def check(inv):
            bits = inv.denominator.bit_length()
            require(bits == self.bits_ref[n], f"den bits {bits} at n={n}, reference {self.bits_ref[n]}")
            error = oracle.inverse_residue_error(n, inv.numerators, inv.denominator)
            if error:
                raise CheckFailed(error)
            return {f"den_bits[{n}]": bits}

        return Op(f"exact_inverse n={n}", order_class(n), lambda: rht.exact_inverse(n), check)

    def warmup(self):
        return [self._op(128), self._op(181)]

    def passes(self, in_process=False):
        per_block = len(self.smooth) // len(self.rough)
        while True:
            smooth = iter(self.rng.permutation(self.smooth))
            ops = []
            for r in self.rng.permutation(self.rough):
                ops += [self._op(int(next(smooth))) for _ in range(per_block)]
                ops.append(self._op(int(r)))
            ops += [self._op(int(n)) for n in smooth]
            yield ops


class Transform(Workload):
    """The add-only and direct transforms and the 2-D image pipeline.

    A pass runs, for each power-of-two order 256..4096, one plan plus
    count_model check and a batch of seeded integer vectors through
    fast_rht (8, 8, 8, 2 and 2 vectors); apply_direct plus
    weak_inverse_apply at one seeded order, not a power of two, from each
    of 64 bands of 12 orders between 256 and 1024; load_gray,
    roundtrip_report and save_pgm on seeded 256x256 and 512x512 images,
    each as PGM and as BMP; and one 16x16 exact_inverse_2d round trip.  Orders repeat every pass, as in a
    program transforming many signals.

    The median operation falls among the apply operations, whose cost
    grows smoothly with the order.  A median over many calls of one cost
    jumps by the whole slowdown when the host is slow for half of a run;
    a median over a smooth spread of costs moves only in proportion to
    the share of the run that is slow."""

    min_ops = 200

    def __init__(self, rng, seed, small, ref, workdir):
        self.adds_ref = {int(n): a for n, a in ref["transform"]["additions"].items()}
        if small:
            self.min_ops = 1
            self.orders, bands, sizes, self.exact_n = (256, 512), [(300, 316)], (32, 64), 8
        else:
            self.orders, sizes, self.exact_n = (256, 512, 1024, 2048, 4096), (256, 512), 16
            bands = [(lo, lo + 12) for lo in range(256, 1024, 12)]
        batch = {256: 8, 512: 8, 1024: 8, 2048: 2, 4096: 2}
        self.vectors = {n: [rng.integers(-255, 256, size=n) for _ in range(batch[n])] for n in self.orders}
        self.apply = []
        for lo, hi in bands:
            m = int(rng.choice([m for m in range(lo, hi) if m & (m - 1)]))
            self.apply.append((m, rng.integers(-255, 256, size=m)))
        self.images = []
        for size in sizes:
            pixels = rng.integers(0, 256, size=(size, size)).astype(np.float64)
            for fmt, encode in (("pgm", oracle.pgm_bytes), ("bmp", oracle.bmp_bytes)):
                path = Path(workdir) / f"image{size}.{fmt}"
                path.write_bytes(encode(pixels))
                self.images.append((path, pixels))
        self.small_image = rng.integers(0, 256, size=(self.exact_n, self.exact_n)).astype(np.float64)
        self.out_path = Path(workdir) / "recovered.pgm"
        self.ternary = oracle.Ternary()
        self.plans = {}
        self.psnr_ref = {}

    def _plan_op(self, n):
        def run():
            self.plans[n] = rht.plan(n)
            return rht.count_model(n)

        def check(count):
            require(count.additions == self.adds_ref[n], f"count_model({n}) = {count.additions}")
            require(count.multiplications == 0, f"count_model({n}) multiplies")
            return {f"model_additions[{n}]": count.additions}

        return Op(f"plan n={n}", "plan", run, check)

    def _fast_op(self, n, v):
        def check(out):
            spectrum, ops = out
            dense = self.ternary.product(n, v).astype(np.float64)
            require(np.array_equal(spectrum.coefficients, dense), f"fast_rht != dense product at n={n}")
            require(ops.additions == self.adds_ref[n], f"fast_rht({n}) made {ops.additions} additions")
            require(ops.multiplications == 0, f"fast_rht({n}) multiplies")
            return {f"additions[{n}]": ops.additions}

        return Op(f"fast_rht n={n}", "fast", lambda: rht.fast_rht(self.plans[n], v), check)

    def _apply_op(self, m, v):
        def run():
            t = rht.rounded_transform(m, rht.Normalization.SYMMETRIC)
            spectrum = rht.apply_direct(t, v)
            return spectrum, rht.weak_inverse_apply(t, spectrum)

        def check(out):
            spectrum, back = out
            forward = self.ternary.product(m, v).astype(np.float64) / math.sqrt(m)
            require(np.array_equal(spectrum.coefficients, forward), f"apply_direct != dense product at n={m}")
            again = self.ternary.float_product(m, spectrum.coefficients) / math.sqrt(m)
            require(np.abs(back - again).max() <= 1e-9 * np.abs(again).max(), f"weak_inverse_apply off at n={m}")
            return {}

        return Op(f"apply n={m}", "apply", run, check)

    def _image_op(self, path, pixels):
        def run():
            image = rht.load_gray(path)
            report = rht.roundtrip_report(image)
            rht.save_pgm(report.recovered, self.out_path, quantize=True)
            return image, report

        def check(out):
            image, report = out
            require(np.array_equal(image.pixels, pixels), f"load_gray({path.name}) changed pixels")
            if path.name not in self.psnr_ref:
                self.psnr_ref[path.name] = oracle.roundtrip_psnr(pixels)
            expect = self.psnr_ref[path.name]
            require(abs(report.psnr_db - expect) <= 1e-9, f"PSNR {report.psnr_db} != {expect} for {path.name}")
            error = oracle.saved_pgm_error(self.out_path, report.recovered.pixels)
            if error:
                raise CheckFailed(error)
            return {}

        return Op(f"image {path.name}", "image", run, check)

    def _exact_2d_op(self):
        img = self.small_image

        def check(back):
            err = float(np.abs(back.pixels - img).max())
            require(err <= 1e-6, f"exact_inverse_2d missed the image by {err}")
            return {}

        return Op(f"exact_2d n={self.exact_n}", "exact2d", lambda: rht.exact_inverse_2d(rht.forward_2d(img)), check)

    def _pass(self):
        ops = []
        for n in self.orders:
            ops.append(self._plan_op(n))
            ops += [self._fast_op(n, v) for v in self.vectors[n]]
        ops += [self._apply_op(m, v) for m, v in self.apply]
        ops += [self._image_op(path, pixels) for path, pixels in self.images]
        ops.append(self._exact_2d_op())
        return ops

    def warmup(self):
        return self._pass()

    def passes(self, in_process=False):
        while True:
            yield self._pass()


class Cli(Workload):
    """Cold `python -m rht` subprocesses from a fixed mix of eight
    commands, in a seeded order per pass.  In the traced run the same
    argument lists go through rht.cli.main in-process instead."""

    min_ops = 32
    rss_of_children = True

    def __init__(self, rng, seed, small, ref, workdir):
        self.sha = ref["cli"]["stdout_sha256"]
        self.rng = rng
        if small:
            self.min_ops = 8
        self.image_path = Path(workdir) / "cli-image.pgm"
        self.pixels = rng.integers(0, 256, size=(256, 256)).astype(np.float64)
        self.image_path.write_bytes(oracle.pgm_bytes(self.pixels))
        self.matrix_n = int(rng.integers(48, 64))
        self.commands = [
            ("gen-matrix", ["gen-matrix", "--n", str(self.matrix_n)]),
            ("spectrum", ["spectrum", "--signal", "builtin:fig2"]),
            ("image2d", ["image2d", "--in", str(self.image_path)]),
            ("fast-bench", ["fast-bench", "--n", "1024", "--seed", str(seed)]),
            ("norm-curve", ["norm-curve", "--to", "128"]),
            ("quasi-period", ["quasi-period", "--to", "64", "--k", "2", "--eps", "2/9"]),
            ("hadamard", ["hadamard", "--n", "8"]),
            ("fit", ["fit", "--to", "128"]),
        ]
        self.psnr_ref = None

    def expected_ok(self, label, stdout):
        if label == "gen-matrix":
            rows = oracle.ternary_rows(self.matrix_n, range(self.matrix_n))
            return stdout == "".join(" ".join(map(str, row)) + "\n" for row in rows)
        if label == "image2d":
            if self.psnr_ref is None:
                self.psnr_ref = oracle.roundtrip_psnr(self.pixels)
            lines = stdout.splitlines()
            if len(lines) != 1 or not lines[0].startswith("PSNR_dB="):
                return False
            # the CLI prints four decimals
            return abs(float(lines[0].split("=", 1)[1]) - self.psnr_ref) <= 5.001e-5
        return hashlib.sha256(stdout.encode()).hexdigest() == self.sha[label]

    def _op(self, label, argv, in_process):
        if in_process:

            def run():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = rht.cli.main(argv)
                return code, out.getvalue()

        else:

            def run():
                done = subprocess.run(
                    [sys.executable, "-m", "rht", *argv],
                    capture_output=True, text=True, timeout=60,
                )
                return done.returncode, done.stdout

        def check(out):
            code, stdout = out
            require(code == 0, f"rht {label} exited {code}")
            require(self.expected_ok(label, stdout), f"rht {label} stdout differs from the reference")
            return {}

        return Op(f"cli {label}", label, run, check)

    def warmup(self):
        label, argv = self.commands[-2]
        return [self._op(label, argv, in_process=False)]

    def passes(self, in_process=False):
        if in_process:
            importlib.import_module("rht.cli")
        while True:
            order = self.rng.permutation(len(self.commands))
            yield [self._op(*self.commands[i], in_process) for i in order]


WORKLOADS = {"norm-sweep": NormSweep, "exact-sweep": ExactSweep, "transform": Transform, "cli": Cli}
