"""Command-line interface: one binary, one subcommand per pipeline.

Machine-readable output goes to stdout as CSV or key=value lines;
progress and diagnostics go to stderr.  Exit codes: 0 success, 2 usage,
3 input parse failure, 4 failed check (quasi-period violation, Hadamard
no-match, fast-transform oracle mismatch).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import analysis, image_io
from .core import Normalization, apply_dht, apply_direct, build_dht_matrix
from .core import build_rht_matrix, rounded_transform
from .fast import count_model, fast_rht, plan
from .transform2d import roundtrip_report

USAGE_ERROR, PARSE_ERROR, CHECK_FAILED = 2, 3, 4
_DENSE_BYTES = 1 << 30  # largest n x n array of 8-byte entries a command may build


class _ParseFailure(Exception):
    pass


class _CheckFailure(Exception):
    pass


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _dense_order(text: str) -> int:
    """An order whose dense n x n matrix fits the memory budget."""
    return _within_dense_budget(_positive_int(text))


def _within_dense_budget(value: int) -> int:
    if 8 * value * value > _DENSE_BYTES:
        limit = math.isqrt(_DENSE_BYTES // 8)
        raise argparse.ArgumentTypeError(
            f"order {value} needs {8 * value * value} bytes per dense n x n array, "
            f"over the {_DENSE_BYTES}-byte budget (largest order {limit})"
        )
    return value


def _fraction(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _emit(text: str, out_path):
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# --- signal sources ----------------------------------------------------------


def fig2_signal(n: int = 64) -> np.ndarray:
    """cos(90 pi x) (x - 1/2)^2 sampled at x_i = i/n."""
    x = np.arange(n) / n
    return np.cos(90.0 * np.pi * x) * (x - 0.5) ** 2


def _read_signal(source: str, n) -> np.ndarray:
    if source == "builtin:fig2":
        if n not in (None, 64):
            raise _ParseFailure("builtin:fig2 is a 64-sample signal; drop --n or use 64")
        return fig2_signal(64)
    try:
        tokens = Path(source).read_text().split()
        v = np.array([float(t) for t in tokens])
    except OSError as e:
        raise _ParseFailure(f"cannot read signal file: {e}") from None
    except ValueError as e:
        raise _ParseFailure(f"signal file is not numeric: {e}") from None
    if len(v) == 0:
        raise _ParseFailure("signal file is empty")
    if n is not None and len(v) != n:
        raise _ParseFailure(f"--n {n} does not match signal length {len(v)}")
    return v


# --- subcommand handlers -----------------------------------------------------


def _cmd_gen_matrix(args) -> int:
    if args.pretty and (args.dht or args.scaled):
        raise _ParseFailure("--pretty applies to the plain ternary matrix only")
    if args.dht:
        norm = Normalization.SYMMETRIC if args.scaled else Normalization.UNSCALED
        m = build_dht_matrix(args.n, norm)
        rows = (" ".join(_fmt(v) for v in row) for row in m)
    elif args.scaled:
        m = build_rht_matrix(args.n).entries / math.sqrt(args.n)
        rows = (" ".join(_fmt(v) for v in row) for row in m)
    else:
        e = build_rht_matrix(args.n).entries
        if args.pretty:
            glyph = {-1: "-", 0: " ", 1: "1"}
            rows = (" ".join(glyph[int(v)] for v in row).rstrip() for row in e)
        else:
            rows = (" ".join(str(int(v)) for v in row) for row in e)
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def _cmd_spectrum(args) -> int:
    v = _read_signal(args.signal, args.n)
    _within_dense_budget(len(v))  # before either n x n matrix is built
    t = rounded_transform(len(v), Normalization.UNSCALED)
    rht_coeffs = apply_direct(t, v).coefficients
    lines = []
    if args.dht:
        dht_coeffs = apply_dht(build_dht_matrix(len(v)), v).coefficients
        lines.append("k,rht,dht")
        for k in range(len(v)):
            lines.append(f"{k},{_fmt(rht_coeffs[k])},{_fmt(dht_coeffs[k])}")
    else:
        lines.append("k,rht")
        for k in range(len(v)):
            lines.append(f"{k},{_fmt(rht_coeffs[k])}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _scan_orders(args):
    if args.from_ > args.to:
        raise _ParseFailure(f"--from {args.from_} exceeds --to {args.to}")
    return range(args.from_, args.to + 1, args.stride)


def _cmd_norm_curve(args) -> int:
    orders = _scan_orders(args)
    points = []
    for i, n in enumerate(orders):
        points.append((n, analysis._mu_from_q(analysis.residual_square_sum(n), n)))
        if len(orders) > 128 and i % 64 == 63:
            print(f"norm-curve: {i + 1}/{len(orders)} orders done", file=sys.stderr)
    curve = analysis.NormCurve(tuple(points))
    lines = ["n,mu"] + [f"{n},{_fmt(mu)}" for n, mu in curve.points]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _read_curve_csv(path) -> analysis.NormCurve:
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as e:
        raise _ParseFailure(f"cannot read curve file: {e}") from None
    if not lines or lines[0].strip() != "n,mu":
        raise _ParseFailure("curve file must start with the header 'n,mu'")
    points = []
    for ln in lines[1:]:
        if not ln.strip():
            continue
        try:
            n_text, mu_text = ln.split(",")
            points.append((int(n_text), float(mu_text)))
        except ValueError:
            raise _ParseFailure(f"bad curve row: {ln!r}") from None
    return analysis.NormCurve(tuple(points))


def _cmd_fit(args) -> int:
    if args.infile:
        curve = _read_curve_csv(args.infile)
    else:
        curve = analysis.norm_curve(args.from_, args.to, args.stride)
    try:
        fit = analysis.freundlich_fit(curve)
    except ValueError as e:
        raise _ParseFailure(str(e)) from None
    excluded = ",".join(str(n) for n in fit.excluded)
    text = (
        f"a={_fmt(fit.a)}\nb={_fmt(fit.b)}\nresidual={_fmt(fit.residual)}\n"
        f"points={len(curve.points)}\nexcluded={excluded}\n"
    )
    _emit(text, args.out)
    return 0


def _cmd_quasi_period(args) -> int:
    orders = _scan_orders(args)
    report = analysis.quasi_period_check(orders, args.k, args.eps)
    lines = ["n,ok"] + [f"{n},{'pass' if ok else 'fail'}" for n, ok in report.results]
    lines.append(f"max_mu={_fmt(report.max_mu)}")
    lines.append(f"max_mu_n={report.max_mu_order}")
    _emit("\n".join(lines) + "\n", args.out)
    if not report.all_pass:
        raise _CheckFailure(f"quasi-period violated at k={args.k}, eps={args.eps}")
    return 0


def _describe_permutation(perm: analysis.ColumnPermutation) -> str:
    moved = [k for k, c in enumerate(perm.mapping) if k != c]
    if not moved:
        return "identity permutation (no columns moved)"
    if len(moved) == 2:
        a, b = moved
        return f"columns {a + 1} and {b + 1} transposed (1-indexed)"
    return f"permutation displacing {len(moved)} columns"


def _cmd_hadamard(args) -> int:
    perm = analysis.hadamard_permutation(args.n)
    if perm is None:
        print(f"no column permutation matches any Hadamard ordering at n={args.n}")
        raise _CheckFailure("hadamard: no match")
    mapping = ",".join(str(c) for c in perm.mapping)
    text = (
        f"{_describe_permutation(perm)}\n"
        f"ordering={perm.ordering}\ndisplaced={perm.displaced}\nmapping={mapping}\n"
    )
    _emit(text, args.out)
    return 0


def _cmd_pattern(args) -> int:
    if args.squared:
        hs = build_rht_matrix(args.n).entries / math.sqrt(args.n)
        img = analysis.intensity_diagram(
            hs @ hs, mode="magnitude", omit_diagonal=args.omit_diagonal
        )
    else:
        img = analysis.intensity_diagram(
            build_rht_matrix(args.n).entries, mode="value"
        )
    image_io.save_pgm(img, args.out, quantize=True)
    return 0


def _cmd_image2d(args) -> int:
    in_path = Path(args.infile)
    if not in_path.exists() and "RHT_IMAGE_DIR" in os.environ:
        in_path = Path(os.environ["RHT_IMAGE_DIR"]) / args.infile
    try:
        image = image_io.load_gray(in_path)
    except OSError as e:
        raise _ParseFailure(f"cannot read image: {e}") from None
    except ValueError as e:
        raise _ParseFailure(str(e)) from None
    _within_dense_budget(image.order)  # before the n x n sandwich is built
    print(f"image2d: {in_path} is {image.order}x{image.order}", file=sys.stderr)
    report = roundtrip_report(image)
    if args.coeffs:
        image_io.save_pgm(report.coefficients.values, args.coeffs, quantize=False)
    if args.outfile:
        image_io.save_pgm(report.recovered, args.outfile, quantize=True)
    label = "exact" if math.isinf(report.psnr_db) else f"{report.psnr_db:.4f}"
    print(f"PSNR_dB={label}")
    return 0


def _cmd_fast_bench(args) -> int:
    p = plan(args.n)
    dense = build_rht_matrix(args.n).entries.astype(np.int64)
    rng = np.random.default_rng(args.seed)
    additions = None
    exact = True
    for _ in range(args.trials):
        v = rng.integers(-255, 256, size=args.n)
        spectrum, ops = fast_rht(p, v)
        if additions is None:
            additions = ops.additions
        if not np.array_equal(spectrum.coefficients, (dense @ v).astype(np.float64)):
            exact = False
        if ops.multiplications != 0:
            exact = False
    print(f"n={args.n}")
    print(f"trials={args.trials}")
    print(f"additions={additions}")
    print("multiplications=0")
    print(f"model_additions={count_model(args.n).additions}")
    print(f"oracle-check {'EXACT' if exact else 'MISMATCH'}")
    if not exact:
        raise _CheckFailure("fast transform disagreed with the dense product")
    return 0


# --- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rht",
        description="Rounded Hartley transform toolkit: matrices, norm curves, "
        "Hadamard matching, 2-D image round trips, and the fast algorithm.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", default=None, help="write output here instead of stdout")

    p = sub.add_parser("gen-matrix", help="print the ternary (or DHT) matrix")
    p.add_argument("--n", type=_dense_order, required=True)
    p.add_argument("--scaled", action="store_true", help="apply the 1/sqrt(n) scale")
    p.add_argument("--dht", action="store_true", help="the unrounded cas matrix")
    p.add_argument("--pretty", action="store_true", help="blank/-/1 glyph rendering")
    add_out(p)
    p.set_defaults(run=_cmd_gen_matrix)

    p = sub.add_parser("spectrum", help="transform a signal, CSV of coefficients")
    p.add_argument("--n", type=_positive_int, default=None)
    p.add_argument("--signal", required=True, help="numeric file or builtin:fig2")
    p.add_argument("--dht", action="store_true", help="add a DHT column")
    add_out(p)
    p.set_defaults(run=_cmd_spectrum)

    def add_range(p, lo_default):
        p.add_argument("--from", dest="from_", type=_positive_int, default=lo_default)
        p.add_argument("--to", type=_positive_int, required=True)
        p.add_argument("--stride", type=_positive_int, default=1)

    p = sub.add_parser("norm-curve", help="mu(H_s^2 - I) over a range of orders")
    add_range(p, 2)
    add_out(p)
    p.set_defaults(run=_cmd_norm_curve)

    p = sub.add_parser("fit", help="Freundlich power-law fit of a norm curve")
    p.add_argument("--from", dest="from_", type=_positive_int, default=2)
    p.add_argument("--to", type=_positive_int, default=1024)
    p.add_argument("--stride", type=_positive_int, default=1)
    p.add_argument("--in", dest="infile", default=None, help="fit a saved n,mu CSV")
    add_out(p)
    p.set_defaults(run=_cmd_fit)

    p = sub.add_parser("quasi-period", help="check mu(H_s^k - I) <= eps over orders")
    add_range(p, 2)
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--eps", type=_fraction, required=True, help="rational like 2/9")
    add_out(p)
    p.set_defaults(run=_cmd_quasi_period)

    p = sub.add_parser("hadamard", help="match columns onto a Hadamard matrix")
    p.add_argument("--n", type=_dense_order, required=True)
    add_out(p)
    p.set_defaults(run=_cmd_hadamard)

    p = sub.add_parser("pattern", help="intensity diagram of the matrix as PGM")
    p.add_argument("--n", type=_dense_order, required=True)
    p.add_argument("--squared", action="store_true", help="render H_s^2 by magnitude")
    p.add_argument("--omit-diagonal", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_pattern)

    p = sub.add_parser("image2d", help="2-D round trip of an image, PSNR report")
    p.add_argument("--in", dest="infile", required=True, help="PGM or 8-bit BMP")
    p.add_argument("--out", dest="outfile", default=None, help="save recovered image")
    p.add_argument("--coeffs", default=None, help="save coefficient grid (rescaled)")
    p.set_defaults(run=_cmd_image2d)

    p = sub.add_parser("fast-bench", help="fast transform op counts + oracle check")
    p.add_argument("--n", type=_dense_order, required=True)
    p.add_argument("--trials", type=_positive_int, default=5)
    p.add_argument("--seed", type=int, default=20260814)
    p.set_defaults(run=_cmd_fast_bench)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except argparse.ArgumentTypeError as e:  # an input known only after parsing
        print(f"rht: {e}", file=sys.stderr)
        return USAGE_ERROR
    except _ParseFailure as e:
        print(f"rht: {e}", file=sys.stderr)
        return PARSE_ERROR
    except _CheckFailure as e:
        print(f"rht: {e}", file=sys.stderr)
        return CHECK_FAILED
    except ValueError as e:
        print(f"rht: {e}", file=sys.stderr)
        return PARSE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
