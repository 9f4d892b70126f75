import argparse
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rht
from rht.cli import _dense_order


def run_cli(*args, **kw) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "rht", *args]
    return subprocess.run(cmd, capture_output=True, text=True, **kw)


def test_help_exits_clean():
    cp = run_cli("--help")
    assert cp.returncode == 0
    assert "subcommand" in cp.stdout or "usage" in cp.stdout


def test_import_leaves_scipy_unloaded():
    code = "import sys, rht; print('scipy' in sys.modules)"
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert cp.stdout == "False\n", cp.stderr


def test_hadamard_runs_without_scipy():
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from rht.cli import main; raise SystemExit(main(['hadamard', '--n', '8']))"
    )
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == (
        "columns 4 and 8 transposed (1-indexed)\n"
        "ordering=dyadic\n"
        "displaced=2\n"
        "mapping=0,1,2,7,4,5,6,3\n"
    )


def test_public_names_are_unchanged():
    assert sorted(rht.__all__) == [
        "CoefficientGrid", "ColumnPermutation", "FastPlan", "FreundlichFit",
        "GrayImage", "NormCurve", "Normalization", "NotInvertible", "OpCount",
        "QuasiPeriodReport", "RasterFormatError", "RationalMatrix", "RoundTrip",
        "ScaledTransform", "Spectrum", "TernaryMatrix", "__version__",
        "apply_dht", "apply_direct", "build_dht_matrix", "build_rht_matrix", "cas",
        "count_model", "exact_inverse", "exact_inverse_2d", "exact_mu_squared",
        "fast_rht", "forward_2d", "fourier_estimate", "freundlich_fit",
        "hadamard_permutation", "intensity_diagram", "invert_integer_matrix",
        "load_gray", "n_norm", "norm_curve", "plan", "psnr", "quasi_period_check",
        "reconstruction_error", "residual_square_sum", "rounded_transform",
        "roundtrip_report", "save_pgm", "walsh_matrix", "weak_inverse_2d",
        "weak_inverse_apply",
    ]
    assert all(hasattr(rht, name) for name in rht.__all__)


def test_unknown_subcommand_is_usage_error():
    assert run_cli("frobnicate").returncode == 2


def test_missing_required_flag_is_usage_error():
    assert run_cli("gen-matrix").returncode == 2


@pytest.mark.parametrize("command", ["gen-matrix", "pattern", "hadamard", "fast-bench"])
def test_order_past_dense_budget_exits_two_before_allocating(command, tmp_path):
    extra = ["--out", str(tmp_path / "p.pgm")] if command == "pattern" else []
    cp = run_cli(command, "--n", str(10**6), *extra)
    assert cp.returncode == 2
    assert "budget" in cp.stderr and "Traceback" not in cp.stderr


def test_spectrum_of_signal_past_dense_budget_exits_two_before_allocating(tmp_path):
    sig = tmp_path / "long.txt"
    sig.write_text("0.5\n" * 10**6)
    cp = run_cli("spectrum", "--signal", str(sig), "--dht")
    assert cp.returncode == 2
    assert "budget" in cp.stderr and "Traceback" not in cp.stderr


def test_dense_budget_boundary():
    assert _dense_order("11585") == 11585  # 8 * 11585**2 <= 2**30
    with pytest.raises(argparse.ArgumentTypeError):
        _dense_order("11586")


class TestGenMatrix:
    def test_order_two(self):
        cp = run_cli("gen-matrix", "--n", "2")
        assert cp.returncode == 0
        assert cp.stdout == "1 1\n1 -1\n"

    def test_order_three(self):
        cp = run_cli("gen-matrix", "--n", "3")
        assert cp.stdout == "1 1 1\n1 0 -1\n1 -1 0\n"

    def test_pretty_sixteen_uses_published_glyphs(self):
        cp = run_cli("gen-matrix", "--n", "16", "--pretty")
        lines = cp.stdout.splitlines()
        assert len(lines) == 16
        assert lines[0] == "1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1"
        assert lines[1] == "1 1 1 1 1 1   - - - - - - -   1"
        assert lines[8] == "1 - 1 - 1 - 1 - 1 - 1 - 1 - 1 -"
        assert set("".join(lines)) <= {"1", "-", " "}

    def test_scaled_output(self):
        cp = run_cli("gen-matrix", "--n", "4", "--scaled")
        first = [float(x) for x in cp.stdout.splitlines()[0].split()]
        assert first == [0.5, 0.5, 0.5, 0.5]

    def test_dht_output(self):
        cp = run_cli("gen-matrix", "--n", "4", "--dht")
        row1 = [float(x) for x in cp.stdout.splitlines()[1].split()]
        assert row1 == pytest.approx([1.0, 1.0, -1.0, -1.0])

    def test_pretty_with_dht_rejected(self):
        assert run_cli("gen-matrix", "--n", "4", "--dht", "--pretty").returncode == 3

    def test_out_file(self, tmp_path):
        out = tmp_path / "m.txt"
        cp = run_cli("gen-matrix", "--n", "2", "--out", str(out))
        assert cp.returncode == 0 and cp.stdout == ""
        assert out.read_text() == "1 1\n1 -1\n"


class TestSpectrum:
    def test_impulse_gives_all_ones(self, tmp_path):
        sig = tmp_path / "s.txt"
        sig.write_text("1 0 0 0\n")
        cp = run_cli("spectrum", "--n", "4", "--signal", str(sig))
        rows = cp.stdout.splitlines()
        assert rows[0] == "k,rht"
        assert [r.split(",")[1] for r in rows[1:]] == ["1"] * 4

    def test_builtin_signal_with_dht_column(self):
        cp = run_cli("spectrum", "--signal", "builtin:fig2", "--dht")
        rows = cp.stdout.splitlines()
        assert rows[0] == "k,rht,dht"
        assert len(rows) == 65
        k0 = rows[1].split(",")
        assert k0[1] == k0[2]  # row 0 of both matrices is all ones

    def test_length_mismatch_is_parse_error(self, tmp_path):
        sig = tmp_path / "s.txt"
        sig.write_text("1 2 3\n")
        assert run_cli("spectrum", "--n", "4", "--signal", str(sig)).returncode == 3

    def test_non_numeric_signal_is_parse_error(self, tmp_path):
        sig = tmp_path / "s.txt"
        sig.write_text("1 two 3 4\n")
        assert run_cli("spectrum", "--n", "4", "--signal", str(sig)).returncode == 3

    def test_missing_signal_file(self):
        assert run_cli("spectrum", "--signal", "/no/such/file").returncode == 3


class TestNormCurveAndFit:
    def test_small_curve_rows(self):
        cp = run_cli("norm-curve", "--from", "2", "--to", "4")
        assert cp.stdout == "n,mu\n2,0\n3,0.222222222222\n4,0\n"

    def test_deterministic_bytes(self):
        a = run_cli("norm-curve", "--from", "2", "--to", "16")
        b = run_cli("norm-curve", "--from", "2", "--to", "16")
        assert a.stdout == b.stdout

    def test_backwards_range_rejected(self):
        assert run_cli("norm-curve", "--from", "9", "--to", "4").returncode == 3

    def test_fit_from_saved_curve(self, tmp_path):
        rows = ["n,mu"] + [f"{n},{0.35 * n ** -0.5:.12g}" for n in range(2, 40)]
        f = tmp_path / "c.csv"
        f.write_text("\n".join(rows) + "\n")
        cp = run_cli("fit", "--in", str(f))
        assert cp.returncode == 0
        kv = dict(line.split("=") for line in cp.stdout.splitlines())
        assert float(kv["a"]) == pytest.approx(0.35, abs=1e-6)
        assert float(kv["b"]) == pytest.approx(-0.5, abs=1e-6)

    def test_fit_over_computed_range(self):
        cp = run_cli("fit", "--from", "2", "--to", "64")
        kv = dict(line.split("=") for line in cp.stdout.splitlines())
        assert float(kv["b"]) < 0
        assert kv["excluded"] == "2,4"

    def test_fit_with_too_few_points_is_parse_error(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("n,mu\n2,0\n4,0\n5,0.1\n")
        assert run_cli("fit", "--in", str(f)).returncode == 3

    def test_fit_rejects_malformed_curve(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("order;mu\n2;0\n")
        assert run_cli("fit", "--in", str(f)).returncode == 3


class TestQuasiPeriod:
    def test_squared_bound_passes(self):
        cp = run_cli("quasi-period", "--k", "2", "--eps", "2/9", "--to", "16")
        assert cp.returncode == 0
        rows = cp.stdout.splitlines()
        assert rows[0] == "n,ok"
        assert all(r.endswith(",pass") for r in rows[1:16])
        assert "max_mu=0.222222222222" in cp.stdout
        assert "max_mu_n=3" in cp.stdout

    def test_violation_exits_with_check_code(self):
        cp = run_cli("quasi-period", "--k", "1", "--eps", "2/9", "--to", "8")
        assert cp.returncode == 4
        assert "8,fail" in cp.stdout

    def test_bad_epsilon_is_usage_error(self):
        assert run_cli("quasi-period", "--k", "2", "--eps", "nope", "--to", "8").returncode == 2


class TestHadamard:
    def test_order_eight_sentence(self):
        cp = run_cli("hadamard", "--n", "8")
        assert cp.returncode == 0
        assert cp.stdout.splitlines()[0] == "columns 4 and 8 transposed (1-indexed)"

    def test_order_two_identity(self):
        cp = run_cli("hadamard", "--n", "2")
        assert "identity permutation" in cp.stdout

    def test_no_match_is_failed_check(self):
        cp = run_cli("hadamard", "--n", "16")
        assert cp.returncode == 4


class TestPattern:
    def test_value_diagram_roundtrip(self, tmp_path):
        out = tmp_path / "p.pgm"
        cp = run_cli("pattern", "--n", "16", "--out", str(out))
        assert cp.returncode == 0
        img = rht.load_gray(out)
        assert img.order == 16
        assert set(np.unique(img.pixels)) == {0.0, 128.0, 255.0}

    def test_squared_magnitude_diagram(self, tmp_path):
        out = tmp_path / "p.pgm"
        cp = run_cli("pattern", "--n", "32", "--squared", "--omit-diagonal", "--out", str(out))
        assert cp.returncode == 0
        img = rht.load_gray(out)
        assert (np.diag(img.pixels) == 255).all()


class TestImage2d:
    def write_pgm(self, path: Path, pixels):
        arr = np.asarray(pixels, dtype=np.uint8)
        head = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode()
        path.write_bytes(head + arr.tobytes())

    def test_involution_order_reports_exact(self, tmp_path):
        img = tmp_path / "a.pgm"
        self.write_pgm(img, np.arange(16).reshape(4, 4))
        cp = run_cli("image2d", "--in", str(img))
        assert cp.returncode == 0
        assert cp.stdout.strip() == "PSNR_dB=exact"

    def test_psnr_line_format_and_outputs(self, tmp_path):
        rng = np.random.default_rng(0)
        img = tmp_path / "a.pgm"
        self.write_pgm(img, rng.integers(0, 256, (8, 8)))
        out = tmp_path / "back.pgm"
        coeffs = tmp_path / "c.pgm"
        cp = run_cli("image2d", "--in", str(img), "--out", str(out), "--coeffs", str(coeffs))
        assert cp.returncode == 0
        line = cp.stdout.strip()
        assert line.startswith("PSNR_dB=")
        value = float(line.split("=")[1])
        assert len(line.split("=")[1].split(".")[1]) == 4  # four decimals
        rep = rht.roundtrip_report(rht.load_gray(img))
        assert value == pytest.approx(rep.psnr_db, abs=5e-5)
        assert rht.load_gray(out).order == 8
        assert rht.load_gray(coeffs).order == 8

    def test_missing_file_is_parse_error(self):
        assert run_cli("image2d", "--in", "/no/such.pgm").returncode == 3

    def test_corrupt_file_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n2 2\n9999\n")
        cp = run_cli("image2d", "--in", str(bad))
        assert cp.returncode == 3
        assert "maxval" in cp.stderr

    def test_image_dir_env_fallback(self, tmp_path):
        import os

        self.write_pgm(tmp_path / "x.pgm", np.arange(16).reshape(4, 4))
        env = dict(os.environ, RHT_IMAGE_DIR=str(tmp_path))
        cp = run_cli("image2d", "--in", "x.pgm", env=env)
        assert cp.returncode == 0

    def test_image_past_dense_budget_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(rht.cli, "_DENSE_BYTES", 8 * 63**2)
        img = tmp_path / "a.pgm"
        self.write_pgm(img, np.zeros((64, 64)))
        out = tmp_path / "back.pgm"
        assert rht.cli.main(["image2d", "--in", str(img), "--out", str(out)]) == 2
        assert "budget" in capsys.readouterr().err
        assert not out.exists()


class TestFastBench:
    def test_report_lines(self):
        cp = run_cli("fast-bench", "--n", "16")
        assert cp.returncode == 0
        assert "additions=88" in cp.stdout
        assert "multiplications=0" in cp.stdout
        assert "model_additions=88" in cp.stdout
        assert "oracle-check EXACT" in cp.stdout

    def test_deterministic_output(self):
        a = run_cli("fast-bench", "--n", "32", "--trials", "3")
        b = run_cli("fast-bench", "--n", "32", "--trials", "3")
        assert a.stdout == b.stdout

    def test_non_power_of_two_rejected(self):
        assert run_cli("fast-bench", "--n", "12").returncode == 3
