"""Acceptance gate: every headline claim of the toolkit, with tolerances.

The error-norm curve is evaluated in exact integer arithmetic over all
orders 2..1024 once per run (1.8 s on a 2-core x86-64 host) and shared by
the bound, peak, and fit tests.  The exact-inverse sweep to order 256 adds
9 s there; the whole default suite takes 52-62 s.
The `slow` marker extends that sweep to 1024 (1309 s there with a peak RSS
of 157 MB, one run; single orders take 0.09 s at 300, 2.2 s at 903 and
2.5 s at 1024) and the 2/9 bound to every 32nd order in 1025..4096 (2.1 s);
it is excluded by default via the pytest configuration and selected with
`pytest -m slow`.

Reference images: set RHT_IMAGE_DIR to a directory containing the
USC-SIPI pictures (5.1.09, 5.1.11, 5.2.09, 7.1.08, 7.1.09) converted to
8-bit PGM or BMP; the round-trip PSNR tests skip with a notice when the
variable is unset.
"""

import math
import os
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import rht
from oracles import brute_force_dft, matlab_twodrht

TWO_NINTHS_SQ = Fraction(2, 9) ** 2


@pytest.fixture(scope="module")
def q_curve():
    """order -> integer residual q with mu^2 = q / n^4, for n = 2..1024."""
    return {n: rht.residual_square_sum(n) for n in range(2, 1025)}


def test_error_norm_peaks_at_order_three_with_value_two_ninths(q_curve):
    assert Fraction(q_curve[3], 3**4) == TWO_NINTHS_SQ
    for n, q in q_curve.items():
        if n != 3:
            assert Fraction(q, n**4) < TWO_NINTHS_SQ


def test_error_norm_bounded_by_two_ninths_for_all_orders(q_curve):
    # mu^2 <= (2/9)^2 as integers: 81*q <= 4*n^4
    for n, q in q_curve.items():
        assert 81 * q <= 4 * n**4, f"bound violated at n={n}"


def test_power_law_fit_over_full_curve_lands_in_brackets(q_curve):
    points = tuple((n, math.sqrt(q) / n**2) for n, q in sorted(q_curve.items()))
    fit = rht.freundlich_fit(rht.NormCurve(points))
    assert 0.32 <= fit.a <= 0.38, fit
    assert -0.53 <= fit.b <= -0.46, fit
    assert fit.excluded == (2, 4)


def test_roundtrip_is_exact_only_at_the_degenerate_orders():
    for n in (1, 2, 4):
        assert rht.exact_mu_squared(n) == 0
    # order three fails concretely: the error on the second basis vector
    e = rht.build_rht_matrix(3).entries.astype(object)
    col = (e @ e)[:, 1]
    err = [Fraction(int(c), 3) - int(i == 1) for i, c in enumerate(col)]
    assert err == [Fraction(0), Fraction(-1, 3), Fraction(1, 3)]


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256, 512])
def test_fast_transform_is_exact_and_multiplication_free(n):
    p = rht.plan(n)
    dense = rht.build_rht_matrix(n).entries.astype(np.int64)
    rng = np.random.default_rng(1000 + n)
    for _ in range(100):
        v = rng.integers(-1000, 1001, n)
        spec, ops = rht.fast_rht(p, v)
        assert ops.multiplications == 0
        assert np.array_equal(spec.coefficients, (dense @ v).astype(np.float64))


@pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 512])
def test_half_order_transform_embeds_in_even_outputs(n):
    rng = np.random.default_rng(2000 + n)
    lower = rng.integers(-999, 1000, n // 2)
    padded = np.concatenate([lower, np.zeros(n // 2, dtype=lower.dtype)])
    spec, _ = rht.fast_rht(rht.plan(n), padded)
    sub = rht.build_rht_matrix(n // 2).entries.astype(np.int64) @ lower
    assert np.array_equal(spec.coefficients[0::2], sub.astype(np.float64))


def test_column_matching_at_order_eight_is_the_known_transposition():
    perm = rht.hadamard_permutation(8)
    assert perm is not None
    # 1-indexed: columns 4 and 8 swap; everything else stays put
    assert perm.mapping == (0, 1, 2, 7, 4, 5, 6, 3)
    assert perm.displaced == 2


@pytest.mark.parametrize("n", [16, 32, 64])
def test_column_matching_at_larger_orders_is_reported_either_way(n):
    perm = rht.hadamard_permutation(n)
    if perm is None:
        warnings.warn(f"no Hadamard column matching exists at n={n}: "
                      "counterexample to the correspondence conjecture")
        return
    r = rht.build_rht_matrix(n).entries
    w = rht.walsh_matrix(n, perm.ordering)
    for k, c in enumerate(perm.mapping):
        nz = r[:, c] != 0
        assert np.array_equal(r[nz, c], w[nz, k])


REFERENCE_PSNR = [
    ("5.1.09", 256, 26.5522),  # moon surface
    ("5.1.11", 256, 25.7277),  # airplane
    ("5.2.09", 512, 22.2006),  # aerial
    ("7.1.08", 512, 27.3035),  # APC
    ("7.1.09", 512, 24.4590),  # tank
]


def _reference_image(name: str):
    root = os.environ.get("RHT_IMAGE_DIR")
    if not root:
        pytest.skip("RHT_IMAGE_DIR is not set; place the USC-SIPI images "
                    "there as PGM/BMP to enable the PSNR reproduction tests")
    for ext in (".pgm", ".bmp"):
        path = Path(root) / f"{name}{ext}"
        if path.exists():
            return rht.load_gray(path)
    pytest.skip(f"{name}.pgm/.bmp not found under RHT_IMAGE_DIR")


@pytest.mark.parametrize("name,size,expected_db", REFERENCE_PSNR,
                         ids=[r[0] for r in REFERENCE_PSNR])
def test_reference_image_roundtrip_psnr(name, size, expected_db):
    image = _reference_image(name)
    assert image.order == size, f"{name} should be {size}x{size}"
    report = rht.roundtrip_report(image)
    assert report.psnr_db == pytest.approx(expected_db, abs=0.05)


@pytest.mark.parametrize("n", [3, 4, 8, 16, 32, 64])
def test_two_dimensional_pipeline_matches_reference_listing(n):
    rng = np.random.default_rng(3000 + n)
    a = rng.integers(0, 256, (n, n)).astype(np.float64)
    b_want, aa_want, _ = matlab_twodrht(a)
    b_got = rht.forward_2d(a)
    assert np.abs(b_got.values - b_want).max() <= 1e-9
    aa_got = rht.weak_inverse_2d(b_got)
    assert np.abs(aa_got.pixels - aa_want).max() <= 1e-9


def _spot_check_inverse(n: int, inv) -> None:
    # three random columns of H * inv, in unbounded integers
    h = rht.build_rht_matrix(n).entries.astype(object)
    rng = np.random.default_rng(n)
    for k in map(int, rng.integers(0, n, 3)):
        col = h @ inv.numerators[:, k]
        want = np.zeros(n, dtype=object)
        want[k] = inv.denominator
        assert np.array_equal(col, want), f"inverse fails at n={n}, column {k}"


def test_exact_inverse_exists_for_every_order_up_to_256():
    for n in range(2, 257):
        inv = rht.exact_inverse(n)
        assert inv.denominator >= 1
        _spot_check_inverse(n, inv)


@pytest.mark.slow
def test_error_norm_bounded_by_two_ninths_at_every_32nd_order_to_4096():
    # past the paper's range: mu^2 <= (2/9)^2 as integers, 81*q <= 4*n^4
    for n in range(1025, 4097, 32):
        q = rht.residual_square_sum(n)
        assert 81 * q <= 4 * n**4, f"bound violated at n={n}"


@pytest.mark.slow
def test_exact_inverse_exists_for_every_order_up_to_1024():
    for n in range(257, 1025):
        inv = rht.exact_inverse(n)
        assert inv.denominator >= 1
        _spot_check_inverse(n, inv)


def test_rounded_spectrum_tracks_exact_spectrum_on_reference_signal():
    from rht.cli import fig2_signal

    v = fig2_signal()
    rounded = rht.build_rht_matrix(64).entries.astype(np.float64) @ v
    exact = rht.build_dht_matrix(64) @ v
    r = np.corrcoef(rounded, exact)[0, 1]
    # measured 0.953503 on this implementation; the gate pins 0.95
    assert r >= 0.95


@pytest.mark.parametrize("n", list(range(2, 65)))
def test_fourier_estimate_from_exact_spectrum_equals_dft(n):
    rng = np.random.default_rng(4000 + n)
    v = rng.normal(size=n)
    spec = rht.apply_dht(rht.build_dht_matrix(n), v)
    got = rht.fourier_estimate(spec)
    want = brute_force_dft(v)
    scale = max(1.0, float(np.abs(want).max()))
    assert np.abs(got - want).max() <= 1e-9 * scale
