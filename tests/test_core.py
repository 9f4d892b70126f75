import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import rht.core as core
from rht import (
    Normalization,
    ScaledTransform,
    Spectrum,
    TernaryMatrix,
    apply_dht,
    apply_direct,
    build_dht_matrix,
    build_rht_matrix,
    cas,
    fourier_estimate,
    reconstruction_error,
    rounded_transform,
    weak_inverse_apply,
)
from oracles import brute_force_dft

# The published 16-point matrix, glyphs as printed: blank 0, "-" is -1.
H16_GLYPHS = [
    "1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1",
    "1 1 1 1 1 1   - - - - - - -   1",
    "1 1 1   - - -   1 1 1   - - -  ",
    "1 1   - - 1 1 1 - -   1 1 - - -",
    "1 1 - - 1 1 - - 1 1 - - 1 1 - -",
    "1 1 - 1 1 -   1 - - 1 - - 1   -",
    "1   - 1 -   1 - 1   - 1 -   1 -",
    "1 -   1 - 1 - 1 - 1   - 1 - 1 -",
    "1 - 1 - 1 - 1 - 1 - 1 - 1 - 1 -",
    "1 - 1 - 1 -   1 - 1 - 1 - 1   -",
    "1 - 1   - 1 -   1 - 1   - 1 -  ",
    "1 -   1 - - 1 - - 1   - 1 1 - 1",
    "1 - - 1 1 - - 1 1 - - 1 1 - - 1",
    "1 - - - 1 1   - - 1 1 1 - -   1",
    "1   - - -   1 1 1   - - -   1 1",
    "1 1   - - - - - - -   1 1 1 1 1",
]


def glyphs_to_matrix(lines):
    value = {"1": 1, "-": -1, " ": 0}
    return np.array([[value[line[2 * k] if 2 * k < len(line) else " "]
                      for k in range(16)] for line in lines])


def direct_rounding(n):
    # independent of the package's lookup-table construction
    out = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for k in range(n):
            x = math.cos(2 * math.pi * i * k / n) + math.sin(2 * math.pi * i * k / n)
            out[i, k] = int(math.copysign(math.floor(abs(x) + 0.5), x)) if x else 0
    return out


def test_cas_kernel_values():
    assert cas(0.0) == pytest.approx(1.0)
    assert cas(np.pi / 4) == pytest.approx(math.sqrt(2))
    assert cas(np.pi) == pytest.approx(-1.0)
    np.testing.assert_allclose(cas(np.array([0.0, np.pi])), [1.0, -1.0], atol=1e-15)


def test_order_two_and_three_matrices():
    assert build_rht_matrix(2).entries.tolist() == [[1, 1], [1, -1]]
    assert build_rht_matrix(3).entries.tolist() == [[1, 1, 1], [1, 0, -1], [1, -1, 0]]


def test_sixteen_point_matrix_matches_published_figure():
    assert np.array_equal(build_rht_matrix(16).entries, glyphs_to_matrix(H16_GLYPHS))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 16, 31, 64, 65, 100, 130, 257])
def test_matrix_equals_direct_entrywise_rounding(n):
    assert np.array_equal(build_rht_matrix(n).entries, direct_rounding(n))


@pytest.mark.parametrize("n", list(range(1, 33)) + [64, 128, 257])
def test_matrix_is_ternary_symmetric_with_unit_borders(n):
    m = build_rht_matrix(n)
    e = m.entries
    assert set(np.unique(e)) <= {-1, 0, 1}
    assert np.array_equal(e, e.T)
    assert (e[0] == 1).all() and (e[:, 0] == 1).all()


@pytest.mark.parametrize("bad", [2, -2, 0.5, np.nan])
def test_ternary_matrix_rejects_entries_outside_minus_one_zero_one(bad):
    e = build_rht_matrix(3).entries.astype(np.result_type(bad))
    e[1, 1] = bad  # on the diagonal, so the matrix stays symmetric
    with pytest.raises(ValueError):
        TernaryMatrix(3, e)


def test_ternary_matrix_requires_integer_dtype():
    with pytest.raises(ValueError, match="integer dtype"):
        TernaryMatrix(3, build_rht_matrix(3).entries.astype(np.float64))


@pytest.mark.parametrize("n", [64, 1024])
def test_ternary_matrix_rejects_asymmetry_at_power_of_two_order(n):
    e = np.array(build_rht_matrix(n).entries)
    e[1, 2] = 1 - abs(e[2, 1])  # differs from e[2, 1]; row 0 and column 0 stay ones
    with pytest.raises(ValueError, match="symmetric"):
        TernaryMatrix(n, e)


def test_dht_matrix_symmetric_scaling_is_orthogonal():
    for n in (2, 3, 8, 17, 32):
        hs = build_dht_matrix(n, Normalization.SYMMETRIC)
        np.testing.assert_allclose(hs @ hs, np.eye(n), atol=1e-12)


@pytest.mark.parametrize("n", [1, 7, 63, 64, 65, 130, 257])
def test_dht_matrix_equals_entrywise_cas(n):
    # the unreduced angle 2*pi*i*k/n carries an error near i*k*2**-50
    i = np.arange(n)
    want = np.array([[math.cos(2 * math.pi * a * b / n) + math.sin(2 * math.pi * a * b / n)
                      for b in i.tolist()] for a in i.tolist()])
    np.testing.assert_allclose(build_dht_matrix(n), want, rtol=0, atol=1e-11)
    np.testing.assert_array_equal(
        build_dht_matrix(n, Normalization.SYMMETRIC), build_dht_matrix(n) / math.sqrt(n)
    )


def test_dht_unscaled_square_is_n_identity():
    for n in (2, 5, 16):
        h = build_dht_matrix(n)
        np.testing.assert_allclose(h @ h, n * np.eye(n), atol=1e-10)


def test_bad_orders_rejected():
    for n in (0, -3):
        with pytest.raises(ValueError):
            build_rht_matrix(n)
        with pytest.raises(ValueError):
            build_dht_matrix(n)


def test_apply_direct_matches_dense_product():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 7, 16, 40):
        t = rounded_transform(n, Normalization.UNSCALED)
        v = rng.integers(-99, 100, n).astype(np.float64)
        got = apply_direct(t, v)
        want = build_rht_matrix(n).entries.astype(np.float64) @ v
        assert np.array_equal(got.coefficients, want)
        assert got.normalization is Normalization.UNSCALED


def test_apply_direct_symmetric_scales_once():
    v = np.array([4.0, 0.0, 0.0, 0.0])
    t = rounded_transform(4, Normalization.SYMMETRIC)
    s = apply_direct(t, v)
    np.testing.assert_allclose(s.coefficients, np.full(4, 2.0))


def test_signal_validation():
    t = rounded_transform(4, Normalization.UNSCALED)
    with pytest.raises(ValueError):
        apply_direct(t, [1.0, 2.0])
    with pytest.raises(ValueError):
        apply_direct(t, [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        apply_direct(t, [1.0, np.nan, 0.0, 0.0])


def test_weak_inverse_requires_symmetric_normalization():
    t_plain = rounded_transform(4, Normalization.UNSCALED)
    t_sym = rounded_transform(4, Normalization.SYMMETRIC)
    s_plain = apply_direct(t_plain, [1.0, 2.0, 3.0, 4.0])
    s_sym = apply_direct(t_sym, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        weak_inverse_apply(t_sym, s_plain)
    with pytest.raises(ValueError):
        weak_inverse_apply(t_plain, s_sym)
    back = weak_inverse_apply(t_sym, s_sym)
    np.testing.assert_allclose(back, [1.0, 2.0, 3.0, 4.0], atol=1e-12)


def test_weak_inverse_roundtrip_error_small_but_nonzero_at_eight():
    rng = np.random.default_rng(11)
    v = rng.normal(size=8)
    t = rounded_transform(8, Normalization.SYMMETRIC)
    back = weak_inverse_apply(t, apply_direct(t, v))
    err = np.abs(back - v).max()
    e = build_rht_matrix(8).entries.astype(np.float64)
    defect = np.linalg.norm(e @ e / 8.0 - np.eye(8))  # Frobenius bound
    assert 0 < err <= defect * np.linalg.norm(v)


def test_reconstruction_error_on_second_basis_vector_order_three():
    t = rounded_transform(3, Normalization.SYMMETRIC)
    err = reconstruction_error(t, [0.0, 1.0, 0.0])
    np.testing.assert_allclose(err, [0.0, -1 / 3, 1 / 3], atol=1e-15)
    # the same vector in exact rationals, straight from the integer square
    e = build_rht_matrix(3).entries.astype(object)
    col = (e @ e)[:, 1]
    exact = [Fraction(int(c), 3) - int(k == 1) for k, c in enumerate(col)]
    assert exact == [Fraction(0), Fraction(-1, 3), Fraction(1, 3)]


@settings(deadline=None, max_examples=25)
@given(data=st.data(), n=st.integers(1, 300))
def test_apply_direct_equals_dense_integer_product(data, n):
    v = data.draw(arrays(np.int64, n, elements=st.integers(-(2**31), 2**31)))
    t = rounded_transform(n, Normalization.UNSCALED)
    dense = (build_rht_matrix(n).entries @ v).astype(np.float64)
    assert np.array_equal(apply_direct(t, v).coefficients, dense)


@settings(deadline=None, max_examples=25)
@given(data=st.data(), n=st.integers(1, 300))
def test_reconstruction_error_equals_integer_square(data, n):
    # n**2 * 2**36 < 2**53 keeps every partial sum exact on both sides
    v = data.draw(arrays(np.int64, n, elements=st.integers(-(2**36), 2**36)))
    t = rounded_transform(n, Normalization.SYMMETRIC)
    e = build_rht_matrix(n).entries
    expected = ((e @ e) @ v).astype(np.float64) / n - v
    assert np.array_equal(reconstruction_error(t, v), expected)


def test_reconstruction_error_zero_at_involution_orders():
    rng = np.random.default_rng(3)
    for n in (1, 2, 4):
        t = rounded_transform(n, Normalization.SYMMETRIC)
        v = rng.integers(-50, 50, n).astype(np.float64)
        assert np.array_equal(reconstruction_error(t, v), np.zeros(n))


def test_spectrum_len_and_immutability():
    s = Spectrum(np.arange(4.0), Normalization.UNSCALED)
    assert len(s) == 4
    with pytest.raises((ValueError, AttributeError)):
        build_rht_matrix(3).entries[0, 0] = 5


def test_fourier_estimate_matches_brute_force_dft():
    rng = np.random.default_rng(17)
    for n in (2, 3, 8, 21, 64):
        v = rng.normal(size=n)
        dht_spec = apply_dht(build_dht_matrix(n), v)
        got = fourier_estimate(dht_spec)
        want = brute_force_dft(v)
        np.testing.assert_allclose(got, want, atol=1e-9 * max(1.0, np.abs(want).max()))


def test_fourier_estimate_of_real_even_signal_is_real():
    v = np.array([4.0, 1.0, 2.0, 1.0])  # even symmetry v[k] == v[n-k]
    f = fourier_estimate(apply_dht(build_dht_matrix(4), v))
    np.testing.assert_allclose(f.imag, 0.0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 12, 97, 360, 1024])
def test_unit_orbits_map_every_index_to_a_divisor_times_a_unit(n):
    divisors, sizes, orbit, unit = core._unit_orbits(n)
    i = np.arange(n)
    assert divisors.tolist() == [d for d in range(1, n + 1) if n % d == 0]
    assert np.array_equal(np.gcd(i, n), divisors[orbit])  # gcd(0, n) = n
    assert np.array_equal(divisors[orbit] * unit % n, i)
    assert (np.gcd(unit, n) == 1).all()
    assert sizes.tolist() == np.bincount(orbit, minlength=len(divisors)).tolist()


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9])
def test_pair_split_is_the_sum_and_difference_at_the_negated_index(n):
    # two columns, so the split must run along the first axis only
    x = np.random.default_rng(n).integers(-9, 10, size=(n, 2))
    negated = x[(-np.arange(n)) % n]
    even, odd = core._pair_split(x)
    assert np.array_equal(even, x + negated)
    assert np.array_equal(odd, x - negated)
    unpaired = [0] + ([n // 2] if n % 2 == 0 else [])
    assert np.array_equal(even[unpaired], 2 * x[unpaired])
    assert not odd[unpaired].any()


@pytest.mark.parametrize(
    "n", list(range(1, 131)) + [255, 256, 257, 511, 512, 513, 1021, 1024]
)
def test_product_rows_are_the_product_index_mod_n(n):
    # a block is updated in place when the generator advances, so copy it
    blocks = [block.copy() for block in core._product_rows(n, range(n), n)]
    assert [len(b) for b in blocks[:-1]] == [64] * (len(blocks) - 1)
    assert all(b.dtype == np.int64 for b in blocks)
    a = np.arange(n)
    assert np.array_equal(np.concatenate(blocks), np.multiply.outer(a, a) % n)
    if n % 2 == 0:  # the odd block: rows 1, 3, ..., n - 1, columns 0..n/2 - 1
        blocks = [block.copy() for block in core._product_rows(n, range(1, n, 2), n // 2)]
        want = np.multiply.outer(a[1::2], a[: n // 2]) % n
        assert np.array_equal(np.concatenate(blocks), want)


@pytest.mark.parametrize("n", list(range(1, 131)) + [255, 256, 257, 1021, 1024])
def test_paired_product_rows_are_the_half_index_mod_n(n):
    blocks = [block.copy() for block in core._product_rows(n, range(n // 2 + 1), n // 2 + 1)]
    assert [len(b) for b in blocks[:-1]] == [64] * (len(blocks) - 1)
    a = np.arange(n // 2 + 1)
    assert np.array_equal(np.concatenate(blocks), np.multiply.outer(a, a) % n)


@pytest.mark.parametrize("n", range(1, 131))
def test_product_table_is_the_table_at_the_product_index(n):
    # rows n//2 + 1.. come from the mirrored table, at both parities of n
    tables = [np.random.default_rng(n).integers(-99, 100, size=n), core._cas_table(n)]
    a = np.arange(n)
    for table in tables:
        got = core._product_table(table)
        assert got.dtype == table.dtype
        assert np.array_equal(got, table[np.multiply.outer(a, a) % n])


@pytest.mark.parametrize("m", list(range(2, 301, 2)) + [1000, 2048, 4096])
def test_level_kernel_reads_the_signed_nonzeros_of_the_odd_block(m):
    # only the rows i <= m/2; row m - i is read from row i (next test)
    r = core._rounded_cas(m)
    k = np.arange(m // 2)
    block = r[np.multiply.outer(np.arange(1, m // 2 + 1, 2), k) % m]
    signed = np.where(block < 0, m // 2 + k, k)
    counts = np.count_nonzero(block, axis=1)
    cols, starts = core._level_kernel(r)
    assert cols.dtype == np.intp
    assert np.array_equal(cols, signed[block != 0])
    assert np.array_equal(starts, np.cumsum(counts) - counts)
    assert counts.all()  # reduceat cannot sum an empty row


@pytest.mark.parametrize("m", list(range(2, 301, 2)) + [1000, 2048, 4096])
def test_mirrored_odd_block_row_is_the_row_over_reversed_negated_columns(m):
    # G[m - i, k] = -G[i, m/2 - k] for 1 <= k < m/2 and G[m - i, 0] = 1, so
    # row m - i of G @ x is row i of G @ y, y_0 = x_0 and y_k = -x_{m/2-k}
    r = core._rounded_cas(m)
    k = np.arange(m // 2)
    rows = r[np.multiply.outer(np.arange(1, m, 2), k) % m]  # i = 1, 3, .., m - 1
    mirrored = rows[::-1]  # m - i
    assert (mirrored[:, 0] == 1).all()
    assert np.array_equal(mirrored[:, 1:], -rows[:, :0:-1])
    x = np.random.default_rng(m).integers(-(2**31), 2**31 + 1, m // 2)
    y = np.concatenate((x[:1], -x[:0:-1]))
    assert np.array_equal(mirrored @ x, rows @ y)


def test_rht_matrix_build_holds_no_square_index_array():
    tracemalloc.start()
    try:
        build_rht_matrix(1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 8 MiB int64 result and its int8 symmetry check; an n x n int64
    # product index on top of them peaked at 18 MiB
    assert peak < 12 * 2**20


def test_rounded_transform_holds_no_square_matrix():
    tracemalloc.start()
    try:
        rounded_transform(1000, Normalization.SYMMETRIC)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the plan of 1000 = 8 * 125 peaks near 1.3 MiB (2.2 MiB holding every
    # row of each level); the n x n int64 matrix alone would be 7.6 MiB,
    # and building it peaked at 22 MiB
    assert peak < 4 * 2**20


def test_odd_order_transform_holds_half_the_pair_index():
    tracemalloc.start()
    try:
        rounded_transform(999, Normalization.SYMMETRIC)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 2.45 MiB with the index rows 0..499 of the odd part; all 999 rows
    # peaked at 4.36 MiB
    assert peak < 3 * 2**20
