import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rht import NotInvertible, RationalMatrix, build_rht_matrix, exact_inverse, invert_integer_matrix
from oracles import fraction_inverse


def reduced(nums, den):
    """Normalize an (integer matrix, denominator) pair to lowest terms."""
    g = den
    for x in nums.ravel():
        g = math.gcd(g, abs(int(x)))
        if g == 1:
            break
    g = g or 1
    out = np.empty_like(nums)
    for idx, x in np.ndenumerate(nums):
        out[idx] = int(x) // g
    return out, den // g


@pytest.mark.parametrize("n", list(range(2, 25)))
def test_inverse_agrees_with_rational_gauss_jordan(n):
    inv = exact_inverse(n)
    want_nums, want_den = fraction_inverse(build_rht_matrix(n).entries)
    got = reduced(inv.numerators, inv.denominator)
    want = reduced(want_nums, want_den)
    assert got[1] == want[1]
    assert np.array_equal(got[0], want[0])


def test_order_three_inverse_value():
    inv = exact_inverse(3)
    assert inv.denominator == 3
    assert inv.numerators.tolist() == [[1, 1, 1], [1, 1, -2], [1, -2, 1]]


def test_inverse_differs_from_transpose_scaling_in_general():
    # the rounded matrix is not orthogonal: the true inverse at n=3 is not H/3
    inv = exact_inverse(3)
    h = build_rht_matrix(3).entries
    assert not np.array_equal(inv.numerators, h)


@pytest.mark.parametrize("n", [2, 4, 7, 33, 64])
def test_product_with_inverse_is_identity_in_rationals(n):
    inv = exact_inverse(n)
    h = build_rht_matrix(n).entries.astype(object)
    prod = h @ inv.numerators
    for i in range(n):
        for k in range(n):
            assert prod[i, k] == (inv.denominator if i == k else 0)


def test_rational_matrix_entry_access():
    inv = exact_inverse(3)
    assert inv[1, 2] == Fraction(-2, 3)
    assert inv[0, 0] == Fraction(1, 3)
    ent = inv.entries
    assert ent[2][1] == Fraction(-2, 3)
    assert isinstance(inv, RationalMatrix)


def test_random_integer_matrices_against_oracle():
    rng = np.random.default_rng(23)
    done = 0
    while done < 8:
        m = rng.integers(-9, 10, (6, 6)).astype(np.int64)
        try:
            want_nums, want_den = fraction_inverse(m)
        except ZeroDivisionError:
            continue
        inv = invert_integer_matrix(m)
        got = reduced(inv.numerators, inv.denominator)
        want = reduced(want_nums, want_den)
        assert got[1] == want[1] and np.array_equal(got[0], want[0])
        done += 1


@settings(deadline=None, max_examples=40)
@given(data=st.data(), n=st.integers(1, 7))
def test_small_integer_matrices_match_oracle_or_are_singular(data, n):
    m = data.draw(arrays(np.int64, (n, n), elements=st.integers(-9, 9)))
    if n > 1 and data.draw(st.booleans()):
        src, dst = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        m[dst] = m[src]  # a repeated row makes the matrix singular
    try:
        want = reduced(*fraction_inverse(m))
    except ZeroDivisionError:
        with pytest.raises(NotInvertible):
            invert_integer_matrix(m)
        return
    inv = invert_integer_matrix(m)
    got = reduced(inv.numerators, inv.denominator)
    assert got[1] == want[1] and np.array_equal(got[0], want[0])


def test_denominator_first_seen_at_the_last_entry_rescales_the_earlier_ones():
    m = np.eye(6, dtype=np.int64)
    m[5, 5] = 7
    inv = invert_integer_matrix(m)
    assert inv.denominator == 7
    assert inv.numerators.tolist() == np.diag([7, 7, 7, 7, 7, 1]).tolist()


def test_large_numerators_hit_multi_limb_verification():
    # entries around +-100 at order 12 push numerators past 64 bits
    rng = np.random.default_rng(4)
    m = rng.integers(-100, 101, (12, 12)).astype(np.int64)
    want_nums, want_den = fraction_inverse(m)  # also proves m is invertible
    inv = invert_integer_matrix(m)
    assert max(abs(int(x)) for x in inv.numerators.ravel()) > 2**62
    got = reduced(inv.numerators, inv.denominator)
    want = reduced(want_nums, want_den)
    assert got[1] == want[1] and np.array_equal(got[0], want[0])


def test_singular_matrices_raise():
    with pytest.raises(NotInvertible):
        invert_integer_matrix(np.ones((4, 4), dtype=np.int64))
    m = np.array([[1, 2, 3], [4, 5, 6], [5, 7, 9]], dtype=np.int64)  # row3 = row1+row2
    with pytest.raises(NotInvertible):
        invert_integer_matrix(m)
    with pytest.raises(NotInvertible):
        invert_integer_matrix(np.zeros((2, 2), dtype=np.int64))


def test_oversized_entries_rejected():
    m = np.full((4, 4), 2**40, dtype=np.int64)
    np.fill_diagonal(m, 2**40 + 1)
    with pytest.raises(ValueError):
        invert_integer_matrix(m)


def test_non_square_rejected():
    with pytest.raises(ValueError):
        invert_integer_matrix(np.ones((2, 3), dtype=np.int64))


def test_inverse_denominators_stay_modest_for_small_orders():
    # reduced denominators are dramatically smaller than the Hadamard bound
    for n in (16, 32, 48):
        inv = exact_inverse(n)
        assert inv.denominator.bit_length() < n  # bound would allow ~n*log2(n)/2
