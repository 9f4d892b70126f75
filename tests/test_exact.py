import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import rht.exact as exact
from rht import NotInvertible, RationalMatrix, build_rht_matrix, exact_inverse, invert_integer_matrix
from oracles import fraction_inverse, trial_division_primes

# sha256(repr((denominator, numerators.tolist()))) of exact_inverse(n) as
# computed by the earlier Python-int digit assembly and per-entry clearing;
# the digit-array kernels must reproduce every inverse bit for bit.
INVERSE_DIGESTS = {
    2: "adb668c61b62fc37034eeb4d04868f0e08bb88846225b3b58b4b26e0254ee1c7",
    3: "ff0f7972d542892d31631044ab9d15e8b6d9acd9e7572f94b7abeb78c6ffddd3",
    4: "1aef4c20e316dad2855a4212672a0a2c4afcf4ecf30f089bb01e3186fce2feb9",
    5: "e6aebe070edd448c98757e6b6dd8332dbe2456db4df3353ee4332fe202601354",
    6: "25c69c9b512700556527bd181893008151e4ae383fde94786f2ab7dd9ad9faae",
    7: "fab60e1dbd3d65a7b1d81e6fd25797ace5f922f877cfae98fad8b3b2fb305882",
    8: "0808e6ba955b3c54a4ec6d2d564183b14efb2fb8d2491d6adbb0f7aac809ea04",
    9: "e05ab5a1525c61f2c5774a4faea1311904852cecf8ebbb69cb8aa1444772a4ba",
    10: "31439f4d90a13b91d22e74d38137ea56033c1a0f281d18494af04ed9bf19f334",
    11: "64e3ed0c6e6eee804b477971c6511402175491098d13c98101e05c822f639440",
    12: "5de0bde00ef3e28d225125fb660c69450252ee7a0ee21d09a5abaca2f313b51e",
    13: "6ec47bd54188ef5dee05a811f46b7c5b4dc998730bfc5f34c94ba0b3df55b162",
    14: "ef6e6fa737eefa849b84d7256026b0b73a5d7d59eb8d2c306b58eed7c85b25e1",
    15: "26b03b53a4174e5e4ac4d73b522616a680920d138ee42af42249968a14d7773a",
    16: "6385938d8f82c41b65d5974c8c39a79ecbd0f9d35b44de3fd1e682c5e81748fa",
    17: "f59e8088b23ebfe360b484c99fa75bbd0022b813495af7797fe20b08eab6ed39",
    18: "67b4ad9b196c65a081e4501648ca5d42864032264e79e2ee6557fc4eb62d1a10",
    19: "1cc3f4a12836f7fbb6d1b5d8473967c4c02b133a7b2dd5bd8cfd04e54093cc3a",
    20: "d2d0ef8faf015fde4826b9b4f9818ae36986c658c2aa2230230674030a297ea2",
    21: "5cc5263b89c3a6b73e1a5b207ee0d34921f6340498dc96f44d93c0830b03614e",
    22: "85801010a0a26eecf2aa2836cce3f93215349de3f4be89406265e5c1175bbf11",
    23: "fcaecd5660e3f273aec965238da2c594627542eec339b685f97b5a044f9eb648",
    24: "10eb9f987c20c3881ebbdd40c3edeb7e6f85b4814973b30d225b1c7219e726c8",
    25: "a293ffa451b7f3298d20e63d4e9c77f3ca55d4475f94b9174d4a9de1904f9236",
    26: "0f4cd1bb7e7cce95cc3c9842c30aadb8d1168f808106a14a9ebe48d902808ddd",
    27: "61fe4e667330d25fe0ef32a111f8a2d98e7a68d7ce3fe822b7e8df4c7b51a476",
    28: "7dd8269a1f56162d22cd52ed4a4bc23c1ca099f9364ec122aa4e9f6f3f444e43",
    29: "49ba8158a7d373e1f4b675c3712ffa10b7420f6461a7cc15141f5d27d890f6f3",
    30: "33f2a6a680be5fa44cce951d943fc26ad94fd97a32dfd6531f61448ea445cdee",
    31: "fb00672405dc39909949b90fcf073d8700232f4b3916ce2384dea2dbc9d446e6",
    32: "a1d909eb951c30e76eed4dbd1394587b42af4b1abcf4d56975523c2db6b5144e",
    33: "8bea648648047406e45b8a49fe8734bd06b02b4269d243d2226b510a5d4439a0",
    34: "4e6b834aef58b3e2736c1f47a371ea04c1fbd43b386c2dc7d409952c776480e3",
    35: "95d95f369959d73663414ad010e0bcf5610ad8724f57de8ef301e908fb4164e7",
    36: "63a83ba6f0426275c6199077e0941f3d38aa235479d8fded13d897ec7913281d",
    37: "d61ad5d330d8b5fbe7f313ad917fae11e877b23bb139f4e8f988041277076244",
    38: "5d56ca47ef35547dba5f5e2317576e5dca8f19926b6c1b9eb4a3cb4743f72270",
    39: "389e80c0fa7429130eaef347acf73bc4ad7a56f5b32b1d00fd1e17f65c71f07d",
    40: "34c876a54c3a7783aa5fe534cba13947fd89731f6c55a67cdb8f6dc812e39daa",
    41: "1e06c150ff6b23fd2f771a39c57a4a823e52a3634c1990b2d95f7c14f5dfa3f0",
    42: "dd9ebcad44dad2c6f293c3ce293bde0c350a956fcc82bd57728c109bab0c0020",
    43: "7ce15efdf87fcf02c2dc9c5c7a5a342794e7e13331031680b8df081fe7fa080c",
    44: "c51ed1a433fc7e925c64787123f75348a4136eea6d7f056eaa82263a5e7ce4c7",
    45: "a29d3883642bb5912202e73b3e578944737fd4931ddebd1f661d4d745cba2fd9",
    46: "c3f5acf64e49ed5e40550704c4a94e0011ba6b173f715d5af78f1637e5b5a869",
    47: "31e3168f49c5e0e805fdb389320839512b97db38cb000e96f840c8fda2183257",
    48: "288943d7ea9557be70b95ba7bc6a09fb766bb9a8b3d577e414b300f3ef5c9ede",
    49: "f47bb2cd5cc33cbf345b048d494b1903ef97575461630049029b8914fe2d0d17",
    50: "1e962639a3b9494f77a884c0123914c0b981c921aa69e9fc1d509ce487c1b46d",
    51: "bdbade34112726cdcbae6f2b571c2e47f39f2659ef0d42ca63dd7703daeecfce",
    52: "3685a936ca0fea87befe3e3ef1a645a8830e3d2e2470f9ef936fee024bae3703",
    53: "f60afa45249e6a5603bd76623ecac591464939df8616c9c04ae361ba91f12a0e",
    54: "9aefe018c0e81c21c58019365fc6a5a2390845b11a375600f3122bd723609f3c",
    55: "efae7434164e846f973d08c169e3646fa5392f1d25ad56a0cc361162e9f26b73",
    56: "92cb8354e9c56a2962410102ac2ed27614adbb94a21ceda50570e018beabe9dc",
    57: "b4c33fd70ed2d592f4d0105062f73d4f6045b59d4a95ad9869c6500e75c1a9c4",
    58: "a59fdafeb57e5daeb8822cde392829e47754a6403da9af5554d8e30ed6f6c4ae",
    59: "988cd0bf457380223550231c949079276656434d61de8244565ec3c24b8b071d",
    60: "e265d3abfdc4754996b65c42232630ca86109b71f2d890f78c42858c32959c23",
    61: "6db08d3115e8e83660448a3c605381015cfac06e0dcbd7a12257cacfeb1b5289",
    62: "5c0b0cffccfe1018667e713ab503fafb2bed10fd23ddd3694fa4b372f990b6cf",
    63: "54f4eb478127e4f8f3233af41671622d90accfa884f701362d60b613d480ce3e",
    64: "52292376ca4f67ccca57f010e1743962147a6937366b248e6f7de3ac0d28c219",
    97: "fdbfcab01f5d7f14f36208b2de880315c71395ed89ccc327724956be9f2f9219",
    128: "d4abe2d7966a706fef2251615a64d65a2a16771db4bc3b57fd42ff3ec6a4b235",
    156: "57fa871562cf7f1c029dee0e24d4201e69a67a21d30c290e26da63f0ba8d40b5",
    181: "ff5fe780df4e291f375fc84e3a7fc4f7937d14caaeb18639c6fe5055e9d61e68",
    191: "6a9b8b25272df761bfea595de8cde2ba763bba6588a8b911f81d6afed1e232e0",
    199: "d24310379521c601b0666642d4fc7d0676a5509e0f3a4a632f1bb6302a50593a",
    256: "78fbc4e251bbc269ecf36e3d9a17d8d73226192f32594d746b82e61181a42781",
}


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


@pytest.mark.parametrize("n", sorted(INVERSE_DIGESTS))
def test_inverse_is_bit_identical_to_recorded_digest(n):
    inv = exact_inverse(n)
    text = repr((inv.denominator, inv.numerators.tolist()))
    assert hashlib.sha256(text.encode()).hexdigest() == INVERSE_DIGESTS[n]


@pytest.mark.parametrize(
    "p, d, den",
    [(1048573, 4, 1), (1048573, 6, 3**50 + 2), (1048573, 9, 5**120 + 1), (101, 8, 7**9)],
)
def test_digit_space_clearing_matches_python_int_rule(p, d, den):
    modulus = p**d
    cap = (modulus // 2) >> exact._SLACK_BITS
    unit = p ** (d - 2)
    lo, hi = cap // unit, (modulus - cap) // unit  # top-two-digit values of the band
    targets = [0, 1, -1, cap, -cap, cap + 1, -(cap + 1), -12345, -(cap // 3), cap // 5,
               lo * unit, (lo + 1) * unit - 1, hi * unit - modulus, (hi + 1) * unit - 1 - modulus]
    inv_den = pow(den, -1, modulus)
    rng = np.random.default_rng(d)
    xs = [r * inv_den % modulus for r in targets] + [modulus - 1, 0]
    xs += [int(rng.integers(0, p)) ** d % modulus for _ in range(50)]
    block = np.array([[x // p**i % p for x in xs] for i in range(d)], dtype=np.float64)

    table = exact._limb_table(p, d)
    low, ok, negative = exact._clear(exact._den_toeplitz(den, p, d), block, p)
    got = exact._digits_to_ints(low[:, ok], table, negative[ok])

    top = low[-1] * p + low[-2]
    band = (top == lo) | (top == hi)
    assert np.count_nonzero(band) >= 6  # the band was exercised
    assert not ok[band].any()  # left undecided, for _reconstruct's place
    want_ok, want = [], []
    for x, undecided in zip(xs, band):
        r = x * den % modulus
        if r > modulus // 2:
            r -= modulus
        want_ok.append(abs(r) <= cap and not undecided)
        if want_ok[-1]:
            want.append(r)
    assert ok.tolist() == want_ok
    assert got == want


def _python_int_reconstruction(xs, modulus):
    """_reconstruct's rule on each entry in turn, with Python ints only."""
    cap = (modulus // 2) >> exact._SLACK_BITS
    bound = math.isqrt((modulus - 1) // 2)
    nums, den = [], 1
    for x in xs:
        r = x * den % modulus
        r = r - modulus if r > modulus // 2 else r
        if abs(r) > cap:
            rec = exact._rational_reconstruct(x, modulus, bound)
            if rec is None:
                return None
            num, de = rec
            wider = den * de // math.gcd(den, de)
            nums = [v * (wider // den) for v in nums]
            den = wider
            r = num * (den // de)
        nums.append(r)
    return nums, den


def test_band_entries_are_placed_by_the_python_int_rule():
    # after the first column every entry's top two digits lie in the band
    # around +-cap, so each goes through place rather than _clear's mask
    p, d, den, n = 1048573, 6, 3**20 + 2, 4
    modulus = p**d
    cap = (modulus // 2) >> exact._SLACK_BITS
    unit = p ** (d - 2)
    lo, hi = cap // unit, (modulus - cap) // unit
    inv_den = pow(den, -1, modulus)
    first = [inv_den, 0, 5, modulus - 7]  # 1/den fixes den; then 0, 5, -7 over den
    targets = [lo * unit, cap, -cap, (hi + 1) * unit - 1 - modulus] * 2
    xs = first + [t * inv_den % modulus for t in targets]
    assert {(x * den % modulus) // unit for x in xs[n:]} == {lo, hi}

    def digits(values):
        return [np.array([x // p**i % p for x in values], dtype=np.int32) for i in range(d)]

    nums, got_den = exact._reconstruct(digits(xs), n, p)
    assert got_den == den and nums.tolist() == [1, 0, 5 * den, -7 * den] + targets
    assert (nums.tolist(), got_den) == _python_int_reconstruction(xs, modulus)
    # a band entry past cap does not clear: it is reconstructed and widens den
    beyond = (lo + 1) * unit - 1
    more = xs + [beyond * inv_den % modulus] * n
    nums, got_den = exact._reconstruct(digits(more), n, p)
    want = _python_int_reconstruction(more, modulus)
    assert got_den > den and (nums.tolist(), got_den) == want


def test_modular_solve_runs_past_512_pivots_without_folding():
    # entries stay in [-n * (p - 1)**2, p): int64 for every n < 2**23
    rng = np.random.default_rng(520)
    m = rng.integers(-50, 51, (520, 520))
    rhs = rng.integers(-50, 51, (520, 3))
    p = next(exact._primes_below(exact._PRIME_CEILING))
    x = exact._gj_solve_mod(m, rhs, p)
    assert x is not None and x.min() >= 0 and x.max() < p
    assert not np.mod(m @ x - rhs, p).any()


def test_digits_convert_to_python_ints_with_sign():
    p, d = 1048573, 5
    values = [0, 1, p - 1, p, p**d - 1, -1, -p**d, 123456789**2]
    block = np.array([[v % p**d // p**i % p for v in values] for i in range(d)], dtype=np.float64)
    negative = np.array([v < 0 for v in values])
    assert exact._digits_to_ints(block, exact._limb_table(p, d), negative) == values


def test_float64_guards_raise_past_their_bounds():
    p = 1048573
    exact._den_toeplitz(1, 2**25 + 1, 7)  # 7 * (2**25)**2 < 2**53
    with pytest.raises(ValueError, match="Toeplitz"):
        exact._den_toeplitz(1, 2**25 + 1, 8)
    with pytest.raises(ValueError, match="Toeplitz"):
        exact._den_toeplitz(1, p, 1 << 20)
    exact._limb_table(2**36 + 1, 2)
    with pytest.raises(ValueError, match="limb sum"):
        exact._limb_table(2**36 + 1, 3)
    with pytest.raises(ValueError, match="limb sum"):
        exact._limb_table(p, 1 << 18)
    exact._limb_weights(1, np.array([2.0**36]))
    with pytest.raises(ValueError, match="limb residue"):
        exact._limb_weights(2, np.array([2.0**36]))
    with pytest.raises(ValueError, match="limb residue"):
        exact._limb_weights(1 << 18, np.array([float(p)]))
    nums = np.array([[1, 0], [0, 1]], dtype=object)
    m = np.full((2, 2), 1 << 32, dtype=np.int64)
    with pytest.raises(ValueError, match="residue product"):
        exact._verify_product(m, nums, 1, np.eye(2, dtype=np.int64), skip=p)


@pytest.mark.parametrize("n", list(range(1, 65)) + [97, 128, 199, 256])
def test_divisor_column_solve_equals_full_inversion(n):
    want = invert_integer_matrix(build_rht_matrix(n).entries)
    got = exact_inverse(n)
    assert got.denominator == want.denominator
    assert got.numerators.tolist() == want.numerators.tolist()


@pytest.mark.parametrize(
    "n, units", [(12, [5, 7, 11]), (60, [7, 11, 59]), (97, [2, 5, 96]), (128, [3, 77, 127])]
)
def test_full_inverse_keeps_the_unit_symmetry(n, units):
    # checked on the n x n solve, which does not assume the symmetry
    x = invert_integer_matrix(build_rht_matrix(n).entries).numerators
    i = np.arange(n)
    for u in units:
        assert x[np.ix_(u * i % n, pow(u, -1, n) * i % n)].tolist() == x.tolist()


@pytest.mark.parametrize("n", [60, 97])
def test_divisor_column_certificate_rejects_one_corrupted_numerator(n):
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    e = np.zeros((n, len(divisors)), dtype=np.int64)
    e[np.array(divisors) % n, np.arange(len(divisors))] = 1
    h = build_rht_matrix(n).entries
    inv = exact_inverse(n)
    cols = inv.numerators[:, np.array(divisors) % n]  # H^-1 is symmetric
    assert exact._verify_product(h, cols, inv.denominator, e, skip=0)
    rng = np.random.default_rng(n)
    for k in range(len(divisors)):
        bad = cols.copy()
        bad[int(rng.integers(n)), k] += 1
        assert not exact._verify_product(h, bad, inv.denominator, e, skip=0)


@pytest.mark.parametrize(
    "limit, skip",
    [(1 << 20, {1048573, 1048559, 1046527}), (4099, {4093, 4091}), (60, ()), (4, ()), (3, ())],
)
def test_sieved_primes_equal_trial_division(limit, skip):
    want = trial_division_primes(limit, 400, skip)
    got = exact._primes_below(limit, skip=skip)
    assert [next(got) for _ in want] == want
    if len(want) < 400:  # the pool ran out
        with pytest.raises(RuntimeError, match="exhausted"):
            next(got)
