import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rht import (
    Normalization,
    apply_direct,
    build_rht_matrix,
    count_model,
    fast_rht,
    plan,
    rounded_transform,
)
from rht import core

# additions(n) = n + additions(n/2) + sum over odd-block rows of (nonzeros-1)
KNOWN_ADDITIONS = {
    1: 0,
    2: 2,
    4: 8,
    8: 24,
    16: 88,
    32: 312,
    64: 1144,
    128: 4344,
    256: 17144,
    512: 67832,
    1024: 270584,
    2048: 1079544,
    4096: 4311288,
}


@pytest.mark.parametrize("n,adds", sorted(KNOWN_ADDITIONS.items()))
def test_predicted_addition_counts(n, adds):
    ops = count_model(n)
    assert ops.additions == adds
    assert type(ops.additions) is int  # plain int, so counts serialise to JSON
    assert ops.multiplications == 0


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096])
def test_measured_counts_match_model(n):
    _, ops = fast_rht(plan(n), np.zeros(n))
    assert ops == count_model(n)
    assert type(ops.additions) is int


def test_addition_count_beats_dense_from_order_four():
    for n in (4, 8, 16, 32, 64, 128, 256, 512):
        assert count_model(n).additions < n * n


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 64, 256])
def test_fast_output_equals_dense_product(n):
    rng = np.random.default_rng(n)
    dense = build_rht_matrix(n).entries.astype(np.int64)
    for _ in range(20):
        v = rng.integers(-1000, 1000, n)
        spec, ops = fast_rht(plan(n), v)
        assert np.array_equal(spec.coefficients, (dense @ v).astype(np.float64))
        assert ops.multiplications == 0


@pytest.mark.parametrize("n", [1 << k for k in range(11)])
@settings(deadline=None, max_examples=8)
@given(data=st.data())
def test_fast_direct_and_dense_products_agree(n, data):
    v = data.draw(arrays(np.int64, n, elements=st.integers(-(2**31), 2**31)))
    dense = (build_rht_matrix(n).entries @ v).astype(np.float64)
    fast, ops = fast_rht(plan(n), v)
    direct = apply_direct(rounded_transform(n, Normalization.UNSCALED), v)
    assert np.array_equal(fast.coefficients, dense)
    assert np.array_equal(direct.coefficients, dense)
    assert ops.multiplications == 0


@pytest.mark.parametrize("n", [31, 32, 999, 1000])
def test_fast_handles_real_valued_input(n):
    # 31, 999 and 1000 reach the odd-part kernel, whose row sums add the
    # pair terms in another order than the dense product does
    rng = np.random.default_rng(2)
    v = rng.normal(size=n)
    dense = build_rht_matrix(n).entries.astype(np.float64)
    spec, _ = fast_rht(plan(n), v)
    np.testing.assert_allclose(spec.coefficients, dense @ v, rtol=1e-12)


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_zeroed_upper_half_exposes_half_size_transform(n):
    rng = np.random.default_rng(n + 1)
    lower = rng.integers(-99, 100, n // 2)
    v = np.concatenate([lower, np.zeros(n // 2, dtype=lower.dtype)])
    spec, _ = fast_rht(plan(n), v)
    sub = build_rht_matrix(n // 2).entries.astype(np.int64) @ lower
    assert np.array_equal(spec.coefficients[0::2], sub.astype(np.float64))


def test_plan_is_reusable():
    p = plan(16)
    v = np.arange(16)
    a, _ = fast_rht(p, v)
    b, _ = fast_rht(p, v)
    assert np.array_equal(a.coefficients, b.coefficients)


def test_every_positive_order_accepted_and_others_rejected():
    for n in (3, 6, 12, 100):
        assert plan(n).order == n
        assert count_model(n).additions > 0
    for n in (0, -1, -4):
        with pytest.raises(ValueError):
            plan(n)
        with pytest.raises(ValueError):
            count_model(n)


def _assert_fast_direct_dense_agree(n, v):
    dense = build_rht_matrix(n).entries @ v  # int64, exact
    fast, ops = fast_rht(plan(n), v)
    direct = apply_direct(rounded_transform(n, Normalization.UNSCALED), v)
    assert np.array_equal(fast.coefficients, dense.astype(np.float64)), n
    assert np.array_equal(direct.coefficients, dense.astype(np.float64)), n
    assert ops == count_model(n), n  # the plan's own tally, multiplications 0


@settings(deadline=None, max_examples=3)
@given(seed=st.integers(0, 2**32 - 1), bound=st.sampled_from([1, 255, 2**31]))
def test_fast_direct_and_dense_products_agree_at_every_order_to_300(seed, bound):
    # n * 2**31 < 2**53 keeps every partial sum exact
    rng = np.random.default_rng(seed)
    for n in range(1, 301):
        _assert_fast_direct_dense_agree(n, rng.integers(-bound, bound + 1, n))


@pytest.mark.parametrize("n", [999, 1000, 1001, 1020, 1022, 2046, 2047, 3000, 4094, 4095, 4096])
def test_fast_direct_and_dense_products_agree_at_sampled_orders(n):
    rng = np.random.default_rng(n)
    _assert_fast_direct_dense_agree(n, rng.integers(-(2**31), 2**31 + 1, n))


@pytest.mark.parametrize("n", [999, 1000, 1024])
def test_fast_direct_and_dense_products_agree_at_the_documented_bound(n):
    # apply_direct is exact while n * max|v| < 2**53: take every |v_j| at the edge
    top = (2**53 - 1) // n
    row = build_rht_matrix(n).entries[1]
    for signs in (
        np.ones(n, dtype=np.int64),
        (-1) ** np.arange(n),
        np.random.default_rng(n).choice([-1, 1], n),
        np.where(row < 0, -1, 1),  # output 1 sums every term at full size
    ):
        _assert_fast_direct_dense_agree(n, top * signs)


def test_fast_direct_and_dense_products_agree_at_every_odd_order_to_301():
    # the whole transform is the paired odd-part kernel; the extremes
    # +-2**31 sit in a pair sum and a pair difference
    rng = np.random.default_rng(301)
    for q in range(1, 302, 2):
        v = rng.integers(-(2**31), 2**31 + 1, q)
        v[0], v[-1] = 2**31, -(2**31)
        if q > 1:
            v[1] = 2**31
        _assert_fast_direct_dense_agree(q, v)


def test_measured_counts_match_model_at_every_order_to_300():
    for n in range(1, 301):
        _, ops = fast_rht(plan(n), np.zeros(n))
        assert ops == count_model(n), n


def test_even_orders_take_fewer_additions_than_the_direct_product():
    # the direct product adds nonzeros - 1 per row; at n = 2 both take 2
    for n in range(4, 301, 2):
        direct = int(np.count_nonzero(build_rht_matrix(n).entries)) - n
        assert count_model(n).additions < direct, n


def test_odd_orders_take_q_minus_one_times_q_plus_two_over_two_additions():
    # (q-1)/2 pair sums, as many differences, and (q-1)/2 additions per
    # output row; at q = 3 the one difference is formed but never read,
    # so 5 against the direct product's 4
    for q in range(1, 302, 2):
        assert count_model(q).additions == (q - 1) * (q + 2) // 2, q
        direct = int(np.count_nonzero(build_rht_matrix(q).entries)) - q
        assert (count_model(q).additions < direct) == (q >= 5), q
    # and the README's counts at the odd parts 125 and 511 of 1000 and 1022
    pinned = {3: 5, 641: 205760, 999: 499499, 1000: 261174, 1022: 332027}
    assert {q: count_model(q).additions for q in pinned} == pinned


@pytest.mark.parametrize("q", list(range(1, 302, 2)) + [999, 2047, 4095])
def test_odd_part_kernel_holds_half_the_rows(q):
    # rows i and q - i share one index row, summed over the front and the
    # back pair terms at once; the tally counts rows 1..h twice
    p = plan(q)
    cols, starts = p._base
    h = q // 2
    assert cols.shape == ((h + 1) ** 2,)
    assert np.array_equal(starts, np.arange(0, cols.size, h + 1))
    assert p._additions == count_model(q).additions


@pytest.mark.parametrize("terms", [1, 5, 64])
def test_blocked_gather_sums_what_one_gather_sums(terms, monkeypatch):
    # every kernel to order 300 is below _GATHER_TERMS; shrinking it runs
    # them all through blocks of rows, rows longer than a block included
    rng = np.random.default_rng(terms)
    plans = [(plan(n), rng.normal(size=n)) for n in range(1, 301)]
    whole = [fast_rht(p, v)[0].coefficients for p, v in plans]
    monkeypatch.setattr(core, "_GATHER_TERMS", terms)
    for (p, v), want in zip(plans, whole):
        assert np.array_equal(fast_rht(p, v)[0].coefficients, want), p.order


# the angles 2*pi*2/5 and 2*pi*3/5 of order n, and at n = 20 also the
# angles half a turn on, whose rounded values the odd block negates
@pytest.mark.parametrize("n,zeroed", [(5, [2, 3]), (20, [2, 8, 12, 18])])
def test_plan_rejects_a_cas_table_with_a_pair_of_zeros(n, zeroed, monkeypatch):
    # |cas t| and |cas -t| are never both below 1/2; a doctored table that
    # rounds them to 0 gives the odd part 5 of n a column pair that no
    # term can express
    exact = core._cas_table

    def doctored(m):
        table = exact(m)
        if m == n:
            table[zeroed] = 0.25
        return table

    monkeypatch.setattr(core, "_cas_table", doctored)
    with pytest.raises(AssertionError, match=r"r\[x\] = r\[-x\] = 0 at q=5"):
        plan(n)


def test_plan_build_holds_no_whole_level_index():
    tracemalloc.start()
    try:
        plan(4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 16.8 MiB holding the rows i <= m/2 of each level; all rows, read 64
    # at a time, peaked at 33.1 MiB, holding an int8 odd block of the whole
    # order across the levels at 37.0 MiB, and gathering the int64 index of
    # a whole level at 70.9 MiB
    assert peak < 20 * 2**20


def test_odd_plan_build_holds_half_the_pair_index():
    tracemalloc.start()
    try:
        plan(4095)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 34.2 MiB with the odd part's index rows 0..2047; holding all 4095
    # rows of it peaked at 66.2 MiB
    assert peak < 40 * 2**20


def test_odd_part_run_gathers_a_block_of_rows_at_a_time():
    p = plan(4095)
    v = np.ones(4095)
    tracemalloc.start()
    try:
        fast_rht(p, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 0.85 MiB gathering 2**15 terms at a time; one gather of the whole
    # kernel peaked at 32.3 MiB over one term column, 64.3 MiB over two
    assert peak < 2 * 2**20


def test_wrong_length_input_rejected():
    with pytest.raises(ValueError):
        fast_rht(plan(8), np.zeros(4))
