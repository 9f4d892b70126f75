import decimal
import math
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest

from rht import (
    ColumnPermutation,
    Normalization,
    NormCurve,
    build_dht_matrix,
    build_rht_matrix,
    exact_mu_squared,
    freundlich_fit,
    hadamard_permutation,
    intensity_diagram,
    n_norm,
    norm_curve,
    quasi_period_check,
    residual_square_sum,
    walsh_matrix,
)
from rht import analysis
from rht.analysis import _power_traces
from oracles import dense_power_traces


def mu_squared_by_fractions(n):
    """Independent of residual_square_sum: all arithmetic in Fractions."""
    e = build_rht_matrix(n).entries.astype(object)
    d = e @ e
    total = Fraction(0)
    for i in range(n):
        for k in range(n):
            total += Fraction(int(d[i, k]) - (n if i == k else 0)) ** 2
    return total / n**4


def dense_power_residual(n, k, dtype=object):
    """q for H**k - n**(k/2) I from the full matrix power, summed in Python ints.

    dtype=np.int64 is exact only while every entry of H**k fits, which
    n**(k-1) < 2**63 guarantees; einsum keeps that integer product fast.
    """
    e = build_rht_matrix(n).entries.astype(dtype)
    power = e
    for _ in range(k - 1):
        power = np.einsum("ij,jk->ik", power, e)
    power[np.diag_indices(n)] -= n ** (k // 2)
    return int((power.astype(object) ** 2).sum())


def eps_pinning(q, n, k):
    """Rational eps with q <= eps**2 * n**(k+2) < q + 1, for q >= 1.

    quasi_period_check passes at eps_pinning(q) and fails at
    eps_pinning(q - 1) exactly when its own residual square sum is q.
    """
    s = q.bit_length() // 2 + 2  # 2**s > 2*sqrt(q) + 1 keeps eps**2 below q + 1
    root = math.isqrt(q * 4**s - 1) + 1  # ceil(sqrt(q * 4**s))
    return Fraction(root, n ** ((k + 2) // 2) * 2**s)


def assert_quasi_period_pins(n, k, q):
    assert quasi_period_check([n], k, eps_pinning(q, n, k)).all_pass
    assert not quasi_period_check([n], k, eps_pinning(q - 1, n, k)).all_pass


class TestNNorm:
    def test_known_values(self):
        assert n_norm(np.eye(4)) == pytest.approx(0.5)
        assert n_norm(np.zeros((3, 3))) == 0.0
        assert n_norm([[2.0]]) == pytest.approx(2.0)

    def test_absolute_homogeneity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = rng.integers(1, 9)
            a = rng.normal(size=(n, n))
            c = float(rng.normal())
            assert n_norm(c * a) == pytest.approx(abs(c) * n_norm(a), rel=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = rng.integers(1, 9)
            a = rng.normal(size=(n, n))
            b = rng.normal(size=(n, n))
            assert n_norm(a + b) <= n_norm(a) + n_norm(b) + 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            n_norm(np.zeros((2, 3)))


class TestMatrixPeriod:
    """A has period k when A**(k+1) = A; for the invertible matrices here
    that is A**k = I."""

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_symmetric_dht_is_an_involution(self, n):
        hs = build_dht_matrix(n, Normalization.SYMMETRIC)
        np.testing.assert_allclose(hs @ hs, np.eye(n), atol=1e-12)
        assert np.abs(hs - np.eye(n)).max() > 0.1  # period 2, not 1

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 8])
    def test_scaled_rounded_matrix_has_no_period_up_to_sixteen(self, n):
        eps = Fraction(1, 10**9)
        assert not any(quasi_period_check([n], k, eps).all_pass for k in range(1, 17))


class TestExactCurve:
    def test_peak_value_at_order_three(self):
        assert exact_mu_squared(3) == Fraction(2, 9) ** 2

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 12, 17])
    def test_engine_matches_all_fraction_arithmetic(self, n):
        assert exact_mu_squared(n) == mu_squared_by_fractions(n)

    def test_orbit_formula_matches_dense_square_up_to_256(self):
        for n in range(1, 257):
            assert residual_square_sum(n) == dense_power_residual(n, 2, np.int64), n

    @pytest.mark.parametrize("n", [720, 840, 960, 1008, 1021, 1024])
    def test_orbit_formula_matches_dense_square_at_many_divisors_and_prime(self, n):
        assert residual_square_sum(n) == dense_power_residual(n, 2, np.int64)

    def test_divisor_rows_hold_no_square_matrix(self):
        # the 1024 x 1024 rounded matrix alone is 8 MiB in int64
        tracemalloc.start()
        try:
            residual_square_sum(1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**21

    def test_exact_zeros(self):
        assert [n for n in range(1, 33) if residual_square_sum(n) == 0] == [1, 2, 4]

    def test_curve_points_and_orders(self):
        curve = norm_curve(2, 5)
        assert curve.orders.tolist() == [2, 3, 4, 5]
        assert curve.values[0] == 0.0
        assert curve.values[1] == pytest.approx(2 / 9)
        assert curve.values[3] == pytest.approx(math.sqrt(16 / 625))

    def test_strided_and_sampled_curves(self):
        assert norm_curve(2, 10, stride=4).orders.tolist() == [2, 6, 10]
        assert norm_curve(3, 63, stride=60).orders.tolist() == [3, 63]

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            NormCurve(((4, 0.1), (3, 0.2)))
        with pytest.raises(ValueError):
            NormCurve(((2, -0.5),))
        with pytest.raises(ValueError):
            norm_curve(5, 2)


class TestFreundlichFit:
    def test_recovers_planted_power_law(self):
        orders = np.arange(2, 60)
        a, b = 0.35, -0.5
        curve = NormCurve(tuple((int(n), a * n**b) for n in orders))
        fit = freundlich_fit(curve)
        assert fit.a == pytest.approx(a, abs=1e-12)
        assert fit.b == pytest.approx(b, abs=1e-12)
        assert fit.residual < 1e-10
        assert fit.excluded == ()

    def test_zero_points_are_excluded_and_recorded(self):
        curve = norm_curve(2, 6)
        fit = freundlich_fit(curve)
        assert fit.excluded == (2, 4)

    def test_insufficient_data_raises(self):
        with pytest.raises(ValueError):
            freundlich_fit(NormCurve(((2, 0.0), (4, 0.0), (5, 0.1))))

    def test_exponent_negative_and_trend_decreasing_on_powers_of_two(self):
        powers = [2**k for k in range(3, 11)]  # 8 .. 1024
        curve = NormCurve(tuple((n, math.sqrt(exact_mu_squared(n))) for n in powers))
        fit = freundlich_fit(curve)
        assert fit.b < 0
        mus = curve.values
        assert all(mus[i + 1] < mus[i] for i in range(len(mus) - 1))


class TestQuasiPeriod:
    def test_squared_family_within_two_ninths_up_to_64(self):
        rep = quasi_period_check(range(2, 65), 2, Fraction(2, 9))
        assert rep.all_pass
        assert rep.max_mu == pytest.approx(2 / 9)
        assert rep.max_mu_order == 3

    def test_bound_is_tight_at_three(self):
        eps = Fraction(2, 9) - Fraction(1, 10**12)
        rep = quasi_period_check([3], 2, eps)
        assert not rep.results[0][1]

    # 40**10 lies between 2**53 and 2**63 and 23**14 beyond 2**63, so those
    # two run the int64 and the Python-int divisor rows.
    @pytest.mark.parametrize(
        "k, orders",
        [(4, [3] + list(range(5, 25))), (6, [3] + list(range(5, 25))), (10, [40]), (14, [23])],
        ids=["4", "6", "10", "14"],
    )
    def test_even_powers_match_object_dense_power(self, k, orders):
        for n in orders:
            assert_quasi_period_pins(n, k, dense_power_residual(n, k))

    def test_sixth_power_at_440_matches_dense_power(self):
        # 456 is the last order with n**6 < 2**53 (float64 divisor rows)
        # and 457 the first past it (int64 divisor rows)
        for n in (440, 456, 457):
            q = dense_power_residual(n, 6, dtype=np.int64)  # n**5 < 2**63
            assert q > 10**18
            assert_quasi_period_pins(n, 6, q)

    def test_odd_power_traces_match_dense_power(self):
        for k in (1, 3, 5):
            for n in list(range(1, 65)) + [97, 199]:
                assert _power_traces(n, k) == dense_power_traces(n, k), (n, k)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_odd_powers_match_dense_power(self, k):
        # mu from the oracle's S and T in 60-digit decimals; the verdict must
        # flip between eps a relative 1e-9 above and below it
        ctx = decimal.Context(prec=60)
        for n in range(2, 41):
            s, t = dense_power_traces(n, k)
            half_power = ctx.power(ctx.sqrt(decimal.Decimal(n)), k)
            mu2 = ctx.divide(s + n ** (k + 1) - 2 * t * half_power, n ** (k + 2))
            mu = Fraction(ctx.sqrt(mu2))
            rep = quasi_period_check([n], k, mu * (1 + Fraction(1, 10**9)))
            assert rep.all_pass and rep.max_mu == pytest.approx(float(mu), rel=1e-12)
            assert not quasi_period_check([n], k, mu * (1 - Fraction(1, 10**9))).all_pass

    def test_odd_power_verdicts_are_exact_at_ties(self):
        # H_4**2 = 4 I gives mu(H_s**3 - I) = 1/2; H_2**2 = 2 I gives mu = 1
        assert quasi_period_check([4], 3, Fraction(1, 2)).all_pass
        assert not quasi_period_check([4], 3, Fraction(1, 2) - Fraction(1, 10**12)).all_pass
        for k in (1, 3, 5):
            rep = quasi_period_check([2], k, 1)
            assert rep.all_pass and rep.max_mu == 1.0
            assert not quasi_period_check([2], k, 1 - Fraction(1, 10**12)).all_pass

    def test_odd_power_holds_no_square_matrix(self):
        tracemalloc.start()
        try:
            quasi_period_check([1024], 3, Fraction(2, 9))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**21

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_empty_orders_rejected(self, k):
        with pytest.raises(ValueError, match="orders must not be empty"):
            quasi_period_check([], k, Fraction(2, 9))

    def test_first_power_is_not_quasi_identity(self):
        rep = quasi_period_check([8], 1, Fraction(2, 9))
        assert not rep.results[0][1]

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            quasi_period_check([4], 2, 0)


class TestHadamard:
    def test_natural_ordering_is_hadamard(self):
        for n in (2, 4, 8, 16):
            w = walsh_matrix(n)
            assert np.array_equal(w @ w.T, n * np.eye(n, dtype=np.int64))
            assert set(np.unique(w)) == {-1, 1}

    def test_dyadic_is_column_reindexing_of_natural(self):
        w = walsh_matrix(8)
        d = walsh_matrix(8, "dyadic")
        cols = {tuple(c) for c in w.T.tolist()}
        assert {tuple(c) for c in d.T.tolist()} == cols
        assert not np.array_equal(d, w)

    def test_sequency_rows_sorted_by_sign_changes(self):
        s = walsh_matrix(16, "sequency")
        changes = (np.diff(s, axis=1) != 0).sum(axis=1)
        assert changes.tolist() == list(range(16))

    def test_unknown_ordering_rejected(self):
        with pytest.raises(ValueError):
            walsh_matrix(8, "kronecker")

    @staticmethod
    def pinned(n):
        perm = hadamard_permutation(n)
        return perm.ordering, perm.mapping, perm.displaced

    def test_order_one_matches_itself(self):
        assert self.pinned(1) == ("natural", (0,), 0)

    def test_order_two_matches_identically(self):
        assert self.pinned(2) == ("natural", (0, 1), 0)

    def test_order_four_needs_no_displacement(self):
        # natural admits no match at 4, so dyadic is the first to give one
        assert self.pinned(4) == ("dyadic", (0, 1, 2, 3), 0)

    def test_order_eight_is_the_single_transposition(self):
        assert self.pinned(8) == ("dyadic", (0, 1, 2, 7, 4, 5, 6, 3), 2)

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64])
    @pytest.mark.parametrize("ordering", ["natural", "dyadic", "sequency"])
    def test_each_hadamard_column_fits_at_most_one_rounded_column(self, n, ordering):
        r = build_rht_matrix(n).entries
        w = walsh_matrix(n, ordering)
        for k in range(n):
            fitting = []
            for c in range(n):
                nz = r[:, c] != 0
                if np.array_equal(r[nz, c], w[nz, k]):
                    fitting.append(c)
            assert len(fitting) <= 1, (k, fitting)

    def test_hadamard_column_fitting_two_rounded_columns_raises(self, monkeypatch):
        # no two rounded columns agree on their common nonzeros at any accepted
        # order, so only a doctored rounded matrix can make the match ambiguous
        doubled = types.SimpleNamespace(entries=np.ones((2, 2), dtype=np.int64))
        monkeypatch.setattr(analysis, "build_rht_matrix", lambda n: doubled)
        with pytest.raises(AssertionError, match="n=2, ordering=natural"):
            hadamard_permutation(2)

    def test_two_equal_hadamard_columns_admit_no_match(self, monkeypatch):
        def doubled(n, ordering="natural"):
            w = walsh_matrix(n, ordering)
            w[:, 1] = w[:, 0]
            return w

        monkeypatch.setattr(analysis, "walsh_matrix", doubled)
        assert hadamard_permutation(8) is None

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_found_permutation_is_valid_on_nonzeros(self, n):
        perm = hadamard_permutation(n)
        r = build_rht_matrix(n).entries
        w = walsh_matrix(n, perm.ordering)
        for k, c in enumerate(perm.mapping):
            nz = r[:, c] != 0
            assert np.array_equal(r[nz, c], w[nz, k])

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_larger_orders_have_no_column_matching(self, n):
        assert hadamard_permutation(n) is None

    def test_bad_orders_rejected(self):
        for n in (3, 6, 12):
            with pytest.raises(ValueError):
                hadamard_permutation(n)
        with pytest.raises(ValueError):
            hadamard_permutation(128)

    def test_mapping_must_be_a_bijection(self):
        with pytest.raises(ValueError):
            ColumnPermutation((0, 0, 1), "natural", 2)


class TestIntensityDiagram:
    def test_zero_matrix_renders_all_white(self):
        img = intensity_diagram(np.zeros((5, 5)))
        assert (img.pixels == 255).all()

    def test_value_mode_levels_for_ternary(self):
        img = intensity_diagram(build_rht_matrix(16).entries, mode="value")
        assert set(np.unique(img.pixels)) == {0.0, 128.0, 255.0}

    def test_value_mode_maps_sign_to_shade(self):
        img = intensity_diagram(np.array([[-1.0, 0.0], [0.0, 1.0]]), mode="value")
        assert img.pixels[0, 0] == 0.0 and img.pixels[1, 1] == 255.0
        assert img.pixels[0, 1] == 128.0

    def test_magnitude_mode_scales_against_off_diagonal_peak(self):
        m = np.array([[9.0, 0.5], [1.0, 9.0]])
        img = intensity_diagram(m)
        assert img.pixels[1, 0] == 0.0  # the off-diagonal peak
        assert img.pixels[0, 1] == 128.0  # half the peak
        assert (np.diag(img.pixels) == 0.0).all()  # beyond scale clamps dark

    def test_omit_diagonal_whitens_diagonal(self):
        m = np.array([[9.0, 0.5], [1.0, 9.0]])
        img = intensity_diagram(m, omit_diagonal=True)
        assert (np.diag(img.pixels) == 255.0).all()
        assert img.pixels[1, 0] == 0.0

    def test_squared_scaled_matrix_renders_self_similar_structure(self):
        hs = build_rht_matrix(64).entries / 8.0
        img = intensity_diagram(hs @ hs, omit_diagonal=True)
        p = img.pixels
        assert p.shape == (64, 64)
        assert (np.diag(p) == 255.0).all()
        assert p.min() == 0.0  # some off-diagonal energy reaches full black

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            intensity_diagram(np.zeros((2, 2)), mode="contour")
        with pytest.raises(ValueError):
            intensity_diagram(np.zeros((2, 3)))
