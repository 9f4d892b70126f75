import math

import numpy as np
import pytest

from rht import (
    CoefficientGrid,
    GrayImage,
    exact_inverse_2d,
    flip_both,
    flip_cols,
    flip_rows,
    forward_2d,
    psnr,
    roundtrip_report,
    temp_matrix,
    weak_inverse_2d,
)
from oracles import matlab_twodrht


def random_image(n, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, (n, n)).astype(np.float64)


class TestTempMatrix:
    def test_zero_image(self):
        assert (temp_matrix(np.zeros((3, 3))).values == 0).all()

    def test_two_by_two_corner_impulse(self):
        assert temp_matrix([[1.0, 0.0], [0.0, 0.0]]).values.tolist() == [[1, 1], [1, 1]]

    def test_equals_dense_triple_product(self):
        a = random_image(4, 0)
        import rht

        k = rht.build_rht_matrix(4).entries.astype(np.float64)
        np.testing.assert_array_equal(temp_matrix(a).values, k @ a @ k)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            temp_matrix(np.zeros((2, 3)))


class TestFlips:
    def test_order_two_flips_are_identity(self):
        g = CoefficientGrid([[1.0, 2.0], [3.0, 4.0]])
        for f in (flip_cols, flip_rows, flip_both):
            assert np.array_equal(f(g).values, g.values)

    def test_column_order_at_four(self):
        g = CoefficientGrid(np.arange(16.0).reshape(4, 4))
        assert flip_cols(g).values[0].tolist() == [0.0, 3.0, 2.0, 1.0]

    def test_row_zero_and_column_zero_fixed(self):
        g = CoefficientGrid(np.arange(25.0).reshape(5, 5))
        assert np.array_equal(flip_cols(g).values[:, 0], g.values[:, 0])
        assert np.array_equal(flip_rows(g).values[0, :], g.values[0, :])

    def test_flips_are_involutions(self):
        g = CoefficientGrid(random_image(6, 1))
        for f in (flip_cols, flip_rows, flip_both):
            assert np.array_equal(f(f(g)).values, g.values)

    def test_both_is_the_composition(self):
        g = CoefficientGrid(random_image(5, 2))
        assert np.array_equal(flip_both(g).values, flip_rows(flip_cols(g)).values)


class TestForwardInverse:
    def test_zero_image_forward(self):
        assert (forward_2d(np.zeros((4, 4))).values == 0).all()

    def test_order_one_is_identity(self):
        a = np.array([[37.0]])
        assert forward_2d(a).values.tolist() == [[37.0]]

    @pytest.mark.parametrize("n", [3, 4, 8, 16, 64])
    def test_forward_matches_published_listing(self, n):
        a = random_image(n, n)
        b_oracle, _, _ = matlab_twodrht(a)
        np.testing.assert_allclose(forward_2d(a).values, b_oracle, atol=1e-9)

    @pytest.mark.parametrize("n", [3, 4, 8, 16, 64])
    def test_weak_inverse_matches_published_listing(self, n):
        a = random_image(n, n + 1)
        b_oracle, aa_oracle, _ = matlab_twodrht(a)
        got = weak_inverse_2d(CoefficientGrid(b_oracle))
        np.testing.assert_allclose(got.pixels, aa_oracle, atol=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_roundtrip_exact_at_involution_orders(self, n):
        a = random_image(n, n + 7)
        back = weak_inverse_2d(forward_2d(a))
        assert np.abs(back.pixels - a).max() < 1e-9

    @pytest.mark.parametrize("n", [3, 8])
    def test_roundtrip_inexact_elsewhere(self, n):
        worst = 0.0
        for i in range(n):  # scan basis images
            e = np.zeros((n, n))
            e[i, i] = 1.0
            back = weak_inverse_2d(forward_2d(e))
            worst = max(worst, np.abs(back.pixels - e).max())
        assert worst > 1e-6

    def test_linearity(self):
        rng = np.random.default_rng(9)
        for n in (3, 8, 32):
            a, b = rng.normal(size=(n, n)), rng.normal(size=(n, n))
            al, be = 2.5, -1.25
            lhs = forward_2d(al * a + be * b).values
            rhs = al * forward_2d(a).values + be * forward_2d(b).values
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)
            lhs = weak_inverse_2d(al * a + be * b).pixels
            rhs = al * weak_inverse_2d(a).pixels + be * weak_inverse_2d(b).pixels
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    # 293 is the first order whose denominator does not fit a float64
    @pytest.mark.parametrize("n", [3, 8, 17, 33, 293])
    def test_exact_inverse_recovers_any_image(self, n):
        a = random_image(n, 3 * n)
        back = exact_inverse_2d(forward_2d(a))
        assert np.abs(back.pixels - a).max() < 1e-6


class TestPsnr:
    def test_identical_images_report_exact(self):
        a = random_image(8, 0)
        assert math.isinf(psnr(a, a))

    def test_full_scale_error_is_zero_db(self):
        assert psnr(np.zeros((6, 6)), np.full((6, 6), 255.0)) == pytest.approx(0.0)

    def test_transposition_invariance(self):
        a, b = random_image(16, 4), random_image(16, 5)
        assert psnr(a, b) == pytest.approx(psnr(a.T, b.T), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_known_rmse(self):
        a = np.zeros((2, 2))
        b = np.full((2, 2), 127.5)
        assert psnr(a, b) == pytest.approx(20 * math.log10(255 / 127.5))


class TestRoundtripReport:
    def test_pieces_are_consistent(self):
        a = random_image(8, 12)
        rep = roundtrip_report(a)
        np.testing.assert_array_equal(rep.coefficients.values, forward_2d(a).values)
        assert rep.psnr_db == pytest.approx(psnr(a, rep.recovered))

    def test_involution_order_reports_exact(self):
        rep = roundtrip_report(random_image(4, 13))
        assert math.isinf(rep.psnr_db)

    def test_matches_listing_psnr(self):
        a = random_image(16, 14)
        _, _, want = matlab_twodrht(a)
        assert roundtrip_report(a).psnr_db == pytest.approx(want, abs=1e-9)


class TestGrayImage:
    def test_validation(self):
        with pytest.raises(ValueError):
            GrayImage(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            GrayImage(np.array([[np.inf]]))
        with pytest.raises(ValueError):
            GrayImage(np.zeros((0, 0)))

    def test_pixels_read_only(self):
        img = GrayImage(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1.0
