"""Two-dimensional rounded transform of square images.

The forward path builds a temporary matrix T = K A K (K the ternary
matrix, applied to rows and columns) and combines index-reversed copies,
B = (T + T_cols + T_rows - T_both) / 2.  The same combination with K/n on
both sides gives the weak inverse; round trips are exact only at the
involution orders 1, 2 and 4, and PSNR measures the damage elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import build_rht_matrix

__all__ = [
    "GrayImage",
    "CoefficientGrid",
    "RoundTrip",
    "forward_2d",
    "weak_inverse_2d",
    "exact_inverse_2d",
    "psnr",
    "roundtrip_report",
]


def _square_float(values, what: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)  # a copy: setflags below must not freeze the caller's
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{what} must be a square 2-D grid, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError(f"{what} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GrayImage:
    """Square grayscale raster; 0..255 on input, real-valued after transforms."""

    pixels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pixels", _square_float(self.pixels, "image"))

    @property
    def order(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True)
class CoefficientGrid:
    """Square grid of 2-D transform coefficients."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _square_float(self.values, "grid"))

    @property
    def order(self) -> int:
        return self.values.shape[0]


def _as_image(a) -> GrayImage:
    return a if isinstance(a, GrayImage) else GrayImage(a)


def _as_grid(t) -> CoefficientGrid:
    return t if isinstance(t, CoefficientGrid) else CoefficientGrid(t)


def _reversal(n: int) -> np.ndarray:
    # index map i -> (n - i) mod n; position 0 is fixed
    return (-np.arange(n)) % n


def _ternary_sandwich(x: np.ndarray) -> np.ndarray:
    # A dense BLAS product on purpose: the add-only row-sum kernel applied to
    # all columns at once gathers nnz(K) * n values (830 MB at n = 512) and
    # took 0.62 s against 1.4 ms for this product at n = 256 (2-core x86).
    k = build_rht_matrix(len(x)).entries.astype(np.float64)
    return k @ x @ k


def _flip_combination(x: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    rev = _reversal(n)
    return 0.5 * (x + x[:, rev] + x[rev, :] - x[np.ix_(rev, rev)])


def forward_2d(a) -> CoefficientGrid:
    """B = (T + T_cols + T_rows - T_both) / 2 with T = K A K."""
    return CoefficientGrid(_flip_combination(_ternary_sandwich(_as_image(a).pixels)))


def weak_inverse_2d(b) -> GrayImage:
    """Approximate reconstruction using K/n on both sides plus the flips."""
    b = _as_grid(b)
    n = b.order
    return GrayImage(_flip_combination(_ternary_sandwich(b.values) / float(n * n)))


def exact_inverse_2d(b) -> GrayImage:
    """Reconstruction through the exact rational inverse of K.

    The flip combination is an involution, so it undoes itself; what
    remains is stripping K from both sides.  Evaluated in float64, good
    to ~1e-9 at the orders where the inverse entries stay moderate.
    Denominators pass float64's range from order 293 on, so numerators and
    denominator share one right shift that leaves the denominator 64 bits.
    """
    from .exact import exact_inverse

    b = _as_grid(b)
    inv = exact_inverse(b.order)
    shift = max(0, inv.denominator.bit_length() - 64)
    inv_f = np.array(inv.numerators >> shift, dtype=np.float64)
    inv_f /= float(inv.denominator >> shift)
    t = _flip_combination(b.values)
    return GrayImage(inv_f @ t @ inv_f)


def psnr(original, recovered) -> float:
    """20 log10(255 / RMSE); +inf when the images agree exactly."""
    a = _as_image(original).pixels
    b = _as_image(recovered).pixels
    if a.shape != b.shape:
        raise ValueError(f"image orders differ: {a.shape[0]} vs {b.shape[0]}")
    rmse = math.sqrt(float(np.mean((a - b) ** 2)))
    if rmse == 0.0:
        return math.inf
    return 20.0 * math.log10(255.0 / rmse)


@dataclass(frozen=True)
class RoundTrip:
    coefficients: CoefficientGrid
    recovered: GrayImage
    psnr_db: float


def roundtrip_report(a) -> RoundTrip:
    """Forward transform, weak inverse, and the resulting PSNR in one go."""
    a = _as_image(a)
    coeffs = forward_2d(a)
    back = weak_inverse_2d(coeffs)
    return RoundTrip(coeffs, back, psnr(a, back))
