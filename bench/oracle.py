"""Reference computations the benchmark checks rht's outputs against.

They are written from the definitions, not from rht's code paths: the
ternary matrix is cas(2*pi*i*k/n) rounded to the nearest integer, the
exact inverse is checked by residues modulo primes chosen here, and the
2-D round trip follows the flip-combination formula directly.
"""

from __future__ import annotations

import math

import numpy as np

# Primes just below 2**31, far from the < 2**20 primes rht lifts with, so
# the residue check shares no modulus with the code it checks.
CHECK_PRIMES = (2147483647, 2147483629, 2147483587)


def ternary_rows(n: int, rows) -> np.ndarray:
    """Rows of the order-n rounded Hartley matrix as int64."""
    m = np.arange(n)
    table = np.rint(np.cos(2 * np.pi * m / n) + np.sin(2 * np.pi * m / n))
    rows = np.asarray(rows, dtype=np.int64)
    return table[np.outer(rows, m) % n].astype(np.int64)


class Ternary:
    """Cached int8 copy of the matrix, multiplied in row blocks."""

    def __init__(self):
        self._cache = {}

    def matrix(self, n: int) -> np.ndarray:
        if n not in self._cache:
            self._cache[n] = ternary_rows(n, range(n)).astype(np.int8)
        return self._cache[n]

    def product(self, n: int, v) -> np.ndarray:
        """Dense int64 product K @ v."""
        k = self.matrix(n)
        v = np.asarray(v, dtype=np.int64)
        out = np.empty(n, dtype=np.int64)
        for lo in range(0, n, 512):
            out[lo : lo + 512] = k[lo : lo + 512].astype(np.int64) @ v
        return out

    def float_product(self, n: int, v) -> np.ndarray:
        return self.matrix(n).astype(np.float64) @ np.asarray(v, dtype=np.float64)


def inverse_residue_error(n: int, numerators, denominator: int):
    """Check K @ N == d * I modulo CHECK_PRIMES; None when it holds."""
    k = ternary_rows(n, range(n))
    flat = [int(x) for x in np.asarray(numerators, dtype=object).flat]
    for p in CHECK_PRIMES:
        nums = np.array([x % p for x in flat], dtype=np.int64).reshape(n, n)
        lhs = (k @ nums) % p  # exact in int64: |K| <= 1 and n * p < 2**63
        if not np.array_equal(lhs, np.eye(n, dtype=np.int64) * (denominator % p)):
            return f"K @ N != d * I modulo {p} at n={n}"
    return None


def _flip_combination(x: np.ndarray) -> np.ndarray:
    rev = (-np.arange(x.shape[0])) % x.shape[0]
    return 0.5 * (x + x[:, rev] + x[rev, :] - x[np.ix_(rev, rev)])


def roundtrip_psnr(pixels: np.ndarray) -> float:
    """PSNR of the weak 2-D round trip K(.)K, flips, K(.)K / n**2, flips."""
    n = pixels.shape[0]
    k = ternary_rows(n, range(n)).astype(np.float64)
    coeffs = _flip_combination(k @ pixels @ k)
    back = _flip_combination((k @ coeffs @ k) / float(n * n))
    rmse = math.sqrt(float(np.mean((pixels - back) ** 2)))
    return math.inf if rmse == 0.0 else 20.0 * math.log10(255.0 / rmse)


def pgm_bytes(pixels: np.ndarray) -> bytes:
    h, w = pixels.shape
    return b"P5\n%d %d\n255\n" % (w, h) + pixels.astype(np.uint8).tobytes()


def bmp_bytes(pixels: np.ndarray) -> bytes:
    """8-bit grayscale BMP, bottom-up rows padded to 4 bytes."""
    h, w = pixels.shape
    stride = (w + 3) & ~3
    rows = np.zeros((h, stride), dtype=np.uint8)
    rows[:, :w] = pixels[::-1]
    palette = np.repeat(np.arange(256, dtype=np.uint8), 4).reshape(256, 4)
    palette[:, 3] = 0
    offset = 54 + 1024
    size = offset + rows.size
    header = b"BM" + size.to_bytes(4, "little") + bytes(4) + offset.to_bytes(4, "little")
    info = (
        (40).to_bytes(4, "little")
        + w.to_bytes(4, "little", signed=True)
        + h.to_bytes(4, "little", signed=True)
        + (1).to_bytes(2, "little")
        + (8).to_bytes(2, "little")
        + bytes(4)  # no compression
        + rows.size.to_bytes(4, "little")
        + bytes(8)  # resolution
        + (256).to_bytes(4, "little")
        + bytes(4)
    )
    return header + info + palette.tobytes() + rows.tobytes()


def saved_pgm_error(path, recovered: np.ndarray):
    """Check a save_pgm(quantize=True) file holds the clamped, rounded image."""
    data = open(path, "rb").read()
    n = recovered.shape[0]
    head = b"P5\n%d %d\n255\n" % (n, n)
    expect = np.clip(np.sign(recovered) * np.floor(np.abs(recovered) + 0.5), 0, 255)
    if data[: len(head)] != head:
        return f"saved PGM header {data[:16]!r} is wrong"
    if not np.array_equal(np.frombuffer(data[len(head) :], dtype=np.uint8), expect.astype(np.uint8).ravel()):
        return "saved PGM pixels differ from the rounded recovered image"
    return None
