"""Hartley transform kernels: the real DHT matrix, its integer rounding,
direct and weak-inverse application, and Fourier spectrum estimation.

The rounded matrix has every entry in {-1, 0, 1}, so applying it needs no
general multiplications; the only product ever taken is the single 1/sqrt(n)
scale factor in symmetric normalization.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Normalization",
    "Spectrum",
    "TernaryMatrix",
    "ScaledTransform",
    "cas",
    "build_dht_matrix",
    "build_rht_matrix",
    "rounded_transform",
    "apply_direct",
    "apply_dht",
    "weak_inverse_apply",
    "reconstruction_error",
    "fourier_estimate",
]

# Rounding margin guard: |cas| values provably never fall on a .5 tie, so any
# value this close to 0.5 means a numerical problem, not a legitimate tie.
TIE_GUARD = 1e-9


class Normalization(enum.Enum):
    """Scaling convention carried by every transform and spectrum.

    UNSCALED applies the raw matrix; SYMMETRIC multiplies each application
    by n**-0.5, which makes the exact DHT an involution.  The tag is never
    implicit and mixing tags raises.
    """

    UNSCALED = "unscaled"
    SYMMETRIC = "symmetric"


def cas(x):
    """cos(x) + sin(x), the Hartley kernel.  Accepts scalars or arrays."""
    return np.cos(x) + np.sin(x)


def _cas_table(n: int) -> np.ndarray:
    """cas(2*pi*m/n) for m = 0..n-1, the only kernel values an order-n
    transform can contain (angles reduce mod n in the exponent product)."""
    m = np.arange(n)
    return cas(2.0 * np.pi * m / n)


def _round_half_away(x: np.ndarray) -> np.ndarray:
    # np.round ties to even; the construction rule is half away from zero.
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def _rounded_cas(n: int) -> np.ndarray:
    """The order-n cas table rounded as build_rht_matrix describes, int64."""
    table = _cas_table(n)
    margin = np.abs(np.abs(table) - 0.5).min()
    if margin < TIE_GUARD:
        raise AssertionError(
            f"kernel value within {TIE_GUARD} of the rounding tie at n={n}"
        )
    return _round_half_away(table).astype(np.int64)


# Rows per block of the product index.  Wider blocks fall out of cache: on
# a 2-core x86-64 host at orders 769-1024, the k = 2 products of
# analysis._power_traces took 1.3x as long with 128 rows and 2x with 256 as
# with 32 or 64.
_ROW_BLOCK = 64


def _product_rows(n: int):
    """Row blocks of the product index i*j mod n as int64 arrays.

    Yields rows 0..63, 64..127, ... (the last block is shorter when 64 does
    not divide n) over all columns 0..n-1.  The first block is reduced with
    one division per entry; each later one is the block before plus
    64*j mod n, folded back by one subtraction of n, so no other entry costs
    a division, and every value stays below 2n.  The update is in place (a
    fresh block per step was 1.15x slower on the same host), so a block is
    only valid until the generator advances: use or copy it first.
    """
    j = np.arange(n, dtype=np.int64)
    block = np.multiply.outer(j[:_ROW_BLOCK], j) % n
    step = _ROW_BLOCK * j % n
    for start in range(0, n, _ROW_BLOCK):
        yield block[: n - start]
        block += step
        block -= n * (block >= n)


def _product_table(table: np.ndarray) -> np.ndarray:
    """The n x n matrix table[i*j mod n] for a length-n table, filled one
    row block at a time so no n x n index array is held."""
    n = len(table)
    out = np.empty((n, n), dtype=table.dtype)
    start = 0
    for block in _product_rows(n):
        out[start : start + len(block)] = table[block]
        start += len(block)
    return out


def _unit_orbits(n: int) -> tuple:
    """Orbits of the indices 0..n-1 under multiplication by the units mod n.

    H[i, j] = r[i*j mod n], so H[u*i, j/u] = H[i, j] for every unit u, and
    the orbit of i is {i' : gcd(i', n) = gcd(i, n)}.  Returns the divisors d
    of n in ascending order (d = n stands for index 0), the size of each
    orbit, and per index i the position of its orbit in the divisors and a
    unit v with d*v = i mod n.
    """
    g = np.gcd(np.arange(n), n)
    sizes = np.bincount(g)
    divisors = np.flatnonzero(sizes)
    units = np.flatnonzero(g == 1)
    hits = np.multiply.outer(divisors, units) % n
    orbit = np.empty(n, dtype=np.intp)
    unit = np.empty(n, dtype=np.int64)
    orbit[hits] = np.arange(len(divisors))[:, None]
    unit[hits] = units
    return divisors, sizes[divisors], orbit, unit


def _row_sum_plan(block: np.ndarray) -> tuple:
    """Signed column indices (j for a +1, width + j for a -1) and row starts
    of a ternary block, so row i of block @ x sums concatenate([x, -x]) over
    cols[starts[i]:starts[i + 1]].  Every row needs a nonzero (reduceat
    cannot sum an empty segment); column 0 of every block built here is 1."""
    width = block.shape[1]
    k = np.arange(width)
    cols = np.where(block < 0, k + width, k)[block != 0]
    starts = np.zeros(len(block), dtype=np.intp)
    np.cumsum(np.count_nonzero(block, axis=1)[:-1], out=starts[1:])
    return cols, starts


def _row_sums(rows: tuple, x: np.ndarray) -> np.ndarray:
    """block @ x from a _row_sum_plan, using additions and sign flips only."""
    cols, starts = rows
    return np.add.reduceat(np.concatenate([x, -x])[cols], starts)


@dataclass(frozen=True)
class TernaryMatrix:
    """Integer rounding of the order-n DHT matrix.

    Entries have an integer dtype and lie in {-1, 0, 1}, the matrix is
    symmetric, and row 0 and column 0 are all ones.  Violations raise at
    construction.
    """

    order: int
    entries: np.ndarray

    def __post_init__(self):
        e = self.entries
        if e.shape != (self.order, self.order):
            raise ValueError("entries shape does not match order")
        if not np.issubdtype(e.dtype, np.integer):
            raise ValueError("entries must have an integer dtype")
        if e.min() < -1 or e.max() > 1:
            raise ValueError("entries outside {-1, 0, 1}")
        # compared as int8 (the range check above makes that exact): the
        # transposed read of a wider dtype is slow at power-of-two strides
        small = e.astype(np.int8)
        if not np.array_equal(small, small.T):
            raise ValueError("rounded Hartley matrix must be symmetric")
        if not (e[0] == 1).all() or not (e[:, 0] == 1).all():
            raise ValueError("first row and column must be all ones")
        e.setflags(write=False)


@dataclass(frozen=True)
class Spectrum:
    """Transform coefficients plus the normalization they were produced under."""

    coefficients: np.ndarray
    normalization: Normalization

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", np.asarray(self.coefficients, dtype=np.float64)
        )

    def __len__(self):
        return len(self.coefficients)


@dataclass(frozen=True)
class ScaledTransform:
    """A ternary transform matrix bound to a normalization tag."""

    matrix: TernaryMatrix
    normalization: Normalization

    def __post_init__(self):
        object.__setattr__(self, "_rows", _row_sum_plan(self.matrix.entries))

    @property
    def order(self) -> int:
        return self.matrix.order


def build_dht_matrix(
    n: int, normalization: Normalization = Normalization.UNSCALED
) -> np.ndarray:
    """Dense DHT matrix with entries cas(2*pi*i*k/n).

    Args:
        n: transform order, n >= 1.
        normalization: UNSCALED for raw kernel values, SYMMETRIC to fold
            the 1/sqrt(n) factor into the entries.

    Returns:
        (n, n) float array, symmetric.
    """
    if n < 1:
        raise ValueError("order must be positive")
    h = _product_table(_cas_table(n))
    if normalization is Normalization.SYMMETRIC:
        h /= math.sqrt(n)
    return h


def build_rht_matrix(n: int) -> TernaryMatrix:
    """Round the order-n DHT matrix entrywise to the nearest integer.

    Rounding is half away from zero; actual ties cannot occur because
    |cas| of a rational angle never equals 1/2 exactly.  A guard asserts
    every kernel value stays clear of the tie by at least TIE_GUARD.
    """
    if n < 1:
        raise ValueError("order must be positive")
    return TernaryMatrix(n, _product_table(_rounded_cas(n)))


def rounded_transform(n: int, normalization: Normalization) -> ScaledTransform:
    """Convenience constructor pairing build_rht_matrix with a tag."""
    return ScaledTransform(build_rht_matrix(n), normalization)


def _as_signal(v, n: int) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or len(v) != n:
        raise ValueError(f"signal length {v.shape} does not match order {n}")
    if not np.isfinite(v).all():
        raise ValueError("signal contains non-finite samples")
    return v


def apply_direct(t: ScaledTransform, v) -> Spectrum:
    """Forward rounded transform of a signal.

    Each coefficient is a row sum of +v[j] and -v[j] terms gathered by the
    transform's signed column indices, so only additions are taken; the
    result is exact for integer v while n * max|v| < 2**53.  In SYMMETRIC
    mode it is scaled by n**-0.5 once.
    """
    v = _as_signal(v, t.order)
    coeffs = _row_sums(t._rows, v)
    if t.normalization is Normalization.SYMMETRIC:
        coeffs = coeffs / math.sqrt(t.order)
    return Spectrum(coeffs, t.normalization)


def apply_dht(
    m: np.ndarray, v, normalization: Normalization = Normalization.UNSCALED
) -> Spectrum:
    """Reference DHT application (dense real product).

    The tag must state the normalization the matrix was built with; it is
    carried onto the spectrum unchanged.
    """
    n = len(m)
    v = _as_signal(v, n)
    return Spectrum(np.asarray(m, dtype=np.float64) @ v, normalization)


def weak_inverse_apply(t: ScaledTransform, s: Spectrum) -> np.ndarray:
    """Apply the symmetric transform a second time to invert approximately.

    The scaled rounded matrix is its own weak inverse: the round trip
    differs from the original signal by (H_s^2 - I) v.  Weak inversion is
    only defined for SYMMETRIC normalization; unscaled input raises.
    """
    if t.normalization is not Normalization.SYMMETRIC:
        raise ValueError("weak inversion requires SYMMETRIC normalization")
    if s.normalization is not Normalization.SYMMETRIC:
        raise ValueError(
            f"spectrum tagged {s.normalization.value}; expected symmetric"
        )
    return apply_direct(t, s.coefficients).coefficients


def reconstruction_error(t: ScaledTransform, v) -> np.ndarray:
    """(H_s^2 - I) v, the weak-inverse round-trip error for the signal.

    Computed as H(Hv) / n - v with the add-only ternary product.  For
    integer v the sums are exact while n**2 * max|v| < 2**53, which bounds
    every partial sum, so the only rounding is the final scale and subtraction.
    """
    if t.normalization is not Normalization.SYMMETRIC:
        raise ValueError("reconstruction error is defined for SYMMETRIC mode")
    v = _as_signal(v, t.order)
    return _row_sums(t._rows, _row_sums(t._rows, v)) / t.order - v


def fourier_estimate(s: Spectrum) -> np.ndarray:
    """Fourier spectrum from a Hartley spectrum via the even/odd split.

    F_k = E_k - 1j*O_k with E_k = (V_k + V_{n-k mod n})/2 and
    O_k = (V_k - V_{n-k mod n})/2.  Fed an exact DHT spectrum this equals
    the DFT of the original signal; fed a rounded spectrum it is the
    fast rough estimate.
    """
    v = s.coefficients
    n = len(v)
    rev = v[(-np.arange(n)) % n]
    even = (v + rev) / 2.0
    odd = (v - rev) / 2.0
    return even - 1j * odd
