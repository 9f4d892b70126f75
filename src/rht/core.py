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


def _mirror(x: np.ndarray, axis: int = 0) -> np.ndarray:
    """A copy of x read at -i mod n along the axis, n its length there."""
    lead = (slice(None),) * axis
    return np.concatenate((x[lead + (slice(0, 1),)], x[lead + (slice(None, 0, -1),)]), axis=axis)


def _pair_split(x: np.ndarray) -> tuple:
    """(x + x[-i], x - x[-i]) over every i mod n, n = len(x): the sums and
    differences of the index pairs (i, n - i).  At an unpaired index (0, and
    n/2 for even n) the sum is twice the entry and the difference is 0."""
    mirror = _mirror(x)
    return x + mirror, x - mirror


# Rows per block of the product index.  Wider blocks fall out of cache: on
# a 2-core x86-64 host at orders 769-1024, the k = 2 products of
# analysis._power_traces took 1.3x as long with 128 rows and 2x with 256 as
# with 32 or 64.
_ROW_BLOCK = 64


def _product_rows(n: int, rows: range, width: int):
    """Row blocks of the product index i*j mod n as int64 arrays, over the
    rows i in the range and the columns j = 0..width-1.  Its callers take
    the rows i <= n/2, the others being mirrors: range(n // 2 + 1) at width
    n (_product_table) or at width n // 2 + 1, one column of each pair
    (j, n - j mod n) (_paired_plan and analysis._power_traces), and
    range(1, n // 2 + 1, 2) at width n // 2 (n even), the odd rows of the
    even/odd split (_level_kernel).

    Yields 64 rows at a time (the last block is shorter when 64 does not
    divide their count).  The first block is reduced with one division per
    entry; each later one is the block before plus 64*rows.step*j mod n,
    folded back below n, so no other entry costs a division.  The fold is a
    minimum over the block read as unsigned, where subtracting n wraps every
    value below n past 2**63: one pass fewer than subtracting
    n * (block >= n).  The update is in place (a fresh block per step was
    1.15x slower on the same host), so a block is only valid until the
    generator advances: use or copy it first.
    """
    i = np.arange(rows.start, rows.stop, rows.step, dtype=np.int64)
    j = np.arange(width, dtype=np.int64)
    block = np.multiply.outer(i[:_ROW_BLOCK], j) % n
    yield block
    if len(i) <= _ROW_BLOCK:
        return
    step = _ROW_BLOCK * rows.step * j % n
    for start in range(_ROW_BLOCK, len(i), _ROW_BLOCK):
        block += step
        unsigned = block.view(np.uint64)
        np.minimum(unsigned, unsigned - n, out=unsigned)
        yield block[: len(i) - start]


def _product_table(table: np.ndarray) -> np.ndarray:
    """The n x n matrix table[i*j mod n], n = len(table).  Only the rows
    i <= n//2 of the product index are formed (_product_rows), a block at a
    time, so no index array of the whole matrix is held; row n - i is row i
    of the mirrored table."""
    n = len(table)
    mirrored = _mirror(table)
    out = np.empty((n, n), dtype=table.dtype)
    back = out[::-1]  # back[i - 1] is row n - i
    start = 0
    # mode="wrap" (every index is already below n) lets take fill out in
    # place, where the default mode buffers out
    for block in _product_rows(n, range(n // 2 + 1), n):
        stop = start + len(block)
        np.take(table, block, out=out[start:stop], mode="wrap")
        skip = 1 if start == 0 else 0  # row n - 0 is row 0
        np.take(mirrored, block[skip:], out=back[start + skip - 1 : stop - 1], mode="wrap")
        start = stop
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


def _split_orders(n: int) -> tuple:
    """The even orders n, n/2, ... whose odd blocks the add-only plan of
    order n holds, and the odd part q of n, which it applies over column
    pairs at the bottom (_paired_plan)."""
    levels = []
    while n % 2 == 0:
        levels.append(n)
        n //= 2
    return levels, n


def _kernel_counts(r: np.ndarray) -> np.ndarray:
    """Nonzeros per row of the odd block of r[i*j mod n] (_product_rows),
    r the rounded cas table of an even order n.

    With g = gcd(i, n), i*j mod n runs over the multiples of g, each g
    times, as j runs over 0..n-1, so the whole row i holds
    g * count_nonzero(r[::g]) nonzeros.  An odd block row i keeps the
    columns j < n/2, which hold half of them: i*(j + n/2) = i*j + n/2 mod n
    for odd i, and r[x + n/2] = -r[x].  O(n) work; no block is formed.
    """
    n = len(r)
    g = np.gcd(np.arange(1, n, 2), n)
    per_divisor = np.zeros(n + 1, dtype=np.int64)
    for d in np.flatnonzero(np.bincount(g)).tolist():
        per_divisor[d] = np.count_nonzero(r[::d])
    return g * per_divisor[g] // 2


def _level_kernel(r: np.ndarray) -> tuple:
    """Signed columns (k for a +1, m/2 + k for a -1) and row starts of the
    rows i = 2a+1 <= m/2 of the odd block G[a, k] = r[(2a+1)*k mod m],
    k < m/2, r the rounded cas table of an even order m, so row a of G @ x
    sums concatenate([x, -x]) over cols[starts[a]:starts[a + 1]]
    (_row_sums).  No row is empty, which reduceat could not sum: column 0
    reads r[0] = 1.

    The rows i > m/2 are not held: row m - i (G's row m/2 - 1 - a) is row
    i read over y, with y_0 = x_0 and y_k = -x_{m/2-k} (_run_plan).  For
    1 <= k < m/2, r[-i*k] = -r[i*(m/2 - k)], since r[x + m/2] = -r[x] and
    i*m/2 = m/2 mod m for odd i; column 0 is 1 in both rows.  When m/2 is
    odd, row m/2 is its own mirror.

    A code table gives each value of r the offset of its term, -m for a 0
    (negative for every k < m/2), and is read over the product index 64 rows
    at a time into a column array sized by _kernel_counts; a row block whose
    nonzeros disagree with them fails the slice assignment.
    """
    m = len(r)
    half = m // 2
    counts = _kernel_counts(r)[: (half + 1) // 2]
    ends = np.cumsum(counts)
    starts = ends - counts
    cols = np.empty(ends[-1], dtype=np.intp)
    code = np.array((-m, 0, half), dtype=np.min_scalar_type(-m)).take(r)
    k = np.arange(half, dtype=code.dtype)
    a = 0
    for block in _product_rows(m, range(1, half + 1, 2), half):
        b = a + len(block)
        terms = code.take(block)
        terms += k
        # compress, not terms[terms >= 0]: on a 64 x 300 int16 block with
        # numpy 2.4.6 it takes 21.5 us against 82.0 us (2-core x86-64 host)
        cols[starts[a] : ends[b - 1]] = terms.ravel().compress((terms >= 0).ravel())
        a = b
    return cols, starts


# Terms a kernel gathers at a time, in whole rows: 512 KiB of two float64
# columns.  On a 2-core x86-64 host, fast_rht at 4095 took 7.8 ms so
# against 8.0 ms with 2**14 terms, 8.2 ms with 2**16, and 18.4 ms gathering
# all (h + 1)**2 terms of its odd part at once (64 MiB).
_GATHER_TERMS = 1 << 15


def _row_sums(rows: tuple, terms: np.ndarray) -> np.ndarray:
    """Row sums of a kernel from _level_kernel or _paired_plan over each
    column of terms, whose second half of rows negates the first:
    additions and sign flips only.  A kernel of more than _GATHER_TERMS
    terms is gathered and summed a block of rows at a time; every row sums
    the same terms in the same order either way."""
    cols, starts = rows
    if len(cols) <= _GATHER_TERMS:
        return np.add.reduceat(terms.take(cols, axis=0), starts, axis=0)
    sums = np.empty((len(starts), terms.shape[1]))
    # the rows holding terms 0, _GATHER_TERMS, 2 * _GATHER_TERMS, ...
    marks = np.arange(0, len(cols), _GATHER_TERMS)
    bounds = np.unique(np.searchsorted(starts, marks, side="right") - 1).tolist()
    for a, b in zip(bounds, bounds[1:] + [len(starts)]):
        lo = starts[a]
        hi = starts[b] if b < len(starts) else len(cols)
        np.add.reduceat(terms.take(cols[lo:hi], axis=0), starts[a:b] - lo, axis=0, out=sums[a:b])
    return sums


# Where the term a*x_j + b*x_{q-j} of a column pair lies in the first half
# of the terms of _paired_plan, by the pair's code 3*(a + 1) + (b + 1): at
# kind*h + j for the kinds 0 (s_j, with s_0 = x_0), 1 (x_j), 2 (x_{q-j})
# and 3 (d_j); codes 0..3 read the negated half.  Code 4, (a, b) = (0, 0),
# cannot occur (_paired_plan).
_PAIR_KIND = np.array([0, 1, 3, 2, 0, 2, 3, 1, 0])


def _paired_plan(r: np.ndarray) -> tuple:
    """The row-sum kernel (_row_sums) of the odd-order-q rounded transform,
    r its rounded cas table: rows i = 0..h, each of h + 1 terms read from

        x_0, s_1..s_h, x_1..x_h, x_{q-1}..x_{q-h}, d_1..d_h   (front)

    over the column pairs (j, q - j): h = (q - 1)/2, s_j = x_j + x_{q-j}
    and d_j = x_j - x_{q-j}.

    Output i is x_0 plus a*x_j + b*x_{q-j} summed over the pairs j = 1..h,
    with a = r[i*j mod q] and b = r[-i*j mod q].  That is one signed term:
    a*s_j if a = b, a*d_j if a = -b, a*x_j if b = 0 and b*x_{q-j} if a = 0.
    (a, b) = (0, 0) cannot occur, since max(|cas t|, |cas -t|) = sqrt(2) *
    max(|sin t|, |cos t|) >= 1; column j = 0 has x = 0, whose code (1, 1)
    reads s_0 = x_0.  Output q - i reads (b, a) where output i reads (a, b):
    s_j keeps its sign, x_j and x_{q-j} trade places and d_j changes sign,
    so row i read from

        x_0, s_1..s_h, x_{q-1}..x_{q-h}, x_1..x_h, -d_1..-d_h  (back)

    is output q - i, for i = 1..h (_run_plan).  The kernel is an
    (h + 1) x (h + 1) index over rows i = 0..h of the paired product index,
    a code table of the pair kinds and signs read there a block at a time
    (_product_rows) plus the pair number j.
    """
    q = len(r)
    h = q // 2
    even, odd = _pair_split(r)
    code = 2 * even + odd + 4  # 3*a + b + 4
    if (code == 4).any():
        raise AssertionError(f"kernel values r[x] = r[-x] = 0 at q={q}")
    offsets = _PAIR_KIND * h + (np.arange(9) < 4) * (4 * h + 1)
    table = offsets.take(code)
    index = np.empty((h + 1, h + 1), dtype=table.dtype)
    j = np.arange(h + 1)
    start = 0
    for block in _product_rows(q, range(h + 1), h + 1):
        rows = index[start : start + len(block)]
        # mode="wrap" (every index is already below q) lets take fill the
        # rows in place, where the default mode buffers them
        np.take(table, block, out=rows, mode="wrap")
        rows += j  # while the block is in cache
        start += len(block)
    return index.ravel(), np.arange(0, index.size, h + 1)


def _row_additions(rows: tuple, mirrored: slice) -> int:
    """Additions of a kernel's row sums, z - 1 for a row of z terms: once
    for every row it holds and once more for each row in mirrored."""
    cols, starts = rows
    adds = np.diff(starts, append=len(cols)) - 1
    return int(adds.sum() + adds[mirrored].sum())


class FastPlan:
    """Add-only plan of the order-n rounded transform, for every n >= 1.

    The rounded matrix keeps the even/odd row identities of the exact
    kernel, because rounding commutes with negation: for even n,

        h(2m, k)       = h_{n/2}(m, k mod n/2)
        h(2m+1, k+n/2) = -h(2m+1, k)

    so even outputs are the half-order transform of (low + high) and odd
    outputs are the odd block G[m, k] = h(2m+1, k), k < n/2, applied to
    (low - high).  The plan peels factors of two this way down to the odd
    part q of n (_split_orders).  It holds the signed row-sum kernel of G
    at each level (_level_kernel), and at the bottom that of the order-q
    transform over the column pairs (j, q - j) (_paired_plan).  Each is a
    small code table read over the product index i*j mod m plus the column
    number, and holds only the rows i <= m/2 of its order m: a run sums a
    kernel over two term columns at once, and row m - i is row i over the
    second (_run_plan).

    The additions a run takes depend on the plan alone, so they are counted
    here, once: a butterfly stage of order m takes m, the pair terms h sums
    and h differences, and a kernel row of z terms z - 1 after a signed
    copy, for every row a run writes: each held row, and again each one
    whose mirror is another row (the rows a < m/4 of a level, the rows
    1..h of the odd part).
    Immutable after construction and shareable.
    """

    __slots__ = ("order", "_levels", "_base", "_additions")

    def __init__(self, order: int):
        if order < 1:
            raise ValueError(f"order must be positive, got {order}")
        self.order = order
        # The odd block of a level m reads r_m[(2a+1)*k mod m], and r_m is
        # r[::n/m]: the same angles, which the tie guard on r keeps clear of
        # the rounding tie.
        r = _rounded_cas(order)
        levels, q = _split_orders(order)
        self._levels = tuple(_level_kernel(r[:: order // m]) for m in levels)
        self._base = _paired_plan(r[:: order // q])
        self._additions = 2 * (order - q) + (q - 1) + _row_additions(self._base, slice(1, None))
        self._additions += sum(_row_additions(k, slice(m // 4)) for k, m in zip(self._levels, levels))


def _run_plan(p: FastPlan, v: np.ndarray) -> np.ndarray:
    """H @ v through the plan, in one pass down the butterflies.

    Each kernel is summed once, over a term array of two columns, each
    over its negation (_row_sums): column 0 gives its rows i and column 1
    the rows m - i.  At level t (order m = n / 2**t) the columns are
    x = low - high and y, with y_0 = x_0 and y_k = -x_{m/2-k}
    (_level_kernel), and give the outputs (2a + 1) * 2**t, written at their
    stride as the butterflies run.  The odd part q, at the bottom, gives
    outputs i * 2**e (n = 2**e * q) from the front and back pair terms of
    _paired_plan (the back ones swap x_j and x_{q-j} and negate d_j, a sign
    flip, not an addition): rows i = 0..h over the front, and q - i over
    the back.  The self-mirrored row m/2 (m/2 odd) and the odd part's back
    row 0 are dropped.  Column 0 sums a row's terms in column order, and a
    level's row m - i sums its terms in reversed column order, so a float
    output there can differ in its last bits from a row-by-row sum; an
    integer one is exact either way.  At q = 1 the kernel is the identity,
    and the signal is copied instead.
    """
    out = np.empty(len(v))
    step = 1
    for rows in p._levels:
        half = len(v) // 2
        terms = np.empty((2 * half, 2))
        x = np.subtract(v[:half], v[half:], out=terms[:half, 0])
        terms[0, 1] = x[0]
        np.negative(x[:0:-1], out=terms[1:half, 1])
        np.negative(terms[:half], out=terms[half:])
        sums = _row_sums(rows, terms)
        odd = out[step :: 2 * step]  # G's rows 0..half - 1
        odd[: len(sums)] = sums[:, 0]
        odd[::-1][: half // 2] = sums[: half // 2, 1]  # rows a < m/4, mirrored
        v = v[:half] + v[half:]
        step *= 2
    h = len(v) // 2
    if h:
        w = 4 * h + 1
        terms = np.empty((2 * w, 2))  # [front, back] over their negation
        terms[0] = v[0]
        pairs = terms[h + 1 : 2 * h + 1]
        pairs[:, 0] = v[1 : h + 1]
        pairs[:, 1] = v[:h:-1]
        swapped = pairs[:, ::-1]
        terms[2 * h + 1 : 3 * h + 1] = swapped
        np.add(pairs, swapped, out=terms[1 : h + 1])
        np.subtract(pairs, swapped, out=terms[3 * h + 1 : w])
        np.negative(terms[:w], out=terms[w:])
        sums = _row_sums(p._base, terms)
        part = out[::step]  # outputs 0..q - 1
        part[: h + 1] = sums[:, 0]
        part[::-1][:h] = sums[1:, 1]  # output q - i from row i
    else:
        out[::step] = v
    return out


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
    """The add-only plan of the order-n rounded transform bound to a
    normalization tag.  No n x n matrix is held."""

    order: int
    normalization: Normalization

    def __post_init__(self):
        object.__setattr__(self, "_plan", FastPlan(self.order))


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
    """The order-n rounded transform under a normalization tag; n >= 1."""
    return ScaledTransform(n, normalization)


def _as_signal(v, n: int) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or len(v) != n:
        raise ValueError(f"signal length {v.shape} does not match order {n}")
    if not np.isfinite(v).all():
        raise ValueError("signal contains non-finite samples")
    return v


def apply_direct(t: ScaledTransform, v) -> Spectrum:
    """Forward rounded transform of a signal.

    The transform's plan (FastPlan) takes butterfly sums and differences,
    row sums of +x[j] and -x[j] terms, and at the odd part q of n row sums
    of pair sums and differences, so only additions are taken.  Every
    partial sum is bounded by n * max|v|.  The input of an order-m level is
    bounded by (n/m) * max|v| and its butterfly sums and differences by
    twice that, so a row of its odd block, m/2 terms, stays within
    n * max|v|; a mirrored row reads y (_run_plan), a signed permutation of
    the same differences, so it does too.  At the odd part q, a row is x_0
    plus (q - 1)/2 pair terms of at most 2(n/q) * max|v| each, again within
    n * max|v|, and the back terms are a signed permutation of them.  So the
    result is exact for integer v while n * max|v| < 2**53.  In SYMMETRIC
    mode it is scaled by n**-0.5 once.
    """
    v = _as_signal(v, t.order)
    coeffs = _run_plan(t._plan, v)
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
    return _run_plan(t._plan, _run_plan(t._plan, v)) / t.order - v


def fourier_estimate(s: Spectrum) -> np.ndarray:
    """Fourier spectrum from a Hartley spectrum via the even/odd split.

    F_k = E_k - 1j*O_k with E_k = (V_k + V_{n-k mod n})/2 and
    O_k = (V_k - V_{n-k mod n})/2.  Fed an exact DHT spectrum this equals
    the DFT of the original signal; fed a rounded spectrum it is the
    fast rough estimate.
    """
    even, odd = _pair_split(s.coefficients)
    return even / 2.0 - 1j * (odd / 2.0)
