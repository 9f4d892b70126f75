"""Exact rational inversion of integer matrices.

Both inverses are exact solutions of M X = R by p-adic lifting: a single
solve modulo a prime seeds a digit-by-digit expansion of X, the digits are
cleared by a common denominator and converted to rationals (lattice
reduction only where an entry needs it), and the candidate is then proven
correct by a deterministic residue check before it is returned.  A general
matrix is solved against R = I.  The rounded transform matrix is solved
against only the unit vectors at the divisors of its order: its inverse
keeps the matrix's symmetry under the units mod n, so those tau(n) columns
fix the whole inverse, and every stage works on n * tau(n) entries.

The lifted base-p digits are kept as one int32 row per digit.  Every
per-entry stage (clearing, conversion to Python ints, reduction modulo the
verification primes) is a float64 product over blocks of at most _BLOCK
entries, and each checks that its sums stay below 2**53, so every machine
product is exact.  Python integers are built once per entry, from bytes;
only the entries that fix the denominator, and the rare ones the digit test
does not accept, go through Python-int arithmetic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import _unit_orbits, build_rht_matrix

__all__ = ["NotInvertible", "RationalMatrix", "exact_inverse", "invert_integer_matrix"]

_PRIME_CEILING = 1 << 20  # every prime used is below this
_SIEVE_WINDOW = 2048
_SLACK_BITS = 24  # headroom demanded before trusting a fast-path numerator
# Entries per kernel call.  Blocks of this size, and one array per digit
# rather than one (digits, n*n) array, keep every temporary under about
# 1 MB below order 256.  Freeing a multi-MB array raises glibc's mmap
# threshold, after which freed temporaries stay resident; with 4096-entry
# blocks or one digit array, a sweep over orders 156..200 peaked 2-13 MB
# higher than with this layout.
_BLOCK = 1024
_LIMB = 1 << 16  # Python ints cross into numpy as base-2**16 limbs


def _check_exact(bound: int, what: str) -> None:
    """Raise ValueError unless integer sums up to ``bound`` are exact in float64."""
    if bound >= 1 << 53:
        raise ValueError(f"{what} would reach 2**53, past exact float64")


class NotInvertible(Exception):
    """The integer matrix is singular (certified, not a float guess)."""


@dataclass(frozen=True)
class RationalMatrix:
    """Exact rational matrix stored as integer numerators over one denominator.

    ``entries`` materializes lowest-terms Fractions on first use; the raw
    ``numerators``/``denominator`` pair is the cheap representation that the
    verification arithmetic works on.
    """

    order: int
    numerators: np.ndarray  # object array of Python ints
    denominator: int

    @functools.cached_property
    def entries(self) -> np.ndarray:
        n = self.order
        ent = np.empty((n, n), dtype=object)
        for i in range(n):
            for k in range(n):
                ent[i, k] = Fraction(int(self.numerators[i, k]), self.denominator)
        return ent

    def __getitem__(self, ik) -> Fraction:
        i, k = ik
        return Fraction(int(self.numerators[i, k]), self.denominator)


def _primes_below(limit, skip=()):
    """Odd primes descending from limit - 1 to 3, less those in skip.

    Sieved in descending windows of _SIEVE_WINDOW numbers by the primes up
    to sqrt(limit); a window near 2**20 holds about 150 primes.
    """
    root = math.isqrt(limit)
    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if base[p]:
            base[p * p :: p] = False
    base = np.flatnonzero(base).tolist()
    hi = limit
    while hi > 3:
        lo = max(hi - _SIEVE_WINDOW, 3)
        window = np.ones(hi - lo, dtype=bool)  # window[i] stands for lo + i
        for p in base:
            window[max(p * p, -(-lo // p) * p) - lo :: p] = False
        for q in (lo + np.flatnonzero(window)[::-1]).tolist():
            if q not in skip:
                yield q
        hi = lo
    raise RuntimeError("prime pool exhausted")


def _gj_solve_mod(m: np.ndarray, rhs: np.ndarray, p: int):
    """Gauss-Jordan solution of m X = rhs mod p, or None when m is singular
    mod p.

    Only the columns from the pivot on are updated: those before it are
    already reduced.  Reduction is deferred: entries start in [0, p), the
    pivot row is replaced by a reduced row, and each pivot subtracts a
    product of two residues below p, so entries stay in [-n*(p-1)**2, p).
    With p < 2**20 that fits int64 for every n < 2**23, past any matrix
    that fits in memory.
    """
    n = m.shape[0]
    a = np.concatenate([np.mod(m, p), np.mod(rhs, p)], axis=1)
    for c in range(n):
        nz = np.flatnonzero(np.mod(a[c:, c], p))
        if nz.size == 0:
            return None
        r = c + nz[0]
        if r != c:
            a[[c, r], c:] = a[[r, c], c:]
        pivrow = np.mod(a[c, c:], p)
        pivrow = pivrow * pow(int(pivrow[0]), -1, p) % p
        a[c, c:] = pivrow
        f = np.mod(a[:, c], p)
        f[c] = 0
        a[:, c:] -= np.outer(f, pivrow)
    return np.mod(a[:, n:], p)


def _rational_reconstruct(x: int, m: int, bound: int):
    """Balanced rational reconstruction of x mod m, or None.

    Finds num/den with x*den = num (mod m), |num| <= bound, den <= bound,
    by the half extended Euclidean algorithm.
    """
    r0, r1 = m, x % m
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound:
        return None
    num, den = (r1, t1) if t1 > 0 else (-r1, -t1)
    if math.gcd(den, m) != 1 or math.gcd(abs(num), den) != 1:
        return None
    return num, den


def _limb_table(p: int, d: int):
    """Base-2**16 limbs of p**i (float64, column i < d) and of p**d.

    The limb count leaves room for a sign bit, so the table turns d base-p
    digits into two's-complement limbs of values in [-p**d, p**d).
    """
    _check_exact(d * (p - 1) * (_LIMB - 1) + _LIMB, "base-p to base-2**16 limb sum")
    top = p**d
    width = top.bit_length() // 16 + 1
    powers = np.empty((width, d))
    v = 1
    for i in range(d):
        powers[:, i] = np.frombuffer(v.to_bytes(2 * width, "little"), dtype="<u2")
        v *= p
    return powers, np.frombuffer(top.to_bytes(2 * width, "little"), dtype="<u2")


def _digits_to_ints(block: np.ndarray, table, negative=None) -> list:
    """sum_i block[i] * p**i for each column of a (d, B) digit block, less
    p**d where ``negative`` is set, as Python ints.

    One product with the limbs of p**i and one carry pass give each entry's
    two's-complement limbs; int.from_bytes then builds each int once.
    """
    powers, top = table
    sums = powers @ block
    if negative is not None:
        sums -= np.outer(top, negative)
    sums = sums.astype(np.int64)
    carry = 0
    for limb in sums:
        limb += carry
        carry = limb >> 16
        limb &= _LIMB - 1
    raw = sums.T.astype("<u2").tobytes()
    step = 2 * len(powers)
    return [
        int.from_bytes(raw[i : i + step], "little", signed=True)
        for i in range(0, len(raw), step)
    ]


def _den_toeplitz(den: int, p: int, d: int) -> np.ndarray:
    """Lower-triangular Toeplitz matrix of the base-p digits of den mod p**d.

    Its product with a (d, B) digit block convolves den with every column,
    giving den * x mod p**d before carries; each sum is at most
    d * (p - 1)**2.
    """
    _check_exact(d * (p - 1) ** 2, "base-p Toeplitz sum")
    dd = np.empty(d)
    for i in range(d):
        den, dd[i] = divmod(den, p)
    lag = np.subtract.outer(np.arange(d), np.arange(d))
    return np.where(lag >= 0, dd[np.maximum(lag, 0)], 0.0)


def _clear(toeplitz: np.ndarray, block: np.ndarray, p: int):
    """Clear each column x of a (d, B) base-p digit block by den.

    Returns the base-p digits of r = den * x mod p**d (den is the one behind
    ``toeplitz``), the mask of the entries whose top two digits show that
    _reconstruct accepts them, r <= cap or r >= p**d - cap, and the mask of
    those read as r - p**d.  Those digits decide all but the entries in the
    band around +-cap, which are left undecided (not ok) for ``place``.
    """
    d = len(block)
    modulus = p**d
    cap = (modulus // 2) >> _SLACK_BITS
    unit = p ** (d - 2)  # weight of the second-highest digit
    lo, hi = cap // unit, (modulus - cap) // unit  # top values straddling +-cap
    low = (toeplitz @ block).astype(np.int64)
    carry = 0
    for row in low:
        row += carry
        carry = row // p
        row -= carry * p
    top = low[-1] * p + low[-2]
    negative = top > hi
    return low, negative | (top < lo), negative


def _reconstruct(digits: list, n: int, p: int):
    """Rational entries from their lifted base-p digits (one flat int32
    array per digit, one column of n entries after another), as integer
    numerators over one common denominator, or None if the lifted precision
    is still insufficient.

    Entries are walked in order and each is cleared by the running common
    denominator den: den * x mod p**d, lifted symmetrically, is accepted as
    the numerator when at most cap.  ``place`` is that rule in Python ints.
    The first column, which fixes the denominator, goes through it; later
    entries are cleared in digit space a block at a time (_clear), and the
    first one their top two digits do not accept (it fails the test, or
    lies in the band around +-cap) goes through ``place`` too.  An entry
    that ``place`` does not clear is reconstructed on its own and widens den
    to the lcm; the entries before each widening are rescaled to the final
    denominator at the end, one slice per widening.  Acceptance demands
    _SLACK_BITS of headroom below the modulus, so a wrapped (garbage)
    numerator slips through with probability about 2**-_SLACK_BITS and is
    caught by the residue verification anyway.
    """
    d = len(digits)
    size = len(digits[0])
    modulus = p**d
    bound = math.isqrt((modulus - 1) // 2)
    half = modulus // 2
    cap = half >> _SLACK_BITS
    table = _limb_table(p, d)
    nums, den, widened = [], 1, []  # widened: (flat index, denominator before)

    def gather(start: int, stop: int) -> np.ndarray:
        return np.array([row[start:stop] for row in digits], dtype=np.float64)

    def place(x: int) -> bool:
        nonlocal den
        r = x * den % modulus
        if r > half:
            r -= modulus
        if abs(r) > cap:
            rec = _rational_reconstruct(x, modulus, bound)
            if rec is None:
                return False
            num, de = rec
            wider = den * (de // math.gcd(de, den))
            if wider != den:
                widened.append((len(nums), den))
                den = wider
            r = num * (den // de)
        nums.append(r)
        return True

    if not all(map(place, _digits_to_ints(gather(0, n), table))):
        return None
    toeplitz_den = None
    start = n
    while start < size:
        block = gather(start, start + _BLOCK)
        if toeplitz_den != den:
            toeplitz, toeplitz_den = _den_toeplitz(den, p, d), den
        low, ok, negative = _clear(toeplitz, block, p)
        run = len(ok) if ok.all() else int(np.argmin(ok))
        nums += _digits_to_ints(low[:, :run], table, negative[:run])
        start += run
        if run < len(ok):
            if not place(_digits_to_ints(block[:, run : run + 1], table)[0]):
                return None
            start += 1
    nums = np.array(nums, dtype=object)
    start = 0
    for stop, before in widened:
        nums[start:stop] *= den // before
        start = stop
    return nums, den


def _limb_weights(width: int, primes: np.ndarray) -> np.ndarray:
    """2**(16 w) mod q for w <= width (rows) and each prime q (columns)."""
    _check_exact(width * _LIMB * int(primes.max()), "limb residue sum")
    out = np.empty((width + 1, len(primes)))
    out[0] = 1.0
    for w in range(width):
        out[w + 1] = out[w] * _LIMB % primes
    return out


def _residues(values: list, weights: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """(len(values), len(primes)) residues of Python ints, as float64.

    Each value's two's-complement 16-bit limbs come from to_bytes; one
    product with 2**(16 w) mod q reduces them all, and the sign limb
    subtracts 2**(16 width).
    """
    width = len(weights) - 1
    raw = b"".join(v.to_bytes(2 * width, "little", signed=True) for v in values)
    limbs = np.frombuffer(raw, dtype="<u2").reshape(len(values), width)
    negative = limbs[:, -1] >= _LIMB // 2
    sums = limbs @ weights[:-1] - np.outer(negative, weights[-1])
    return np.mod(sums, primes)


def _verify_product(
    m: np.ndarray, nums: np.ndarray, den: int, rhs: np.ndarray, skip: int
) -> bool:
    """Prove m @ nums == den * rhs over the integers.

    The identity is checked modulo fresh primes until their product exceeds
    twice the largest possible entry of the difference, which forces every
    entry of the difference to be exactly zero.  The returned numerators
    themselves are reduced, all primes at once, a block of columns at a
    time; no lifting state is trusted.
    """
    n, r = nums.shape
    max_m = int(np.abs(m).max())
    max_num = max(nums.max(), -nums.min())
    _check_exact(n * max_m * _PRIME_CEILING, "residue product")
    residue_bound = 2 * (n * max_m * max_num + den * int(np.abs(rhs).max()))
    primes, prod = [], 1
    for q in _primes_below(_PRIME_CEILING, skip={skip}):
        primes.append(q)
        prod *= q
        if prod > residue_bound:
            break
    den_q = np.array([den % q for q in primes], dtype=np.float64)
    primes = np.array(primes, dtype=np.float64)
    weights = _limb_weights(max_num.bit_length() // 16 + 1, primes)
    mf = m.astype(np.float64)
    step = max(1, _BLOCK // n)
    for c0 in range(0, r, step):
        cols = nums[:, c0 : c0 + step]
        c = cols.shape[1]
        res = _residues(cols.ravel().tolist(), weights, primes)
        got = np.mod(mf @ res.reshape(n, c * len(primes)), np.tile(primes, c))
        want = np.mod(np.multiply.outer(rhs[:, c0 : c0 + c], den_q), primes)
        if not np.array_equal(got, want.reshape(got.shape)):
            return False
    return True


def _solve(m: np.ndarray, rhs: np.ndarray, expand):
    """Exact solution of m X = rhs for a square int64 m and an (n, r) int64
    rhs: (numerators, den) with m @ numerators == den * rhs and den the
    least common denominator of X, numerators an (n, r) object array.

    Dixon's p-adic lifting: one Gauss-Jordan solve of [m | rhs] mod p seeds
    it, ``expand`` turns that (n, r) solution mod p into m**-1 mod p, each
    further base-p digit costs one product of m**-1 mod p with the (n, r)
    residual, and the reconstructed candidate is proven by _verify_product
    before it is returned.  Raises NotInvertible when m is singular;
    singularity is certified by determinant residues over enough primes to
    exceed the Hadamard bound, never by floating point.
    """
    n, r = rhs.shape
    max_m = int(np.abs(m).max())
    # |b| stays below n * max_m, so r0 @ b sums to under n**2 * max_m * p
    _check_exact(n * n * max(max_m, 1) * _PRIME_CEILING, "p-adic lifting product")

    mf = m.astype(np.float64)
    # log2 of the Hadamard determinant bound, from the actual row norms
    log_had = 0.5 * np.log2(np.maximum((mf * mf).sum(axis=1), 1.0)).sum()

    log_tried = 0.0
    for p in _primes_below(_PRIME_CEILING):
        sol = _gj_solve_mod(m, rhs, p)
        if sol is not None:
            break
        # det = 0 mod p; enough such primes certify det = 0 over the integers
        log_tried += math.log2(p)
        if log_tried > log_had + 1:
            raise NotInvertible(
                f"determinant is zero (certified across residues, order {n})"
            )

    r0f = expand(sol).astype(np.float64)
    digits_ceiling = max(4, int(2 * (log_had + 1) / math.log2(p)) + 4)
    b = rhs.astype(np.float64)
    digits = []
    target = min(max(4, int(0.075 * n) + 2), digits_ceiling)
    while True:
        while len(digits) < target:
            digit = (r0f @ b).astype(np.int64) % p
            b = (b - mf @ digit) / p  # exact: quotient entries stay integral
            digits.append(digit.T.ravel().astype(np.int32))
        candidate = _reconstruct(digits, n, p)
        if candidate is not None:
            nums, den = candidate
            nums = nums.reshape(r, n).T
            if _verify_product(m, nums, den, rhs, skip=p):
                return nums, den
        if len(digits) >= digits_ceiling:
            raise RuntimeError("p-adic lifting exceeded its precision ceiling")
        target = min(max(int(1.5 * target) + 1, target + 4), digits_ceiling)


def invert_integer_matrix(m) -> RationalMatrix:
    """Exact rational inverse of a square integer matrix.

    Raises NotInvertible when the matrix is singular; singularity is
    certified by determinant residues over enough primes to exceed the
    Hadamard bound, never by floating point.
    """
    m = np.asarray(m, dtype=np.int64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    n = m.shape[0]
    if n == 0:
        raise ValueError("matrix must be nonempty")
    nums, den = _solve(m, np.eye(n, dtype=np.int64), lambda sol: sol)
    return RationalMatrix(n, nums, den)


def exact_inverse(n: int) -> RationalMatrix:
    """Exact inverse of the order-n unscaled rounded Hartley matrix.

    The inverse keeps the unit symmetry of H: H**-1[d*v, j] = H**-1[d, v*j]
    for every unit v, and H**-1 is symmetric, so its columns c_d at the
    divisors d of n fix it, and only they are solved for.  Row d*v of the
    assembled X is c_d read at v*j, and H[k, j/v] = H[k/v, j] turns the
    certificate H @ c_d == den * e_d into H @ (row d*v) == den * e_{d*v}.
    So checking the tau(n) columns proves H @ X.T == den * I, hence (H being
    symmetric) H @ X == den * I.  A singular matrix raises NotInvertible,
    which would be a counterexample worth reporting.
    """
    if n < 1:
        raise ValueError("order must be positive")
    divisors, _, orbit, unit = _unit_orbits(n)
    e = np.zeros((n, len(divisors)), dtype=np.int64)
    e[divisors % n, np.arange(len(divisors))] = 1
    # X[d*v, j] = X[v*j, d]: entry (v*j, orbit of i) of the divisor columns
    index = np.multiply.outer(unit, np.arange(n)) % n, orbit[:, None]
    cols, den = _solve(build_rht_matrix(n).entries, e, lambda sol: sol[index])
    return RationalMatrix(n, cols[index], den)
