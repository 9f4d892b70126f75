"""Exact rational inversion of integer matrices.

The inverse of the rounded transform matrix is computed in exact arithmetic
by p-adic lifting: a single modular inverse seeds a digit-by-digit expansion
of the solution of M X = I, the digits are assembled and converted to
rationals by lattice reduction of each entry, and the candidate is then
proven correct by a deterministic residue check before it is returned.

All heavy steps run as int64/float64 numpy kernels whose intermediate
values are kept below 2**53, so every machine product is exact.  Python
integers, exact by construction, carry the digit assembly and the per-entry
reconstruction; verification reduces them modulo each prime before its
float64 product.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = ["NotInvertible", "RationalMatrix", "exact_inverse", "invert_integer_matrix"]

_PRIME_CEILING = 1 << 20  # keeps n * p**2 < 2**53 for every feasible order
_SLACK_BITS = 24  # headroom demanded before trusting a fast-path numerator


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
    """Primes descending from limit, by trial division (limit is small)."""
    q = limit
    while q > 3:
        q -= 1
        if q in skip or q % 2 == 0:
            continue
        r, is_prime = 3, True
        while r * r <= q:
            if q % r == 0:
                is_prime = False
                break
            r += 2
        if is_prime:
            yield q
    raise RuntimeError("prime pool exhausted")


def _gj_inverse_mod(m: np.ndarray, p: int):
    """Gauss-Jordan inverse of m mod p, or None when m is singular mod p.

    Reduction is deferred: entries grow by at most p**2 per pivot and are
    folded back every 512 pivots, staying far below int64 overflow.
    """
    n = m.shape[0]
    a = np.concatenate([np.mod(m, p), np.eye(n, dtype=np.int64)], axis=1)
    for c in range(n):
        col = np.mod(a[c:, c], p)
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            return None
        r = c + nz[0]
        if r != c:
            a[[c, r]] = a[[r, c]]
        pivrow = np.mod(a[c], p)
        pv = int(pivrow[c])
        pivrow = pivrow * pow(pv, -1, p) % p
        a[c] = pivrow
        f = np.mod(a[:, c], p)
        f[c] = 0
        a -= np.outer(f, pivrow)
        if (c & 511) == 511:
            np.mod(a, p, out=a)
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


def _reconstruct_matrix(acc: np.ndarray, n: int, modulus: int):
    """Rational matrix from its image mod ``modulus``, or None if the
    lifted precision is still insufficient.

    One pass clears each entry by one modular multiplication with the
    running common denominator.  An entry that does not clear is
    reconstructed on its own and widens the denominator to the lcm; the
    entries before each widening are rescaled to the final denominator at
    the end, one slice per widening.  Acceptance demands _SLACK_BITS of
    headroom below the modulus, so a wrapped (garbage) numerator slips
    through with probability about 2**-_SLACK_BITS and is caught by the
    residue verification anyway.
    """
    bound = math.isqrt((modulus - 1) // 2)
    half = modulus // 2
    cap = half >> _SLACK_BITS
    nums, den, widened = [], 1, []  # widened: (flat index, denominator before)
    for x in acc.ravel().tolist():
        r = x * den % modulus
        if r > half:
            r -= modulus
        if abs(r) > cap:
            rec = _rational_reconstruct(x, modulus, bound)
            if rec is None:
                return None
            num, de = rec
            wider = den * (de // math.gcd(de, den))
            if wider != den:
                widened.append((len(nums), den))
                den = wider
            r = num * (den // de)
        nums.append(r)
    nums = np.array(nums, dtype=object)
    start = 0
    for stop, before in widened:
        nums[start:stop] *= den // before
        start = stop
    return nums.reshape(n, n), den


def _verify_product(m: np.ndarray, nums: np.ndarray, den: int, skip: int) -> bool:
    """Prove m @ nums == den * I over the integers.

    The identity is checked modulo fresh primes until their product exceeds
    twice the largest possible entry of the difference, which forces every
    entry of the difference to be exactly zero.  Deterministic, no lifting
    state is trusted.
    """
    n = m.shape[0]
    residue_bound = 2 * (n * int(np.abs(m).max()) * int(np.abs(nums).max()) + den)
    mf = m.astype(np.float64)
    ident = np.eye(n)
    prod = 1
    for q in _primes_below(_PRIME_CEILING, skip={skip}):
        aq = (nums % q).astype(np.float64)
        if not np.array_equal(np.mod(mf @ aq, q), ident * (den % q)):
            return False
        prod *= q
        if prod > residue_bound:
            return True


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
    max_m = int(np.abs(m).max())
    if n * n * max(max_m, 1) * _PRIME_CEILING >= 1 << 53:
        raise ValueError("entries too large for exact float64 kernels")

    # log2 of the Hadamard determinant bound, from the actual row norms
    log_had = 0.0
    for row in m:
        norm_sq = float(np.dot(row.astype(np.float64), row.astype(np.float64)))
        log_had += 0.5 * math.log2(max(norm_sq, 1.0))

    r0 = None
    log_tried = 0.0
    for p in _primes_below(_PRIME_CEILING):
        r0 = _gj_inverse_mod(m, p)
        if r0 is not None:
            break
        # det = 0 mod p; enough such primes certify det = 0 over the integers
        log_tried += math.log2(p)
        if log_tried > log_had + 1:
            raise NotInvertible(
                f"determinant is zero (certified across residues, order {n})"
            )

    r0f = r0.astype(np.float64)
    mf = m.astype(np.float64)
    digits_ceiling = max(4, int(2 * (log_had + 1) / math.log2(p)) + 4)
    b = np.eye(n)
    acc = np.zeros((n, n), dtype=object)
    modulus = 1
    lifted = 0
    target = min(max(4, int(0.075 * n) + 2), digits_ceiling)
    while True:
        scale = modulus
        segment = np.zeros((n, n), dtype=object)
        segment_mod = 1
        while lifted < target:
            digit = np.mod(r0f @ b, p)
            b = (b - mf @ digit) / p  # exact: quotient entries stay integral
            segment = segment + digit.astype(np.int64).astype(object) * segment_mod
            segment_mod *= p
            lifted += 1
        acc = acc + segment * scale
        modulus *= segment_mod
        candidate = _reconstruct_matrix(acc, n, modulus)
        if candidate is not None:
            nums, den = candidate
            if _verify_product(m, nums, den, skip=p):
                return RationalMatrix(n, nums, den)
        if lifted >= digits_ceiling:
            raise RuntimeError("p-adic lifting exceeded its precision ceiling")
        target = min(max(int(1.5 * target) + 1, target + 4), digits_ceiling)


def exact_inverse(n: int) -> RationalMatrix:
    """Exact inverse of the order-n unscaled rounded Hartley matrix.

    The product with the original matrix is verified to equal the identity
    in exact arithmetic before the result is returned; a singular matrix
    raises NotInvertible, which would be a counterexample worth reporting.
    """
    from .core import build_rht_matrix

    if n < 1:
        raise ValueError("order must be positive")
    return invert_integer_matrix(build_rht_matrix(n).entries)
