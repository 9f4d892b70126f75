"""Measurement apparatus for the rounded transform family.

Covers the n-norm, the exact error-norm curve of the squared scaled
matrix, Freundlich power-law fitting, quasi-periodicity checks, Hadamard
column matching, and intensity-diagram rendering.

The norm curve and the quasi-period checks are computed in exact integer
arithmetic from one row of the ternary matrix power per divisor of n, and
mu is only converted to a float at the edge.  Each row stays in the basis
of the column pairs (j, n - j) from its first gather to the last halving
(_times_h): with the rounded cas table r, its pair sums and differences are
gathered from the tables r[x] + r[-x] and r[x] - r[-x] (core._pair_split),
and two products with the same tables give those of the product, so a
power gathers and multiplies about half the entries of the direct product.
The pair sum at an unpaired column (0, and n/2 for even n) is twice the
entry, and each power halves it first.  The last sums and differences give
twice the rows of the power, which are halved once, as integers.  No
partial sum of the k-th power's rows passes 2*n**(k-1), so they are formed
in float64 while 2*n**(k-1) <= 2**53 (every order up to 2**52 for k = 2),
in int64 while 2*n**(k-1) < 2**63, and in Python ints beyond
(_power_traces).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import (
    _pair_split, _product_rows, _round_half_away, _rounded_cas, _unit_orbits, build_rht_matrix
)
from .transform2d import GrayImage

__all__ = [
    "NormCurve",
    "FreundlichFit",
    "ColumnPermutation",
    "QuasiPeriodReport",
    "n_norm",
    "residual_square_sum",
    "exact_mu_squared",
    "norm_curve",
    "freundlich_fit",
    "quasi_period_check",
    "walsh_matrix",
    "hadamard_permutation",
    "intensity_diagram",
]


@dataclass(frozen=True)
class NormCurve:
    """Sequence of (order, mu) points with strictly increasing orders."""

    points: tuple

    def __post_init__(self):
        orders = [n for n, _ in self.points]
        if any(b <= a for a, b in zip(orders, orders[1:])):
            raise ValueError("orders must be strictly increasing")
        if any(not math.isfinite(mu) or mu < 0 for _, mu in self.points):
            raise ValueError("mu values must be finite and non-negative")

    @property
    def orders(self) -> np.ndarray:
        return np.array([n for n, _ in self.points], dtype=np.int64)

    @property
    def values(self) -> np.ndarray:
        return np.array([mu for _, mu in self.points])


@dataclass(frozen=True)
class FreundlichFit:
    """Power-law fit mu ~ a * n**b with the RMS log-domain residual.

    ``excluded`` lists the orders whose mu was zero and therefore could not
    enter the log-domain fit.
    """

    a: float
    b: float
    residual: float
    excluded: tuple


@dataclass(frozen=True)
class ColumnPermutation:
    """Column matching of the rounded matrix onto a Hadamard target.

    mapping[k] is the rounded-matrix column placed at target column k; on
    its nonzero entries that column agrees with target column k exactly.
    """

    mapping: tuple
    ordering: str
    displaced: int

    def __post_init__(self):
        if sorted(self.mapping) != list(range(len(self.mapping))):
            raise ValueError("mapping is not a bijection")


@dataclass(frozen=True)
class QuasiPeriodReport:
    k: int
    epsilon: float
    results: tuple  # (order, passed) pairs
    max_mu: float
    max_mu_order: int

    @property
    def all_pass(self) -> bool:
        return all(ok for _, ok in self.results)


def n_norm(m) -> float:
    """Frobenius norm divided by the order (Definition: the n-norm)."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("n-norm is defined for square matrices")
    return float(np.linalg.norm(m)) / m.shape[0]


def _times_h(
    a: np.ndarray, b: np.ndarray, even: np.ndarray, odd: np.ndarray, times: int
) -> np.ndarray:
    """p @ H_n**times for rows p given in the pair basis: the pair sums
    a = p_j + p_-j and differences b = p_j - p_-j (mod n) at j = 0..n//2.

    For q = p @ H, x = j*l mod n and the tables even[x] = r[x] + r[-x] and
    odd[x] = r[x] - r[-x] (core._pair_split), summing p_j r[jl] over j and
    -j (mod n) gives
        q_l + q_-l = sum over j <= n/2 of s_j * even[x],
        q_l - q_-l = sum over j <= n/2 of b_j * odd[x],
    with s_j = a_j, except at an unpaired column (j = -j: 0, and n/2 for
    even n), where a_j = 2p_j, s_j = p_j and odd[x] = 0.  So each power
    halves the unpaired sums of a (in place) and takes two products over
    the paired product index (core._product_rows), j and l in 0..n//2:
    about half the gathers and the flops of the direct product.  They give
    a and b of q, and the columns are returned as a_l +- b_l = 2q_l, 2q_-l:
    twice the rows, left for the caller to halve.  Every halving of a is
    exact, as it halves twice an integer.
    """
    n = len(even)
    h = (n - 1) // 2  # the pairs j = 1..h have two distinct columns
    width = n // 2 + 1
    unpaired = slice(0, width, n // 2) if n % 2 == 0 else slice(0, 1)
    for _ in range(times):
        a[:, unpaired] //= 2
        blocks = [
            (a @ even.take(block).T, b @ odd.take(block).T)
            for block in _product_rows(n, range(width), width)
        ]
        a, b = (np.hstack(part) for part in zip(*blocks)) if len(blocks) > 1 else blocks[0]
    return np.concatenate([a + b, a[:, h:0:-1] - b[:, h:0:-1]], axis=1)


def _power_traces(n: int, k: int) -> tuple:
    """Exact integers S = ||H_n**k||_F**2 and T = tr(H_n**k).

    H[i, j] = r[i*j mod n], so for every unit u mod n H[u*i, j/u] = H[i, j];
    hence H**k[u*i, u*j] = H**k[i, j] for even k and H**k[u*i, j/u] =
    H**k[i, j] for odd k.  The rows i with gcd(i, n) = d form one orbit under
    the units, and rows of one orbit have equal square sums, so S needs one
    row per divisor d, weighted by the orbit size.  On the diagonal,
    H**k[d*v, d*v] is H**k[d, d] for even k and H**k[d, d*v**2] for odd k, so
    T is one gather from the same rows.

    Row d of H is r[d*j], so its pair sums and differences are even[d*j]
    and odd[d*j] at j = 0..n//2 (core._pair_split), gathered once and
    multiplied by H k - 1 times in that basis (_times_h); no n x n array is
    held.  The entries of H**m are bounded by M = n**(m-1), and the pair
    sums and differences of its rows by 2M.  In the products that form
    those of H**k from those of H**(k-1), M = n**(k-2): each of the
    h = (n-1)//2 paired terms is bounded by 4M and each halved unpaired
    term (j = 0, and n/2 for even n) by 2M, so every partial sum is bounded
    by 2nM = 2*n**(k-1), and so are the doubled rows a +- b that _times_h
    returns.  So the rows are formed exactly in float64 while
    2*n**(k-1) <= 2**53, in int64 while 2*n**(k-1) < 2**63, and in Python
    ints beyond that, and halved once, in int64 or Python ints.
    """
    if n < 1:
        raise ValueError("order must be positive")
    bound = 2 * n ** (k - 1)
    dtype = np.float64 if bound <= 2**53 else np.int64 if bound < 2**63 else object
    even, odd = _pair_split(_rounded_cas(n).astype(dtype))
    divisors, orbit_sizes, orbit, unit = _unit_orbits(n)
    rows = divisors % n
    index = np.multiply.outer(rows, np.arange(n // 2 + 1)) % n
    power = _times_h(even[index], odd[index], even, odd, k - 1)
    if dtype is np.float64:
        power = power.astype(np.int64)
    power >>= 1  # exact: _times_h returns twice the rows
    v2 = unit * unit % n if k % 2 else 1
    trace = int(power[orbit, rows[orbit] * v2 % n].sum())
    # each row sum fits int64 when n * max|entry|**2 does; else Python ints
    if n * int(np.abs(power).max()) ** 2 < 2**63:
        sums = (power * power).sum(axis=1).tolist()
    else:
        sums = (power.astype(object) ** 2).sum(axis=1).tolist()
    return sum(w * s for w, s in zip(orbit_sizes.tolist(), sums)), trace


def residual_square_sum(n: int) -> int:
    """Integer q = sum of squares of the entries of (H_n**2 - n*I).

    mu(H_s**2 - I) equals sqrt(q)/n**2 with H_s the symmetric-scaled
    matrix, so q carries the entire curve exactly.
    """
    s, t = _power_traces(n, 2)
    return s - 2 * n * t + n**3


def exact_mu_squared(n: int) -> Fraction:
    """mu(H_s,n**2 - I_n)**2 as an exact rational."""
    return Fraction(residual_square_sum(n), n**4)


def _mu_from_q(q: int, n: int) -> float:
    return math.sqrt(q) / n**2


def norm_curve(n_lo: int, n_hi: int, stride: int = 1) -> NormCurve:
    """Curve of mu(H_s,n**2 - I_n) for n = n_lo, n_lo+stride, ..., n_hi."""
    if not 2 <= n_lo <= n_hi:
        raise ValueError("need 2 <= n_lo <= n_hi")
    orders = range(n_lo, n_hi + 1, stride)
    return NormCurve(tuple((n, _mu_from_q(residual_square_sum(n), n)) for n in orders))


def freundlich_fit(curve: NormCurve) -> FreundlichFit:
    """Least-squares fit of log mu = log a + b log n over nonzero points.

    Zero-mu points cannot enter a log fit; they are recorded in the
    ``excluded`` field of the result.  Fewer than two usable points raise.
    """
    usable = [(n, mu) for n, mu in curve.points if mu > 0]
    excluded = tuple(n for n, mu in curve.points if mu == 0)
    if len(usable) < 2:
        raise ValueError("fewer than 2 nonzero points, cannot fit power law")
    log_n = np.log([n for n, _ in usable])
    log_mu = np.log([mu for _, mu in usable])
    b, log_a = np.polyfit(log_n, log_mu, 1)
    resid = log_mu - (log_a + b * log_n)
    rms = float(np.sqrt(np.mean(resid**2)))
    return FreundlichFit(float(np.exp(log_a)), float(b), rms, excluded)


def _at_most(a, b, m: int) -> bool:
    """a <= b * sqrt(m), exactly, for rationals a, b and an integer m >= 1."""
    if b >= 0:
        return a <= 0 or a * a <= b * b * m
    return a <= 0 and a * a >= b * b * m


def quasi_period_check(orders, k: int, epsilon) -> QuasiPeriodReport:
    """Decide mu(H_s,n**k - I_n) <= epsilon exactly for each order.

    With S = ||H**k||_F**2 and T = tr(H**k) from _power_traces,
    mu**2 * n**(k+2) = c - b*sqrt(m), where c = S + n**(k+1),
    b = 2*T*n**(k//2), and m = 1 for even k or n for odd k.  So mu <= epsilon
    is c - epsilon**2 * n**(k+2) <= b*sqrt(m), which _at_most decides over
    the rationals.  Only max_mu is a float: its mu**2 takes sqrt(m) to 64
    bits and, for b > 0, is formed as (c**2 - b**2*m) / (c + b*sqrt(m)) so
    that it does not cancel.  It is exact when m is a perfect square, which
    covers every even k.
    """
    orders = list(orders)
    if not orders:
        raise ValueError("orders must not be empty")
    if k < 1:
        raise ValueError("power must be a positive integer")
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    results = []
    max_mu2, max_at = Fraction(-1), 0
    for n in orders:
        s, t = _power_traces(n, k)
        c = s + n ** (k + 1)
        b, m = 2 * t * n ** (k // 2), n if k % 2 else 1
        results.append((n, _at_most(c - eps * eps * n ** (k + 2), b, m)))
        root = Fraction(math.isqrt(m << 128), 1 << 64)
        x = (c * c - b * b * m) / (c + b * root) if b > 0 else c - b * root
        mu2 = x / n ** (k + 2)
        if mu2 > max_mu2:
            max_mu2, max_at = mu2, n
    return QuasiPeriodReport(k, float(eps), tuple(results), math.sqrt(max_mu2), max_at)


def _bit_reversed(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    k = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        rev |= ((k >> b) & 1) << (bits - 1 - b)
    return rev


def walsh_matrix(n: int, ordering: str = "natural") -> np.ndarray:
    """Sylvester-Hadamard matrix of order n in one of the usual orderings.

    natural:  entry (-1)**popcount(i AND k)
    dyadic:   natural with bit-reversed column indices
    sequency: rows of natural sorted by sign-change count
    """
    if n < 1 or n & (n - 1):
        raise ValueError("Hadamard order must be a power of two")
    idx = np.arange(n)
    syl = np.where(np.bitwise_count(np.bitwise_and.outer(idx, idx)) % 2 == 0, 1, -1)
    syl = syl.astype(np.int64)
    if ordering == "natural":
        return syl
    if ordering == "dyadic":
        return syl[:, _bit_reversed(n)]
    if ordering == "sequency":
        changes = (np.diff(syl, axis=1) != 0).sum(axis=1)
        return syl[np.argsort(changes, kind="stable")]
    raise ValueError(f"unknown Hadamard ordering {ordering!r}")


_ORDERINGS = ("natural", "dyadic", "sequency")


def hadamard_permutation(n: int) -> Optional[ColumnPermutation]:
    """Match rounded-matrix columns onto a Hadamard matrix, zeros wild.

    Hadamard column k fits rounded column c when every nonzero of c
    equals w[:, k].  On every accepted order and ordering each k fits at
    most one c (a k fitting two raises AssertionError), so the match is
    forced and needs no bipartite assignment: it exists when every k fits
    a column and no column is fitted twice.  The standard orderings are
    each tried and the match displacing the fewest columns wins.  None
    means no ordering admits a match, which is evidence against the
    quasi-Hadamard conjecture at this order.
    """
    if n < 1 or n & (n - 1):
        raise ValueError("Hadamard order must be a power of two")
    if n > 64:
        raise ValueError("matching is bounded to n <= 64")
    r = build_rht_matrix(n).entries
    best = None
    for ordering in _ORDERINGS:
        w = walsh_matrix(n, ordering)
        rt = r.T[None, :, :]  # (1, c, i)
        wt = w.T[:, None, :]  # (k, 1, i)
        fits = ~((rt != 0) & (rt != wt)).any(axis=2)  # fits[k, c]
        if (fits.sum(axis=1) > 1).any():
            raise AssertionError(f"ambiguous Hadamard match at n={n}, ordering={ordering}")
        mapping = tuple(int(c) for c in fits.argmax(axis=1))
        if not fits.any(axis=1).all() or len(set(mapping)) < n:
            continue
        displaced = int(sum(1 for k, c in enumerate(mapping) if k != c))
        if best is None or displaced < best.displaced:
            best = ColumnPermutation(mapping, ordering, displaced)
    return best


def intensity_diagram(
    m, mode: str = "magnitude", omit_diagonal: bool = False
) -> GrayImage:
    """Render a square matrix as a gray-level diagram.

    magnitude mode maps |entry| linearly with 0 -> 255 (white) and the
    largest off-diagonal magnitude -> 0 (black); anything beyond that
    scale (a dominant diagonal, typically) clamps to black unless
    omit_diagonal is set, in which case the diagonal renders white.
    value mode maps the value range [-1, 1] linearly to [0, 255], so a
    ternary matrix renders with exactly the levels {0, 128, 255}.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("intensity diagram needs a square matrix")
    n = m.shape[0]
    if mode == "value":
        gray = _round_half_away((m + 1.0) * 127.5)
    elif mode == "magnitude":
        mag = np.abs(m)
        off_diag = mag.copy()
        np.fill_diagonal(off_diag, 0.0)
        peak = off_diag.max()
        if peak == 0.0:
            gray = np.where(mag == 0.0, 255.0, 0.0)
        else:
            gray = _round_half_away(255.0 * np.maximum(1.0 - mag / peak, 0.0))
        if omit_diagonal:
            np.fill_diagonal(gray, 255.0)
    else:
        raise ValueError(f"unknown diagram mode {mode!r}")
    return GrayImage(np.clip(gray, 0.0, 255.0))
