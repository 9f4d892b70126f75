"""Measurement apparatus for the rounded transform family.

Covers the n-norm, matrix periods, the exact error-norm curve of the
squared scaled matrix, Freundlich power-law fitting, quasi-periodicity
checks, Hadamard column matching, and intensity-diagram rendering.

The norm curve is computed in exact integer arithmetic from one row of the
squared ternary matrix per divisor of n (see _even_power_residual; float64
matmul is exact there because every partial sum is an integer far below
2**53), and the rational mu**2 = q / n**4 is only converted to a float at
the edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .core import _rounded_cas, _unit_orbits, build_rht_matrix
from .transform2d import GrayImage

__all__ = [
    "NormCurve",
    "FreundlichFit",
    "ColumnPermutation",
    "QuasiPeriodReport",
    "n_norm",
    "matrix_period",
    "residual_square_sum",
    "exact_mu_squared",
    "norm_curve",
    "norm_curve_at",
    "freundlich_fit",
    "quasi_equivalence",
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


def matrix_period(m, max_k: int, tol: float = 1e-9) -> Optional[int]:
    """Smallest k <= max_k with A**(k+1) == A entrywise within tol.

    Returns None when no period exists in range (an idempotent projection
    has period 1, an involution has period 2).
    """
    a = np.asarray(m, dtype=np.float64)
    power = a
    for k in range(1, max_k + 1):
        power = power @ a
        if np.max(np.abs(power - a)) <= tol:
            return k
    return None


def _even_power_residual(n: int, k: int) -> int:
    """Integer q = sum of squares of the entries of (H_n**k - n**(k/2) I), k even.

    H[i, j] = r[i*j mod n], so for every unit u mod n H[u*i, j/u] = H[i, j],
    hence H**k[u*i, u*j] = H**k[i, j] for even k.  The rows i with
    gcd(i, n) = d form one orbit under the units, and rows of one orbit have
    equal square sums, so q needs one row per divisor d, weighted by the
    orbit size.  Every partial sum of a row of H**j is bounded by
    n**j <= n**k, so the rows are formed in float64 while n**k < 2**53, in
    int64 while n**k < 2**63, and in Python ints beyond that.  H is gathered
    64 columns at a time from the rounded cas table, so no n x n array is held.
    """
    if n < 1:
        raise ValueError("order must be positive")
    dtype = np.float64 if n**k < 2**53 else np.int64 if n**k < 2**63 else object
    r = _rounded_cas(n).astype(dtype)
    divisors, orbit_sizes, _, _ = _unit_orbits(n)
    rows = divisors % n
    m = np.arange(n)
    power = r[np.multiply.outer(rows, m) % n]
    for _ in range(k - 1):
        blocks = (r[np.multiply.outer(m, m[j : j + 64]) % n] for j in range(0, n, 64))
        power = np.hstack([power @ h for h in blocks])
    residual = power.astype(np.int64) if dtype is np.float64 else power
    residual[np.arange(len(rows)), rows] -= n ** (k // 2)
    # each row sum fits int64 when n * max|entry|**2 does; else Python ints
    if n * int(np.abs(residual).max()) ** 2 < 2**63:
        sums = (residual * residual).sum(axis=1).tolist()
    else:
        sums = (residual.astype(object) ** 2).sum(axis=1).tolist()
    return sum(w * s for w, s in zip(orbit_sizes.tolist(), sums))


def residual_square_sum(n: int) -> int:
    """Integer q = sum of squares of the entries of (H_n**2 - n*I).

    mu(H_s**2 - I) equals sqrt(q)/n**2 with H_s the symmetric-scaled
    matrix, so q carries the entire curve exactly.
    """
    return _even_power_residual(n, 2)


def exact_mu_squared(n: int) -> Fraction:
    """mu(H_s,n**2 - I_n)**2 as an exact rational."""
    return Fraction(residual_square_sum(n), n**4)


def _mu_from_q(q: int, n: int) -> float:
    return math.sqrt(q) / n**2


def norm_curve(n_lo: int, n_hi: int, stride: int = 1) -> NormCurve:
    """Curve of mu(H_s,n**2 - I_n) for n = n_lo, n_lo+stride, ..., n_hi."""
    if not 2 <= n_lo <= n_hi:
        raise ValueError("need 2 <= n_lo <= n_hi")
    return norm_curve_at(range(n_lo, n_hi + 1, stride))


def norm_curve_at(orders) -> NormCurve:
    """Curve restricted to an explicit list of orders (sparse grids)."""
    pts = tuple((n, _mu_from_q(residual_square_sum(n), n)) for n in orders)
    return NormCurve(pts)


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


def quasi_equivalence(
    family_a: Callable[[int], np.ndarray],
    family_b: Callable[[int], np.ndarray],
    orders: Sequence[int],
    epsilon: float,
) -> QuasiPeriodReport:
    """Generic comparator: are two matrix families within epsilon in n-norm
    at every tested order?  Floating-point evaluation."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    results = []
    max_mu, max_at = -1.0, 0
    for n in orders:
        mu = n_norm(np.asarray(family_a(n), dtype=np.float64) - family_b(n))
        results.append((n, mu <= epsilon))
        if mu > max_mu:
            max_mu, max_at = mu, n
    return QuasiPeriodReport(0, float(epsilon), tuple(results), max_mu, max_at)


def quasi_period_check(orders, k: int, epsilon) -> QuasiPeriodReport:
    """Evaluate mu(H_s,n**k - I_n) <= epsilon for each order.

    For even k the comparison is exact at every order: the residual square
    sum of the integer power of the ternary matrix is formed exactly from
    one row per divisor, the scale n**(k/2) is an integer, and mu**2 is
    compared to epsilon**2 as rationals.  Odd k involves an irrational
    scale, so those checks run in floating point through the generic
    comparator.
    """
    orders = list(orders)
    if k < 1:
        raise ValueError("power must be a positive integer")
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    if k % 2 == 1:

        def scaled_power(n):
            hs = build_rht_matrix(n).entries / math.sqrt(n)
            return np.linalg.matrix_power(hs, k)

        rep = quasi_equivalence(scaled_power, lambda n: np.eye(n), orders, float(eps))
        return QuasiPeriodReport(k, float(eps), rep.results, rep.max_mu, rep.max_mu_order)
    eps2 = eps * eps
    results = []
    max_mu2, max_at = Fraction(-1), 0
    for n in orders:
        mu2 = Fraction(_even_power_residual(n, k), n ** (k + 2))
        results.append((n, mu2 <= eps2))
        if mu2 > max_mu2:
            max_mu2, max_at = mu2, n
    return QuasiPeriodReport(k, float(eps), tuple(results), math.sqrt(max_mu2), max_at)


def _bit_reversed(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    rev = np.zeros(n, dtype=np.int64)
    for k in range(n):
        r = 0
        for b in range(bits):
            r = (r << 1) | ((k >> b) & 1)
        rev[k] = r
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

    Each rounded column is a ternary pattern whose zeros match anything;
    a bipartite assignment (not factorial search) places one rounded
    column at every Hadamard column so all nonzero entries agree.  The
    standard orderings are each tried and the match displacing the fewest
    columns wins.  None means no ordering admits an assignment, which is
    evidence against the quasi-Hadamard conjecture at this order.
    """
    if n < 1 or n & (n - 1):
        raise ValueError("Hadamard order must be a power of two")
    if n > 64:
        raise ValueError("matching is bounded to n <= 64")
    from scipy.optimize import linear_sum_assignment  # slow import, needed only here

    r = build_rht_matrix(n).entries
    best = None
    for ordering in _ORDERINGS:
        w = walsh_matrix(n, ordering)
        # conflict[k, c]: some row has a nonzero of column c differing from w[:, k]
        rt = r.T[None, :, :]  # (1, c, i)
        wt = w.T[:, None, :]  # (k, 1, i)
        conflict = ((rt != 0) & (rt != wt)).any(axis=2)
        big = float(n * n + 1)
        cost = np.where(conflict, big, 0.0) + (1.0 - np.eye(n))
        rows, cols = linear_sum_assignment(cost)
        if cost[rows, cols].sum() >= big:
            continue
        mapping = tuple(int(c) for c in cols)
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
        gray = np.sign(m + 1.0) * np.floor(np.abs(m + 1.0) * 127.5 + 0.5)
    elif mode == "magnitude":
        mag = np.abs(m)
        off_diag = mag.copy()
        np.fill_diagonal(off_diag, 0.0)
        peak = off_diag.max()
        if peak == 0.0:
            gray = np.where(mag == 0.0, 255.0, 0.0)
        else:
            gray = np.floor(255.0 * (1.0 - mag / peak) + 0.5)
        if omit_diagonal:
            np.fill_diagonal(gray, 255.0)
    else:
        raise ValueError(f"unknown diagram mode {mode!r}")
    return GrayImage(np.clip(gray, 0.0, 255.0))
