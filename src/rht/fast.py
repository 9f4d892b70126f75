"""Add-only fast evaluation of the rounded transform for power-of-two orders.

The rounded matrix satisfies the same even/odd row identities as the exact
kernel, and they survive rounding because rounding commutes with negation:

    h(2m, k)       = h_{n/2}(m, k mod n/2)
    h(2m+1, k+n/2) = -h(2m+1, k)

so even outputs are the half-size transform of (low + high) and odd outputs
are the ternary block G[m, k] = h(2m+1, k), k < n/2, applied to (low - high).
A plan holds the signed row-sum kernel of G (core._row_sum_plan) for each
level, gathered from the rounded cas table.  The butterflies run down to
order 1 and the kernels are applied on the way back up, with no products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Normalization, Spectrum, _as_signal, _rounded_cas, _row_sum_plan, _row_sums

__all__ = ["OpCount", "FastPlan", "plan", "fast_rht", "count_model"]


@dataclass(frozen=True)
class OpCount:
    additions: int
    multiplications: int


def _odd_block(n: int) -> np.ndarray:
    """G[m, k] = r[(2m+1)k mod n] for m, k < n/2, r the rounded cas table."""
    idx = np.multiply.outer(np.arange(1, n, 2), np.arange(n // 2))
    idx &= n - 1  # mod n, n a power of two
    return _rounded_cas(n).astype(np.int8)[idx]  # int8: an 8x smaller gather


class FastPlan:
    """Precomputed even/odd decomposition for one power-of-two order.

    Immutable after construction and shareable; holds the row-sum kernel
    of the odd block G for each level, orders n, n/2, ..., 2.
    """

    __slots__ = ("order", "_levels")

    def __init__(self, order: int):
        if order < 1 or order & (order - 1):
            raise ValueError(f"fast plan needs a power-of-two order, got {order}")
        self.order = order
        self._levels = tuple(
            _row_sum_plan(_odd_block(order >> i)) for i in range(order.bit_length() - 1)
        )


def plan(n: int) -> FastPlan:
    """Build the even/odd decomposition plan for order n (a power of two)."""
    return FastPlan(n)


def fast_rht(p: FastPlan, v) -> tuple[Spectrum, OpCount]:
    """Fast unscaled rounded transform with instrumented operation counts.

    The spectrum equals the direct ternary product exactly (bit-exact for
    integer inputs); the count of executed additions/subtractions is
    tallied as the plan runs and multiplications are structurally zero.
    A row of G with z nonzeros costs z - 1 additions after a signed copy.
    """
    v = _as_signal(v, p.order)
    additions = 0
    diffs = []
    for _ in p._levels:
        half = len(v) // 2
        diffs.append(v[:half] - v[half:])
        v = v[:half] + v[half:]
        additions += 2 * half  # one butterfly stage: half adds plus half subtracts
    out = v.copy()  # at order 1, v may still be the caller's array
    for rows, d in zip(reversed(p._levels), reversed(diffs)):
        out = np.column_stack([out, _row_sums(rows, d)]).ravel()  # even, odd
        additions += len(rows[0]) - len(rows[1])
    return Spectrum(out, Normalization.UNSCALED), OpCount(additions, 0)


def count_model(n: int) -> OpCount:
    """Predicted operation counts for order n without executing the plan.

    additions(1) = 0 and
    additions(n) = n + additions(n/2) + sum over G rows of (nonzeros - 1),
    the butterfly stage plus the recursive half plus the sparse odd block.
    """
    if n < 1 or n & (n - 1):
        raise ValueError(f"count model needs a power-of-two order, got {n}")
    adds = 0
    while n > 1:
        adds += n + int(np.count_nonzero(_odd_block(n))) - n // 2
        n //= 2
    return OpCount(adds, 0)
