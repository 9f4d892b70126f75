"""Add-only fast evaluation of the rounded transform, for every order.

The plan (core.FastPlan) splits the order-n transform into even and odd
outputs: even outputs are the half-order transform of (low + high), odd
outputs a ternary block applied to (low - high).  It peels factors of two
this way down to the odd part q of n, so a power of two runs down to order
1.  The order-q transform is applied over the column pairs (j, q - j): from
the pair sums and differences each output reads x_0 plus one signed term
per pair.  Output q - i reads output i's terms with x_j and x_{q-j} swapped
and d_j negated, and row m - i of an order-m odd block reads row i's terms
over its input with x_0 kept and x_1..x_{m/2-1} reversed and negated.  So
every kernel holds only its rows i <= m/2, and a run sums each kernel once
over a term array of two columns, one for rows i and one for rows m - i.
Every kernel, the odd blocks and the odd part alike, is a signed row sum
(core._row_sums), and every other step a sum or a difference: no products.
The same plan serves core.apply_direct.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    FastPlan,
    Normalization,
    Spectrum,
    _as_signal,
    _kernel_counts,
    _rounded_cas,
    _run_plan,
    _split_orders,
)

__all__ = ["OpCount", "FastPlan", "plan", "fast_rht", "count_model"]


@dataclass(frozen=True)
class OpCount:
    additions: int
    multiplications: int


def plan(n: int) -> FastPlan:
    """Build the add-only even/odd plan for order n >= 1."""
    return FastPlan(n)


def fast_rht(p: FastPlan, v) -> tuple[Spectrum, OpCount]:
    """Fast unscaled rounded transform with instrumented operation counts.

    The spectrum equals the direct ternary product exactly (bit-exact for
    integer inputs).  The plan runs in one pass, each output written at its
    stride as the butterflies reach it; the additions and subtractions it
    takes are the count stored in the plan (FastPlan), and multiplications
    are structurally zero.
    """
    out = _run_plan(p, _as_signal(v, p.order))
    return Spectrum(out, Normalization.UNSCALED), OpCount(p._additions, 0)


def count_model(n: int) -> OpCount:
    """Predicted operation counts for order n without building the plan.

    additions(q) = (q - 1)(q + 2)/2 for odd q: (q - 1)/2 pair sums and as
    many pair differences, and (q - 1)/2 additions for each of the q output
    rows.  For even n
    additions(n) = n + additions(n/2) + sum over G rows of (nonzeros - 1),
    the butterfly stage plus the recursive half plus the sparse odd block.
    The nonzeros per row come from core._kernel_counts in O(n).
    """
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    r = _rounded_cas(n)
    levels, q = _split_orders(n)
    adds = sum(m + int(_kernel_counts(r[:: n // m]).sum()) - m // 2 for m in levels)
    return OpCount(adds + (q - 1) * (q + 2) // 2, 0)
