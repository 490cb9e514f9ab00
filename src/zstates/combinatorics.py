"""Exact combinatorics on arbitrary-precision integers."""

from __future__ import annotations

from decimal import Decimal
from math import comb

__all__ = ["binom", "vandermonde_holds", "int_str"]


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) with the zero convention.

    Returns 0 whenever k < 0 or k > n, so convolution sums can be written
    without boundary case-splits.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def vandermonde_holds(n: int, m: int, k: int) -> bool:
    """Exactly check sum_j C(m, j) * C(n - m, k - j) == C(n, k) over j = 0..k."""
    if not 0 <= m <= n:
        raise ValueError(f"m must lie in 0..{n}, got {m}")
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in 0..{n}, got {k}")
    lhs = sum(binom(m, j) * binom(n - m, k - j) for j in range(k + 1))
    return lhs == binom(n, k)


def int_str(n: int) -> str:
    """Exact decimal digits of any int.

    `str` refuses ints past `sys.get_int_max_str_digits()`; converting
    through `Decimal`, which is exact for ints, has no such limit.
    """
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))
