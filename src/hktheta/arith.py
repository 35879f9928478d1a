"""Small exact number-theory helpers.  `factorint` and `divisors` use
unbounded trial division, so they serve only bounded callers: the `finabgrp`
enumeration oracle (factorint only, order <= 10**6), `heisenberg.cyclotomic_poly`
(from `character_norm`, dim <= 64) and two fixed-range sweeps.  `int_tuple`
refuses a float, Fraction or string that int() would truncate or parse.
"""

from __future__ import annotations

import operator


def int_tuple(values) -> tuple[int, ...]:
    """The values as a tuple of ints; a non-integer raises a one-line ValueError naming it."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        bad = next((x for x in values if not hasattr(x, "__index__")), values)
        raise ValueError(f"expected an integer, got {bad!r}") from None


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorint requires a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1."""
    if n < 1:
        raise ValueError("divisors requires a positive integer")
    out = [1]
    for p, e in factorint(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def ord2(n: int) -> int:
    """2-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("ord2 of zero is undefined")
    return (n & -n).bit_length() - 1  # n & -n keeps the lowest set bit, for either sign
