"""Small exact number-theory helpers.  `factorint` and `divisors` use
unbounded trial division, so they serve only bounded callers: the `finabgrp`
enumeration oracle (factorint only, order <= 10**6), `heisenberg.cyclotomic_poly`
(from `character_norm`, dim <= 64) and two fixed-range sweeps.  `int_tuple` refuses
a float, Fraction or string that int() would truncate or parse.  `divisor_chain` is
the one gcd/lcm chain rule; `Record` the base of the package's immutable value types.
"""

from __future__ import annotations

import math
import operator


class Record:
    """Immutable value type in place of a frozen dataclass: a subclass lists its fields
    in __slots__ and, if callers build it, sets them in its own __init__ (object.__setattr__
    or _set).  Equality, hash, repr and _asdict read _fields (by default every slot);
    records of different classes are never equal; assignment and del raise.

    `_make(*values)` builds a record without its __init__, for values the package
    computed itself from parts that were validated already; it never takes input
    (argv, documents, a caller's arguments), which goes through __init__."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        cls._key = staticmethod(operator.attrgetter(*cls._fields))
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    @classmethod
    def _make(cls, *values):
        self = object.__new__(cls)
        for setter, value in zip(cls._setters, values):
            setter(self, value)
        return self

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _set(self, *values):
        """Set the fields to the values, in __slots__ order."""
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def __setstate__(self, state):
        # pickle and copy hand the slots over as (None, {name: value})
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}


def int_tuple(values) -> tuple[int, ...]:
    """The values as a tuple of ints; a non-integer raises a one-line ValueError naming it."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        bad = next((x for x in values if not hasattr(x, "__index__")), values)
        raise ValueError(f"expected an integer, got {bad!r}") from None


def divisor_chain(orders) -> list[int]:
    """Z/o_1 + ... + Z/o_k as Z/d_1 + ... + Z/d_k, d_1 | ... | d_k (1s kept): each
    order is carried down the chain by Z/a + Z/b = Z/gcd(a,b) + Z/lcm(a,b)."""
    chain: list[int] = []
    for o in orders:
        if o < 1:
            raise ValueError("cyclic orders must be positive")
        for i in reversed(range(len(chain))):
            chain[i], o = math.lcm(chain[i], o), math.gcd(chain[i], o)
        chain.insert(0, o)
    return chain


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    [n] = int_tuple((n,))
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
    [n] = int_tuple((n,))
    if n < 1:
        raise ValueError("divisors requires a positive integer")
    out = [1]
    for p, e in factorint(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)

