"""Helpers shared by several test modules; not collected as tests."""

import math
from fractions import Fraction

from hktheta.finabgrp import (
    MAX_EXPONENT_BITS,
    MAX_PAIRING_RANK,
    FinAbGroup,
    GroupElement,
    Pairing,
    QmodZ,
    _pairing_units,
)


def symplectic_pairing(m: int, npairs: int) -> Pairing:
    """Standard symplectic pairing on (Z/m)^(2*npairs): e(g_{2k}, g_{2k+1}) = 1/m.

    m < 2 or npairs < 1 give no valid group, so FinAbGroup raises ValueError.
    """
    r = 2 * npairs
    group = FinAbGroup((m,) * r)

    def entry(i: int, j: int) -> QmodZ:
        if i // 2 != j // 2 or i == j:
            return QmodZ(0)
        return QmodZ(1 if i < j else -1, m)

    return Pairing(group, tuple(tuple(entry(i, j) for j in range(r)) for i in range(r)))


def as_fraction(q: QmodZ) -> Fraction:
    """The representative num/den in [0, 1) of a class in Q/Z."""
    return Fraction(q.num, q.den)


def to_qmodz(x: Fraction) -> QmodZ:
    """The class of a Fraction in Q/Z."""
    return QmodZ(x.numerator, x.denominator)


def qmodz_sum(*terms: QmodZ) -> QmodZ:
    """The sum of classes in Q/Z, taken over their representatives as Fractions."""
    return to_qmodz(sum(map(as_fraction, terms), Fraction(0)))


def check_pairing_matrix(orders, mat) -> None:
    """Reference for Pairing's validation, on QmodZ values and their negation.

    Raises the ValueError Pairing raises, in the same order: per row i the
    diagonal, then for each j skewness and order compatibility.
    """
    r = len(orders)
    if len(mat) != r or any(len(row) != r for row in mat):
        raise ValueError("pairing matrix must be rank x rank")
    if any(not isinstance(q, QmodZ) for row in mat for q in row):
        raise ValueError("pairing entries must be QmodZ")
    for i in range(r):
        if not mat[i][i].is_zero():
            raise ValueError("pairing must vanish on the diagonal")
        for j in range(r):
            if mat[j][i] != -mat[i][j]:
                raise ValueError("pairing matrix must be skew")
            if math.gcd(orders[i], orders[j]) % mat[i][j].den:
                raise ValueError(
                    f"entry {mat[i][j]} at ({i},{j}) is incompatible with generator orders"
                )


def pairing_from_dict_by_qmodz(obj) -> Pairing:
    """Reference for finabgrp.pairing_from_dict on the QmodZ route.

    Each entry is parsed by QmodZ.parse and the matrix handed to
    Pairing(FinAbGroup(orders), matrix), as documents were read before they
    went straight into integer pairs.  The steps added to that route are
    made before any entry is read: the order checks (type, FinAbGroup, then
    its exponent against MAX_EXPONENT_BITS) and the shape check, `rank` lists
    of `rank` entries, where strings and dicts are not rows; an entry that is
    not a string is refused by name when its turn comes.
    """
    def parse(s):
        if type(s) is not str:
            raise ValueError(f'malformed pairing document: entry {s!r} is not an "a/b" string')
        return QmodZ.parse(s)

    try:
        orders = tuple(obj["orders"])
        r = len(orders)
        if r > MAX_PAIRING_RANK:
            raise ValueError(f"pairing rank {r} exceeds the limit {MAX_PAIRING_RANK}")
        bad = [o for o in orders if type(o) is not int]
        if bad:
            raise ValueError(f"malformed pairing document: order {bad[0]!r} is not an integer")
        group = FinAbGroup(orders)
        if group.exponent.bit_length() > MAX_EXPONENT_BITS:
            raise ValueError(f"pairing exponent exceeds the limit MAX_EXPONENT_BITS = "
                             f"{MAX_EXPONENT_BITS} bits")
        rows = obj["matrix"]
        if not isinstance(rows, (list, tuple)) or len(rows) != r or any(
                not isinstance(row, (list, tuple)) or len(row) != r for row in rows):
            raise ValueError("pairing matrix must be rank x rank")
        matrix = tuple(tuple(map(parse, row)) for row in rows)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed pairing document: {exc!r}") from exc
    return Pairing(group, matrix)


def span_by_closure(columns, orders) -> set[tuple[int, ...]]:
    """The subgroup of prod Z/o_i spanned by the columns, as a set of tuples.

    Adds every column to every element found so far until nothing new comes
    up: a literal oracle for finabgrp._image_closure, sharing none of its
    bitset or doubling.
    """
    span = {(0,) * len(orders)}
    frontier = list(span)
    while frontier:
        found = []
        for y in frontier:
            for c in columns:
                z = tuple((a + b) % o for a, b, o in zip(y, c, orders))
                if z not in span:
                    span.add(z)
                    found.append(z)
        frontier = found
    return span


def character_eval(f: GroupElement, x: GroupElement) -> QmodZ:
    """<f, x> = sum f_i x_i / d_i in Q/Z, summed as Fractions.

    An oracle for the Heisenberg layer's integer phases: it shares no code
    with them.
    """
    if f.group != x.group:
        raise ValueError("character and argument must share the type d")
    total = sum(
        (Fraction(fi * xi, di) for fi, xi, di in zip(f.coords, x.coords, f.group.orders)),
        Fraction(0),
    )
    return to_qmodz(total)


def tensor_additivity_by_parts(t: Pairing, p1: Pairing, p2: Pairing, pairs) -> list[int]:
    """Reference for the integers of one sweeps.sweep_tensor_additivity check.

    At each coordinate pair, the sum of three separate _pairing_units
    evaluations, over the entries of t, of -p1 and of -p2, unmerged: the
    check's integer (n+1)(e_t - e_1 - e_2) as it was formed before the sweep
    summed the three forms by position.
    """
    pairs = list(pairs)
    parts = [list(_pairing_units(entries, pairs)) for entries in (
        t._entries,
        tuple((i, j, -u) for i, j, u in p1._entries),
        tuple((i, j, -u) for i, j, u in p2._entries),
    )]
    return [a + b + c for a, b, c in zip(*parts)]
