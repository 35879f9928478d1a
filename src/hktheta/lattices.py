"""Integral lattices carrying the degree-2 invariants of the two families.

Two built-in Gram lattices: the rank-7 lattice U^3 + <-2(n+1)> attached to
the generalized-Kummer family (basis e1,f1,e2,f2,e3,f3,delta) and the
rank-8 lattice U^3 + <-2> + <-2> attached to the OG6 family (basis
e1,...,f3,g1,g2), with U the hyperbolic plane [[0,1],[1,0]].

Vectors are plain integer tuples in basis order.  Everything here is exact
integer arithmetic: the pairing v^T.gram.w, the divisibility gcd, orbit
classification by (square, divisibility, mod-8 residue), and the
wall-divisor splitting of square -2(n+1), divisibility 2(n+1) classes into
a pair of isotropic vectors of an ambient U^4 (n+1 = p*q from two gcds).
Two kernels.  gram.v runs over the nonzero Gram entries (one per row here): bbf_pair,
divisibility, and the div and q that og6_class and kum_orbit_split read off one gram.v.
A square runs over the entries with i <= j, off-diagonal ones doubled: bbf_square and
kum_orbit_split's internal checks (beta^2, isotropy of e and f) on tuples it built, not
validated again; its input is validated once.  The built-in lattices skip GramLattice's
checks, which a caller's Gram matrix passes; og6_class and is_primitive take the gcd
they need as their integrality check (int_tuple names a non-integer only when it fails).
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from functools import lru_cache

from .arith import Record, int_tuple
from .snf import integer_det

__all__ = [
    "GramLattice",
    "OG6Class",
    "OrbitInvariant",
    "hyperbolic_sum",
    "lambda_kum",
    "lambda_og6",
    "bbf_pair",
    "bbf_square",
    "divisibility",
    "is_primitive",
    "og6_class",
    "kum_split_candidates",
    "kum_orbit_split",
]

_U = ((0, 1), (1, 0))


class GramLattice(Record):
    """Free Z-module with a fixed basis and a nondegenerate symmetric Gram matrix."""

    # _entries: the nonzero entries (i, j, gram[i][j]); _upper: those with i <= j, each
    # off-diagonal one doubled, so that a square is sum(x*v[i]*v[j]) over them
    __slots__ = ("name", "gram", "basis", "_entries", "_upper")
    _fields = ("name", "gram", "basis")

    def __init__(self, name: str, gram: tuple[tuple[int, ...], ...], basis: tuple[str, ...]):
        gram = tuple(map(int_tuple, gram))
        r = len(gram)
        if r == 0 or any(len(row) != r for row in gram):
            raise ValueError("gram matrix must be square and nonempty")
        if any(gram[i][j] != gram[j][i] for i in range(r) for j in range(r)):
            raise ValueError("gram matrix must be symmetric")
        if len(basis) != r:
            raise ValueError("basis labels must match the rank")
        if integer_det(gram) == 0:
            raise ValueError("gram matrix must be nondegenerate")
        self._set(name, gram, basis, *_kernels(gram))

    @property
    def rank(self) -> int:
        return len(self.gram)


def _kernels(gram) -> tuple[tuple, tuple]:
    entries = tuple((i, j, x) for i, row in enumerate(gram) for j, x in enumerate(row) if x)
    return entries, tuple((i, j, x if i == j else 2 * x) for i, j, x in entries if i <= j)


def _block_lattice(name: str, blocks, basis: tuple[str, ...]) -> GramLattice:
    """Blocks U and <-2k>, k >= 1, on the diagonal: symmetric and nondegenerate, unchecked."""
    rank, gram = len(basis), ()
    for b in blocks:
        at = len(gram)
        gram += tuple((0,) * at + row + (0,) * (rank - at - len(row)) for row in b)
    return GramLattice._make(name, gram, basis, *_kernels(gram))


def hyperbolic_sum(copies: int) -> GramLattice:
    """Orthogonal sum of `copies` hyperbolic planes U."""
    [copies] = int_tuple((copies,))
    if copies < 1:
        raise ValueError("need at least one hyperbolic plane")
    basis = tuple(x for i in range(1, copies + 1) for x in (f"e{i}", f"f{i}"))
    return _block_lattice(f"U^{copies}", [_U] * copies, basis)


def lambda_kum(n: int) -> GramLattice:
    """U^3 + Z*delta with delta^2 = -2(n+1); basis (e1,f1,e2,f2,e3,f3,delta)."""
    [n] = int_tuple((n,))
    if n < 2:
        raise ValueError("Kummer-type parameter n must be >= 2")
    basis = ("e1", "f1", "e2", "f2", "e3", "f3", "delta")
    return _block_lattice(f"kum:{n}", [_U, _U, _U, ((-2 * (n + 1),),)], basis)


@lru_cache(maxsize=64)
def _kum_lattice(n: int) -> GramLattice:
    # one shared (frozen) lambda_kum(n) per recent n; n comes from user input, so bounded
    return lambda_kum(n)


def lambda_og6() -> GramLattice:
    """U^3 + <-2> + <-2>; basis (e1,f1,e2,f2,e3,f3,g1,g2)."""
    basis = ("e1", "f1", "e2", "f2", "e3", "f3", "g1", "g2")
    return _block_lattice("og6", [_U, _U, _U, ((-2,),), ((-2,),)], basis)


def _as_vector(lat: GramLattice, v) -> tuple[int, ...]:
    vec = int_tuple(v)
    if len(vec) != len(lat.gram):
        raise ValueError(f"vector length {len(vec)} does not match rank {lat.rank}")
    return vec


def _gram_times(lat: GramLattice, v: tuple[int, ...]) -> list[int]:
    gv = [0] * len(v)
    for i, j, x in lat._entries:
        gv[i] += x * v[j]
    return gv


def _square(lat: GramLattice, v: tuple[int, ...]) -> int:
    return sum([x * v[i] * v[j] for i, j, x in lat._upper])


def _content(lat: GramLattice, v) -> tuple[tuple, int]:
    """v as a tuple and the gcd of its entries.  Refused, in this order: a non-integer
    (named by int_tuple only once math.gcd has failed), a length other than lat.rank, zero."""
    v = tuple(v)
    try:
        g = math.gcd(*v)
    except TypeError:
        int_tuple(v)
        raise
    if len(v) != len(lat.gram):
        raise ValueError(f"vector length {len(v)} does not match rank {lat.rank}")
    if not g:
        raise ValueError("primitivity is undefined for the zero vector")
    return v, g


def bbf_pair(lat: GramLattice, v, w) -> int:
    """Symmetric bilinear pairing v^T.gram.w of two lattice vectors."""
    return sum(map(operator.mul, _as_vector(lat, v), _gram_times(lat, _as_vector(lat, w))))


def bbf_square(lat: GramLattice, v) -> int:
    """Square q(v) = bbf_pair(lat, v, v)."""
    return _square(lat, _as_vector(lat, v))


def divisibility(lat: GramLattice, v) -> int:
    """Nonnegative generator of the ideal of pairings of v: gcd of gram.v (0 for v=0)."""
    return math.gcd(*_gram_times(lat, _as_vector(lat, v)))


def is_primitive(lat: GramLattice, v) -> bool:
    """True iff the gcd of the coordinates is 1.  The zero vector is rejected."""
    return _content(lat, v)[1] == 1


class OG6Class(Enum):
    I = "I"
    II = "II"
    III = "III"


_I, _II, _III = OG6Class
_OG6 = lambda_og6()
_U3 = hyperbolic_sum(3)
_U4 = hyperbolic_sum(4)


def og6_class(v) -> OG6Class:
    """Orbit class of a primitive OG6-lattice vector.

    I when divisibility 1; for divisibility 2 the square is -2 or -4 mod 8,
    giving II and III respectively.  Any other combination is impossible for
    primitive vectors, hence an internal assertion failure.
    """
    v, g = _content(_OG6, v)
    if g != 1:
        raise ValueError("orbit class is defined for primitive vectors only")
    gv = _gram_times(_OG6, v)
    div = math.gcd(*gv)
    if div == 1:
        return _I
    if div == 2:
        residue = sum(map(operator.mul, v, gv)) % 8
        if residue == 6:
            return _II
        if residue == 4:
            return _III
        raise AssertionError(f"divisibility 2 with square residue {residue} mod 8")
    raise AssertionError(f"primitive vector with divisibility {div}")


class OrbitInvariant(Record):
    """Wall-divisor splitting data: alpha = 2(n+1)*beta + x0*delta = p*e + q*f.

    beta is the U^3 component (6 coordinates); e and f are the isotropic
    witnesses, written in the ambient U^4 basis (e1,f1,e2,f2,e3,f3,e4,f4)
    in which delta = e4 - (n+1)*f4.
    """

    __slots__ = ("x0", "p", "q", "beta", "e", "f")

    def __init__(self, x0: int, p: int, q: int, beta: tuple[int, ...], e: tuple[int, ...],
                 f: tuple[int, ...]):
        self._set(x0, p, q, beta, e, f)


def kum_split_candidates(n: int, x0: int) -> list[tuple[int, int]]:
    """Factorizations n+1 = p*q with 2p | x0-1 and 2q | x0+1 (at most one).

    These splittings have integral isotropy witnesses; an actual wall-divisor
    class has exactly one.  Even x0 has none.  For odd x0, p | g1 = gcd(n+1,
    (x0-1)/2) and q | g2 = gcd(n+1, (x0+1)/2), and g1, g2 divide consecutive
    integers, so they are coprime: p*q = n+1 forces (p, q) = (g1, g2).
    """
    p, q = math.gcd(n + 1, (x0 - 1) // 2), math.gcd(n + 1, (x0 + 1) // 2)
    return [(p, q)] if x0 % 2 and p * q == n + 1 else []


def kum_orbit_split(n: int, alpha) -> OrbitInvariant:
    """Split a square -2(n+1), divisibility 2(n+1) class as p*e + q*f.

    The input must be primitive with exactly that square and divisibility.
    Writing alpha = 2(n+1)*beta + x0*delta, the unique positive factorization
    n+1 = p*q with 2p | x0-1 and 2q | x0+1 yields integer isotropic vectors
    e, f of the ambient U^4 with alpha = p*e + q*f; existence and uniqueness
    are guaranteed for any actual lattice vector, so their failure is an
    internal assertion error, while bad input squares or divisibilities are
    ValueErrors.
    """
    lat = _kum_lattice(n)
    v = _as_vector(lat, alpha)
    if (g := math.gcd(*v)) != 1:
        raise ValueError("orbit splitting requires a primitive vector" if g
                         else "primitivity is undefined for the zero vector")
    two_n1 = 2 * (n + 1)
    gv = _gram_times(lat, v)
    sq = sum(map(operator.mul, v, gv))
    if sq != -two_n1:
        raise ValueError(f"square must be {-two_n1}, got {sq}")
    div = math.gcd(*gv)
    if div != two_n1:
        raise ValueError(f"divisibility must be {two_n1}, got {div}")
    x0 = v[6]
    if any([c % two_n1 for c in v[:6]]):
        raise AssertionError("U^3 part must be divisible by 2(n+1) at this divisibility")
    beta = tuple([c // two_n1 for c in v[:6]])
    if two_n1 * _square(_U3, beta) != x0 * x0 - 1:
        raise AssertionError("square bookkeeping 2(n+1)*beta^2 = x0^2 - 1 failed")
    candidates = kum_split_candidates(n, x0)
    if len(candidates) != 1:
        raise AssertionError(
            f"expected exactly one splitting of {n + 1}, found {sorted(candidates)}")
    p, q = candidates[0]
    a, c = (x0 - 1) // (2 * p), (x0 + 1) // (2 * q)
    e = tuple([q * b for b in beta]) + (a, a * (n + 1) - q * x0)
    f = tuple([p * b for b in beta]) + (c, c * (n + 1) - p * x0)
    if _square(_U4, e) or _square(_U4, f):
        raise AssertionError("splitting witnesses must be isotropic")
    if tuple([p * ei + q * fi for ei, fi in zip(e, f)]) != v[:6] + (x0, -(n + 1) * x0):
        raise AssertionError("p*e + q*f must reconstruct the input class")
    return OrbitInvariant._make(x0, p, q, beta, e, f)
