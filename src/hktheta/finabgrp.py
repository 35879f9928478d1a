"""Finite abelian groups and skew pairings valued in Q/Z.

Groups are products of cyclic groups Z/(o_1) x ... x Z/(o_r).  Roots of
unity are modeled additively: the class t in Q/Z stands for exp(2*pi*i*t),
so a pairing "with values in roots of unity" is a skew biadditive map
e : G x G -> Q/Z, stored by its values on pairs of generators.

The induced homomorphism E : G -> Ghat sends a to the character e(a, -).
Its cokernel is computed through exact Smith normal form over Z, taken modulo
the exponent of G (which Ghat shares), so no entry outgrows the exponent.
Its kernel, the radical, comes from the same Smith form by duality: for a
skew pairing E^ = -E, so ker E = (coker E)^, which is isomorphic to coker E.
The tests check the radical against a literal enumeration of the kernel.
`brute_cokernel` computes the cokernel independently by enumeration: it
builds the image of E as the subgroup generated by the columns of the
generator matrix, then counts the cosets of each order with a counting
lemma instead of visiting every element of Ghat.  The two cokernel routes
share no code past the generator matrix, so each serves as an oracle for
the other.  Invariant factors are normalised by gcd and lcm, not factoring.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import product

from .arith import divisors, factorint
from .snf import smith_normal_form

__all__ = [
    "QmodZ",
    "FinAbGroup",
    "GroupElement",
    "AbGroupStructure",
    "Pairing",
    "OG6PairingCase",
    "eval_pairing",
    "e_matrix",
    "pairing_cokernel",
    "pairing_radical",
    "is_nondegenerate",
    "brute_cokernel",
    "zero_pairing",
    "standard_kum_pairing",
    "standard_og6_pairing",
    "tensor_pairing",
    "pairing_to_dict",
    "pairing_from_dict",
]


@dataclass(frozen=True)
class QmodZ:
    """Element of Q/Z as a reduced fraction num/den with 0 <= num < den."""

    num: int
    den: int = 1

    def __post_init__(self):
        num, den = int(self.num), int(self.den)
        if den == 0:
            raise ValueError("denominator must be nonzero")
        if den < 0:
            num, den = -num, -den
        num %= den
        g = math.gcd(num, den)
        object.__setattr__(self, "num", num // g)
        object.__setattr__(self, "den", den // g)

    @classmethod
    def parse(cls, text: str) -> "QmodZ":
        """Parse "a/b", or a bare integer "a" (which is zero mod 1)."""
        s = text.strip()
        if "/" in s:
            a, b = s.split("/", 1)
            return cls(int(a), int(b))
        return cls(int(s))

    @property
    def order(self) -> int:
        """Additive order: least k >= 1 with k * self == 0."""
        return self.den

    def is_zero(self) -> bool:
        return self.num == 0

    def __add__(self, other):
        if not isinstance(other, QmodZ):
            return NotImplemented
        return QmodZ(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        if not isinstance(other, QmodZ):
            return NotImplemented
        return QmodZ(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self):
        return QmodZ(-self.num, self.den)

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return QmodZ(self.num * k, self.den)

    __rmul__ = __mul__

    def __str__(self):
        return f"{self.num}/{self.den}"


@dataclass(frozen=True)
class FinAbGroup:
    """Direct product of cyclic groups; orders[i] is the order of generator i."""

    orders: tuple[int, ...]

    def __post_init__(self):
        orders = tuple(int(o) for o in self.orders)
        if not orders:
            raise ValueError("at least one cyclic factor required")
        if any(o < 2 for o in orders):
            raise ValueError("cyclic factor orders must be >= 2")
        object.__setattr__(self, "orders", orders)

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def order(self) -> int:
        return math.prod(self.orders)

    @property
    def exponent(self) -> int:
        return math.lcm(*self.orders)

    def element(self, coords) -> "GroupElement":
        return GroupElement(self, tuple(int(c) for c in coords))

    def zero(self) -> "GroupElement":
        return self.element((0,) * self.rank)

    def gen(self, i: int) -> "GroupElement":
        return self.element(tuple(1 if j == i else 0 for j in range(self.rank)))

    def coord_tuples(self):
        return product(*(range(o) for o in self.orders))


@dataclass(frozen=True)
class GroupElement:
    group: FinAbGroup
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != self.group.rank:
            raise ValueError("coordinate length must match the group rank")
        reduced = tuple(int(c) % o for c, o in zip(self.coords, self.group.orders))
        object.__setattr__(self, "coords", reduced)


@dataclass(frozen=True)
class AbGroupStructure:
    """Invariant-factor form d_1 | d_2 | ... | d_k of a finite abelian group."""

    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        fac = tuple(int(d) for d in self.invariant_factors)
        if any(d < 2 for d in fac):
            raise ValueError("invariant factors must be >= 2")
        if any(fac[i + 1] % fac[i] for i in range(len(fac) - 1)):
            raise ValueError("invariant factors must form a divisor chain")
        object.__setattr__(self, "invariant_factors", fac)

    @classmethod
    def from_cyclic_orders(cls, orders) -> "AbGroupStructure":
        """Invariant factors of a direct sum of cyclic groups of the given orders.

        Carries each order down the chain by Z/a + Z/b = Z/gcd(a,b) + Z/lcm(a,b).
        """
        chain: list[int] = []
        for o in orders:
            o = int(o)
            if o < 1:
                raise ValueError("cyclic orders must be positive")
            if o == 1:
                continue
            for i in reversed(range(len(chain))):
                chain[i], o = math.lcm(chain[i], o), math.gcd(chain[i], o)
            if o > 1:
                chain.insert(0, o)
        return cls(tuple(chain))

    def is_trivial(self) -> bool:
        return not self.invariant_factors

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    def __str__(self):
        if not self.invariant_factors:
            return "trivial"
        return " x ".join(f"Z/{d}" for d in self.invariant_factors)


@dataclass(frozen=True)
class Pairing:
    """Skew biadditive form on a finite abelian group, by values on generators.

    matrix[i][j] = e(gen_i, gen_j).  Skewness forces a zero diagonal, and
    biadditivity forces matrix[i][j].den | gcd(orders[i], orders[j]).
    """

    group: FinAbGroup
    matrix: tuple[tuple[QmodZ, ...], ...]

    def __post_init__(self):
        r = self.group.rank
        mat = tuple(tuple(row) for row in self.matrix)
        if len(mat) != r or any(len(row) != r for row in mat):
            raise ValueError("pairing matrix must be rank x rank")
        if any(not isinstance(q, QmodZ) for row in mat for q in row):
            raise ValueError("pairing entries must be QmodZ")
        o = self.group.orders
        for i in range(r):
            if not mat[i][i].is_zero():
                raise ValueError("pairing must vanish on the diagonal")
            for j in range(r):
                if mat[j][i] != -mat[i][j]:
                    raise ValueError("pairing matrix must be skew")
                if math.gcd(o[i], o[j]) % mat[i][j].den:
                    raise ValueError(
                        f"entry {mat[i][j]} at ({i},{j}) is incompatible with generator orders"
                    )
        object.__setattr__(self, "matrix", mat)


def _pairing_units(pairing: Pairing, a_coords, b_coords) -> int:
    # sum_{i,j} a_i b_j e(gen_i, gen_j) as an integer in units of 1/exponent
    n = pairing.group.exponent
    total = 0
    for ai, row in zip(a_coords, pairing.matrix):
        if ai == 0:
            continue
        for bj, q in zip(b_coords, row):
            if bj and q.num:
                total += ai * bj * q.num * (n // q.den)
    return total


def eval_pairing(pairing: Pairing, a: GroupElement, b: GroupElement) -> QmodZ:
    """e(a, b) = sum_{i,j} a_i b_j e(gen_i, gen_j) in Q/Z.

    Every entry's denominator divides n = exponent (Pairing enforces it), so
    the sum is accumulated as an integer in units of 1/n.
    """
    if a.group != pairing.group or b.group != pairing.group:
        raise ValueError("elements do not belong to the pairing's group")
    return QmodZ(_pairing_units(pairing, a.coords, b.coords), pairing.group.exponent)


def e_matrix(pairing: Pairing) -> tuple[tuple[int, ...], ...]:
    """Integer matrix of E : G -> Ghat in generator/dual-generator coordinates.

    Column j is the character e(gen_j, -); row i is written in units of
    1/orders[i] and reduced mod orders[i], so Ghat = Z^r / diag(orders).
    """
    o = pairing.group.orders
    r = pairing.group.rank
    rows = []
    for i in range(r):
        row = []
        for j in range(r):
            q = pairing.matrix[j][i]
            row.append((o[i] // q.den) * q.num % o[i])
        rows.append(tuple(row))
    return tuple(rows)


def pairing_cokernel(pairing: Pairing) -> AbGroupStructure:
    """Invariant factors of Ghat / im(E), via Smith normal form.

    The cokernel is Z^r modulo the columns of e_matrix together with the
    relation columns orders[i] * (dual generator i).  The Smith form works
    modulo the exponent N: every orders[i] divides N, so N * Z^r already lies
    in that lattice and the reduction leaves the quotient unchanged.
    """
    m = e_matrix(pairing)
    o = pairing.group.orders
    r = pairing.group.rank
    aug = [list(m[i]) + [o[i] if j == i else 0 for j in range(r)] for i in range(r)]
    diag = smith_normal_form(aug, pairing.group.exponent)
    return AbGroupStructure.from_cyclic_orders(d for d in diag if d > 1)


def pairing_radical(pairing: Pairing) -> AbGroupStructure:
    """Invariant factors of the radical ker(E) = {a : e(a, -) is identically 0}.

    Dualizing the exact sequence 0 -> ker E -> G -> Ghat -> coker E -> 0
    gives ker(E^) = (coker E)^, where E^ : G -> Ghat is the dual map
    E^(a)(b) = E(b)(a) = e(b, a).  The hypothesis is skewness, which
    Pairing.__post_init__ enforces: e(b, a) = -e(a, b), so E^ = -E and
    ker E = ker(E^) = (coker E)^.  A finite abelian group is isomorphic to
    its dual, so the radical has the invariant factors of the cokernel.
    """
    return pairing_cokernel(pairing)


def is_nondegenerate(pairing: Pairing) -> bool:
    """True when E : G -> Ghat is an isomorphism (trivial cokernel)."""
    return pairing_cokernel(pairing).is_trivial()


def _divides_prime_power(k: int, p: int, j: int) -> bool:
    # k | p**j, i.e. k is a power of p with exponent <= j
    e = 0
    while k % p == 0:
        k //= p
        e += 1
    return k == 1 and e <= j


def _factors_from_order_counts(counts: dict[int, int]) -> tuple[int, ...]:
    """Invariant factors of a finite abelian group given its element-order counts."""
    total = sum(counts.values())
    if total == 1:
        return ()
    per_prime: dict[int, list[int]] = {}
    for p in factorint(total):
        tower = []  # tower[j-1] = number of invariant factors with p-exponent >= j
        n_prev = 1
        j = 1
        while True:
            nj = sum(c for k, c in counts.items() if _divides_prime_power(k, p, j))
            if nj % n_prev:
                raise AssertionError("element-order counts are inconsistent")
            ratio = nj // n_prev
            cj = 0
            while ratio % p == 0:
                ratio //= p
                cj += 1
            if ratio != 1:
                raise AssertionError("element-order counts are inconsistent")
            if cj == 0:
                break
            tower.append(cj)
            n_prev = nj
            j += 1
        if tower:
            per_prime[p] = [sum(1 for c in tower if c > idx) for idx in range(tower[0])]
    width = max(len(v) for v in per_prime.values())
    desc = [
        math.prod(p ** exps[s] for p, exps in per_prime.items() if s < len(exps))
        for s in range(width)
    ]
    factors = tuple(reversed(desc))
    if math.prod(factors) != total:
        raise AssertionError("reconstructed invariant factors have the wrong order")
    return factors


def _image_closure(m, orders) -> set[tuple[int, ...]]:
    # im(E) as the closure of {0} under adding the nonzero columns of m
    r = len(orders)
    zero = (0,) * r
    cols = {tuple(m[i][j] for i in range(r)) for j in range(r)} - {zero}
    image = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for y in frontier:
            for c in cols:
                z = tuple(map(operator.mod, map(operator.add, y, c), orders))
                if z not in image:
                    image.add(z)
                    nxt.append(z)
        frontier = nxt
    return image


def brute_cokernel(pairing: Pairing, bound: int = 10**6) -> AbGroupStructure:
    """Cokernel by enumeration; independent of the Smith-form route.

    Enumerates the image H = im(E) inside Ghat as the closure of {0} under
    adding the columns of e_matrix.  For k | exponent, the cosets of Ghat/H
    whose order divides k number |Ghat[k]| * |H & k*Ghat| / |H|, where
    |Ghat[k]| = prod gcd(k, o_i) and y lies in k*Ghat iff gcd(k, o_i) | y_i
    for every i; subtracting the counts of the proper divisors of k gives
    the cosets of order exactly k.  The invariant factors of the quotient
    are recovered from those order counts, prime by prime.
    """
    g = pairing.group
    if g.order > bound:
        raise ValueError(f"group of order {g.order} exceeds the enumeration bound {bound}")
    o = g.orders
    image = _image_closure(e_matrix(pairing), o)
    h = len(image)
    # gcd(k, o_i) | y_i iff gcd(k, o_i) | gcd(y_i, o_i): group H by those gcds
    profiles = Counter(tuple(map(math.gcd, y, o)) for y in image)
    counts: dict[int, int] = {}
    for k in divisors(g.exponent):
        steps = [math.gcd(k, oi) for oi in o]
        in_multiples = sum(
            c for prof, c in profiles.items() if all(p % s == 0 for p, s in zip(prof, steps))
        )
        preimage = math.prod(steps) * in_multiples  # |{y : k*y in H}|
        if preimage % h:
            raise AssertionError("coset order counts must be multiples of the image size")
        exact = preimage // h - sum(c for d, c in counts.items() if k % d == 0)
        if exact:
            counts[k] = exact
    return AbGroupStructure(_factors_from_order_counts(counts))


def zero_pairing(group: FinAbGroup) -> Pairing:
    r = group.rank
    zero = QmodZ(0)
    return Pairing(group, tuple(tuple(zero for _ in range(r)) for _ in range(r)))


def _pairing_from_pairs(group: FinAbGroup, pairs) -> Pairing:
    # pairs: iterable of (i, j, QmodZ value); skew completion is automatic
    r = group.rank
    mat = [[QmodZ(0) for _ in range(r)] for _ in range(r)]
    for i, j, val in pairs:
        mat[i][j] = val
        mat[j][i] = -val
    return Pairing(group, tuple(tuple(row) for row in mat))


def standard_kum_pairing(n: int, b1: int, b2: int) -> Pairing:
    """Model commutator pairing on (Z/(n+1))^4, generators (a1, b1, a2, b2).

    e(a_i, b_i) = b_i/(n+1) for the two hyperbolic pairs, zero across pairs.
    Both multipliers must divide n+1.
    """
    if n < 2:
        raise ValueError("Kummer-type parameter n must be >= 2")
    for b in (b1, b2):
        if b < 1 or (n + 1) % b:
            raise ValueError(f"multiplier {b} does not divide {n + 1}")
    group = FinAbGroup((n + 1,) * 4)
    return _pairing_from_pairs(
        group, [(0, 1, QmodZ(b1, n + 1)), (2, 3, QmodZ(b2, n + 1))]
    )


class OG6PairingCase(Enum):
    DIV1_NOT4 = "div1_not4"
    DIV1_DIV4 = "div1_div4"
    DIV2 = "div2"


def standard_og6_pairing(case: OG6PairingCase) -> Pairing:
    """Model commutator pairing on (Z/2)^8, two 4-generator blocks.

    Generators 0..3 span the first block, 4..7 the dual block.  The three
    cases: symplectic on both blocks, symplectic on the first block only
    (radical = dual block), and identically zero.
    """
    case = OG6PairingCase(case)
    group = FinAbGroup((2,) * 8)
    half = QmodZ(1, 2)
    first = [(0, 1, half), (2, 3, half)]
    second = [(4, 5, half), (6, 7, half)]
    if case is OG6PairingCase.DIV1_NOT4:
        return _pairing_from_pairs(group, first + second)
    if case is OG6PairingCase.DIV1_DIV4:
        return _pairing_from_pairs(group, first)
    return zero_pairing(group)


def tensor_pairing(p1: Pairing, p2: Pairing) -> Pairing:
    """Pointwise sum of two pairings on the same group (tensor of theta data)."""
    if p1.group != p2.group:
        raise ValueError("pairings live on different groups")
    r = p1.group.rank
    mat = tuple(
        tuple(p1.matrix[i][j] + p2.matrix[i][j] for j in range(r)) for i in range(r)
    )
    return Pairing(p1.group, mat)


def pairing_to_dict(pairing: Pairing) -> dict:
    """Portable document form: generator orders plus a matrix of "num/den" strings."""
    return {
        "orders": list(pairing.group.orders),
        "matrix": [[str(q) for q in row] for row in pairing.matrix],
    }


MAX_PAIRING_RANK = 100  # the Smith form costs about rank^3 operations


def pairing_from_dict(obj) -> Pairing:
    """Inverse of pairing_to_dict; malformed documents, and documents of rank
    above MAX_PAIRING_RANK, raise ValueError."""
    try:
        orders = tuple(obj["orders"])
        if len(orders) > MAX_PAIRING_RANK:
            raise ValueError(f"pairing rank {len(orders)} exceeds the limit {MAX_PAIRING_RANK}")
        matrix = tuple(tuple(QmodZ.parse(s) for s in row) for row in obj["matrix"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed pairing document: {exc!r}") from exc
    # JSON floats such as 2.9 or 1e400 (inf) are not orders, and neither are bools
    bad = [o for o in orders if type(o) is not int]
    if bad:
        raise ValueError(f"malformed pairing document: order {bad[0]!r} is not an integer")
    return Pairing(FinAbGroup(orders), matrix)
