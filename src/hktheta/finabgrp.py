"""Finite abelian groups and skew pairings valued in Q/Z.

Groups are products of cyclic groups Z/(o_1) x ... x Z/(o_r).  Roots of
unity are modeled additively: the class t in Q/Z stands for exp(2*pi*i*t),
so a pairing "with values in roots of unity" is a skew biadditive map
e : G x G -> Q/Z, stored by its values on pairs of generators as integers
in units of 1/exponent; e(a, b) is summed over the nonzero ones only, as
model pairings are mostly zero.  QmodZ values are built only at the edges:
`Pairing.matrix`, eval_pairing's value and Pairing(group, matrix) itself;
documents, models and tensors hand integer units to one validation loop.

The induced homomorphism E : G -> Ghat sends a to the character e(a, -).
Its cokernel is computed through exact Smith normal form over Z, taken modulo
the exponent of G (which Ghat shares), so no entry outgrows the exponent.
Its kernel, the radical, comes from the same Smith form by duality: for a
skew pairing E^ = -E, so ker E = (coker E)^, which is isomorphic to coker E.
The tests check the radical against a literal enumeration of the kernel.
`brute_cokernel` computes the cokernel A = Ghat/im(E) independently by
enumeration, without visiting every element of Ghat: for each prime power
k = p^j dividing the exponent it counts |A[k]| = |A/kA| as |Ghat/k*Ghat|
over the size of the image of E there, a span <c_1> + ... + <c_r> of the
reduced columns c_j of the generator matrix, and the ratios of successive
counts give the p-parts of the invariant factors.  That span is one int
used as a bitset over prod Z/o_i: bit sum x_i*s_i stands for x, with
mixed-radix strides s_i = o_{i+1}*...*o_r.  Adding t to coordinate i
rotates each block of o_i*s_i bits by t*s_i, two masked shifts; H + <c>
grows by doubling, H <- H | (H + c) and c <- 2c, so it takes about
log2(order of c) translates.  The largest bitset is the largest p-group
quotient, at most MAX_ENUMERATION_ORDER = 10^6 bits (125 KB).  The two cokernel
routes share no code past the generator matrix, so each serves as an oracle for the
other.  Invariant factors are normalised by gcd and lcm (arith.divisor_chain).
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from functools import lru_cache
from itertools import product

from .arith import Record, divisor_chain, factorint, int_tuple
from .snf import _smith

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


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num/den in Q/Z as the pair (num, den) with 0 <= num < den and gcd 1."""
    if den == 0:
        raise ValueError("denominator must be nonzero")
    if den < 0:
        num, den = -num, -den
    num %= den
    g = math.gcd(num, den)
    return num // g, den // g


MAX_ENTRY_DIGITS = 1000  # per side of "a/b"; int() never reads a longer one


def _too_long(text: str) -> bool:
    """More than MAX_ENTRY_DIGITS digits in an integer literal: spaces, a sign and int()'s
    underscore separators are none; only a text longer than the limit is stripped to count."""
    return len(text) > MAX_ENTRY_DIGITS and len(
        text.strip().lstrip("+-").replace("_", "")) > MAX_ENTRY_DIGITS


def _parse_fraction(text: str) -> tuple[int, int]:
    """The integers (a, b) of "a/b", or (a, 1) for a bare integer "a"."""
    a, slash, b = text.strip().partition("/")
    if _too_long(a) or _too_long(b):
        raise ValueError(f"fraction exceeds the limit MAX_ENTRY_DIGITS = {MAX_ENTRY_DIGITS} "
                         f"digits per side")
    return int(a), int(b) if slash else 1


def _units(num: int, den: int, n: int):
    """num/den as units of 1/n mod n, or its reduced pair if it is none; _reduced refuses den 0."""
    u, rest = divmod(num * n, den) if den else (0, 1)
    return _reduced(num, den) if rest else u % n


class QmodZ(Record):
    """Element of Q/Z as a reduced fraction num/den with 0 <= num < den."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        self.__post_init__()

    def __post_init__(self):
        try:
            num, den = _reduced(operator.index(self.num), operator.index(self.den))
        except TypeError:
            int_tuple((self.num, self.den))  # raises a ValueError naming the non-integer
            raise
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def parse(cls, text: str) -> "QmodZ":
        """Parse "a/b", or a bare integer "a" (which is zero mod 1)."""
        return cls(*_parse_fraction(text))

    @property
    def order(self) -> int:
        """Additive order: least k >= 1 with k * self == 0."""
        return self.den

    def is_zero(self) -> bool:
        return self.num == 0

    def __neg__(self):
        return QmodZ(-self.num, self.den)

    def __str__(self):
        return f"{self.num}/{self.den}"


class FinAbGroup(Record):
    """Direct product of cyclic groups; orders[i] is the order of generator i."""

    __slots__ = ("orders", "exponent")
    _fields = ("orders",)  # the exponent, lcm(orders), is set once and never compared

    def __init__(self, orders: tuple[int, ...]):
        orders = int_tuple(orders)
        if not orders:
            raise ValueError("at least one cyclic factor required")
        if any(o < 2 for o in orders):
            raise ValueError("cyclic factor orders must be >= 2")
        self._set(orders, math.lcm(*orders))

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def order(self) -> int:
        return math.prod(self.orders)

    def element(self, coords) -> "GroupElement":
        return GroupElement(self, tuple(coords))

    def zero(self) -> "GroupElement":
        return self.element((0,) * self.rank)

    def gen(self, i: int) -> "GroupElement":
        return self.element(tuple(1 if j == i else 0 for j in range(self.rank)))

    def coord_tuples(self):
        return product(*(range(o) for o in self.orders))


class GroupElement(Record):
    __slots__ = ("group", "coords")

    def __init__(self, group: FinAbGroup, coords: tuple[int, ...]):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coords", coords)
        self.__post_init__()

    def __post_init__(self):
        coords = int_tuple(self.coords)
        if len(coords) != self.group.rank:
            raise ValueError("coordinate length must match the group rank")
        object.__setattr__(self, "coords", tuple(map(operator.mod, coords, self.group.orders)))


class AbGroupStructure(Record):
    """Invariant-factor form d_1 | d_2 | ... | d_k of a finite abelian group."""

    __slots__ = ("invariant_factors",)

    def __init__(self, invariant_factors: tuple[int, ...] = ()):
        fac = int_tuple(invariant_factors)
        if any(d < 2 for d in fac):
            raise ValueError("invariant factors must be >= 2")
        if any(fac[i + 1] % fac[i] for i in range(len(fac) - 1)):
            raise ValueError("invariant factors must form a divisor chain")
        object.__setattr__(self, "invariant_factors", fac)

    @classmethod
    def from_cyclic_orders(cls, orders) -> "AbGroupStructure":
        """Invariant factors of a direct sum of cyclic groups of the given orders.

        Put in chain form by arith.divisor_chain's gcd/lcm carry, factors 1
        dropped.  The result is frozen, so equal order tuples share one object.
        """
        return _structure_from_cyclic_orders(int_tuple(orders))

    def is_trivial(self) -> bool:
        return not self.invariant_factors

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    def __str__(self):
        if not self.invariant_factors:
            return "trivial"
        return " x ".join(f"Z/{d}" for d in self.invariant_factors)


@lru_cache(maxsize=1024)
def _structure_from_cyclic_orders(orders: tuple) -> AbGroupStructure:
    return AbGroupStructure(tuple(d for d in divisor_chain(orders) if d > 1))


def _square(rows, r: int):
    """rows, once checked to be r lists (or tuples) of r entries each."""
    if not (isinstance(rows, (list, tuple)) and len(rows) == r
            and all(isinstance(row, (list, tuple)) and len(row) == r for row in rows)):
        raise ValueError("pairing matrix must be rank x rank")
    return rows


class Pairing(Record):
    """Skew biadditive form on a finite abelian group, by values on generators.

    e(gen_i, gen_j) is stored only in integer units of 1/exponent: whole
    (_units, which equality and hash read) and as its nonzero entries
    (i, j, u) (_entries), over which eval_pairing sums.  Skewness forces a
    zero diagonal, and biadditivity forces the reduced denominator of
    e(gen_i, gen_j) to divide gcd(orders[i], orders[j]).  Every constructor
    hands units to the same integer checks (_of); an entry that is no multiple
    of 1/exponent comes as its reduced pair and fails where a QmodZ would.
    """

    __slots__ = ("group", "_units", "_entries")
    _fields = ("group", "_units")

    def __init__(self, group: FinAbGroup, matrix):
        rows = _square(matrix, group.rank)
        if any(not isinstance(q, QmodZ) for row in rows for q in row):
            raise ValueError("pairing entries must be QmodZ")
        self._fill(group, [[_units(q.num, q.den, group.exponent) for q in row] for row in rows])

    @classmethod
    def _of(cls, group: FinAbGroup, units) -> "Pairing":
        """The pairing whose value on (gen_i, gen_j) is units[i][j] / exponent."""
        return object.__new__(cls)._fill(group, units)

    def _fill(self, group: FinAbGroup, units):
        # per row i the diagonal, then per j > i skewness and order (at j < i they
        # repeat those of (j, i)); ints are reduced mod n, pairs are no multiple of 1/n
        o, n = group.orders, group.exponent
        for i, row in enumerate(units):
            if row[i]:
                raise ValueError("pairing must vanish on the diagonal")
            for j, u in enumerate(row[i + 1:], i + 1):
                off = type(u) is tuple
                if units[j][i] != ((-u[0] % u[1], u[1]) if off else -u % n):
                    raise ValueError("pairing matrix must be skew")
                if off or u * math.gcd(o[i], o[j]) % n:
                    raise ValueError("entry %d/%d at (%d,%d) is incompatible with generator "
                                     "orders" % ((u if off else _reduced(u, n)) + (i, j)))
        units = tuple(map(tuple, units))
        self._set(group, units, tuple(
            (i, j, u) for i, row in enumerate(units) for j, u in enumerate(row) if u))
        return self

    @property
    def matrix(self) -> tuple[tuple[QmodZ, ...], ...]:
        """matrix[i][j] = e(gen_i, gen_j) as QmodZ, all rank^2 values built on
        each read: bind it once before indexing it in a loop."""
        n = self.group.exponent
        return tuple(tuple(QmodZ(u, n) for u in row) for row in self._units)


def _pairing_units(pairing: Pairing, a_coords, b_coords) -> int:
    # sum_{i,j} a_i b_j e(gen_i, gen_j) as an integer in units of 1/exponent,
    # over the nonzero entries only
    total = 0
    for i, j, u in pairing._entries:
        total += a_coords[i] * b_coords[j] * u
    return total


def eval_pairing(pairing: Pairing, a: GroupElement, b: GroupElement) -> QmodZ:
    """e(a, b) = sum_{i,j} a_i b_j e(gen_i, gen_j) in Q/Z.

    Every entry's denominator divides n = exponent (Pairing enforces it), so
    the sum is accumulated as an integer in units of 1/n, over the nonzero
    entries of the matrix only.
    """
    if a.group != pairing.group or b.group != pairing.group:
        raise ValueError("elements do not belong to the pairing's group")
    return QmodZ(_pairing_units(pairing, a.coords, b.coords), pairing.group.exponent)


def e_matrix(pairing: Pairing) -> tuple[tuple[int, ...], ...]:
    """Integer matrix of E : G -> Ghat in generator/dual-generator coordinates.

    Column j is the character e(gen_j, -); row i is written in units of
    1/orders[i] and reduced mod orders[i], so Ghat = Z^r / diag(orders).
    An entry u/N in [0, 1), N the exponent, with denominator dividing
    orders[i], is u * orders[i] / N units of 1/orders[i], already reduced.
    """
    n = pairing.group.exponent
    return tuple(tuple(u * oi // n for u in col)
                 for oi, col in zip(pairing.group.orders, zip(*pairing._units)))


def pairing_cokernel(pairing: Pairing) -> AbGroupStructure:
    """Invariant factors of Ghat / im(E), via Smith normal form.

    The cokernel is Z^r modulo the nonzero columns of e_matrix, built from the
    units, and the relation columns orders[i] * (dual generator i).  The Smith
    form works modulo the exponent N, which every orders[i] divides, so the
    quotient is unchanged; a relation column of order N is zero, so it is left out.
    """
    o, n = pairing.group.orders, pairing.group.exponent
    live = [row for row in pairing._units if any(row)]  # row j of units: column j of E
    aug = [[row[i] * oi // n for row in live]
           + [oi if k == i else 0 for k, ok in enumerate(o) if ok != n] for i, oi in enumerate(o)]
    return AbGroupStructure(tuple(d for d in _smith(aug, n) if d > 1))


def pairing_radical(pairing: Pairing) -> AbGroupStructure:
    """Invariant factors of the radical ker(E) = {a : e(a, -) is identically 0}.

    Dualizing the exact sequence 0 -> ker E -> G -> Ghat -> coker E -> 0
    gives ker(E^) = (coker E)^, where E^ : G -> Ghat is the dual map
    E^(a)(b) = E(b)(a) = e(b, a).  The hypothesis is skewness, which
    Pairing's constructor enforces: e(b, a) = -e(a, b), so E^ = -E and
    ker E = ker(E^) = (coker E)^.  A finite abelian group is isomorphic to
    its dual, so the radical has the invariant factors of the cokernel.
    """
    return pairing_cokernel(pairing)


def is_nondegenerate(pairing: Pairing) -> bool:
    """True when E : G -> Ghat is an isomorphism (trivial cokernel)."""
    return pairing_cokernel(pairing).is_trivial()


def _translate(h: int, c, orders, strides) -> int:
    # the bitset h moved by c: adding t to coordinate i rotates every block of
    # o*s bits by t*s, through a mask of the low (o - t)*s bits of each block
    size = math.prod(orders)
    for t, o, s in zip(c, orders, strides):
        if t:
            low, span = (1 << (o - t) * s) - 1, o * s
            while span < size:  # copy the mask to every block by doubling
                low |= low << span
                span *= 2
            h = ((h & low) << t * s) | ((h & ~low) >> (o - t) * s)
    return h


def _image_closure(m, orders) -> int:
    # im(E) = <c_1> + ... + <c_r> over the reduced columns c of m, as a bitset
    # (bit sum x_i*s_i for x, see the module docstring).  With k the order of
    # c modulo H, after j doublings H holds the cosets H + t*c for t < 2^j;
    # 2^j*c lies in it exactly when 2^j >= k, and then H + <c> is complete
    strides = [math.prod(orders[i + 1:]) for i in range(len(orders))]
    image = 1
    for c in zip(*m):
        while not image >> sum(map(operator.mul, c, strides)) & 1:
            image |= _translate(image, c, orders, strides)
            c = tuple(2 * x % o for x, o in zip(c, orders))
    return image


MAX_ENUMERATION_ORDER = 10**6  # bits in the largest bitset _image_closure may grow


def brute_cokernel(pairing: Pairing) -> AbGroupStructure:
    """Cokernel by enumeration; independent of the Smith-form route.

    For each prime power k = p^j dividing the exponent it counts the elements
    of A = Ghat/H, H = im(E), whose order divides k: that is |A[k]| = |A/kA|,
    and A/kA = Ghat/(H + k*Ghat).  Reducing coordinates maps Ghat/k*Ghat onto
    prod Z/gcd(k, o_i), and H onto the subgroup H_k spanned there by the
    reduced columns of e_matrix, a bitset grown by doubling (_image_closure),
    so |A[k]| = prod gcd(k, o_i) / |H_k|, with |H_k| the bitset's bit count.
    Then |A[p^j]| / |A[p^(j-1)]| = p^(c_j), c_j the number of invariant
    factors divisible by p^j: the top c_j entries of a rank-long chain take a
    factor p, and the prime is done at the first c_j = 0.  |G| may not exceed
    MAX_ENUMERATION_ORDER.
    """
    g = pairing.group
    if g.order > MAX_ENUMERATION_ORDER:
        raise ValueError(f"group order {g.order} exceeds the enumeration limit "
                         f"MAX_ENUMERATION_ORDER = {MAX_ENUMERATION_ORDER}")
    m = e_matrix(pairing)
    chain = [1] * g.rank  # ascending; a quotient of Ghat has at most rank factors
    for p, top in factorint(g.exponent).items():
        below, c_prev = 1, g.rank
        for j in range(1, top + 1):
            steps = [math.gcd(p**j, oi) for oi in g.orders]
            reduced = [[x % s for x in row] for row, s in zip(m, steps)]
            size, h_k = math.prod(steps), _image_closure(reduced, steps).bit_count()
            if not h_k or size % h_k:
                raise AssertionError(f"|H_k| does not divide |Ghat/k*Ghat| at p^j = {p}^{j}")
            a_k, c_j = size // h_k, 0
            while a_k > below * p**c_j:
                c_j += 1
            if a_k != below * p**c_j:
                raise AssertionError(f"|A[k]| / |A[k/p]| is not a power of p at p^j = {p}^{j}")
            if c_j > c_prev:
                raise AssertionError(f"c_j exceeds c_(j-1) at p^j = {p}^{j}")
            if not c_j:
                break
            for i in range(g.rank - c_j, g.rank):
                chain[i] *= p
            below, c_prev = a_k, c_j
    return AbGroupStructure(tuple(d for d in chain if d > 1))


def zero_pairing(group: FinAbGroup) -> Pairing:
    return Pairing._of(group, [[0] * group.rank] * group.rank)


def _pairing_from_pairs(group: FinAbGroup, pairs) -> Pairing:
    # pairs: iterable of (i, j, u), u in units of 1/exponent; skew completion is automatic
    r, n = group.rank, group.exponent
    units = [[0] * r for _ in range(r)]
    for i, j, u in pairs:
        units[i][j], units[j][i] = u % n, -u % n
    return Pairing._of(group, units)


def standard_kum_pairing(n: int, b1: int, b2: int) -> Pairing:
    """Model commutator pairing on (Z/(n+1))^4, generators (a1, b1, a2, b2).

    e(a_i, b_i) = b_i/(n+1) for the two hyperbolic pairs, zero across pairs.
    Both multipliers must divide n+1.
    """
    n, b1, b2 = int_tuple((n, b1, b2))
    if n < 2:
        raise ValueError("Kummer-type parameter n must be >= 2")
    for b in (b1, b2):
        if b < 1 or (n + 1) % b:
            raise ValueError(f"multiplier {b} does not divide {n + 1}")
    group = FinAbGroup((n + 1,) * 4)
    return _pairing_from_pairs(group, [(0, 1, b1), (2, 3, b2)])


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
    first = [(0, 1, 1), (2, 3, 1)]  # 1/2 in units of 1/2
    second = [(4, 5, 1), (6, 7, 1)]
    if case is OG6PairingCase.DIV1_NOT4:
        return _pairing_from_pairs(group, first + second)
    if case is OG6PairingCase.DIV1_DIV4:
        return _pairing_from_pairs(group, first)
    return zero_pairing(group)


def tensor_pairing(p1: Pairing, p2: Pairing) -> Pairing:
    """Pointwise sum of two pairings on the same group (tensor of theta data)."""
    if p1.group != p2.group:
        raise ValueError("pairings live on different groups")
    n = p1.group.exponent
    return Pairing._of(p1.group, [
        [(a + b) % n for a, b in zip(r1, r2)] for r1, r2 in zip(p1._units, p2._units)])


def pairing_to_dict(pairing: Pairing) -> dict:
    """Portable document form: generator orders plus a matrix of "num/den" strings."""
    n = pairing.group.exponent
    return {
        "orders": list(pairing.group.orders),
        "matrix": [["%d/%d" % _reduced(u, n) for u in row] for row in pairing._units],
    }


MAX_PAIRING_RANK = 100  # the Smith form costs about rank^3 operations
MAX_EXPONENT_BITS = 1024  # each of them costs about bits^2: entries stay below the exponent
_EXPONENT_ERROR = f"pairing exponent exceeds the limit MAX_EXPONENT_BITS = {MAX_EXPONENT_BITS} bits"
_ORDER_DIGITS = len(str(2**MAX_EXPONENT_BITS))


def _order_literal(text: str) -> int:
    """json's parse_int for a pairing document, whose integers are its orders:
    one of more digits than 2^MAX_EXPONENT_BITS is refused before int() runs."""
    if len(text) > _ORDER_DIGITS:
        raise ValueError(_EXPONENT_ERROR)
    return int(text)


def _not_an_entry(s):
    raise ValueError(f'malformed pairing document: entry {s!r} is not an "a/b" string')


def pairing_from_dict(obj) -> Pairing:
    """Inverse of pairing_to_dict; malformed documents, and documents of rank
    above MAX_PAIRING_RANK or exponent above 2^MAX_EXPONENT_BITS, raise
    ValueError.  The group (its rank, then its exponent) and the matrix shape
    are checked before any entry is read; each "a/b" is read straight into
    units of 1/exponent, once per distinct entry text of the document."""
    try:
        orders = tuple(obj["orders"])
        if len(orders) > MAX_PAIRING_RANK:
            raise ValueError(f"pairing rank {len(orders)} exceeds the limit {MAX_PAIRING_RANK}")
        # JSON floats such as 2.9 or 1e400 (inf) are not orders, and neither are bools
        bad = [o for o in orders if type(o) is not int]
        if bad:
            raise ValueError(f"malformed pairing document: order {bad[0]!r} is not an integer")
        group = FinAbGroup(orders)
        if (n := group.exponent).bit_length() > MAX_EXPONENT_BITS:
            raise ValueError(_EXPONENT_ERROR)
        memo = {}  # entry text -> units
        units = [[(memo[s] if s in memo else memo.setdefault(s, _units(*_parse_fraction(s), n)))
                  if type(s) is str else _not_an_entry(s) for s in row]
                 for row in _square(obj["matrix"], len(orders))]
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed pairing document: {exc!r}") from exc
    return Pairing._of(group, units)
