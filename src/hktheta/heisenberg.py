"""Finite Heisenberg groups and their exact Schrodinger representation.

The Heisenberg group of type d = (d_1,...,d_g) is the central extension of
J x Jhat, J = prod Z/(d_i), by the roots of unity Q/Z, with product

    (t, x, f) * (s, y, g) = (t + s + <g, x>, x + y, f + g),

where <g, x> = sum g_i x_i / d_i is the character evaluation in Q/Z.

The Schrodinger representation acts on functions phi : J -> C by
(rho(t,x,f) phi)(y) = exp(2 pi i (t + <f,y>)) * phi(x + y).  On the basis of
delta functions this sends delta_y to the phase t + <f, y-x> times
delta_{y-x}; that convention (row y-x, phase evaluated at y-x) is the one
that makes rho a homomorphism, and it is pinned by exhaustive tests.
Matrices are kept exact as generalized permutation matrices: one
root-of-unity entry per column, stored as an int phase p mod M, M the least
modulus the phases need; phases are ints throughout, QmodZ only at the edge.

The Schur-test character norm is evaluated on the finite quotient
mu_N x J x Jhat with N the exponent of J.  Traces come from permutation
fixed points (an element with x != 0 has none and contributes the zero
polynomial), and |trace|^2 accumulates in Z[x]/(x^N - 1) before a final
exact reduction modulo the N-th cyclotomic polynomial.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .arith import Record, divisors, int_tuple
from .finabgrp import FinAbGroup, GroupElement, Pairing, QmodZ

__all__ = [
    "HeisElem",
    "GenPermMatrix",
    "heis_elem",
    "h_mul",
    "h_inv",
    "h_commutator",
    "heis_pairing",
    "schrodinger_matrix",
    "gpm_mul",
    "gpm_inv",
    "gpm_scalar_phase",
    "character_norm",
    "schrodinger_multiplicity",
    "cyclotomic_poly",
]


class HeisElem(Record):
    """Element (scalar, x, f): central phase, translation part, character part."""

    __slots__ = ("scalar", "x", "f")

    def __init__(self, scalar: QmodZ, x: GroupElement, f: GroupElement):
        if not isinstance(scalar, QmodZ) or not all(isinstance(p, GroupElement) for p in (x, f)):
            raise ValueError("a Heisenberg element is a QmodZ scalar and two GroupElement parts")
        if x.group != f.group:
            raise ValueError("translation and character parts must share the type d")
        self._set(scalar, x, f)


def _char_units(f, x, orders, n: int) -> int:
    # <f, x> in units of 1/n, for n a multiple of every order; not reduced mod n
    return sum([fi * xi * (n // di) for fi, xi, di in zip(f, x, orders)])


def heis_elem(d, scalar: QmodZ, x, f) -> HeisElem:
    group = FinAbGroup(tuple(d))
    return HeisElem(scalar, group.element(x), group.element(f))


def h_mul(a: HeisElem, b: HeisElem) -> HeisElem:
    """(t,x,f)(s,y,g) = (t + s + <g,x>, x+y, f+g)."""
    j, t, s = a.x.group, a.scalar, b.scalar
    if j != b.x.group:
        raise ValueError("elements have different types d")
    m = math.lcm(j.exponent, t.den, s.den)
    phase = t.num * (m // t.den) + s.num * (m // s.den)
    phase += _char_units(b.f.coords, a.x.coords, j.orders, m)
    # sums of validated coordinates, reduced mod the orders, need no second check
    x = tuple([(u + v) % o for u, v, o in zip(a.x.coords, b.x.coords, j.orders)])
    f = tuple([(u + v) % o for u, v, o in zip(a.f.coords, b.f.coords, j.orders)])
    return HeisElem._make(QmodZ(phase, m), GroupElement._make(j, x), GroupElement._make(j, f))


def h_inv(a: HeisElem) -> HeisElem:
    j, t = a.x.group, a.scalar
    m = math.lcm(j.exponent, t.den)
    phase = _char_units(a.f.coords, a.x.coords, j.orders, m) - t.num * (m // t.den)
    x = tuple([-u % o for u, o in zip(a.x.coords, j.orders)])
    f = tuple([-u % o for u, o in zip(a.f.coords, j.orders)])
    return HeisElem._make(QmodZ(phase, m), GroupElement._make(j, x), GroupElement._make(j, f))


def h_commutator(a: HeisElem, b: HeisElem) -> QmodZ:
    """Central scalar of a b a^-1 b^-1 = (ab)(ba)^-1, computed literally from the group law."""
    c = h_mul(h_mul(a, b), h_inv(h_mul(b, a)))
    if any(c.x.coords) or any(c.f.coords):
        raise AssertionError("commutator of lifts must be central")
    return c.scalar


def heis_pairing(d) -> Pairing:
    """Commutator pairing on J x Jhat, derived from the group law on lifts.

    Generators 0..g-1 are the J generators, g..2g-1 the Jhat generators; the
    matrix entries are h_commutator of the scalar-free lifts, with no closed
    form assumed.
    """
    d = int_tuple(d)
    g = len(d)
    group = FinAbGroup(d + d)
    j = FinAbGroup(d)

    def lift(i: int) -> HeisElem:
        if i < g:
            return HeisElem(QmodZ(0), j.gen(i), j.zero())
        return HeisElem(QmodZ(0), j.zero(), j.gen(i - g))

    lifts = [lift(i) for i in range(2 * g)]
    matrix = tuple(
        tuple(h_commutator(lifts[i], lifts[j2]) for j2 in range(2 * g))
        for i in range(2 * g)
    )
    return Pairing(group, matrix)


def _least_phases(phases, modulus: int) -> tuple[tuple[int, ...], int]:
    """The phases p/modulus over the least modulus they need, each reduced mod it."""
    g = math.gcd(modulus, *phases)
    m = modulus // g
    return tuple([p // g % m for p in phases]), m


class GenPermMatrix(Record):
    """Matrix with exactly one root-of-unity entry per column.

    Column y holds exp(2 pi i phases[y] / modulus) in row perm[y] and zeros
    elsewhere; construction reduces the int phases to the least modulus.
    schrodinger_matrix, gpm_mul and gpm_inv compose perms from checked ones, so
    they build through _make(dim, perm, *_least_phases(phases, modulus)), unchecked.
    """

    __slots__ = ("dim", "perm", "phases", "modulus")

    def __init__(self, dim: int, perm: tuple[int, ...], phases: tuple[int, ...], modulus: int):
        if len(perm) != dim or len(phases) != dim:
            raise ValueError("perm and phases must have length dim")
        if sorted(perm) != list(range(dim)):
            raise ValueError("perm must be a bijection on 0..dim-1")
        if modulus < 1:
            raise ValueError("phase modulus must be positive")
        self._set(dim, perm, *_least_phases(phases, modulus))


def gpm_mul(a: GenPermMatrix, b: GenPermMatrix) -> GenPermMatrix:
    """Exact matrix product A.B: compose permutations, add phases along paths."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    m = math.lcm(a.modulus, b.modulus)
    ka, kb, aperm, aphases = m // a.modulus, m // b.modulus, a.perm, a.phases
    perm = tuple([aperm[r] for r in b.perm])
    phases = [kb * p + ka * aphases[r] for p, r in zip(b.phases, b.perm)]
    return GenPermMatrix._make(a.dim, perm, *_least_phases(phases, m))


def gpm_inv(a: GenPermMatrix) -> GenPermMatrix:
    iperm = [0] * a.dim
    for y, row in enumerate(a.perm):
        iperm[row] = y
    phases = [-a.phases[col] for col in iperm]
    return GenPermMatrix._make(a.dim, tuple(iperm), *_least_phases(phases, a.modulus))


def gpm_scalar_phase(a: GenPermMatrix) -> QmodZ:
    """Phase t of a scalar matrix exp(2 pi i t)*Id; ValueError if not scalar."""
    if a.perm != tuple(range(a.dim)) or len(set(a.phases)) != 1:
        raise ValueError("matrix is not scalar")
    return QmodZ(a.phases[0], a.modulus)


MAX_SCHRODINGER_DIM = 4096  # the matrix has one column per element of J


def schrodinger_matrix(a: HeisElem) -> GenPermMatrix:
    """Matrix of (t,x,f) on C[J], basis indexed by J in mixed radix, d_1 fastest.

    Column y maps to row y - x with phase t + <f, y-x>.  The dimension
    prod(d) may not exceed MAX_SCHRODINGER_DIM.
    """
    j = a.x.group
    dim = j.order
    if dim > MAX_SCHRODINGER_DIM:
        raise ValueError(f"type dim {dim} exceeds the Schrodinger dim limit {MAX_SCHRODINGER_DIM}")
    t = a.scalar
    m = math.lcm(j.exponent, t.den)
    rows, phases, stride = [0], [t.num * (m // t.den)], 1
    # one coordinate at a time: column coordinate k has row coordinate k - x_i
    for xi, fi, di in zip(a.x.coords, a.f.coords, j.orders):
        ws = [(k - xi) % di for k in range(di)]
        step = fi * (m // di)
        rows = [r + w * stride for w in ws for r in rows]
        phases = [p + w * step for w in ws for p in phases]
        stride *= di
    return GenPermMatrix._make(dim, tuple(rows), *_least_phases(phases, m))


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    # exact division in Z[x] by a monic polynomial
    if not den or den[-1] != 1:
        raise AssertionError("divisor must be monic")
    rem = list(num)
    quo = [0] * max(len(rem) - len(den) + 1, 0)
    for i in range(len(rem) - len(den), -1, -1):
        coeff = rem[i + len(den) - 1]
        if coeff:
            quo[i] = coeff
            for k, dk in enumerate(den):
                rem[i + k] -= coeff * dk
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial over Z."""
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in divisors(n):
        if d < n:
            poly, rem = _poly_divmod(poly, list(cyclotomic_poly(d)))
            if rem:
                raise AssertionError("cyclotomic division must be exact")
    return tuple(poly)


MAX_CHAR_NORM_DIM = 64  # the sum builds N * dim Schrodinger matrices of dim columns each


def character_norm(d) -> int:
    """(1/|Q|) sum |trace|^2 over the finite quotient Q = mu_N x J x Jhat.

    N is the exponent of J; traces are read off permutation fixed points and
    |trace|^2 is accumulated in Z[x]/(x^N - 1), with x standing for a
    primitive N-th root of unity.  The total is reduced modulo the N-th
    cyclotomic polynomial — the remainder must be an integer constant — and
    divided by |Q| = N * dim^2, which leaves an integer (Q is a finite group).
    It is 1 exactly when the representation is irreducible, as for every d.
    prod(d) may not exceed MAX_CHAR_NORM_DIM.
    """
    j = FinAbGroup(tuple(d))
    dim = j.order
    if dim > MAX_CHAR_NORM_DIM:
        raise ValueError(f"dim {dim} exceeds the limit MAX_CHAR_NORM_DIM = {MAX_CHAR_NORM_DIM}")
    n = j.exponent
    total = [0] * n
    # Elements with x != 0 permute the basis without fixed points: their
    # trace is the zero polynomial, so only (t, 0, f) contributes.
    for t in range(n):
        for f_coords in j.coord_tuples():
            mat = schrodinger_matrix(HeisElem(QmodZ(t, n), j.zero(), j.element(f_coords)))
            if mat.perm != tuple(range(dim)) or n % mat.modulus:
                raise AssertionError("x = 0 must give a diagonal of N-th roots of unity")
            trace = [0] * n
            for ph in mat.phases:
                trace[ph * (n // mat.modulus)] += 1
            for i in range(n):
                if trace[i]:
                    for k in range(n):
                        if trace[k]:
                            total[(i - k) % n] += trace[i] * trace[k]
    _, rem = _poly_divmod(total, list(cyclotomic_poly(n)))
    if len(rem) > 1:
        raise AssertionError("character norm must reduce to an integer constant")
    value, order = (rem[0] if rem else 0), n * dim * dim
    if value % order:
        raise AssertionError("character norm must be an integer")
    return value // order


def schrodinger_multiplicity(dim_v: int, d) -> int:
    """Multiplicity of the Schrodinger representation in a dim_v-dimensional one.

    Any representation with the standard central character splits as copies
    of the Schrodinger representation, so the multiplicity is dim_v / prod(d);
    a non-integral ratio means no such representation exists.
    """
    [dim_v] = int_tuple((dim_v,))
    if dim_v < 0:
        raise ValueError("dimension must be nonnegative")
    size = FinAbGroup(tuple(d)).order
    if dim_v % size:
        raise ValueError(f"dimension {dim_v} is not a multiple of {size}")
    return dim_v // size
