"""Cokernel formulas, Heisenberg verdicts, and section counts for line bundles.

Three families are covered, keyed by the translation group of the underlying
manifold: the generalized-Kummer family KUM (group (Z/(n+1))^4), the OG6
family (group (Z/2)^8), and the RANK4 family of modular sheaves on
Kummer-type fourfolds (Schrodinger type (3,3)).

For KUM the commutator-pairing cokernel is (Z/div0)^2 + (Z/m)^2, where
div0 = gcd(n+1, div) and m = gcd(n+1, q/(2*div0)).  Its known limit: when
div0 > 1 the cokernel also depends on the orbit +-x0 mod div of the class, so
at n = 24 the key (div, q) = (5, 50) has the cokernels [5, 5, 5, 5] and
[5, 5, 25, 25], and the closed form gives only the first.  For OG6 it is trivial,
(Z/2)^4, or (Z/2)^8 according to (div, q mod 4).  For RANK4 it is trivial
or (Z/3)^2 according to 3 | e.  The theta group is Heisenberg exactly when the
cokernel is trivial.  Each key's rule home refuses it (a non-integer too) or returns
what its closed form needs: kum_div0_m (KUM (div, q)), og6_cokernel (OG6), rank4_a
(RANK4's e), and kum_class_invariants (KUM class: it checks b_i = gcd(n+1, a_i) against
its record's (div0, m)).  LineBundleInvariants, the one branch on the family, checks the
n rules and RANK4's div, runs the key's rule home once and keeps what it returned, which
theta_report and riemann_roch read.  The cokernels' cyclic orders are gcds the rule homes
computed or constants, so they go straight to finabgrp's cached chain core, not through
from_cyclic_orders' validation.  Independent routes: KUM's criterion, checked by
theta_report; OG6's model-pairing and lattice-trichotomy sweeps; none yet for RANK4.
"""

from __future__ import annotations

import math
from enum import Enum

from .arith import Record, int_tuple
from .finabgrp import AbGroupStructure, _structure_from_cyclic_orders

__all__ = [
    "Family",
    "LineBundleInvariants",
    "ThetaReport",
    "kum_div0_m",
    "kum_cokernel",
    "kum_is_heisenberg",
    "kum_class_invariants",
    "og6_cokernel",
    "og6_is_heisenberg",
    "rank4_a",
    "rank4_cokernel",
    "rank4_is_heisenberg",
    "riemann_roch",
    "theta_report",
    "report_to_dict",
]


class Family(Enum):
    KUM = "kum"
    OG6 = "og6"
    RANK4 = "rank4"


class LineBundleInvariants(Record):
    """Invariants (family, div, q, n?) of a primitive class; only the family's rules run,
    once.  Slots that equality, hash, repr and _asdict skip keep what they returned: div0
    and m (KUM, else None), the cokernel, sections (coef, top, k) with h0 = coef*C(top, k),
    and rep_dim, the Schrodinger dimension.  KUM: (n+1)*C(e+n, n), e = q/2, rep_dim (n+1)^2.
    OG6: 4*C(e+3, 3), rep_dim 2^4.  RANK4: 3*C(a+2, 2), q = 16a - 6, rep_dim 3^2."""

    __slots__ = ("family", "div", "q", "n", "div0", "m", "cokernel", "sections", "rep_dim")
    _fields = ("family", "div", "q", "n")  # the rest is set once and never compared

    def __init__(self, family: Family, div: int, q: int, n: int | None = None):
        div0 = m = None
        if family is Family.KUM:
            div0, m = kum_div0_m(n, div, q)
            cokernel = _structure_from_cyclic_orders((div0, div0, m, m))
            sections, rep_dim = (n + 1, q // 2 + n, n), (n + 1) ** 2
        elif family is Family.OG6:
            if n is not None:
                raise ValueError("OG6 takes no parameter n")
            cokernel, sections, rep_dim = og6_cokernel(div, q), (4, q // 2 + 3, 3), 16
        elif family is Family.RANK4:
            if n is not None:
                raise ValueError("RANK4 takes no parameter n")
            if int_tuple((div,)) != (2,):
                raise ValueError("RANK4 sheaves have divisibility 2")
            a = rank4_a(q)  # validates q > 0 and q = -6 mod 16
            cokernel = _structure_from_cyclic_orders((3, 3) if q % 3 == 0 else ())
            sections, rep_dim = (3, a + 2, 2), 9
        else:
            raise ValueError("family must be a Family member: KUM, OG6 or RANK4")
        self._set(family, div, q, n, div0, m, cokernel, sections, rep_dim)


def kum_div0_m(n: int | None, div: int, q: int) -> tuple[int, int]:
    """The Kummer (div, q) key's rules and its (div0, m): div0 = gcd(n+1, div)
    and m = gcd(n+1, q/(2*div0)), a gcd of absolute values, so any sign of q works."""
    try:
        if n is None or n < 2:
            raise ValueError("KUM requires n >= 2")
        if div < 1 or (2 * (n + 1)) % div:
            raise ValueError(f"divisibility {div} must divide {2 * (n + 1)}")
        div0 = math.gcd(n + 1, div)
        if q % (2 * div0):
            raise ValueError(f"2*div0 = {2 * div0} must divide q = {q}")
        return div0, math.gcd(n + 1, q // (2 * div0))
    except TypeError:  # math.gcd or an operator met a non-integer: name it
        int_tuple((n, div, q))
        raise


def kum_cokernel(n: int, div: int, q: int) -> AbGroupStructure:
    """(Z/div0)^2 + (Z/m)^2 in divisor-chain form, trivial factors dropped."""
    d0, m = kum_div0_m(n, div, q)
    return _structure_from_cyclic_orders((d0, d0, m, m))


def kum_is_heisenberg(n: int, div: int, q: int) -> bool:
    """Closed-form criterion: div in {1, 2 with n even} and gcd(n+1, q/2) = 1."""
    kum_div0_m(n, div, q)  # the key's rules only: the criterion is its own route
    small_div = div == 1 or (div == 2 and n % 2 == 0)
    return small_div and math.gcd(n + 1, q // 2) == 1


def kum_class_invariants(n: int, a1: int, a2: int, x: int) -> LineBundleInvariants:
    """The Kummer class key's rules and record: elementary divisors 1 <= a1 | a2, x along
    delta, gcd(a1, x) = 1, so div = gcd(2(n+1), a1) and q = 2*a1*a2.  Each call checks the
    class formula b_i = gcd(n+1, a_i) against kum_div0_m's (div0, m), which it equals: with
    k, s, t the valuations of n+1, a1, a2 at a prime (s <= t), div0 has min(k, s) and m has
    min(k, s + t - min(k, s)) = min(k, t)."""
    kum_div0_m(n, 1, 0)  # the n rule; (div, q) = (1, 0) passes the others
    try:
        if a1 < 1 or a2 < 1 or a2 % a1:
            raise ValueError("need 1 <= a1 | a2")
        if math.gcd(a1, x) != 1:
            raise ValueError("primitivity requires gcd(a1, x) = 1")
        b = math.gcd(n + 1, a1), math.gcd(n + 1, a2)
    except TypeError:  # math.gcd or an operator met a non-integer: name it
        int_tuple((a1, a2, x))
        raise
    inv = LineBundleInvariants(Family.KUM, math.gcd(2 * (n + 1), a1), 2 * a1 * a2, n)
    if (inv.div0, inv.m) != b:
        raise AssertionError(f"class formula and (div, q) route disagree at (n, a1, a2, x) = "
                             f"{(n, a1, a2, x)}: (b1, b2) = {b}, (div0, m) = {inv.div0, inv.m}")
    return inv


def og6_cokernel(div: int, q: int) -> AbGroupStructure:
    """The OG6 key's rules and its cokernel: trivial, (Z/2)^4, or (Z/2)^8 by (div, q mod 4)."""
    div, q = int_tuple((div, q))
    if div not in (1, 2):
        raise ValueError("OG6 divisibility must be 1 or 2")
    if q % 2:
        raise ValueError("the square q is always even; odd input rejected")
    if div == 2 and q % 8 not in (4, 6):
        raise ValueError("OG6 divisibility 2 forces q = -2 or -4 mod 8")
    return _structure_from_cyclic_orders((2,) * (8 if div == 2 else 0 if q % 4 else 4))


def og6_is_heisenberg(div: int, q: int) -> bool:
    """Heisenberg exactly when og6_cokernel is trivial."""
    return og6_cokernel(div, q).is_trivial()


def rank4_a(e: int) -> int:
    """The parameter a with e = 16a - 6 (so 2a is the square of the base polarization)."""
    [e] = int_tuple((e,))
    if e <= 0 or e % 16 != 10:
        raise ValueError(f"need e > 0 with e = -6 mod 16, got {e}")
    return (e + 6) // 16


def rank4_cokernel(e: int) -> AbGroupStructure:
    """Trivial when 3 does not divide e (equivalently a), else (Z/3)^2."""
    return LineBundleInvariants(Family.RANK4, 2, e).cokernel


def rank4_is_heisenberg(e: int) -> bool:
    """Heisenberg exactly when rank4_cokernel is trivial."""
    return rank4_cokernel(e).is_trivial()


MAX_H0_BITS = 14_000  # about 4,215 digits: under CPython's default 4,300-digit int-to-str limit


def riemann_roch(inv: LineBundleInvariants) -> int:
    """Section count h^0 for an ample primitive class with the given square.

    h0 = coef*C(top, k), read from the record's sections (see LineBundleInvariants).
    A count over MAX_H0_BITS bits raises ValueError, before math.comb if it can.
    """
    if inv.q <= 0:
        raise ValueError("the section-count formulas require q > 0")
    coef, top, k = inv.sections
    k = min(k, top - k)  # >= 1 here
    # C(top, k) >= (top // k)^k, so the first test refuses only counts that are too big
    if (k * ((top // k).bit_length() - 1) > MAX_H0_BITS
            or (h0 := coef * math.comb(top, k)).bit_length() > MAX_H0_BITS):
        raise ValueError(f"h0 exceeds the section-count limit MAX_H0_BITS = {MAX_H0_BITS} bits")
    return h0


class ThetaReport(Record):
    """Aggregate answer: cokernel, Heisenberg verdict, section data; built only by theta_report."""

    __slots__ = ("invariants", "div0", "m", "cokernel", "is_heisenberg", "h0",
                 "schrodinger_multiplicity")


def theta_report(inv: LineBundleInvariants) -> ThetaReport:
    """The verdict is cokernel triviality; KUM's criterion, a second route, must agree.

    h0 is present only for q > 0; the multiplicity h0 / (Schrodinger dim) is
    present only when the theta group is Heisenberg and h0 is defined.
    """
    cokernel = inv.cokernel
    if inv.family is Family.KUM and (
            (criterion := kum_is_heisenberg(inv.n, inv.div, inv.q)) != cokernel.is_trivial()):
        raise AssertionError(
            f"Heisenberg criterion and cokernel triviality disagree at (n, div, q) = "
            f"({inv.n}, {inv.div}, {inv.q}): criterion {str(criterion).lower()}, "
            f"cokernel {list(cokernel.invariant_factors)}")
    heisenberg = cokernel.is_trivial()
    h0 = riemann_roch(inv) if inv.q > 0 else None
    multiplicity = None
    if heisenberg and h0 is not None:
        multiplicity, rest = divmod(h0, inv.rep_dim)
        if rest:
            raise AssertionError(f"h0 is not a multiple of the Schrodinger dimension {inv.rep_dim}")
    return ThetaReport._make(inv, inv.div0, inv.m, cokernel, heisenberg, h0, multiplicity)


def report_to_dict(report: ThetaReport) -> dict:
    """Flat serializable record; absent optionals are omitted, never null."""
    inv = report.invariants
    fields = [
        ("family", inv.family.value), ("n", inv.n), ("div", inv.div), ("q", inv.q),
        ("div0", report.div0), ("m", report.m),
        ("cokernel", list(report.cokernel.invariant_factors)),
        ("is_heisenberg", report.is_heisenberg), ("h0", report.h0),
        ("multiplicity", report.schrodinger_multiplicity),
    ]
    return {key: value for key, value in fields if value is not None}
