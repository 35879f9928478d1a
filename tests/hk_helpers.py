"""Helpers shared by several test modules; not collected as tests."""

from fractions import Fraction

from hktheta.finabgrp import FinAbGroup, GroupElement, Pairing, QmodZ


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
