"""Finite abelian groups, Q/Z arithmetic, and skew pairings.

The cokernel has two independent implementations (Smith form vs exhaustive
enumeration); a chunk of this file exists to smash them against each other.
The radical, which the library reads off the Smith-form cokernel by duality,
is checked against a literal enumeration of ker E.
"""

import ast
import math
import random
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hktheta import finabgrp
from hktheta.arith import divisors
from hktheta.finabgrp import (
    MAX_ENTRY_DIGITS,
    MAX_EXPONENT_BITS,
    AbGroupStructure,
    FinAbGroup,
    OG6PairingCase,
    Pairing,
    QmodZ,
    brute_cokernel,
    e_matrix,
    eval_pairing,
    is_nondegenerate,
    pairing_cokernel,
    pairing_from_dict,
    pairing_radical,
    pairing_to_dict,
    standard_kum_pairing,
    standard_og6_pairing,
    tensor_pairing,
    zero_pairing,
)
from hktheta.finabgrp import _image_closure
from hk_helpers import (
    as_fraction,
    check_pairing_matrix,
    pairing_from_dict_by_qmodz,
    qmodz_sum,
    span_by_closure,
    symplectic_pairing,
    to_qmodz,
)

# ---------------------------------------------------------------------------
# Q/Z


def test_qmodz_normalization():
    assert QmodZ(2, 4) == QmodZ(1, 2)
    assert QmodZ(-1, 3) == QmodZ(2, 3)
    assert QmodZ(7, 3) == QmodZ(1, 3)
    assert QmodZ(3, -2) == QmodZ(1, 2)
    assert QmodZ(5) == QmodZ(0, 1)
    assert QmodZ(0, 7).is_zero()


def test_qmodz_parse_and_str():
    assert QmodZ.parse("3/9") == QmodZ(1, 3)
    assert QmodZ.parse(" -1/4 ") == QmodZ(3, 4)
    assert QmodZ.parse("2") == QmodZ(0, 1)
    assert str(QmodZ(1, 2)) == "1/2"
    assert str(QmodZ(0)) == "0/1"
    assert QmodZ.parse(str(QmodZ(5, 12))) == QmodZ(5, 12)


def test_qmodz_zero_denominator():
    with pytest.raises(ValueError):
        QmodZ(1, 0)


qmodz_values = st.builds(QmodZ, st.integers(-40, 40), st.integers(1, 24))


@given(qmodz_values, qmodz_values, qmodz_values)
def test_qmodz_ring_laws(a, b, c):
    # sums go through Fraction representatives, which share no code with QmodZ,
    # so these check that reduction mod 1 and negation respect the group law
    assert qmodz_sum(a, b) == qmodz_sum(b, a)
    assert qmodz_sum(qmodz_sum(a, b), c) == qmodz_sum(a, qmodz_sum(b, c))
    assert qmodz_sum(a, QmodZ(0)) == a
    assert qmodz_sum(a, -a) == QmodZ(0)
    assert qmodz_sum(a, b) == to_qmodz(as_fraction(a) + as_fraction(b))
    assert qmodz_sum(a, -b) == to_qmodz(as_fraction(a) - as_fraction(b))
    assert qmodz_sum(a, a, a) == to_qmodz(3 * as_fraction(a))


@given(qmodz_values)
def test_qmodz_order(a):
    assert a.order >= 1
    assert to_qmodz(a.order * as_fraction(a)).is_zero()
    for k in range(1, a.order):
        assert not to_qmodz(k * as_fraction(a)).is_zero()


# ---------------------------------------------------------------------------
# groups and structure descriptors


def test_group_basics():
    g = FinAbGroup((2, 4))
    assert g.rank == 2 and g.order == 8 and g.exponent == 4
    assert g.zero().coords == (0, 0)
    assert g.gen(0).coords == (1, 0)
    assert g.element((3, 7)).coords == (1, 3)
    assert len(list(g.coord_tuples())) == 8


def test_group_validation():
    with pytest.raises(ValueError):
        FinAbGroup(())
    with pytest.raises(ValueError):
        FinAbGroup((1, 2))
    with pytest.raises(ValueError):
        FinAbGroup((2,)).element((0, 0))


@pytest.mark.parametrize(
    "build, bad",
    [
        (lambda: QmodZ(1.5, 2), "1.5"),
        (lambda: QmodZ(1, Fraction(2)), "Fraction(2, 1)"),
        (lambda: FinAbGroup((2.7, 3)), "2.7"),
        (lambda: FinAbGroup((2, 3)).element((1.9, 2.2)), "1.9"),
        (lambda: finabgrp.GroupElement(FinAbGroup((4,)), ("3",)), "'3'"),
        (lambda: AbGroupStructure((2, 4.0)), "4.0"),
        (lambda: AbGroupStructure.from_cyclic_orders((2.0, 4)), "2.0"),
    ],
    ids=["QmodZ", "QmodZ-den", "FinAbGroup", "element", "GroupElement", "AbGroupStructure",
         "from_cyclic_orders"],
)
def test_non_integers_are_refused_not_truncated(build, bad):
    # int() would have read 1.5 as 1, 2.7 as 2 and '3' as 3; the memoised
    # from_cyclic_orders must refuse (2.0, 4) even once (2, 4) is cached
    AbGroupStructure.from_cyclic_orders((2, 4))
    with pytest.raises(ValueError, match=f"^expected an integer, got {re.escape(bad)}$"):
        build()


@pytest.mark.parametrize("key, bad", [((2.0, 1, 3), "2.0"), ((2, 1.0, 3), "1.0"),
                                      ((2, 1, 3.0), "3.0")])
def test_the_kum_model_pairing_refuses_a_non_integer_key(key, bad):
    # a float n, b1 or b2 would store float units that compare equal to the
    # integer model's, and pairing_cokernel would then raise a TypeError
    with pytest.raises(ValueError, match=f"^expected an integer, got {re.escape(bad)}$"):
        standard_kum_pairing(*key)


def test_from_cyclic_orders_golden():
    fco = AbGroupStructure.from_cyclic_orders
    assert fco([4, 6]).invariant_factors == (2, 12)
    assert fco([2, 3]).invariant_factors == (6,)
    assert fco([1, 1]).invariant_factors == ()
    assert fco([2, 2, 3]).invariant_factors == (2, 6)
    assert fco([8, 4, 2, 9, 3]).invariant_factors == (2, 12, 72)
    assert fco([]).is_trivial()
    assert fco([5, 5]).order == 25


def test_from_cyclic_orders_is_memoised():
    fco = AbGroupStructure.from_cyclic_orders
    first = fco([4, 6])
    assert fco(o for o in (4, 6)) is first
    assert fco((6, 4)) == first
    for _ in range(2):  # a refusal is not remembered
        with pytest.raises(ValueError, match="cyclic orders must be positive"):
            fco([2, 0])


def test_structure_validation():
    with pytest.raises(ValueError):
        AbGroupStructure((4, 6))  # 4 does not divide 6
    with pytest.raises(ValueError):
        AbGroupStructure((1, 2))
    assert str(AbGroupStructure((2, 4))) == "Z/2 x Z/4"
    assert str(AbGroupStructure(())) == "trivial"


@given(st.lists(st.integers(1, 200), max_size=8))
def test_from_cyclic_orders_is_invariant_form(orders):
    struct = AbGroupStructure.from_cyclic_orders(orders)
    factors = struct.invariant_factors
    # valid divisor chain with the right total order (constructor revalidates)
    assert AbGroupStructure(factors) == struct
    assert struct.order == math.prod(orders)
    # the k-torsion counts |G[k]| = prod gcd(k, o) determine the group
    for k in range(1, max(orders, default=1) + 1):
        assert math.prod(math.gcd(k, o) for o in orders) == math.prod(
            math.gcd(k, d) for d in factors
        )


# ---------------------------------------------------------------------------
# pairing construction and evaluation


def test_pairing_rejects_bad_matrices():
    g = FinAbGroup((2, 2))
    half, zero = QmodZ(1, 2), QmodZ(0)
    with pytest.raises(ValueError):  # nonzero diagonal
        Pairing(g, ((half, zero), (zero, zero)))
    with pytest.raises(ValueError):  # not skew: [0,1/2;0,0]
        Pairing(g, ((zero, half), (zero, zero)))
    with pytest.raises(ValueError):  # denominator 3 incompatible with orders (2,2)
        third = QmodZ(1, 3)
        Pairing(g, ((zero, third), (-third, zero)))
    with pytest.raises(ValueError):  # wrong shape
        Pairing(g, ((zero, half),))
    with pytest.raises(ValueError, match="^pairing entries must be QmodZ$"):  # ints, not QmodZ
        Pairing(g, ((0, 0), (0, 0)))


@st.composite
def qmodz_matrices(draw):
    # a skew matrix valid for mixed orders, then up to three entries overwritten
    # by arbitrary values, half of them with their skew partner, so that each
    # of the diagonal, skew and order checks decides some draws
    rank = draw(st.integers(1, 4))
    orders = tuple(
        draw(st.lists(st.sampled_from([2, 3, 4, 6, 8, 9, 12]), min_size=rank, max_size=rank))
    )
    mat = [[QmodZ(0)] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            den = math.gcd(orders[i], orders[j])
            mat[i][j] = QmodZ(draw(st.integers(0, den - 1)), den)
            mat[j][i] = -mat[i][j]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, rank - 1)), draw(st.integers(0, rank - 1))
        mat[i][j] = draw(st.builds(QmodZ, st.integers(-20, 20), st.integers(1, 16)))
        if draw(st.booleans()):
            mat[j][i] = -mat[i][j]
    return orders, tuple(map(tuple, mat))


def _error_line(build):
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


@given(qmodz_matrices())
@settings(max_examples=300)
def test_pairing_validation_matches_the_qmodz_reference(case):
    # the integer-unit checks accept, reject and word their error exactly as the
    # checks on QmodZ values and their negatives, in the same order
    orders, mat = case
    expected = _error_line(lambda: check_pairing_matrix(orders, mat))
    assert _error_line(lambda: Pairing(FinAbGroup(orders), mat)) == expected
    if expected is None:
        p = Pairing(FinAbGroup(orders), mat)
        n = p.group.exponent
        assert [[Fraction(u, n) for u in row] for row in p._units] == [
            [as_fraction(q) for q in row] for row in mat
        ]


@pytest.mark.parametrize(
    "orders, mat, error",
    [
        # both entries off the units of 1/2 yet skew: the order check fires
        (
            (2, 2),
            ((0, (1, 5)), ((4, 5), 0)),
            "entry 1/5 at (0,1) is incompatible with generator orders",
        ),
        # both off the units and not skew
        ((2, 2), ((0, (1, 5)), ((1, 5), 0)), "pairing matrix must be skew"),
        # one entry off the units: not skew, checked before its order
        ((2, 2), ((0, (1, 2)), ((1, 3), 0)), "pairing matrix must be skew"),
        ((2, 2), (((1, 3), 0), (0, 0)), "pairing must vanish on the diagonal"),
        # a valid unit of 1/6 whose denominator does not divide gcd(2, 3) = 1
        (
            (2, 3, 6),
            ((0, (1, 6), 0), ((5, 6), 0, 0), (0, 0, 0)),
            "entry 1/6 at (0,1) is incompatible with generator orders",
        ),
    ],
)
def test_pairing_error_lines(orders, mat, error):
    mat = tuple(tuple(QmodZ(*q) if isinstance(q, tuple) else QmodZ(q) for q in row) for row in mat)
    assert _error_line(lambda: check_pairing_matrix(orders, mat)) == error
    assert _error_line(lambda: Pairing(FinAbGroup(orders), mat)) == error


@pytest.mark.parametrize(
    "matrix, error",
    [
        # the first fault the loop meets is skewness at (0,1), before the 1/5 at (1,2)
        ([["0/1", "1/2", "0/1"], ["0/1", "0/1", "1/5"], ["0/1", "4/5", "0/1"]],
         "pairing matrix must be skew"),
        # the 1/5 at (0,1) is skew with its partner: its order check fires first
        ([["0/1", "1/5", "0/1"], ["4/5", "0/1", "1/2"], ["0/1", "0/1", "0/1"]],
         "entry 1/5 at (0,1) is incompatible with generator orders"),
    ],
    ids=["skew-first", "order-first"],
)
def test_document_with_two_faults_reports_the_first_in_loop_order(matrix, error):
    # an entry off the units of 1/exponent is refused inside the loop, in the
    # place of the QmodZ reference, not as soon as it is read
    doc = {"orders": [2, 2, 2], "matrix": matrix}
    assert _error_line(lambda: pairing_from_dict(doc)) == error
    assert _error_line(lambda: pairing_from_dict_by_qmodz(doc)) == error


def test_accepted_document_reaches_the_smith_form_without_reducing_a_fraction(
        monkeypatch, wide_pairing_doc):
    # entries go straight to units of 1/exponent: no gcd-reduced pair on the way
    reduced = []
    monkeypatch.setattr(finabgrp, "_reduced", lambda *args: reduced.append(args))
    p = pairing_from_dict(wide_pairing_doc)
    assert pairing_cokernel(p) == AbGroupStructure((3, 120)) and reduced == []


@pytest.mark.parametrize("doc, factors", [
    (None, (3, 120)),  # the wide document: relation columns for the orders below 120
    ({"orders": [6, 6], "matrix": [["0/1", "1/6"], ["5/6", "0/1"]]}, ()),  # none
    ({"orders": [4, 2], "matrix": [["0/1", "0/1"], ["0/1", "0/1"]]}, (2, 4)),  # no live column
])
def test_pairing_cokernel_leaves_the_pairing_as_it_was(wide_pairing_doc, doc, factors):
    # the Smith core works in place on the rows pairing_cokernel builds, never on
    # the pairing's own units
    p = pairing_from_dict(wide_pairing_doc if doc is None else doc)
    units, twin = p._units, pairing_from_dict(wide_pairing_doc if doc is None else doc)
    assert pairing_cokernel(p) == pairing_cokernel(p) == AbGroupStructure(factors)
    assert p._units is units and p == twin and p._entries == twin._entries


def test_skew_with_order_two_entries():
    # on (Z/2)^2 a value of 1/2 is its own negative, so this is legal
    p = symplectic_pairing(2, 1)
    assert p.matrix[0][1] == p.matrix[1][0] == QmodZ(1, 2)


def test_eval_pairing_golden():
    p = standard_kum_pairing(2, 1, 1)
    g = p.group
    a1, b1, a2, b2 = (g.gen(i) for i in range(4))
    assert eval_pairing(p, a1, b1) == QmodZ(1, 3)
    assert eval_pairing(p, b1, a1) == QmodZ(2, 3)
    assert eval_pairing(p, a1, a2) == QmodZ(0)
    assert eval_pairing(p, g.element((2, 0, 0, 0)), b1) == QmodZ(2, 3)
    assert eval_pairing(p, g.element((1, 0, 1, 0)), g.element((0, 1, 0, 1))) == QmodZ(2, 3)
    with pytest.raises(ValueError):
        eval_pairing(p, a1, FinAbGroup((3,)).gen(0))


def random_elements(group):
    coords = st.tuples(*(st.integers(0, o - 1) for o in group.orders))
    return coords.map(group.element)


@given(st.data())
def test_eval_pairing_is_skew_biadditive(data):
    p = standard_kum_pairing(3, 2, 4)
    a = data.draw(random_elements(p.group))
    b = data.draw(random_elements(p.group))
    c = data.draw(random_elements(p.group))
    assert eval_pairing(p, a, a).is_zero()
    assert eval_pairing(p, a, b) == -eval_pairing(p, b, a)
    add = lambda u, v: p.group.element(tuple(map(sum, zip(u.coords, v.coords))))
    assert eval_pairing(p, add(a, b), c) == qmodz_sum(eval_pairing(p, a, c), eval_pairing(p, b, c))
    assert eval_pairing(p, a, add(b, c)) == qmodz_sum(eval_pairing(p, a, b), eval_pairing(p, a, c))


def test_e_matrix_golden():
    assert e_matrix(zero_pairing(FinAbGroup((2, 4)))) == ((0, 0), (0, 0))
    assert e_matrix(symplectic_pairing(2, 1)) == ((0, 1), (1, 0))
    # n = 2, multipliers (1, 1): antidiagonal unit blocks mod 3
    assert e_matrix(standard_kum_pairing(2, 1, 1)) == (
        (0, 2, 0, 0),
        (1, 0, 0, 0),
        (0, 0, 0, 2),
        (0, 0, 1, 0),
    )


def test_e_matrix_columns_are_characters():
    p = standard_kum_pairing(2, 1, 3)
    m = e_matrix(p)
    g = p.group
    o = g.orders
    for j in range(g.rank):
        for a in map(g.element, g.coord_tuples()):
            lhs = eval_pairing(p, g.gen(j), a)
            rhs = sum(
                (Fraction(m[i][j] * a.coords[i], o[i]) for i in range(g.rank)),
                Fraction(0),
            )
            assert lhs == QmodZ(rhs.numerator, rhs.denominator)


# ---------------------------------------------------------------------------
# cokernel, radical, nondegeneracy: golden values


def test_cokernel_golden():
    assert pairing_cokernel(symplectic_pairing(2, 1)).is_trivial()
    assert pairing_cokernel(zero_pairing(FinAbGroup((3, 3)))).invariant_factors == (3, 3)
    assert pairing_cokernel(standard_kum_pairing(2, 1, 3)).invariant_factors == (3, 3)
    assert pairing_cokernel(standard_kum_pairing(2, 1, 1)).is_trivial()
    assert pairing_cokernel(standard_kum_pairing(4, 5, 5)).invariant_factors == (5, 5, 5, 5)


def test_cokernel_golden_with_and_without_relation_columns():
    # a generator of order N = exponent adds no relation column to the Smith
    # form's input (all four generators of the Kummer model, some in the
    # others), and one that pairs to zero with every generator adds no column
    # of e_matrix (all in the zero pairing, two in (6,6,2,3), none in the rest)
    two_four = pairing_from_dict({"orders": [2, 4, 4], "matrix": [
        ["0/1", "1/2", "0/1"], ["1/2", "0/1", "1/4"], ["0/1", "3/4", "0/1"]]})
    six_two_three = pairing_from_dict({"orders": [6, 6, 2, 3], "matrix": [
        ["0/1", "1/6", "0/1", "0/1"], ["5/6", "0/1", "0/1", "0/1"], ["0/1"] * 4, ["0/1"] * 4]})
    cases = [
        (zero_pairing(FinAbGroup((2, 6, 6))), (2, 6, 6)),
        (two_four, (2,)),
        (six_two_three, (6,)),
        (standard_kum_pairing(5, 2, 3), (6, 6)),
    ]
    for p, factors in cases:
        assert pairing_cokernel(p) == brute_cokernel(p) == AbGroupStructure(factors)


def test_cokernel_golden_wide_document(wide_pairing_doc):
    p = pairing_from_dict(wide_pairing_doc)
    expected = AbGroupStructure((3, 120))
    assert pairing_cokernel(p) == brute_cokernel(p) == pairing_radical(p) == expected
    assert not is_nondegenerate(p)


def test_radical_golden():
    assert pairing_radical(symplectic_pairing(3, 2)).is_trivial()
    assert pairing_radical(zero_pairing(FinAbGroup((2, 4)))).invariant_factors == (2, 4)
    assert pairing_radical(standard_kum_pairing(2, 1, 3)).invariant_factors == (3, 3)
    og6 = standard_og6_pairing(OG6PairingCase.DIV1_DIV4)
    assert pairing_radical(og6).invariant_factors == (2, 2, 2, 2)


def test_nondegeneracy_golden():
    assert is_nondegenerate(standard_kum_pairing(2, 1, 1))
    assert not is_nondegenerate(standard_kum_pairing(2, 1, 3))
    assert is_nondegenerate(standard_og6_pairing(OG6PairingCase.DIV1_NOT4))
    assert not is_nondegenerate(standard_og6_pairing(OG6PairingCase.DIV2))


def test_og6_cases_golden():
    coker = lambda case: pairing_cokernel(standard_og6_pairing(case))
    assert coker(OG6PairingCase.DIV1_NOT4).is_trivial()
    assert coker(OG6PairingCase.DIV1_DIV4).invariant_factors == (2, 2, 2, 2)
    assert coker(OG6PairingCase.DIV2).invariant_factors == (2,) * 8
    # enum accepts its own values
    assert standard_og6_pairing("div2").matrix == zero_pairing(FinAbGroup((2,) * 8)).matrix


def test_standard_pairing_validation():
    with pytest.raises(ValueError):
        standard_kum_pairing(1, 1, 1)
    with pytest.raises(ValueError):
        standard_kum_pairing(2, 2, 1)  # 2 does not divide 3
    with pytest.raises(ValueError):
        standard_kum_pairing(3, 1, 0)
    with pytest.raises(ValueError):
        symplectic_pairing(1, 1)
    with pytest.raises(ValueError):
        symplectic_pairing(2, 0)


def test_brute_cokernel_enumeration_bound():
    big = FinAbGroup((2,) * 21)  # order 2**21 > 10**6
    with pytest.raises(ValueError):
        brute_cokernel(zero_pairing(big))


# ---------------------------------------------------------------------------
# route agreement: Smith form vs enumeration vs radical duality

CONSTRUCTIBLE = {}
for _n in (2, 3, 5):
    _divs = [d for d in range(1, _n + 2) if (_n + 1) % d == 0]
    for _b1 in _divs:
        for _b2 in _divs:
            CONSTRUCTIBLE[f"kum-n{_n}-{_b1}-{_b2}"] = standard_kum_pairing(_n, _b1, _b2)
for _case in OG6PairingCase:
    CONSTRUCTIBLE[f"og6-{_case.value}"] = standard_og6_pairing(_case)
for _m, _k in [(2, 1), (2, 2), (3, 1), (4, 2), (6, 1), (12, 1)]:
    CONSTRUCTIBLE[f"symp-{_m}-{_k}"] = symplectic_pairing(_m, _k)
for _orders in [(2,), (4,), (2, 4), (3, 3), (2, 2, 2)]:
    CONSTRUCTIBLE["zero-" + "x".join(map(str, _orders))] = zero_pairing(FinAbGroup(_orders))
CONSTRUCTIBLE["tensor-kum"] = tensor_pairing(
    standard_kum_pairing(2, 1, 3), standard_kum_pairing(2, 3, 1)
)
CONSTRUCTIBLE["tensor-og6"] = tensor_pairing(
    standard_og6_pairing(OG6PairingCase.DIV1_DIV4),
    standard_og6_pairing(OG6PairingCase.DIV1_DIV4),
)


def _divisors_by_trial(n):
    # every k | n by literal trial, so the references share no code with arith
    return [k for k in range(1, n + 1) if n % k == 0]


def _assert_torsion_sizes(sizes, structure):
    """sizes[k] = |A[k]| for every k dividing N, the exponent of G, counted by
    enumeration; A must have structure's invariant factors d_i.  Each |A[k]|
    must be prod gcd(k, d_i) and |A| = |A[N]| must be prod d_i: the sizes of
    the prime-power torsion determine A, and this shares no code with
    brute_cokernel."""
    assert sizes[max(sizes)] == structure.order
    for k, size in sizes.items():
        assert size == math.prod(math.gcd(k, d) for d in structure.invariant_factors), k


def _radical_by_enumeration(p):
    """|ker E[k]| for every k | exponent by literal enumeration: the a in G with
    e(a, gen_j) = 0 for all j and k*a = 0; the reference for pairing_radical,
    with no Smith form."""
    g = p.group
    gens = [g.gen(j) for j in range(g.rank)]
    kernel = [a.coords for a in map(g.element, g.coord_tuples())
              if all(eval_pairing(p, a, x).is_zero() for x in gens)]
    return {k: sum(all(k * c % o == 0 for c, o in zip(a, g.orders)) for a in kernel)
            for k in _divisors_by_trial(g.exponent)}


@pytest.mark.parametrize("name", sorted(CONSTRUCTIBLE))
def test_route_agreement_constructible(name):
    p = CONSTRUCTIBLE[name]
    coker = pairing_cokernel(p)
    assert brute_cokernel(p) == coker
    # for a skew pairing the radical and the cokernel are isomorphic
    _assert_torsion_sizes(_radical_by_enumeration(p), coker)
    assert pairing_radical(p) == coker


@st.composite
def skew_pairings(draw, max_order=4096, max_rank=4):
    rank = draw(st.integers(1, max_rank))
    orders = draw(
        st.lists(st.sampled_from([2, 3, 4, 5, 6, 8, 9, 12]), min_size=rank, max_size=rank)
    )
    assume(math.prod(orders) <= max_order)
    g = FinAbGroup(tuple(orders))
    mat = [[QmodZ(0)] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            den = math.gcd(orders[i], orders[j])
            val = QmodZ(draw(st.integers(0, den - 1)), den)
            mat[i][j] = val
            mat[j][i] = -val
    return Pairing(g, tuple(tuple(row) for row in mat))


@given(skew_pairings())
@settings(max_examples=40)
def test_route_agreement_random(p):
    coker = pairing_cokernel(p)
    assert brute_cokernel(p) == coker
    _assert_torsion_sizes(_radical_by_enumeration(p), coker)
    assert pairing_radical(p) == coker
    assert is_nondegenerate(p) == coker.is_trivial()
    assert p.group.order % coker.order == 0


@given(skew_pairings())
def test_e_matrix_matches_the_pairing_entries(p):
    # entry (i, j) is e(gen_j, gen_i) = num/den written in units of 1/orders[i]
    m, mat = e_matrix(p), p.matrix  # `matrix` builds its QmodZ values on each read
    o, r = p.group.orders, p.group.rank
    for i in range(r):
        for j in range(r):
            value = Fraction(mat[j][i].num, mat[j][i].den) * o[i]
            assert value.denominator == 1 and m[i][j] == value.numerator % o[i]


def _cokernel_by_whole_group(p):
    """Literal enumeration: the image from every a in G, then for every k |
    exponent the ghat in Ghat with k*ghat in the image, |H| per element of
    A[k].  Returns the image and the sizes |A[k]|; the reference for
    brute_cokernel's closure and counting lemma."""
    g = p.group
    o, r = g.orders, g.rank
    m = e_matrix(p)
    image = set()
    for coords in g.coord_tuples():
        image.add(tuple(sum(m[i][j] * coords[j] for j in range(r)) % o[i] for i in range(r)))
    h = len(image)
    sizes = {}
    for k in _divisors_by_trial(g.exponent):
        count = sum(tuple(k * x % oi for x, oi in zip(ghat, o)) in image
                    for ghat in g.coord_tuples())
        assert count % h == 0
        sizes[k] = count // h
    return image, sizes


def _densest_pairing(orders):
    # e(g_i, g_j) = 1/gcd(o_i, o_j) for i < j: every entry of the largest allowed order
    g = FinAbGroup(orders)
    r = g.rank
    mat = [[QmodZ(0)] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            val = QmodZ(1, math.gcd(orders[i], orders[j]))
            mat[i][j], mat[j][i] = val, -val
    return Pairing(g, tuple(tuple(row) for row in mat))


def _decode(bits, orders):
    # the elements of a bitset over prod Z/o_i: bit i stands for the i-th
    # tuple of product(), the first coordinate the most significant digit
    return {x for i, x in enumerate(product(*map(range, orders))) if bits >> i & 1}


def _assert_matches_whole_group(p):
    image, sizes = _cokernel_by_whole_group(p)
    assert _decode(_image_closure(e_matrix(p), p.group.orders), p.group.orders) == image
    coker = brute_cokernel(p)
    _assert_torsion_sizes(sizes, coker)
    return image, coker


# in the last three, gcd(k, o_i) = 1 for some i at some k | exponent (k = 2 or 3),
# so Ghat/k*Ghat drops a factor
@pytest.mark.parametrize("orders", [(2, 4, 8), (3, 6, 12), (2, 3, 4, 6), (2, 3, 6), (4, 9, 12)])
def test_brute_cokernel_counting_mixed_orders(orders):
    p = _densest_pairing(orders)
    _, coker = _assert_matches_whole_group(p)
    assert coker == pairing_cokernel(p)
    _assert_torsion_sizes(_radical_by_enumeration(p), coker)


def test_brute_cokernel_counting_zero_pairing():
    for orders in [(2, 3, 4, 6), (2, 3, 6), (4, 9, 12)]:
        p = zero_pairing(FinAbGroup(orders))
        image, coker = _assert_matches_whole_group(p)
        assert len(image) == 1
        assert coker == AbGroupStructure.from_cyclic_orders(orders)
        _assert_torsion_sizes(_radical_by_enumeration(p), coker)


def test_brute_cokernel_counting_nondegenerate():
    # two hyperbolic pairs of orders 2 and 4 on (Z/2 x Z/4)^2
    g = FinAbGroup((2, 4, 2, 4))
    zero = QmodZ(0)
    half, quarter = QmodZ(1, 2), QmodZ(1, 4)
    mat = (
        (zero, zero, half, zero),
        (zero, zero, zero, quarter),
        (half, zero, zero, zero),
        (zero, -quarter, zero, zero),
    )
    p = Pairing(g, mat)
    image, coker = _assert_matches_whole_group(p)
    assert len(image) == g.order
    assert coker.is_trivial()
    _assert_torsion_sizes(_radical_by_enumeration(p), AbGroupStructure())


@given(skew_pairings(max_order=1024))
@settings(max_examples=40)
def test_brute_cokernel_matches_whole_group_enumeration(p):
    _assert_matches_whole_group(p)


def test_brute_cokernel_counting_nondegenerate_with_trivial_factors():
    # on Z/2 x Z/3 x Z/6 (= (Z/6)^2): e(g1, g3) = 1/2, e(g2, g3) = 1/3;
    # Ghat/2Ghat drops the Z/3 factor and Ghat/3Ghat the Z/2 factor
    g = FinAbGroup((2, 3, 6))
    zero, half, third = QmodZ(0), QmodZ(1, 2), QmodZ(1, 3)
    p = Pairing(g, ((zero, zero, half), (zero, zero, third), (-half, -third, zero)))
    image, coker = _assert_matches_whole_group(p)
    assert len(image) == g.order
    assert coker.is_trivial() and pairing_cokernel(p).is_trivial()


def test_brute_cokernel_column_meeting_earlier_span():
    # on (Z/4)^3 the second column c = (2, 0, 1) of e_matrix has order 4, but
    # 2c = (0, 0, 2) already lies in the span of the first column (0, 2, 1):
    # the cyclic extension by c stops at k = 2 < ord(c)
    g = FinAbGroup((4, 4, 4))
    zero, half, quarter = QmodZ(0), QmodZ(1, 2), QmodZ(1, 4)
    p = Pairing(g, ((zero, half, quarter), (half, zero, quarter), (-quarter, -quarter, zero)))
    first, c, _ = zip(*e_matrix(p))
    earlier = {tuple(t * x % o for x, o in zip(first, g.orders)) for t in range(4)}
    multiples = [tuple(t * x % o for x, o in zip(c, g.orders)) for t in range(1, 5)]
    k = next(t for t, y in enumerate(multiples, 1) if y in earlier)
    order = next(t for t, y in enumerate(multiples, 1) if not any(y))
    assert (k, order) == (2, 4)
    image, coker = _assert_matches_whole_group(p)
    assert len(image) == 16
    assert coker == pairing_cokernel(p) == AbGroupStructure((4,))


@st.composite
def orders_and_columns(draw):
    # up to five columns over a product of rank 0-5 with order-1 factors
    # allowed: zero columns, arbitrary ones and combinations of earlier ones
    orders = tuple(draw(st.lists(st.integers(1, 7), max_size=5)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["zero", "any", "in_span"]), max_size=5)):
        if kind == "any":
            col = tuple(draw(st.integers(0, o - 1)) for o in orders)
        elif kind == "in_span" and columns:
            coeffs = [draw(st.integers(0, 6)) for _ in columns]
            col = tuple(sum(a * c[i] for a, c in zip(coeffs, columns)) % o
                        for i, o in enumerate(orders))
        else:
            col = (0,) * len(orders)
        columns.append(col)
    return orders, columns


@given(orders_and_columns())
@example(((), [(), ()]))
@example(((1, 4, 1, 6), [(0, 2, 0, 3), (0, 0, 0, 0), (0, 0, 0, 0), (0, 2, 0, 3)]))
@example(((7, 7, 7, 7, 7), [(1, 2, 3, 4, 5), (2, 4, 6, 1, 3), (0, 0, 0, 0, 1)]))
@settings(max_examples=150)
def test_image_closure_bitset_matches_literal_span(case):
    orders, columns = case
    m = [[c[i] for c in columns] for i in range(len(orders))]
    bits = _image_closure(m, orders)
    assert bits >> math.prod(orders) == 0
    assert _decode(bits, orders) == span_by_closure(columns, orders)


@pytest.mark.parametrize("orders, value", [
    ((10,) * 6, None), ((1000, 1000), QmodZ(1, 1000)), ((7,) * 7, None), ((2,) * 19, None)])
def test_brute_cokernel_at_the_enumeration_bound(orders, value):
    # order 10**6, the bound: the densest (Z/10)^6 pairing, and e(g1, g2) = 1/1000
    # on (Z/1000)^2, whose columns have order 1000 and so take ten doublings; the
    # densest p-groups below it, (Z/7)^7 and (Z/2)^19, are the worst case, as
    # there the whole group is one prime-power quotient
    if value is None:
        p = _densest_pairing(orders)
    else:
        p = Pairing(FinAbGroup(orders), ((QmodZ(0), value), (-value, QmodZ(0))))
    assert 5 * 10**5 < p.group.order <= 10**6
    tracemalloc.start()
    try:
        brute = brute_cokernel(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert brute == pairing_cokernel(p)
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        brute_cokernel(p)
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 0.5, f"best of 3: {min(seconds):.2f} s"


def test_brute_cokernel_closes_only_prime_power_quotients(monkeypatch):
    # (Z/10)^6 closes Ghat/2Ghat and Ghat/5Ghat (2^6 and 5^6 bits), never the
    # whole group of 10^6; zero_pairing((Z/8)^2) closes k = 2, 4 and 8
    closure, widths = _image_closure, []

    def counting(m, orders):
        widths.append(math.prod(orders))
        return closure(m, orders)

    monkeypatch.setattr(finabgrp, "_image_closure", counting)
    brute_cokernel(_densest_pairing((10,) * 6))
    assert len(widths) == 2 and max(widths) <= 5**6, widths
    widths.clear()
    brute_cokernel(zero_pairing(FinAbGroup((8, 8))))
    assert len(widths) == 3, widths


def test_brute_cokernel_failed_check_raises(monkeypatch):
    # an image without the identity is no subgroup: the oracle's own check,
    # not a ValueError and not a wrong answer
    monkeypatch.setattr(finabgrp, "_image_closure",
                        lambda m, orders: _image_closure(m, orders) & ~1)
    with pytest.raises(AssertionError, match=r"at p\^j = 3\^1"):
        brute_cokernel(symplectic_pairing(3, 1))


def test_brute_cokernel_reaches_no_smith_form():
    # the dual-route principle: nothing brute_cokernel reaches names the snf module
    src = Path(finabgrp.__file__).resolve().parent

    def top_level(module):
        tree = ast.parse((src / f"{module}.py").read_text(encoding="utf-8"))
        return {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}

    defs = top_level("finabgrp") | top_level("arith")
    banned = {"snf"} | set(top_level("snf"))
    reached, todo, found = set(), ["brute_cokernel"], []
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in ast.walk(defs[name]):
            # a Name, an Attribute or a relative import's module
            ident = getattr(node, "id", None) or getattr(node, "attr", None)
            ident = ident or getattr(node, "module", None)
            if ident in banned:
                found.append(f"{name}: {ident}")
            elif ident in defs:
                todo.append(ident)
    assert {"_image_closure", "factorint", "e_matrix"} <= reached
    assert "smith_normal_form" in banned
    assert not found, f"brute_cokernel reaches the Smith form: {', '.join(found)}"


def _dense_sum(p, a, b):
    # sum over every (i, j), zero entries included, as an unreduced Fraction
    mat = p.matrix  # built on each read
    return sum(
        (
            Fraction(ai * bj * mat[i][j].num, mat[i][j].den)
            for i, ai in enumerate(a.coords)
            for j, bj in enumerate(b.coords)
        ),
        Fraction(0),
    )


def _eval_by_fractions(p, a, b):
    return to_qmodz(_dense_sum(p, a, b))


@pytest.mark.parametrize("orders", [(2, 4, 8), (3, 6, 12), (2, 3, 4, 6)])
def test_eval_pairing_matches_fraction_sum_mixed_orders(orders):
    p = _densest_pairing(orders)
    g = p.group
    for a in map(g.element, g.coord_tuples()):
        for b in (g.gen(0), g.element((0,) * (g.rank - 1) + (-1,)),
                  g.element(range(1, g.rank + 1))):
            assert eval_pairing(p, a, b) == _eval_by_fractions(p, a, b)


@given(st.data())
def test_eval_pairing_matches_fraction_sum_random(data):
    p = data.draw(skew_pairings())
    a = data.draw(random_elements(p.group))
    b = data.draw(random_elements(p.group))
    assert eval_pairing(p, a, b) == _eval_by_fractions(p, a, b)


def _assert_sparse_matches_dense(p, pairs):
    # _pairing_units sums only the nonzero entries; it must equal the dense
    # sum exactly, not just mod 1, since each entry is num/den in [0, 1)
    n = p.group.exponent
    for a, b in pairs:
        assert Fraction(finabgrp._pairing_units(p, a.coords, b.coords), n) == _dense_sum(p, a, b)
        assert eval_pairing(p, a, b) == _eval_by_fractions(p, a, b)


def _sample_pairs(group, rng, count=30):
    gens = [group.gen(i) for i in range(group.rank)]
    draw = lambda: group.element(rng.randrange(o) for o in group.orders)
    return [(a, b) for a in gens for b in gens] + [(draw(), draw()) for _ in range(count)]


@given(skew_pairings(max_order=12**6, max_rank=6), st.randoms(use_true_random=False))
def test_sparse_evaluation_matches_dense_sum_random(p, rng):
    assert len(p._entries) == sum(not q.is_zero() for row in p.matrix for q in row)
    _assert_sparse_matches_dense(p, _sample_pairs(p.group, rng))


def test_sparse_evaluation_matches_dense_sum_models():
    rng = random.Random(5)
    pairings = [zero_pairing(FinAbGroup((4, 6, 9)))]
    pairings += [standard_kum_pairing(n, b1, b2) for n in range(2, 13)
                 for b1 in divisors(n + 1) for b2 in divisors(n + 1)]
    pairings += [standard_og6_pairing(case) for case in OG6PairingCase]
    assert pairings[0]._entries == ()
    for p in pairings:
        _assert_sparse_matches_dense(p, _sample_pairs(p.group, rng))


def test_entries_take_no_part_in_equality():
    doc = pairing_to_dict(standard_kum_pairing(5, 2, 6))
    p = pairing_from_dict(doc)
    doc["matrix"][0][1] = "4/12"  # the same class as 2/6
    q = pairing_from_dict(doc)
    assert p == q and hash(p) == hash(q)
    assert tensor_pairing(p, zero_pairing(p.group)) == p
    object.__setattr__(q, "_entries", ())
    assert p == q and hash(p) == hash(q)


# ---------------------------------------------------------------------------
# tensor (pointwise sum) behaviour


def test_tensor_with_zero_is_identity():
    p = standard_kum_pairing(2, 1, 3)
    q = tensor_pairing(p, zero_pairing(p.group))
    assert q.matrix == p.matrix


def test_tensor_order_two_self_cancels():
    p = standard_og6_pairing(OG6PairingCase.DIV1_NOT4)
    doubled = tensor_pairing(p, p)
    assert doubled.matrix == zero_pairing(p.group).matrix


def test_tensor_group_mismatch():
    with pytest.raises(ValueError):
        tensor_pairing(symplectic_pairing(2, 1), symplectic_pairing(3, 1))


def test_tensor_cokernel_golden():
    q = tensor_pairing(standard_kum_pairing(2, 1, 3), standard_kum_pairing(2, 1, 3))
    assert pairing_cokernel(q).invariant_factors == (3, 3)
    assert brute_cokernel(q).invariant_factors == (3, 3)


# ---------------------------------------------------------------------------
# document round trip


def test_pairing_document_round_trip():
    for name in ("kum-n3-2-4", "og6-div1_div4", "zero-2x4", "symp-12-1"):
        p = CONSTRUCTIBLE[name]
        doc = pairing_to_dict(p)
        assert pairing_from_dict(doc) == p
        # document is JSON-plain: lists, ints, strings only
        assert all(isinstance(o, int) for o in doc["orders"])
        assert all(isinstance(s, str) for row in doc["matrix"] for s in row)


@given(skew_pairings())
def test_document_round_trip_keeps_equality_and_hash(p):
    q = pairing_from_dict(pairing_to_dict(p))
    assert q == p and hash(q) == hash(p)
    assert q.matrix == p.matrix


def test_integer_routes_build_no_qmodz(monkeypatch):
    # the models, tensor_pairing and the document forms work in integer
    # units; QmodZ is built only at an edge such as `matrix`
    built = []
    post_init = QmodZ.__post_init__
    monkeypatch.setattr(QmodZ, "__post_init__", lambda q: built.append(q) or post_init(q))
    p, q = standard_kum_pairing(5, 2, 6), standard_kum_pairing(5, 3, 1)
    og6 = standard_og6_pairing(OG6PairingCase.DIV1_NOT4)
    t = tensor_pairing(p, q)
    assert pairing_from_dict(pairing_to_dict(t)) == t
    assert tensor_pairing(og6, zero_pairing(og6.group)) == og6
    assert built == []
    assert p.matrix[0][1] == QmodZ(1, 3) and len(built) == 16 + 1


def test_pairing_document_exponent_is_checked_before_any_entry():
    # orders no JSON text could carry: the group's exponent is refused before
    # any entry (here, none is valid) is read
    start = time.perf_counter()
    for orders in ([10**5000, 2], [2, 3**2000], [7**300 + 2 * i for i in range(100)]):
        with pytest.raises(ValueError, match=f"MAX_EXPONENT_BITS = {MAX_EXPONENT_BITS} bits"):
            pairing_from_dict({"orders": orders, "matrix": "not read"})
    assert time.perf_counter() - start < 0.5
    top = 2 ** (MAX_EXPONENT_BITS - 1)
    p = pairing_from_dict({"orders": [top, 2], "matrix": [["0/1", "1/2"], ["1/2", "0/1"]]})
    assert p.group.exponent.bit_length() == MAX_EXPONENT_BITS
    assert pairing_cokernel(p) == AbGroupStructure((top // 2,))  # Ghat / <(top/2, 0), (0, 1)>


def test_fraction_sides_are_bounded_before_int_runs():
    # a side of MAX_ENTRY_DIGITS characters is read, one more is refused, and
    # CPython's own limit on int() of text is never reached
    side = "9" * MAX_ENTRY_DIGITS
    assert QmodZ.parse(f"{side}/10") == QmodZ(9, 10)
    assert QmodZ.parse(f" -1/{side} ") == QmodZ(int(side) - 1, int(side))
    # a sign and spaces are no digits, as for the CLI's integers
    assert QmodZ.parse(f"-{side}/10") == QmodZ(1, 10)
    assert QmodZ.parse(f"  +{side} / -{side}  ") == QmodZ(0, 1)
    assert pairing_from_dict({"orders": [10, 10], "matrix": [["0/1", f" -{side}/10 "],
                                                             [f"{side}/10", "0/1"]]}) == \
        pairing_from_dict({"orders": [10, 10], "matrix": [["0/1", "1/10"], ["9/10", "0/1"]]})
    # int() reads "1_0" as 10: underscores are no digits either
    separated = "_".join(side)
    assert QmodZ.parse(f"{separated}/10") == QmodZ(9, 10)
    assert QmodZ.parse(f" -1/+{separated} ") == QmodZ(int(side) - 1, int(side))
    assert QmodZ.parse("1_" * 600 + "1/7") == QmodZ(int("1" * 601), 7)
    for text in (f"9{side}/10", f"1/9{side}", f"9{side}", "1" * 5000, f"-9{side}/10",
                 f" 1 / -9{side} ", f"1/{side} 9", f"9_{separated}/10", f"1/{separated}9",
                 f"-{separated}_9"):
        with pytest.raises(ValueError, match=f"MAX_ENTRY_DIGITS = {MAX_ENTRY_DIGITS} digits"):
            QmodZ.parse(text)


@pytest.mark.parametrize("entry", [0, None, 1.5, True, ["1/2"]], ids=repr)
def test_pairing_document_entry_that_is_no_string_is_named(entry):
    doc = {"orders": [2, 2], "matrix": [["0/1", entry], ["1/2", "0/1"]]}
    line = f'malformed pairing document: entry {entry!r} is not an "a/b" string'
    with pytest.raises(ValueError, match=f"^{re.escape(line)}$"):
        pairing_from_dict(doc)


def test_pairing_document_malformed():
    with pytest.raises(ValueError):
        pairing_from_dict({"orders": [2, 2]})  # missing matrix
    with pytest.raises(ValueError):
        pairing_from_dict({"matrix": [["0/1"]]})  # missing orders
    with pytest.raises(ValueError):
        pairing_from_dict(["not", "a", "mapping"])
    with pytest.raises(ValueError):
        pairing_from_dict({"orders": [2], "matrix": [[{"num": 1}]]})
    with pytest.raises(ValueError):  # skew violation caught by Pairing validation
        pairing_from_dict({"orders": [2, 2], "matrix": [["0/1", "1/2"], ["0/1", "0/1"]]})
    zero2 = [["0/1", "0/1"], ["0/1", "0/1"]]
    with pytest.raises(ValueError, match="order inf is not an integer"):  # JSON 1e400
        pairing_from_dict({"orders": [float("inf"), 4], "matrix": zero2})
    with pytest.raises(ValueError, match="order 2.9 is not an integer"):  # not read as 2
        pairing_from_dict({"orders": [2.9, 2.9], "matrix": [["0/1", "1/2"], ["1/2", "0/1"]]})
    with pytest.raises(ValueError, match="order True is not an integer"):
        pairing_from_dict({"orders": [True, 2], "matrix": zero2})
