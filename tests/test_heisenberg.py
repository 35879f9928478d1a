"""Heisenberg group law, commutators, and the exact matrix representation."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hktheta.arith import Record, divisors, factorint
from hktheta.finabgrp import (
    FinAbGroup,
    GroupElement,
    QmodZ,
    brute_cokernel,
    is_nondegenerate,
    pairing_cokernel,
)
from hktheta.heisenberg import (
    GenPermMatrix,
    HeisElem,
    _least_phases,
    character_norm,
    cyclotomic_poly,
    gpm_inv,
    gpm_mul,
    gpm_scalar_phase,
    h_commutator,
    h_inv,
    h_mul,
    heis_elem,
    heis_pairing,
    schrodinger_matrix,
    schrodinger_multiplicity,
)
from hktheta.lattices import hyperbolic_sum, lambda_kum
from hk_helpers import as_fraction, character_eval, qmodz_sum, to_qmodz

TYPES = [(2,), (3,), (4,), (2, 2), (3, 3), (2, 2, 2, 2)]


def h_identity(d):
    return heis_elem(d, QmodZ(0), (0,) * len(d), (0,) * len(d))


def gpm_identity(dim):
    return GenPermMatrix(dim, tuple(range(dim)), (0,) * dim, 1)


def random_heis(rng, d, scalar_den=48):
    group = FinAbGroup(d)
    return HeisElem(
        QmodZ(rng.randrange(scalar_den), scalar_den),
        group.element([rng.randrange(o) for o in d]),
        group.element([rng.randrange(o) for o in d]),
    )


def quotient_elements(d):
    """All (t, x, f) with t in mu_N, N the exponent of J."""
    j = FinAbGroup(d)
    n = j.exponent
    return [
        HeisElem(QmodZ(t, n), j.element(x), j.element(f))
        for t in range(n)
        for x in j.coord_tuples()
        for f in j.coord_tuples()
    ]


# ---------------------------------------------------------------------------
# group law


def test_h_mul_golden():
    a = heis_elem((2,), QmodZ(0), (1,), (0,))
    b = heis_elem((2,), QmodZ(0), (0,), (1,))
    ab = h_mul(a, b)
    assert ab.scalar == QmodZ(1, 2)  # <g, x> = 1/2
    assert ab.x.coords == (1,) and ab.f.coords == (1,)
    ba = h_mul(b, a)
    assert ba.scalar == QmodZ(0)  # <0, 0> on the other side


def test_character_eval_golden():
    j = FinAbGroup((2, 4))
    assert character_eval(j.element((1, 1)), j.element((1, 2))) == QmodZ(0)
    assert character_eval(j.element((0, 1)), j.element((0, 1))) == QmodZ(1, 4)
    with pytest.raises(ValueError):
        character_eval(j.element((0, 0)), FinAbGroup((2,)).element((0,)))


def test_heis_elem_type_mismatch():
    with pytest.raises(ValueError):
        HeisElem(QmodZ(0), FinAbGroup((2,)).zero(), FinAbGroup((3,)).zero())
    with pytest.raises(ValueError):
        h_mul(h_identity((2,)), h_identity((3,)))


@st.composite
def _typed_pair(draw):
    """A type d (rank 1-3, orders 2-9) and two elements of its Heisenberg group,
    given by unreduced coordinates and a scalar of any denominator."""
    d = tuple(draw(st.lists(st.integers(2, 9), min_size=1, max_size=3)))
    coords = st.lists(st.integers(-40, 40), min_size=len(d), max_size=len(d))

    def elem():
        scalar = QmodZ(draw(st.integers(-50, 50)), draw(st.integers(1, 12)))
        return heis_elem(d, scalar, draw(coords), draw(coords))

    return d, elem(), elem()


@given(_typed_pair())
def test_trusted_products_equal_validated_builds(pair):
    # h_mul and h_inv build their group elements without a second check; each
    # result must equal, and hash as, the element built through the validating
    # constructors from the group law on unreduced coordinates
    d, a, b = pair
    j = FinAbGroup(d)
    xs, ys, fs, gs = a.x.coords, b.x.coords, a.f.coords, b.f.coords
    product = HeisElem(qmodz_sum(a.scalar, b.scalar, character_eval(b.f, a.x)),
                       j.element([x + y for x, y in zip(xs, ys)]),
                       j.element([f + g for f, g in zip(fs, gs)]))
    inverse = HeisElem(qmodz_sum(-a.scalar, character_eval(a.f, a.x)),
                       j.element([-x for x in xs]), j.element([-f for f in fs]))
    for got, want in ((h_mul(a, b), product), (h_inv(a), inverse)):
        assert got == want and hash(got) == hash(want)
        assert got.x.group == got.f.group == j
        assert all(0 <= c < di for c, di in zip(got.x.coords + got.f.coords, d + d))


@pytest.mark.parametrize("d", TYPES, ids=str)
def test_group_axioms(d):
    rng = random.Random(f"20260821-{d}")
    e = h_identity(d)
    for _ in range(1000):
        a = random_heis(rng, d)
        b = random_heis(rng, d)
        c = random_heis(rng, d)
        assert h_mul(h_mul(a, b), c) == h_mul(a, h_mul(b, c))
        assert h_mul(e, a) == a == h_mul(a, e)
        assert h_mul(a, h_inv(a)) == e
        assert h_mul(h_inv(a), a) == e


# ---------------------------------------------------------------------------
# commutators


def test_commutator_golden():
    a = heis_elem((2,), QmodZ(0), (1,), (0,))
    b = heis_elem((2,), QmodZ(0), (0,), (1,))
    assert h_commutator(a, b) == QmodZ(1, 2)
    assert h_commutator(b, a) == QmodZ(1, 2)  # -1/2 = 1/2 in Q/Z
    assert h_commutator(a, a) == QmodZ(0)


def closed_form(a, b):
    # <g, x> - <f, y> summed as Fractions: an oracle sharing no code with the group law
    return to_qmodz(as_fraction(character_eval(b.f, a.x)) - as_fraction(character_eval(a.f, b.x)))


@pytest.mark.parametrize("d", [(2,), (3,)], ids=str)
def test_commutator_closed_form_exhaustive(d):
    elems = quotient_elements(d)
    for a in elems:
        for b in elems:
            assert h_commutator(a, b) == closed_form(a, b)


@pytest.mark.parametrize("d", [(2, 2), (3, 3), (2, 4)], ids=str)
def test_commutator_closed_form_random(d):
    rng = random.Random(f"closed-form-{d}")
    for _ in range(300):
        a = random_heis(rng, d)
        b = random_heis(rng, d)
        assert h_commutator(a, b) == closed_form(a, b)


def test_commutator_ignores_scalars():
    rng = random.Random(7)
    d = (3, 3)
    for _ in range(100):
        a = random_heis(rng, d)
        b = random_heis(rng, d)
        a_shift = HeisElem(qmodz_sum(a.scalar, QmodZ(1, 9)), a.x, a.f)
        b_shift = HeisElem(qmodz_sum(b.scalar, QmodZ(5, 7)), b.x, b.f)
        assert h_commutator(a_shift, b_shift) == h_commutator(a, b)


def test_central_elements_commute():
    rng = random.Random(11)
    d = (2, 4)
    center = heis_elem(d, QmodZ(3, 8), (0, 0), (0, 0))
    for _ in range(50):
        a = random_heis(rng, d)
        assert h_commutator(center, a) == QmodZ(0)
        assert h_mul(center, a) == h_mul(a, center)


# ---------------------------------------------------------------------------
# commutator pairing


@pytest.mark.parametrize("d", [(2,), (3, 3), (2, 2, 2, 2)], ids=str)
def test_heis_pairing_nondegenerate(d):
    p = heis_pairing(d)
    assert p.group.orders == tuple(d) + tuple(d)
    assert is_nondegenerate(p)
    assert brute_cokernel(p).is_trivial()


def test_heis_pairing_mixed_orders():
    p = heis_pairing((2, 4))
    g = len((2, 4))
    mat = p.matrix  # `matrix` builds its QmodZ values on each read
    for i, di in enumerate((2, 4)):
        assert mat[i][g + i] == QmodZ(1, di)
        assert mat[g + i][i] == QmodZ(-1, di)
    assert pairing_cokernel(p).is_trivial()


# ---------------------------------------------------------------------------
# generalized permutation matrices


def test_gpm_validation():
    with pytest.raises(ValueError):
        GenPermMatrix(2, (0, 0), (0, 0), 1)
    with pytest.raises(ValueError):
        GenPermMatrix(2, (0, 1), (0,), 1)
    with pytest.raises(ValueError):
        gpm_mul(gpm_identity(2), gpm_identity(3))


@st.composite
def _gpm_parts(draw):
    """Two (dim, perm, phases, modulus) of one dim that a validating build accepts,
    their phases unreduced."""
    dim = draw(st.integers(1, 12))

    def parts():
        return (dim, tuple(draw(st.permutations(range(dim)))),
                draw(st.lists(st.integers(-60, 60), min_size=dim, max_size=dim)),
                draw(st.integers(1, 60)))

    return parts(), parts()


@given(_gpm_parts(), _typed_pair())
def test_trusted_schrodinger_builds_equal_validated_builds(parts, pair):
    # schrodinger_matrix, gpm_mul and gpm_inv build through GenPermMatrix._make with
    # _least_phases, which skips the length, bijection and modulus checks but keeps the
    # phase reduction: each matrix must equal, and hash as, the validating build of its parts
    a, b = (GenPermMatrix(*p) for p in parts)
    dim, perm, phases, modulus = parts[0]
    trusted = GenPermMatrix._make(dim, perm, *_least_phases(phases, modulus))
    assert trusted == a and hash(trusted) == hash(a) and repr(trusted) == repr(a)
    _, x, y = pair
    for got in (gpm_mul(a, b), gpm_inv(a), schrodinger_matrix(x), schrodinger_matrix(h_mul(x, y)),
                gpm_mul(schrodinger_matrix(x), gpm_inv(schrodinger_matrix(y)))):
        want = GenPermMatrix(got.dim, got.perm, got.phases, got.modulus)
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)


def test_gpm_algebra():
    rng = random.Random(23)
    for _ in range(200):
        dim = rng.randrange(1, 7)

        def rand_gpm():
            perm = list(range(dim))
            rng.shuffle(perm)
            phases = tuple(rng.randrange(12) for _ in range(dim))
            return GenPermMatrix(dim, tuple(perm), phases, 12)

        a, b, c = rand_gpm(), rand_gpm(), rand_gpm()
        ident = gpm_identity(dim)
        assert gpm_mul(a, ident) == a == gpm_mul(ident, a)
        assert gpm_mul(gpm_mul(a, b), c) == gpm_mul(a, gpm_mul(b, c))
        assert gpm_mul(a, gpm_inv(a)) == ident
        assert gpm_mul(gpm_inv(a), a) == ident


def test_gpm_scalar_phase():
    s = GenPermMatrix(3, (0, 1, 2), (1,) * 3, 3)
    assert gpm_scalar_phase(s) == QmodZ(1, 3)
    with pytest.raises(ValueError):
        gpm_scalar_phase(GenPermMatrix(2, (1, 0), (0, 0), 1))
    with pytest.raises(ValueError):
        gpm_scalar_phase(GenPermMatrix(2, (0, 1), (0, 1), 2))


# ---------------------------------------------------------------------------
# the matrix representation


def test_schrodinger_identity_and_center():
    assert schrodinger_matrix(h_identity((2, 3))) == gpm_identity(6)
    central = heis_elem((3,), QmodZ(1, 3), (0,), (0,))
    mat = schrodinger_matrix(central)
    assert gpm_scalar_phase(mat) == QmodZ(1, 3)


def test_schrodinger_translation_golden():
    # pure translation by the first generator: a cyclic shift, no phases
    mat = schrodinger_matrix(heis_elem((3, 3), QmodZ(0), (1, 0), (0, 0)))
    assert mat.perm == (2, 0, 1, 5, 3, 4, 8, 6, 7)
    assert all(ph == 0 for ph in mat.phases) and mat.modulus == 1
    mat2 = schrodinger_matrix(heis_elem((2, 3), QmodZ(0), (1, 0), (0, 0)))
    assert mat2.perm == (1, 0, 3, 2, 5, 4)


def test_schrodinger_character_golden():
    # pure character: diagonal with phases <f, y> = y/4
    mat = schrodinger_matrix(heis_elem((4,), QmodZ(0), (0,), (1,)))
    assert mat.perm == (0, 1, 2, 3)
    assert (mat.phases, mat.modulus) == ((0, 1, 2, 3), 4)  # 0, 1/4, 1/2, 3/4


def test_schrodinger_mixed_golden():
    mat = schrodinger_matrix(heis_elem((2,), QmodZ(1, 2), (1,), (1,)))
    assert mat.perm == (1, 0)
    assert (mat.phases, mat.modulus) == ((0, 1), 2)  # 0, 1/2


@pytest.mark.parametrize("d", [(2,), (3,), (2, 2)], ids=str)
def test_schrodinger_homomorphism_exhaustive(d):
    elems = quotient_elements(d)
    mats = {e: schrodinger_matrix(e) for e in elems}
    for a in elems:
        for b in elems:
            prod = h_mul(a, b)
            # scalars stay inside mu_N here, so the product is in the table
            assert gpm_mul(mats[a], mats[b]) == mats[prod]


@pytest.mark.parametrize("d", [(2,), (3,), (2, 2)], ids=str)
def test_matrix_commutator_is_scalar_with_commutator_phase(d):
    elems = quotient_elements(d)
    mats = {e: (schrodinger_matrix(e), gpm_inv(schrodinger_matrix(e))) for e in elems}
    for a in elems:
        for b in elems:
            m = gpm_mul(gpm_mul(mats[a][0], mats[b][0]), gpm_mul(mats[a][1], mats[b][1]))
            assert gpm_scalar_phase(m) == h_commutator(a, b)


@pytest.mark.parametrize("d", [(3, 3), (2, 4), (4,)], ids=str)
def test_schrodinger_homomorphism_random(d):
    rng = random.Random(f"matrix-hom-{d}")
    n = FinAbGroup(d).exponent
    for _ in range(300):
        a = random_heis(rng, d, scalar_den=n)
        b = random_heis(rng, d, scalar_den=n)
        ma, mb = schrodinger_matrix(a), schrodinger_matrix(b)
        assert gpm_mul(ma, mb) == schrodinger_matrix(h_mul(a, b))
        comm = gpm_mul(gpm_mul(ma, mb), gpm_mul(gpm_inv(ma), gpm_inv(mb)))
        assert gpm_scalar_phase(comm) == h_commutator(a, b)


def test_translations_have_no_fixed_points():
    j = FinAbGroup((2, 3))
    for x in j.coord_tuples():
        if not any(x):
            continue
        mat = schrodinger_matrix(heis_elem((2, 3), QmodZ(0), x, (0, 0)))
        assert all(mat.perm[y] != y for y in range(mat.dim))


# ---------------------------------------------------------------------------
# cyclotomic polynomials and the norm


def test_cyclotomic_golden():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    with pytest.raises(ValueError):
        cyclotomic_poly(0)


def test_cyclotomic_degrees_sum():
    for n in (8, 12, 30):
        total = sum(len(cyclotomic_poly(d)) - 1 for d in range(1, n + 1) if n % d == 0)
        assert total == n


CHAIN_TYPES = (
    [(k,) for k in range(2, 17)]
    + [(2, 2), (2, 4), (2, 6), (2, 8), (3, 3), (4, 4), (2, 2, 2), (2, 2, 4), (2, 2, 2, 2)]
)


@pytest.mark.parametrize("d", CHAIN_TYPES, ids=str)
def test_character_norm_is_one(d):
    assert character_norm(d) == Fraction(1)


def test_character_norm_nonchain_type():
    # J need not be given in divisor-chain form
    assert character_norm((2, 3)) == Fraction(1)


def test_character_norm_bound(monkeypatch):
    with pytest.raises(ValueError, match="MAX_CHAR_NORM_DIM = 64"):
        character_norm((2,) * 7)  # dim 128 > MAX_CHAR_NORM_DIM
    monkeypatch.setattr("hktheta.heisenberg.MAX_CHAR_NORM_DIM", 128)
    assert character_norm((2,) * 7) == Fraction(1)


# ---------------------------------------------------------------------------
# multiplicity


def test_schrodinger_multiplicity():
    assert schrodinger_multiplicity(9, (3, 3)) == 1
    assert schrodinger_multiplicity(16, (2, 2, 2, 2)) == 1
    assert schrodinger_multiplicity(18, (3, 3)) == 2
    assert schrodinger_multiplicity(0, (2,)) == 0
    with pytest.raises(ValueError):
        schrodinger_multiplicity(10, (3, 3))
    with pytest.raises(ValueError):
        schrodinger_multiplicity(-9, (3, 3))


@pytest.mark.parametrize(
    "d, message",
    [((0,), "cyclic factor orders must be >= 2"),
     ((-2,), "cyclic factor orders must be >= 2"),
     ((), "at least one cyclic factor required")],
)
def test_schrodinger_multiplicity_refuses_a_type_that_is_no_group(d, message):
    # d must be a group's type; a bare product of d would divide by 0 at (0,)
    # and count -2 or 4 copies at (-2,) or ()
    with pytest.raises(ValueError, match=f"^{message}$"):
        schrodinger_multiplicity(4, d)


@pytest.mark.parametrize(
    "build",
    [lambda: heis_pairing((2.5,)), lambda: schrodinger_multiplicity(4, (2.9,))],
    ids=["heis_pairing", "schrodinger_multiplicity"],
)
def test_non_integer_types_are_refused_not_truncated(build):
    # int() would have read (2.5,) as (2,), giving a (2, 2) pairing and a
    # multiplicity of 2
    with pytest.raises(ValueError, match=r"^expected an integer, got 2\.[59]$"):
        build()


@pytest.mark.parametrize("build, bad", [
    (lambda: schrodinger_multiplicity(16.0, (2, 2)), "16.0"),
    (lambda: divisors(12.0), "12.0"),
    (lambda: factorint(12.0), "12.0"),
    (lambda: lambda_kum(2.5), "2.5"),
    (lambda: hyperbolic_sum(2.0), "2.0"),
], ids=["schrodinger_multiplicity", "divisors", "factorint", "lambda_kum", "hyperbolic_sum"])
def test_integer_helpers_refuse_a_non_integer(build, bad):
    # each once answered in floats (4.0, float divisors, {2: 2, 3.0: 1}), named
    # a computed value (-7.0) or raised a bare TypeError
    with pytest.raises(ValueError, match=f"^expected an integer, got {re.escape(bad)}$"):
        build()


@pytest.mark.parametrize("helper", [factorint, divisors], ids=lambda f: f.__name__)
def test_trial_division_helpers_refuse_zero(helper):
    with pytest.raises(ValueError, match=f"^{helper.__name__} requires a positive integer$"):
        helper(0)


_J2 = FinAbGroup((2,))


@pytest.mark.parametrize("build", [
    lambda: heis_elem((2,), 0, (1,), (0,)),
    lambda: HeisElem(Fraction(1, 2), _J2.zero(), _J2.zero()),
    lambda: HeisElem(QmodZ(0), (1,), _J2.zero()),
    lambda: HeisElem(QmodZ(0), _J2.zero(), (0,)),
], ids=["int-scalar", "fraction-scalar", "tuple-x", "tuple-f"])
def test_heis_elem_refuses_parts_of_the_wrong_kind(build):
    # an int scalar once built an element on which h_mul raised AttributeError
    message = "a Heisenberg element is a QmodZ scalar and two GroupElement parts"
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


# ---------------------------------------------------------------------------
# the integer-phase route against an independent Fraction reference


def fraction_schrodinger(d, t, x, f):
    """Columns of rho(t, x, f) as (row, phase): column y -> row y - x with
    phase t + sum f_i (y_i - x_i) / d_i, all in Fractions; d_1 varies fastest.
    Shares no code with hktheta.heisenberg."""
    dim = math.prod(d)
    perm, phases = [], []
    for col in range(dim):
        y, rest = [], col
        for di in d:
            rest, c = divmod(rest, di)
            y.append(c)
        w = [(yi - xi) % di for yi, xi, di in zip(y, x, d)]
        row = 0
        for c, di in zip(reversed(w), reversed(d)):
            row = row * di + c
        perm.append(row)
        phases.append((t + sum(Fraction(fi * wi, di) for fi, wi, di in zip(f, w, d))) % 1)
    return tuple(perm), tuple(phases)


def random_type(rng, max_dim=64):
    while True:
        d = tuple(rng.randrange(2, 9) for _ in range(rng.randrange(1, 4)))
        if math.prod(d) <= max_dim:
            return d


@pytest.mark.parametrize("seed", range(8))
def test_schrodinger_matches_fraction_reference(seed):
    rng = random.Random(f"fraction-reference-{seed}")
    cases = [((2, 2), Fraction(1, 5)), ((3,), Fraction(1, 9)), ((8, 8), Fraction(3, 7))]
    for _ in range(40):
        d = random_type(rng)
        den = rng.choice([math.lcm(*d), rng.randrange(1, 30)])
        cases.append((d, Fraction(rng.randrange(den), den)))
    for d, t in cases:
        x = tuple(rng.randrange(di) for di in d)
        f = tuple(rng.randrange(di) for di in d)
        mat = schrodinger_matrix(heis_elem(d, QmodZ(t.numerator, t.denominator), x, f))
        perm, phases = fraction_schrodinger(d, t, x, f)
        assert mat.perm == perm
        assert tuple(Fraction(p, mat.modulus) for p in mat.phases) == phases
        # the modulus is the least common denominator of the phases
        assert mat.modulus == math.lcm(*(ph.denominator for ph in phases))


def test_gpm_equality_is_matrix_equality():
    # the same matrix, handed over with three different moduli
    perm = (1, 0, 3, 2)
    a = GenPermMatrix(4, perm, (2, 2, 7, 7), 10)
    assert a == GenPermMatrix(4, perm, (4, 4, 14, 14), 20) == GenPermMatrix(4, perm, (-8, 2, 7, -3), 10)
    assert (a.phases, a.modulus) == ((2, 2, 7, 7), 10)
    assert a == schrodinger_matrix(heis_elem((2, 2), QmodZ(1, 5), (1, 0), (0, 1)))
    assert a != GenPermMatrix(4, perm, (2, 2, 7, 7), 20)
    assert GenPermMatrix(2, (0, 1), (3, 3), 3) == gpm_identity(2)
    with pytest.raises(ValueError):
        GenPermMatrix(2, (0, 1), (0, 0), 0)


@pytest.mark.parametrize("d", [(2, 2), (3,), (8, 8), (2, 3, 4)], ids=str)
def test_matrix_times_inverse_is_identity(d):
    rng = random.Random(f"inverse-{d}")
    dim = math.prod(d)
    for den in (1, 5, 9, math.lcm(*d), 7 * math.lcm(*d)):
        a = random_heis(rng, d, scalar_den=den)
        m = schrodinger_matrix(a)
        assert gpm_mul(m, gpm_inv(m)) == gpm_identity(dim) == gpm_mul(gpm_inv(m), m)
        assert schrodinger_matrix(h_inv(a)) == gpm_inv(m)


def test_routes_with_different_moduli_agree():
    # scalars 1/5 and 4/5 give matrices mod 10 whose product lives mod 2
    d = (2, 2)
    a = heis_elem(d, QmodZ(1, 5), (1, 0), (0, 1))
    b = heis_elem(d, QmodZ(4, 5), (0, 1), (1, 1))
    ma, mb = schrodinger_matrix(a), schrodinger_matrix(b)
    assert (ma.modulus, mb.modulus) == (10, 10)
    ab = gpm_mul(ma, mb)
    assert ab == schrodinger_matrix(h_mul(a, b))
    assert ab.modulus == 2
    # a translation-only matrix (modulus 1) times a character matrix (modulus 8)
    t = schrodinger_matrix(heis_elem((8, 8), QmodZ(0), (3, 5), (0, 0)))
    c = schrodinger_matrix(heis_elem((8, 8), QmodZ(0), (0, 0), (1, 2)))
    assert (t.modulus, c.modulus) == (1, 8)
    tc = heis_elem((8, 8), QmodZ(0), (3, 5), (0, 0)), heis_elem((8, 8), QmodZ(0), (0, 0), (1, 2))
    assert gpm_mul(t, c) == schrodinger_matrix(h_mul(*tc))


# ---------------------------------------------------------------------------
# object churn: the integer routes build no per-entry phase or group objects


@pytest.fixture
def constructions(monkeypatch):
    """Counts QmodZ, GroupElement and Fraction constructions while active, each
    built through its validating __post_init__ or through Record._make, which
    trusts what the package computed; "checked GroupElement" counts the
    validating GroupElement.__post_init__ calls alone."""
    counts = {"QmodZ": 0, "GroupElement": 0, "Fraction": 0, "checked GroupElement": 0}

    def counting(cls, names, method):
        def wrapped(*args, **kwargs):
            for name in names:
                counts[name] += 1
            return method(*args, **kwargs)

        monkeypatch.setattr(cls, method.__name__, wrapped)

    counting(QmodZ, ["QmodZ"], QmodZ.__post_init__)
    counting(GroupElement, ["GroupElement", "checked GroupElement"], GroupElement.__post_init__)
    counting(Fraction, ["Fraction"], Fraction.__new__)
    make = Record._make.__func__

    def counted_make(cls, *values):
        if cls.__name__ in counts:
            counts[cls.__name__] += 1
        return make(cls, *values)

    monkeypatch.setattr(Record, "_make", classmethod(counted_make))
    return counts


def _churn(counts, fn, *args):
    before = dict(counts)
    fn(*args)
    return {k: counts[k] - before[k] for k in counts}


def _built(qmodz, elements, checked=0):
    return {"QmodZ": qmodz, "GroupElement": elements, "Fraction": 0,
            "checked GroupElement": checked}


def test_no_per_entry_objects_in_matrix_routes(constructions):
    small = heis_elem((2,), QmodZ(1, 2), (1,), (1,))
    large = heis_elem((8, 8), QmodZ(3, 8), (3, 5), (6, 1))
    at_2 = _churn(constructions, schrodinger_matrix, small)
    at_64 = _churn(constructions, schrodinger_matrix, large)
    assert at_64 == at_2 == _built(0, 0)
    m2, m64 = schrodinger_matrix(small), schrodinger_matrix(large)
    assert _churn(constructions, gpm_mul, m64, gpm_inv(m64)) == _churn(
        constructions, gpm_mul, m2, gpm_inv(m2)
    ) == _built(0, 0)
    # each product or inverse builds one scalar and two group elements, whatever
    # the type, and checks none of the elements again (their coordinates are sums
    # or negatives of checked ones); the commutator (ab)(ba)^-1 is three products
    # and one inverse
    big_a = heis_elem((8, 8, 8), QmodZ(1, 9), (1, 2, 3), (4, 5, 6))
    big_b = heis_elem((8, 8, 8), QmodZ(2, 7), (7, 0, 1), (2, 2, 2))
    assert _churn(constructions, h_mul, big_a, big_b) == _built(1, 2)
    assert _churn(constructions, h_inv, big_a) == _built(1, 2)
    assert _churn(constructions, h_commutator, big_a, big_b) == _built(4, 8)
    # the validating constructors still count as before
    assert _churn(constructions, heis_elem, (8, 8), QmodZ(1, 3), (1, 2), (3, 4)) == _built(0, 2, 2)
