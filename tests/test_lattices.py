"""Gram lattices, squares/divisibilities, orbit classes, wall splittings."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hktheta import lattices
from hktheta.lattices import (
    GramLattice,
    _kum_lattice,
    OG6Class,
    bbf_pair,
    bbf_square,
    divisibility,
    hyperbolic_sum,
    is_primitive,
    kum_orbit_split,
    kum_split_candidates,
    lambda_kum,
    lambda_og6,
    og6_class,
)
from hktheta.snf import integer_det

KUM2 = lambda_kum(2)
OG6 = lambda_og6()

E1 = (1, 0, 0, 0, 0, 0, 0)
DELTA = (0, 0, 0, 0, 0, 0, 1)


def test_lattice_shapes():
    assert KUM2.rank == 7
    assert KUM2.basis[-1] == "delta"
    assert KUM2.gram[6][6] == -6
    assert lambda_kum(5).gram[6][6] == -12
    assert OG6.rank == 8
    assert OG6.basis[-2:] == ("g1", "g2")
    assert OG6.gram[6][6] == OG6.gram[7][7] == -2
    assert hyperbolic_sum(4).rank == 8
    with pytest.raises(ValueError):
        lambda_kum(1)
    with pytest.raises(ValueError):
        hyperbolic_sum(0)


def test_lattice_validation():
    with pytest.raises(ValueError, match="^gram matrix must be symmetric$"):
        GramLattice("bad", ((0, 1), (2, 0)), ("a", "b"))
    with pytest.raises(ValueError, match="^gram matrix must be nondegenerate$"):
        GramLattice("bad", ((1, 1), (1, 1)), ("a", "b"))
    with pytest.raises(ValueError, match="^basis labels must match the rank$"):
        GramLattice("bad", ((2,),), ("a", "b"))
    with pytest.raises(ValueError, match="^gram matrix must be square and nonempty$"):
        GramLattice("x", (), ())
    with pytest.raises(ValueError, match="^gram matrix must be square and nonempty$"):
        GramLattice("ragged", ((0, 1), (1,)), ("a", "b"))


@pytest.mark.parametrize("build", [
    *(lambda n=n: lambda_kum(n) for n in range(2, 61)),
    lambda_og6,
    *(lambda c=c: hyperbolic_sum(c) for c in range(1, 6)),
], ids=[*(f"kum:{n}" for n in range(2, 61)), "og6", *(f"U^{c}" for c in range(1, 6))])
def test_built_in_lattices_equal_the_validated_ones_in_every_slot(build):
    # the block builder skips GramLattice's checks; what it builds is the lattice
    # that GramLattice builds from the same Gram matrix, private slots included
    lat = build()
    twin = GramLattice(lat.name, lat.gram, lat.basis)
    assert GramLattice.__slots__ == ("name", "gram", "basis", "_entries", "_upper")
    for name in GramLattice.__slots__:
        assert getattr(lat, name) == getattr(twin, name), name
        assert type(getattr(lat, name)) is type(getattr(twin, name)), name
    assert all(type(x) is int for row in lat.gram for x in row)


def test_built_in_lattices_take_no_determinant(monkeypatch):
    # U and <-2k>, k >= 1, are symmetric and nondegenerate blocks: lambda_kum,
    # lambda_og6 and hyperbolic_sum call no integer_det, a caller's Gram matrix one
    calls = []
    monkeypatch.setattr(lattices, "integer_det", lambda g: calls.append(g) or integer_det(g))
    for n in range(2, 51):
        lambda_kum(n)
    lambda_og6(), hyperbolic_sum(4)
    _kum_lattice.cache_clear()
    kum_orbit_split(17, (0,) * 6 + (1,))
    assert calls == []
    GramLattice("kum:17", lambda_kum(17).gram, lambda_kum(17).basis)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "build, bad",
    [
        (lambda: GramLattice("bad", ((0, 1.0), (1, 0)), ("a", "b")), "1.0"),
        (lambda: bbf_square(OG6, (0.5, 1, 0, 0, 0, 0, 0, 0)), "0.5"),
        (lambda: og6_class((1.5, 0, 0, 0, 0, 0, 0, 0)), "1.5"),
        (lambda: kum_orbit_split(2, (0, 0, 0, 0, 0, 0, 1.0)), "1.0"),
    ],
    ids=["GramLattice", "bbf_square", "og6_class", "kum_orbit_split"],
)
def test_non_integers_are_refused_not_truncated(build, bad):
    # int() would have read bbf_square's vector as (0, 1, ...), of square 0,
    # and og6_class's as e1, of class I
    with pytest.raises(ValueError, match=f"^expected an integer, got {re.escape(bad)}$"):
        build()


def test_determinants():
    assert integer_det([list(r) for r in OG6.gram]) == -4
    for n in (2, 3, 7):
        assert integer_det([list(r) for r in lambda_kum(n).gram]) == 2 * (n + 1)


def test_square_golden():
    assert bbf_square(KUM2, DELTA) == -6
    assert bbf_square(KUM2, (1, 1, 0, 0, 0, 0, 0)) == 2
    assert bbf_square(KUM2, (3, 1, 0, 0, 0, 0, 2)) == -18
    assert bbf_square(OG6, (0, 0, 0, 0, 0, 0, 1, 0)) == -2
    assert bbf_pair(KUM2, E1, (0, 1, 0, 0, 0, 0, 0)) == 1
    assert bbf_pair(KUM2, E1, E1) == 0
    with pytest.raises(ValueError):
        bbf_square(KUM2, (1, 0, 0))


def test_divisibility_golden():
    assert divisibility(KUM2, DELTA) == 6
    assert divisibility(KUM2, E1) == 1
    assert divisibility(KUM2, (3, 0, 0, 0, 0, 0, 1)) == 3
    assert divisibility(KUM2, (0,) * 7) == 0
    for n in range(2, 21):
        lat = lambda_kum(n)
        assert divisibility(lat, (0,) * 6 + (1,)) == 2 * (n + 1)


def test_is_primitive():
    assert is_primitive(KUM2, E1)
    assert is_primitive(KUM2, (3, 0, 0, 0, 0, 0, 1))
    assert not is_primitive(KUM2, (2, 2, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        is_primitive(KUM2, (0,) * 7)


# a refused vector and its one-line message; the refusals come in this order:
# a non-integer (wherever it stands, and before the length), the length, zero, imprimitive
_REFUSED_OG6_VECTORS = [
    ((1.5,) + (0,) * 7, "expected an integer, got 1.5"),
    ((1, "1") + (0,) * 6, "expected an integer, got '1'"),
    ((0,) * 7 + (Fraction(1),), "expected an integer, got Fraction(1, 1)"),
    ((2, 0, 0, None, 0, 0, 0, 0), "expected an integer, got None"),
    ((2, None), "expected an integer, got None"),
    ((0, 2.0, Fraction(1, 2)), "expected an integer, got 2.0"),
    ((1,) * 7, "vector length 7 does not match rank 8"),
    ((2, 4, 0), "vector length 3 does not match rank 8"),
    ((0,) * 9, "vector length 9 does not match rank 8"),
    ((), "vector length 0 does not match rank 8"),
    ((0,) * 8, "primitivity is undefined for the zero vector"),
    ((2, 4) + (0,) * 6, "orbit class is defined for primitive vectors only"),
]


@pytest.mark.parametrize("v, message", _REFUSED_OG6_VECTORS, ids=repr)
def test_deferred_integrality_check_keeps_each_refusal(v, message):
    # og6_class and is_primitive check integrality through the coordinate gcd and name
    # a non-integer only when it fails: each refusal keeps its message and its order
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        og6_class(v)
    if message.startswith("orbit class"):
        assert is_primitive(OG6, v) is False
        return
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        is_primitive(OG6, v)
    if len(v) == 8:  # on a rank-7 lattice a non-integer still comes before the length
        if not message.startswith("expected"):
            message = "vector length 8 does not match rank 7"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            is_primitive(KUM2, v)


def test_og6_class_and_is_primitive_name_no_valid_vector(monkeypatch):
    # int_tuple runs only to name a non-integer that math.gcd refused
    named = []
    monkeypatch.setattr(lattices, "int_tuple", lambda v: named.append(v) or (0,))
    for v in (og6_vec(e1=1), og6_vec(g1=1), og6_vec(g1=1, g2=1), [2, 2, 0, 0, 0, 0, 1, 0]):
        og6_class(v)
        assert is_primitive(OG6, v)
    assert named == []
    with pytest.raises(TypeError):
        og6_class((0.5,) + (0,) * 7)
    assert named == [(0.5,) + (0,) * 7]


kum_vectors = st.tuples(*([st.integers(-25, 25)] * 7))


@given(st.integers(2, 10), st.tuples(*([st.integers(-25, 25)] * 6)), st.integers(-25, 25))
@settings(max_examples=200)
def test_square_splits_over_u3_and_delta(n, alpha, x):
    """q(alpha + x*delta) = (alpha, alpha) - 2(n+1) x^2 for alpha in U^3."""
    lat = lambda_kum(n)
    u3 = hyperbolic_sum(3)
    v = alpha + (x,)
    assert bbf_square(lat, v) == bbf_square(u3, alpha) - 2 * (n + 1) * x * x


@given(kum_vectors, kum_vectors)
def test_divisibility_divides_all_pairings(v, w):
    d = divisibility(KUM2, v)
    if d == 0:
        assert v == (0,) * 7
        return
    assert bbf_pair(KUM2, v, w) % d == 0
    assert bbf_square(KUM2, v) % d == 0


@st.composite
def dense_lattices_with_vectors(draw):
    """A nondegenerate symmetric Gram matrix of rank 1-8 whose off-diagonal
    entries are all nonzero, in [-5, 5], and two vectors of that rank."""
    r = draw(st.integers(1, 8))
    gram = [[0] * r for _ in range(r)]
    for i in range(r):
        gram[i][i] = draw(st.integers(-5, 5))
        for j in range(i + 1, r):
            gram[i][j] = gram[j][i] = draw(st.integers(1, 5)) * draw(st.sampled_from((1, -1)))
    assume(integer_det([row[:] for row in gram]) != 0)
    lat = GramLattice("dense", tuple(map(tuple, gram)), tuple(f"b{i}" for i in range(r)))
    vectors = st.tuples(*([st.integers(-9, 9)] * r))
    return lat, draw(vectors), draw(vectors)


@st.composite
def sparse_lattices_with_vectors(draw):
    """A nondegenerate symmetric Gram matrix of rank 1-8 whose entries are zero
    or not, diagonal ones of either sign, and a vector of that rank."""
    r = draw(st.integers(1, 8))
    entry = st.integers(-6, 6) | st.just(0)
    gram = [[0] * r for _ in range(r)]
    for i in range(r):
        gram[i][i] = draw(entry)
        for j in range(i + 1, r):
            gram[i][j] = gram[j][i] = draw(entry)
    assume(integer_det([row[:] for row in gram]) != 0)
    lat = GramLattice("sparse", tuple(map(tuple, gram)), tuple(f"b{i}" for i in range(r)))
    return lat, draw(st.tuples(*([st.integers(-99, 99)] * r)))


@given(sparse_lattices_with_vectors())
def test_square_over_the_upper_triangle_matches_dense_reference(case):
    # a square runs over the entries with i <= j, each off-diagonal one doubled
    lat, v = case
    g, r = lat.gram, lat.rank
    assert bbf_square(lat, v) == sum(v[i] * g[i][j] * v[j] for i in range(r) for j in range(r))
    assert bbf_square(lat, v) == bbf_pair(lat, v, v)


@given(dense_lattices_with_vectors())
def test_general_gram_matches_dense_reference(case):
    # the built-in lattices have one nonzero per Gram row; here every row is full
    lat, v, w = case
    g, r = lat.gram, lat.rank

    def dense_pair(x, y):
        return sum(x[i] * g[i][j] * y[j] for i in range(r) for j in range(r))

    assert bbf_pair(lat, v, w) == dense_pair(v, w)
    assert bbf_pair(lat, w, v) == dense_pair(w, v)
    assert bbf_square(lat, v) == dense_pair(v, v)
    gv = [sum(g[i][j] * v[j] for j in range(r)) for i in range(r)]
    assert divisibility(lat, v) == math.gcd(*gv)


# ---------------------------------------------------------------------------
# OG6 orbit classes


def og6_vec(**coords):
    names = {name: i for i, name in enumerate(OG6.basis)}
    v = [0] * 8
    for name, c in coords.items():
        v[names[name]] = c
    return tuple(v)


def test_og6_class_golden():
    assert og6_class(og6_vec(e1=1)) is OG6Class.I
    assert og6_class(og6_vec(e1=1, f1=-1)) is OG6Class.I
    assert og6_class(og6_vec(g1=1)) is OG6Class.II
    assert og6_class(og6_vec(g1=1, g2=1)) is OG6Class.III
    assert og6_class(og6_vec(e1=2, f1=2, g1=1)) is OG6Class.II  # square 6, div 2
    assert og6_class(og6_vec(e1=2, g1=1, g2=1)) is OG6Class.III  # square -4, div 2


def test_og6_class_golden_divisibilities():
    # the examples above really do have the advertised divisibilities
    assert divisibility(OG6, og6_vec(e1=1)) == 1
    assert divisibility(OG6, og6_vec(g1=1)) == 2
    assert divisibility(OG6, og6_vec(g1=1, g2=1)) == 2


def test_og6_class_rejects_imprimitive():
    with pytest.raises(ValueError):
        og6_class(og6_vec(e1=2, f1=2))
    with pytest.raises(ValueError):
        og6_class((0,) * 8)


og6_vectors = st.tuples(*([st.integers(-8, 8)] * 8))


@given(og6_vectors)
def test_og6_class_is_exhaustive_and_exclusive(v):
    g = math.gcd(*v)
    if g == 0:
        return
    v = tuple(c // g for c in v)
    div = divisibility(OG6, v)
    q = bbf_square(OG6, v)
    cls = og6_class(v)  # never raises for primitive vectors
    if cls is OG6Class.I:
        assert div == 1
    elif cls is OG6Class.II:
        assert div == 2 and q % 8 == 6
    else:
        assert div == 2 and q % 8 == 4


# ---------------------------------------------------------------------------
# wall-divisor splitting


@pytest.mark.parametrize("n", [2, 3, 4, 7, 12])
def test_delta_splits_into_opposite_isotropics(n):
    split = kum_orbit_split(n, (0,) * 6 + (1,))
    assert split.x0 == 1
    assert (split.p, split.q) == (n + 1, 1)
    assert split.beta == (0,) * 6
    assert split.e == (0,) * 6 + (0, -1)  # -f4
    assert split.f == (0,) * 6 + (1, 0)  # e4


def test_orbit_split_golden():
    split = kum_orbit_split(2, (12, 6, 0, 0, 0, 0, 5))
    assert split.x0 == 5
    assert (split.p, split.q) == (1, 3)
    assert split.beta == (2, 1, 0, 0, 0, 0)
    assert split.e == (6, 3, 0, 0, 0, 0, 2, -9)
    assert split.f == (2, 1, 0, 0, 0, 0, 1, -2)


def test_orbit_split_input_validation():
    with pytest.raises(ValueError, match="square"):
        kum_orbit_split(2, E1)
    with pytest.raises(ValueError, match="divisibility"):
        kum_orbit_split(2, (1, -3, 0, 0, 0, 0, 0))  # square -6 but divisibility 1
    with pytest.raises(ValueError, match="primitive"):
        kum_orbit_split(2, tuple(2 * c for c in DELTA))
    with pytest.raises(ValueError, match="^vector length 3 does not match rank 7$"):
        kum_orbit_split(2, (0, 0, 1))
    with pytest.raises(ValueError, match="^primitivity is undefined for the zero vector$"):
        kum_orbit_split(2, (0,) * 7)
    with pytest.raises(ValueError, match="^expected an integer, got 'x'$"):
        kum_orbit_split(2, (0,) * 6 + ("x",))


def _assert_split_consistent(n, v, split):
    ambient = hyperbolic_sum(4)
    assert split.p > 0 and split.q > 0 and split.p * split.q == n + 1
    assert (split.x0 - 1) % (2 * split.p) == 0
    assert (split.x0 + 1) % (2 * split.q) == 0
    assert bbf_square(ambient, split.e) == 0
    assert bbf_square(ambient, split.f) == 0
    assert bbf_pair(ambient, split.e, split.f) == -1
    recombined = tuple(
        split.p * e + split.q * f for e, f in zip(split.e, split.f)
    )
    assert recombined == v[:6] + (split.x0, -(n + 1) * split.x0)


def test_split_candidates_match_divisor_enumeration():
    # the closed form against every factorization n+1 = p*q, listed by hand
    for n in range(2, 121):
        for x0 in range(-600, 601):
            expected = [
                (p, (n + 1) // p)
                for p in range(1, n + 2)
                if (n + 1) % p == 0
                and (x0 - 1) % (2 * p) == 0
                and (x0 + 1) % (2 * ((n + 1) // p)) == 0
            ]
            assert kum_split_candidates(n, x0) == expected, (n, x0)


def test_orbit_split_small_scan():
    """Every admissible (n, x0, beta) in a small box splits consistently."""
    seen = 0
    for n in range(2, 7):
        m = 2 * (n + 1)
        for x0 in range(-29, 30, 2):
            if (x0 * x0 - 1) % m:
                continue
            k = (x0 * x0 - 1) // m
            if k % 2:
                continue
            # two beta shapes with beta^2 = k
            shapes = [(k // 2, 1, 0, 0, 0, 0), (1, k // 2, -3, 0, 0, 0)]
            for beta in shapes:
                v = tuple(m * b for b in beta[:6]) + (x0,)
                split = kum_orbit_split(n, v)
                assert split.x0 == x0
                assert split.beta == beta
                _assert_split_consistent(n, v, split)
                seen += 1
    assert seen > 40


def test_orbit_split_validates_its_input_once(monkeypatch):
    # the square bookkeeping and the isotropy checks run on tuples the split
    # built itself, so only the input goes through _as_vector
    calls = []
    as_vector = lattices._as_vector
    monkeypatch.setattr(lattices, "_as_vector", lambda lat, v: calls.append(v) or as_vector(lat, v))
    for n, alpha in ((2, (12, 6, 0, 0, 0, 0, 5)), (7, (0,) * 6 + (1,))):
        calls.clear()
        kum_orbit_split(n, alpha)
        assert calls == [alpha]


@pytest.mark.parametrize("plant, message", [
    ("candidates", "expected exactly one splitting of 3, found [(1, 3), (3, 1)]"),
    ("square", "splitting witnesses must be isotropic"),
])
def test_orbit_split_internal_checks_fire_by_name(monkeypatch, plant, message):
    # a planted second splitting, or a U^4 square of 1, fails its own check with its
    # own text, raised as AssertionError (python -O keeps it)
    if plant == "candidates":
        monkeypatch.setattr(lattices, "kum_split_candidates", lambda n, x0: [(3, 1), (1, 3)])
    else:
        square = lattices._square
        monkeypatch.setattr(
            lattices, "_square", lambda lat, v: 1 if lat is lattices._U4 else square(lat, v))
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        kum_orbit_split(2, (12, 6, 0, 0, 0, 0, 5))


def test_kum_lattice_memo_is_invisible():
    # interleaved n: every split equals the one made with an empty memo
    for n in (2, 50, 2, 7, 50):
        two_n1 = 2 * (n + 1)
        for x0, beta in ((1, (0, 1)), (-1, (0, 1)), (2 * n + 1, (n, 1))):
            alpha = tuple(two_n1 * b for b in beta) + (0, 0, 0, 0, x0)
            split = kum_orbit_split(n, alpha)
            _kum_lattice.cache_clear()
            assert split == kum_orbit_split(n, alpha)
        assert _kum_lattice(n) == lambda_kum(n)
    with pytest.raises(ValueError):
        lambda_kum(1)
    with pytest.raises(ValueError):
        kum_orbit_split(1, (0, 4, 0, 0, 0, 0, 1))
    # n comes from user input, so the memo must stay bounded
    assert isinstance(_kum_lattice.cache_info().maxsize, int)
