"""Integer matrix routines: determinants and Smith form."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hktheta.snf import _smith, integer_det, smith_normal_form


def fraction_det(mat):
    """Independent determinant oracle: Gaussian elimination over Fraction."""
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det


square_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-30, 30), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)

rect_matrices = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(-20, 20), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    )
)


def test_integer_det_golden():
    assert integer_det([[0, 1], [1, 0]]) == -1
    assert integer_det([[1, 0], [0, 1]]) == 1
    assert integer_det([[2, 0], [0, 3]]) == 6
    assert integer_det([[1, 2], [2, 4]]) == 0
    assert integer_det([[-2]]) == -2
    assert integer_det([]) == 1


def test_integer_det_rejects_nonsquare():
    with pytest.raises(ValueError):
        integer_det([[1, 2, 3], [4, 5, 6]])


@given(square_matrices)
def test_integer_det_matches_fraction_elimination(mat):
    assert integer_det(mat) == fraction_det(mat)


@given(square_matrices)
def test_det_row_swap_flips_sign(mat):
    if len(mat) < 2:
        return
    swapped = [mat[1], mat[0]] + mat[2:]
    assert integer_det(swapped) == -integer_det(mat)


@given(rect_matrices, st.integers(2, 60))
def test_smith_form_matches_minor_gcds(mat, modulus):
    # d_1 * ... * d_k is the gcd of the k x k minors of [mat | modulus * I]
    factors = smith_normal_form(mat, modulus)
    rows = len(mat)
    aug = [row + [modulus if j == i else 0 for j in range(rows)] for i, row in enumerate(mat)]
    assert len(factors) == rows
    for k in range(1, rows + 1):
        minors = [
            int(fraction_det([[aug[i][j] for j in cols] for i in sub]))
            for sub in combinations(range(rows), k)
            for cols in combinations(range(len(aug[0])), k)
        ]
        assert math.prod(factors[:k]) == math.gcd(*minors)
    assert all(modulus % d == 0 for d in factors)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))


def test_smith_form_diagonal_golden():
    assert smith_normal_form([[4, 0], [0, 6]], 24) == [2, 12]
    assert smith_normal_form([[4, 0], [0, 6]], 6) == [2, 6]
    assert smith_normal_form([[2, 1], [0, 2]], 8) == [1, 4]
    assert smith_normal_form([[0, 0], [0, 0]], 5) == [5, 5]
    assert smith_normal_form([[1, 0], [0, 1]], 7) == [1, 1]
    assert smith_normal_form([[5]], 12) == [1]
    # pivots that divide no later diagonal entry: the chain comes from the carry
    assert smith_normal_form([[4, 0, 0], [0, 6, 0], [0, 0, 10]], 120) == [2, 2, 60]
    assert smith_normal_form([[2, 0, 0], [0, 3, 0], [0, 0, 5]], 30) == [1, 1, 30]


@pytest.mark.parametrize("call", [
    lambda: integer_det([[2.5, 0], [0, 1]]),
    lambda: smith_normal_form([[2.9]], 6),
    lambda: integer_det([["3"]]),
])
def test_non_integer_entries_are_refused_not_truncated(call):
    with pytest.raises(ValueError, match="expected an integer") as info:
        call()
    assert "\n" not in str(info.value)


def test_smith_core_on_fresh_reduced_rows_matches_the_public_entry():
    # pairing_cokernel hands _smith rows it built itself; on such rows the core
    # must answer as smith_normal_form, which validates and copies first
    rng = random.Random(20261020)
    for _ in range(1000):
        rows, cols, modulus = rng.randint(0, 5), rng.randint(0, 6), rng.randint(1, 72)
        mat = [[rng.randint(-150, 150) for _ in range(cols)] for _ in range(rows)]
        fresh = [[x % modulus for x in row] for row in mat]
        assert _smith(fresh, modulus) == smith_normal_form(mat, modulus), (mat, modulus)


@pytest.mark.parametrize("mat, message", [
    ([[2.9]], "expected an integer, got 2.9"),
    ([[1, 2], [3]], "ragged matrix"),
])
def test_the_public_smith_form_still_validates(mat, message):
    with pytest.raises(ValueError) as info:
        smith_normal_form(mat, 6)
    assert str(info.value) == message
