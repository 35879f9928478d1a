"""Integer matrix routines: determinants and Smith form."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hktheta.snf import integer_det, smith_normal_form


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

rect_matrices = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
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


def _mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


@given(rect_matrices)
def test_smith_form_factorization(mat):
    s, u, v = smith_normal_form(mat)
    rows, cols = len(mat), len(mat[0])
    assert len(s) == rows and len(s[0]) == cols
    # u and v are unimodular
    assert integer_det(u) in (1, -1)
    assert integer_det(v) in (1, -1)
    assert _mat_mul(_mat_mul(u, mat), v) == s
    # s is diagonal, nonnegative, with a divisibility chain
    diag = []
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert s[i][j] == 0
            else:
                diag.append(s[i][j])
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0


def _smith_diagonal(mat):
    s, _, _ = smith_normal_form(mat)
    return [s[i][i] for i in range(min(len(s), len(s[0])))]


def test_smith_form_diagonal_golden():
    assert _smith_diagonal([[4, 0], [0, 6]]) == [2, 12]
    assert _smith_diagonal([[2, 1], [0, 2]]) == [1, 4]
    assert _smith_diagonal([[0, 0], [0, 0]]) == [0, 0]
    assert _smith_diagonal([[1, 0], [0, 1]]) == [1, 1]
