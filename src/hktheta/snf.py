"""Exact integer matrix routines: Smith normal form and determinants.

Matrices are lists (or tuples) of rows of Python ints.  The Smith form works
modulo a fixed M (Domich, Kannan and Trotter, 1987), so no entry grows past M
whatever the matrix size.  This is exact: the lattice of the columns plus
M * Z^r contains M * Z^r, and unimodular row operations keep it there, so adding
a multiple of M to any entry changes neither the lattice nor its quotient.  The
column stage changes only the pivot row; `arith.divisor_chain` orders the diagonal.
`smith_normal_form` and `integer_det` validate their input and copy it; the
Smith form's core, `_smith`, works in place on rows the package built itself
(`finabgrp.pairing_cokernel`): fresh lists of ints in [0, M), all of one length.
"""

from __future__ import annotations

import math
from operator import index

from .arith import divisor_chain, int_tuple

__all__ = ["integer_det", "smith_normal_form"]


def _as_int_rows(mat, modulus: int | None = None) -> list[list[int]]:
    # each row copied once, to ints reduced mod modulus if one is given
    try:
        rows = ([list(map(index, r)) for r in mat] if modulus is None
                else [[index(x) % modulus for x in r] for r in mat])
    except TypeError:  # int_tuple names the entry in a one-line ValueError
        list(map(int_tuple, mat))
        raise
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    return rows


def integer_det(mat) -> int:
    """Determinant of a square integer matrix (Bareiss, fraction free)."""
    a = _as_int_rows(mat)
    n = len(a)
    if n == 0:
        return 1
    if any(len(r) != n for r in a):
        raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_normal_form(mat, modulus: int) -> list[int]:
    """Invariant factors d_1 | ... | d_r of Z^r / (columns of mat + modulus * Z^r).

    These are the diagonal of the Smith form of [mat | modulus * I], r being
    the number of rows; every d_i divides modulus.  Row steps clear a pivot's
    column, then column steps its row; arith.divisor_chain chains the diagonal.
    """
    return _smith(_as_int_rows(mat, modulus), modulus)


def _smith(a: list[list[int]], modulus: int) -> list[int]:
    # smith_normal_form of rows it may change: lists of ints in [0, modulus), one length
    rows = len(a)
    cols = len(a[0]) if rows else 0
    diag = [modulus] * rows  # a row left without a pivot adds Z/modulus
    for t in range(rows):
        nonzero = [(a[i][j], i, j) for i in range(t, rows) for j in range(t, cols) if a[i][j]]
        if not nonzero:
            break
        _, pi, pj = min(nonzero)
        a[t], a[pi] = a[pi], a[t]
        for r in a:
            r[t], r[pj] = r[pj], r[t]
        while True:
            for i in range(t + 1, rows):  # the row stage: Euclid on rows t and i
                while a[i][t]:
                    q = a[t][t] // a[i][t]
                    a[t], a[i] = a[i], [(y - q * x) % modulus for x, y in zip(a[i], a[t])]
            for j in range(t + 1, cols):  # column t is clear: a column step changes row t alone
                a[t][j] %= a[t][t]
                if a[t][j]:  # a remainder: it becomes the pivot, and round again
                    for r in a:
                        r[t], r[j] = r[j], r[t]
                    break
            else:
                break
        # row t and column t are clear, so (pivot, modulus) span gcd * e_t
        diag[t] = math.gcd(a[t][t], modulus)
    return [1] * diag.count(1) + divisor_chain([d for d in diag if d > 1])  # 1s lead the chain
