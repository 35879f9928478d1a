"""Exact integer matrix routines: Smith normal form and determinants.

Matrices are lists (or tuples) of rows of Python ints, so every computation
is exact at arbitrary precision.  Sizes in this package never exceed 8 x 16,
which keeps the classical row/column reduction entirely adequate.
"""

from __future__ import annotations

__all__ = ["integer_det", "smith_normal_form"]


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _as_int_rows(mat) -> list[list[int]]:
    rows = [list(map(int, r)) for r in mat]
    if rows:
        width = len(rows[0])
        if any(len(r) != width for r in rows):
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


def smith_normal_form(mat):
    """Smith normal form with transforms.

    Returns (s, u, v) with u * mat * v == s, where u and v are unimodular
    and s is diagonal with nonnegative entries s[0][0] | s[1][1] | ...
    """
    a = _as_int_rows(mat)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = _identity(rows)
    v = _identity(cols)

    def row_add(i, j, c):
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def col_add(i, j, c):
        for r in a:
            r[i] += c * r[j]
        for r in v:
            r[i] += c * r[j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        row_swap(t, best[0])
        col_swap(t, best[1])
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_add(i, t, -q)
                    if a[i][t] != 0:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_add(j, t, -q)
                    if a[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
            if not dirty and all(a[i][t] == 0 for i in range(t + 1, rows)) and all(
                a[t][j] == 0 for j in range(t + 1, cols)
            ):
                break
        if a[t][t] < 0:
            row_neg(t)
        # the pivot must divide the whole trailing block for the divisor chain
        fix = None
        for i in range(t + 1, rows):
            if any(a[i][j] % a[t][t] for j in range(t + 1, cols)):
                fix = i
                break
        if fix is not None:
            row_add(t, fix, 1)
            continue
        t += 1
    return a, u, v
