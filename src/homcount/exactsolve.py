"""Exact integer linear algebra: determinants and solves without floats.

Forward elimination is fraction-free: every 2x2 cross-multiplication step
divides exactly by the previous pivot, so intermediate entries stay
integers of modest size.  Back substitution then runs over rationals.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SingularSystemError


def _as_int(x) -> int:
    value = int(x)
    if value != x or isinstance(x, float):
        raise ValueError(f"exact arithmetic needs integer entries, got {x!r}")
    return value


def _forward_eliminate(a: list[list[int]], n: int) -> int:
    """Fraction-free forward elimination of the leading n x n block of a, in
    place; columns to the right of it (a right-hand side) are carried along.

    Returns the sign of the row permutation, or 0 when the block is
    singular.  On success a[n - 1][n - 1] times that sign is the
    determinant of the block.
    """
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        width = len(a[k])
        for i in range(k + 1, n):
            for j in range(k + 1, width):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign


def determinant(rows: list[list[int]]) -> int:
    n = len(rows)
    a = [[_as_int(x) for x in row] for row in rows]
    for row in a:
        if len(row) != n:
            raise ValueError("matrix must be square")
    if n == 0:
        return 1
    return _forward_eliminate(a, n) * a[n - 1][n - 1]


def solve_linear_system(rows: list[list[int]], rhs: list[int]) -> list[Fraction]:
    """Solve A x = b exactly for square nonsingular integer A."""
    n = len(rows)
    if len(rhs) != n:
        raise ValueError("rhs length must match the matrix")
    a = [[_as_int(x) for x in row] + [_as_int(b)] for row, b in zip(rows, rhs)]
    for row in a:
        if len(row) != n + 1:
            raise ValueError("matrix must be square")
    if _forward_eliminate(a, n) == 0:
        raise SingularSystemError("matrix is singular")
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        s = Fraction(a[i][n])
        for j in range(i + 1, n):
            s -= a[i][j] * x[j]
        x[i] = s / a[i][i]
    return x
