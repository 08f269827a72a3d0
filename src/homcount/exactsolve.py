"""Exact integer triangular solves, with the unknowns as a row vector.

A Lovász system's matrix comes factored as M = N U, with N unit lower
triangular and U upper triangular (see interpolation._system_over), so a
row of M^-1 = U^-1 N^-1 costs two triangular solves and no elimination:
y U = b, then z N = y.  row_solve_upper divides by U's diagonal at each
step, exactly whenever the solution is integral; row_solve_unit_lower
only multiplies and subtracts, over N's sparse rows.  No float and no
fraction appears.
"""

from __future__ import annotations

from .errors import SingularSystemError


def _as_int(x) -> int:
    value = int(x)
    if value != x or isinstance(x, float):
        raise ValueError(f"exact arithmetic needs integer entries, got {x!r}")
    return value


def row_solve_upper(upper: list[list[int]], rhs) -> list[int]:
    """The integer row vector x with x U = rhs, for U upper triangular,
    given as its dense rows.  Raises ValueError when x is not integral."""
    r = [_as_int(b) for b in rhs]
    x = []
    for j, row in enumerate(upper):
        if row[j] == 0:
            raise SingularSystemError("triangular matrix has a zero on its diagonal")
        q, rest = divmod(r[j], row[j])
        if rest:
            raise ValueError("the triangular system has no integer solution")
        x.append(q)
        if q:
            r = [a - q * b for a, b in zip(r, row)]
    return x


def row_solve_unit_lower(lower: list[list[tuple[int, int]]], rhs) -> list[int]:
    """The row vector x with x N = rhs, for N unit lower triangular, given
    by its entries below the diagonal: lower[i] lists (k, N[i][k]), k < i."""
    x = [_as_int(b) for b in rhs]
    for i in range(len(x) - 1, -1, -1):
        if x[i]:
            for k, c in lower[i]:
                x[k] -= c * x[i]
    return x
