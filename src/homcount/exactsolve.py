"""Exact integer solve through a unit lower triangular factor, with the
unknowns as a row vector.

A Lovász system's matrix factors as M = N U, with N unit lower triangular
and U upper triangular (see interpolation.LovaszSystem), so a row of
M^-1 = U^-1 N^-1 costs y U = b over U's trailing columns, then z N = y
here, which only multiplies and subtracts over N's sparse rows.  No float
and no fraction appears.
"""

from __future__ import annotations


def _as_int(x) -> int:
    value = int(x)
    if value != x or isinstance(x, float):
        raise ValueError(f"exact arithmetic needs integer entries, got {x!r}")
    return value


def row_solve_unit_lower(lower: list[list[tuple[int, int]]], rhs) -> list[int]:
    """The row vector x with x N = rhs, for N unit lower triangular, given
    by its entries below the diagonal: lower[i] lists (k, N[i][k]), k < i."""
    x = [_as_int(b) for b in rhs]
    for i in range(len(x) - 1, -1, -1):
        if x[i]:
            for k, c in lower[i]:
                x[k] -= c * x[i]
    return x
