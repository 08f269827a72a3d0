"""Exact integer forward substitution through a unit lower triangular factor.

A Lovász system's matrix factors as M = N U, with N unit lower triangular
and U upper triangular (see interpolation.LovaszSystem).  A recovery solves
N c = b here, which only multiplies and subtracts over N's sparse rows,
then peels U's columns at the coefficients' support off c.  No float and
no fraction appears.
"""

from __future__ import annotations


def _as_int(x) -> int:
    """x as an int; ValueError unless x is an integer that is not a float."""
    try:
        if int(x) == x and not isinstance(x, float):
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"exact arithmetic needs integer entries, got {x!r}")


def solve_unit_lower(lower: list[list[tuple[int, int]]], rhs) -> list[int]:
    """The x with N x = rhs, for N unit lower triangular, given by its
    entries below the diagonal: lower[i] lists (k, N[i][k]), k < i."""
    x = [_as_int(b) for b in rhs]
    for i, below in enumerate(lower):
        for k, c in below:
            x[i] -= c * x[k]
    return x
