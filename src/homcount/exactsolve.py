"""Exact integer linear algebra: determinants and solves without floats.

factorize runs one fraction-free (Bareiss) forward elimination: every 2x2
cross-multiplication step divides exactly by the previous pivot, so
intermediate entries stay integers of modest size.  It keeps the
multiplier of every step in the lower triangle it would otherwise zero,
together with the row order, so the elimination is done once per matrix:
the determinant is its last pivot, and each right-hand side replays the
kept steps and back-substitutes over the integers, scaled by the
determinant, in O(n^2) (Bareiss, Math. Comp. 22, 1968).  determinant and
solve_linear_system are thin wrappers over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SingularSystemError


def _as_int(x) -> int:
    value = int(x)
    if value != x or isinstance(x, float):
        raise ValueError(f"exact arithmetic needs integer entries, got {x!r}")
    return value


@dataclass(frozen=True)
class Factorization:
    """One fraction-free elimination of a square integer matrix A, kept.

    Row k of ``steps`` is row ``order[k]`` of A after elimination: on and
    right of the diagonal the upper-triangular result, left of it the
    multipliers that eliminated it.  ``det`` is det(A), 0 when A is
    singular (the elimination then stops at the first column left
    without a nonzero pivot).
    """

    det: int
    steps: list[list[int]]
    order: list[int]

    def solve_scaled(self, rhs) -> list[int]:
        """det(A) times the solution x of A x = rhs.

        The replayed steps divide exactly, as in the elimination itself:
        each value is a minor of [A | rhs].  By Cramer's rule det(A) * x
        is integral, so the back substitution divides exactly too.
        """
        a, n, det = self.steps, len(self.steps), self.det
        if len(rhs) != n:
            raise ValueError("rhs length must match the matrix")
        b = [_as_int(rhs[i]) for i in self.order]
        if det == 0:
            raise SingularSystemError("matrix is singular")
        prev = 1
        for k in range(n):
            pivot, bk = a[k][k], b[k]
            for i in range(k + 1, n):
                b[i] = (b[i] * pivot - a[i][k] * bk) // prev
            prev = pivot
        x = [0] * n
        for i in range(n - 1, -1, -1):
            row = a[i]
            s = det * b[i] - sum(row[j] * x[j] for j in range(i + 1, n))
            x[i] = s // row[i]
        return x


def factorize(rows: list[list[int]]) -> Factorization:
    """Eliminate the square integer matrix rows once, keeping every step."""
    n = len(rows)
    a = [[_as_int(x) for x in row] for row in rows]
    for row in a:
        if len(row) != n:
            raise ValueError("matrix must be square")
    order = list(range(n))
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Factorization(0, a, order)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            order[k], order[piv] = order[piv], order[k]
            sign = -sign
        top = a[k]
        pivot = top[k]
        for i in range(k + 1, n):
            row = a[i]
            m = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - m * top[j]) // prev
        prev = pivot
    return Factorization(sign * prev, a, order)


def determinant(rows: list[list[int]]) -> int:
    return factorize(rows).det


def solve_linear_system(rows: list[list[int]], rhs: list[int]) -> list[Fraction]:
    """Solve A x = b exactly for square nonsingular integer A."""
    factors = factorize(rows)
    return [Fraction(x, factors.det) for x in factors.solve_scaled(rhs)]
