import random
from fractions import Fraction

import pytest

from homcount.exactsolve import solve_unit_lower

from .oracles import naive_solve


def random_upper(rng, n, bound=9):
    """Dense rows of an integer upper triangular matrix, nonzero diagonal."""
    rows = [[rng.randint(-bound, bound) if j > i else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        rows[i][i] = rng.choice([-1, 1]) * rng.randint(1, bound)
    return rows


def random_lower(rng, n, bound=9):
    """Entries below the unit diagonal of a sparse lower triangular matrix."""
    return [[(k, rng.randint(-bound, bound)) for k in range(i) if rng.random() < 0.4]
            for i in range(n)]


def dense_unit_lower(lower):
    n = len(lower)
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, below in enumerate(lower):
        for k, c in below:
            rows[i][k] = c
    return rows


def fraction_solve(a, rhs):
    """x with A x = rhs, by Fraction elimination."""
    return [x for (x,) in naive_solve(a, [[b] for b in rhs])]


def test_solve_matches_fraction_elimination():
    rng = random.Random(22)
    for _ in range(300):
        n = rng.randint(1, 6)
        lower = random_lower(rng, n)
        rhs = [rng.randint(-99, 99) for _ in range(n)]
        assert solve_unit_lower(lower, rhs) == fraction_solve(dense_unit_lower(lower), rhs)


def test_solve_rejects_non_integer_entries():
    for rhs in ([Fraction(1, 2)], [0.5], [1.0], [float("inf")], [float("nan")], [None], ["3"]):
        with pytest.raises(ValueError, match="integer entries"):
            solve_unit_lower([[]], rhs)


def test_one_factorization_solves_many_right_hand_sides():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(0, 6)
        upper, lower = random_upper(rng, n), random_lower(rng, n)
        product = [[sum(a * b for a, b in zip(n_row, col)) for col in zip(*upper)]
                   for n_row in dense_unit_lower(lower)]
        for _ in range(4):
            rhs = [rng.randint(-99, 99) for _ in range(n)]
            # N U x = rhs: the integer solve through N, then U.
            assert fraction_solve(upper, solve_unit_lower(lower, rhs)) == fraction_solve(product, rhs)


def test_factorization_base_cases():
    assert solve_unit_lower([], []) == []
    assert [solve_unit_lower([[]], [b]) for b in (3, -10, 0)] == [[3], [-10], [0]]


def test_factorization_is_exact_on_large_entries():
    big = 10**30
    lower = [[], [(0, big)], [(0, 1), (1, -big)]]
    for rhs in ([big**3, 0, 0], [big**4, -big**3, 7 * big**3], [3 * big**5, big**3, -big**3]):
        assert solve_unit_lower(lower, rhs) == fraction_solve(dense_unit_lower(lower), rhs)
