import random
from fractions import Fraction

import pytest

from homcount.errors import SingularSystemError
from homcount.exactsolve import determinant, factorize, solve_linear_system


def fraction_determinant(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for i in range(col + 1, n):
            factor = m[i][col] * inv
            if factor:
                m[i] = [a - factor * b for a, b in zip(m[i], m[col])]
    return det


def test_determinant_base_cases():
    assert determinant([]) == 1
    assert determinant([[7]]) == 7
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[2, 0], [0, 3]]) == 6
    assert determinant([[1, 2], [2, 4]]) == 0


def test_determinant_needs_row_swaps():
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1


def test_determinant_matches_fraction_elimination():
    rng = random.Random(21)
    for _ in range(150):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert determinant(rows) == fraction_determinant(rows)


def test_determinant_is_exact_on_large_entries():
    big = 10**30
    rows = [[big, 1], [1, big]]
    assert determinant(rows) == big * big - 1


def fraction_solve(rows, rhs):
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next(i for i in range(col, n) if m[i][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        pivot = m[col][col]
        m[col] = [x / pivot for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[col])]
    return [m[i][n] for i in range(n)]


def test_solve_matches_fraction_elimination():
    rng = random.Random(22)
    solved = 0
    while solved < 100:
        n = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if determinant(rows) == 0:
            continue
        rhs = [rng.randint(-99, 99) for _ in range(n)]
        got = solve_linear_system(rows, rhs)
        assert got == fraction_solve(rows, rhs)
        solved += 1


def test_solve_rejects_non_integer_entries():
    with pytest.raises(ValueError):
        solve_linear_system([[Fraction(1, 2)]], [1])
    with pytest.raises(ValueError):
        solve_linear_system([[1]], [0.5])
    with pytest.raises(ValueError):
        solve_linear_system([[1.0]], [1])
    with pytest.raises(ValueError):
        determinant([[0.5]])


def test_solve_raises_on_singular_input():
    with pytest.raises(SingularSystemError):
        solve_linear_system([[1, 2], [2, 4]], [1, 1])
    with pytest.raises(SingularSystemError):
        solve_linear_system([[0]], [1])


def test_solve_returns_fractions():
    got = solve_linear_system([[2]], [1])
    assert got == [Fraction(1, 2)]
    assert isinstance(got[0], Fraction)


def test_one_factorization_solves_many_right_hand_sides():
    rng = random.Random(23)
    swapped = solved = 0
    for trial in range(200):
        n = rng.randint(0, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if n > 1 and trial % 2:
            rows[0][0] = 0
        factors = factorize(rows)
        assert factors.det == fraction_determinant(rows)
        if factors.det == 0:
            continue
        swapped += factors.order != list(range(n))
        for _ in range(4):
            rhs = [rng.randint(-99, 99) for _ in range(n)]
            got = [Fraction(x, factors.det) for x in factors.solve_scaled(rhs)]
            assert got == fraction_solve(rows, rhs)
        solved += 1
    assert swapped >= 40 and solved >= 150


def test_factorization_base_cases():
    empty = factorize([])
    assert empty.det == 1
    assert empty.solve_scaled([]) == []
    one = factorize([[5]])
    assert one.det == 5
    assert [one.solve_scaled([b]) for b in (3, -10, 0)] == [[3], [-10], [0]]


def test_factorization_is_exact_on_large_entries():
    big = 10**30
    rows = [[big, 1, 0], [1, big, 1], [0, 1, big]]
    factors = factorize(rows)
    assert factors.det == fraction_determinant(rows)
    for rhs in ([1, 0, 0], [big, -big, 7], [3 * big**2, 1, -1]):
        got = [Fraction(x, factors.det) for x in factors.solve_scaled(rhs)]
        assert got == fraction_solve(rows, rhs)


def test_singular_factorization_has_zero_determinant_and_cannot_solve():
    for rows in ([[1, 2], [2, 4]], [[0, 0], [0, 1]], [[0, 1, 1], [1, 0, 1], [1, 1, 2]]):
        factors = factorize(rows)
        assert factors.det == 0
        with pytest.raises(SingularSystemError):
            factors.solve_scaled([1] * len(rows))
