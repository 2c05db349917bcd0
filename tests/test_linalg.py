"""Exact Gaussian elimination: solve, kernel, rank, inverse."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from laurcalc import GQ
from laurcalc import linalg
from laurcalc.scalars import _over_lcm

from _support import kernel, rand_gq, rref as reference_rref

rng = random.Random(11)


def rand_matrix(n, m):
    return [[rand_gq(rng, 4, 3) for _ in range(m)] for _ in range(n)]


def test_solve_consistent():
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        A = rand_matrix(n, m)
        x = [rand_gq(rng) for _ in range(m)]
        b = linalg.matvec(A, x)
        y = linalg.solve(A, b)
        assert y is not None
        assert linalg.matvec(A, y) == b


def test_solve_inconsistent():
    A = [[GQ(1), GQ(2)], [GQ(2), GQ(4)]]
    assert linalg.solve(A, [GQ(1), GQ(3)]) is None


def test_kernel_annihilates():
    for _ in range(30):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        A = rand_matrix(n, m)
        basis = kernel(A, m)
        assert len(basis) == m - linalg.rank(A)
        for v in basis:
            assert all(x.is_zero() for x in linalg.matvec(A, list(v)))


def gaussian_rows(rows):
    """Each row of GQs scaled to Gaussian integers, as (re, im) int pairs."""
    return [_over_lcm(row)[0] for row in rows]


def times_inverse(m):
    """m times the inverse ``_inverse`` gives, over its denominator, as GQ rows."""
    inv, d = linalg._inverse([list(row) for row in m])
    cols = [[GQ(*x) for x in col] for col in zip(*inv)]
    return [[sum((GQ(*a) * b for a, b in zip(row, col)), GQ(0)) for col in cols] for row in m], GQ(*d)


def test_inverse_roundtrip():
    for _ in range(25):
        n = rng.randint(1, 4)
        A = rand_matrix(n, n)
        if linalg.rank(A) < n:
            continue
        prod, d = times_inverse(gaussian_rows(A))
        for i in range(n):
            for j in range(n):
                assert prod[i][j] == (d if i == j else GQ(0))


def test_kernel_of_no_rows_is_every_column():
    assert kernel([], 2) == [[GQ(1), GQ(0)], [GQ(0), GQ(1)]]


def test_inverse_refuses_a_matrix_that_is_not_square():
    for rows in ([[1, 0, 0], [0, 1, 0]], [[1], [0]]):
        with pytest.raises(ValueError, match="not square"):
            linalg._inverse(gaussian_rows(rows))


def test_rank_bounds():
    A = [[GQ(Fraction(1, 2)), GQ(1)], [GQ(1), GQ(2)]]
    assert linalg.rank(A) == 1


part = st.fractions(min_value=-4, max_value=4, max_denominator=3)
gq = st.builds(GQ, part, part | st.just(0))


@st.composite
def matrices(draw, square=False):
    """Gaussian-rational matrices up to 4 x 6, wide, tall or 0 x n; some
    all zero, some with a last row that combines the others."""
    n = draw(st.integers(0 if not square else 1, 4))
    m = n if square else draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["random", "deficient", "zero"]))
    if kind == "zero":
        return [[GQ(0)] * m for _ in range(n)]
    rows = [[draw(gq) for _ in range(m)] for _ in range(n)]
    if kind == "deficient" and n > 1:
        cs = [draw(gq) for _ in range(n - 1)]
        rows[-1] = [sum((c * row[j] for c, row in zip(cs, rows)), GQ(0)) for j in range(m)]
    return rows


@given(matrices())
def test_rref_equals_reference_elimination(rows):
    """The fraction-free elimination gives the rows and pivots of plain
    Gauss-Jordan with GQ pivots, exactly."""
    assert linalg.rref(rows) == reference_rref(rows)
    assert linalg.rank(rows) == len(reference_rref(rows)[1])


@given(matrices(square=True))
def test_inverse_refuses_exactly_the_singular(rows):
    n = len(rows)
    if len(reference_rref(rows)[1]) < n:
        with pytest.raises(ValueError, match="singular"):
            linalg._inverse(gaussian_rows(rows))
    else:
        prod, d = times_inverse(gaussian_rows(rows))
        assert prod == [[d if j == i else GQ(0) for j in range(n)] for i in range(n)]
