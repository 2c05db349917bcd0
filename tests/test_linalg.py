"""Exact Gaussian elimination: solve, nullspace, rank, inverse."""

import random
from fractions import Fraction

from laurcalc import GQ
from laurcalc import linalg

from _support import rand_gq

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


def test_nullspace_annihilates():
    for _ in range(30):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        A = rand_matrix(n, m)
        basis = linalg.nullspace(A, m)
        assert len(basis) == m - linalg.rank(A)
        for v in basis:
            assert all(x.is_zero() for x in linalg.matvec(A, list(v)))


def test_invert_roundtrip():
    for _ in range(25):
        n = rng.randint(1, 4)
        A = rand_matrix(n, n)
        if linalg.rank(A) < n:
            continue
        inv = linalg.invert(A)
        prod = [[sum((A[i][k] * inv[k][j] for k in range(n)), GQ(0)) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                assert prod[i][j] == (GQ(1) if i == j else GQ(0))


def test_rank_bounds():
    A = [[GQ(Fraction(1, 2)), GQ(1)], [GQ(1), GQ(2)]]
    assert linalg.rank(A) == 1
