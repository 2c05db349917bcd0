"""Exact linear algebra over Q(i).

Matrices are lists of rows of GQ.  Everything is plain Gaussian
elimination with exact GQ pivots (no fraction-free scheme such as
Bareiss); sizes in this library are tiny.
"""

from __future__ import annotations

from .scalars import GQ


def _to_gq_matrix(rows):
    return [[GQ.of(x) for x in row] for row in rows]


def rref(rows):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns)."""
    m = [[GQ.of(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if not m[i][c].is_zero()), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = GQ(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows) -> int:
    if not rows:
        return 0
    return len(rref(rows)[1])


def solve(rows, rhs):
    """One solution x of A x = b, or None if the system is inconsistent.

    A is given by rows, b by rhs (length = number of rows).
    """
    rows = _to_gq_matrix(rows)
    rhs = [GQ.of(x) for x in rhs]
    if not rows:
        return []
    ncols = len(rows[0])
    aug = [row + [b] for row, b in zip(rows, rhs)]
    m, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [GQ(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = m[r][ncols]
    return x


def nullspace(rows, ncols=None):
    """Basis of the kernel of the matrix given by rows."""
    if not rows:
        if ncols is None:
            raise ValueError("ncols required for an empty matrix")
        return [[GQ(1) if j == i else GQ(0) for j in range(ncols)] for i in range(ncols)]
    ncols = len(rows[0])
    m, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [GQ(0)] * ncols
        v[f] = GQ(1)
        for r, c in enumerate(pivots):
            v[c] = -m[r][f]
        basis.append(v)
    return basis


def matvec(a, v):
    a = _to_gq_matrix(a)
    v = [GQ.of(x) for x in v]
    return [sum((row[j] * v[j] for j in range(len(v))), GQ(0)) for row in a]


def invert(rows):
    """Inverse of a square matrix; raises ValueError if singular."""
    rows = _to_gq_matrix(rows)
    n = len(rows)
    aug = [
        row + [GQ(1) if j == i else GQ(0) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    m, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in m]
