"""Exact linear algebra over Q(i).

The public functions take and return rows of GQ.  Inside, each row is
scaled to Gaussian integers, held as (re, im) int pairs, and one
fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968)
reduces them with divisions that are exact in Z[i].  Results stay
Gaussian integers over one Gaussian-integer denominator until they are
handed out as GQ; root systems, lattices and inner products use the
integer functions directly.
"""

from __future__ import annotations

from .scalars import GQ, _mk, _over_lcm


def _eliminate(m):
    """Fraction-free Gauss-Jordan elimination of the rows m of (re, im) int
    pairs, in place: (pivots, d), the pivots as (row, column, value) in the
    order taken and d the last value, 1 without pivots.

    A pivot is the first nonzero entry of its column in a row not yet taken
    (no row moves); with p the previous value and q the new one in row r,
    every other row becomes (q row - row[c] m[r]) / p, exactly.  So pivots
    taken down the diagonal are the leading minors, and at the end every
    pivot entry is d and every pivot column is zero off its pivot row."""
    pivots, free = [], list(range(len(m)))
    pr, pi = 1, 0
    for c in range(len(m[0]) if m else 0):
        r = next((i for i in free if m[i][c] != (0, 0)), None)
        if r is None:
            continue
        free.remove(r)
        top = m[r]
        qr, qi = top[c]
        n = pr * pr + pi * pi
        for i, row in enumerate(m):
            if i != r:
                fr, fi = row[c]
                new = []
                for (ar, ai), (br, bi) in zip(row, top):
                    xr = qr * ar - qi * ai - fr * br + fi * bi
                    xi = qr * ai + qi * ar - fr * bi - fi * br
                    # x / p = x conj(p) / |p|^2
                    new.append(((xr * pr + xi * pi) // n, (xi * pr - xr * pi) // n))
                m[i] = new
        pivots.append((r, c, (qr, qi)))
        pr, pi = qr, qi
        if not free:
            break
    return pivots, (pr, pi)


def _gq(x, d):
    """The GQ x / d for Gaussian integers x and d != 0 given as int pairs."""
    (a, b), (c, e) = x, d
    if not e:
        return _mk(a, b, c)
    return _mk(a * c + b * e, b * c - a * e, c * c + e * e)


def _pairs(rows):
    return [_over_lcm(row)[0] for row in rows]


def _kernel(m, ncols):
    """A basis of the kernel of the int pair rows m, with ``ncols`` columns
    when m is empty: (vectors, d), the vectors of int pairs over d.  The
    vector of a free column is 1 there and 0 at the other free columns."""
    pivots, d = _eliminate(m)
    n = len(m[0]) if m else ncols
    basis = []
    for f in range(n):
        if all(c != f for _, c, _ in pivots):
            v = [(0, 0)] * n
            v[f] = d
            for r, c, _ in pivots:
                v[c] = (-m[r][f][0], -m[r][f][1])
            basis.append(v)
    return basis, d


def _inverse(m):
    """The inverse of the square matrix of int pair rows m: (rows, d), rows
    of int pairs over d; ValueError if m is singular or not square."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    aug = [row + [(1, 0) if j == i else (0, 0) for j in range(n)] for i, row in enumerate(m)]
    pivots, d = _eliminate(aug)
    if [c for _, c, _ in pivots] != list(range(n)):
        raise ValueError("matrix is singular")
    return [aug[r][n:] for r, _, _ in pivots], d


def rref(rows):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns)."""
    m = _pairs(rows)
    pivots, d = _eliminate(m)
    taken = [r for r, _, _ in pivots]
    order = taken + [i for i in range(len(m)) if i not in taken]
    return [[_gq(x, d) for x in m[i]] for i in order], [c for _, c, _ in pivots]


def rank(rows) -> int:
    return len(_eliminate(_pairs(rows))[0])


def solve(rows, rhs):
    """One solution x of A x = b, or None if the system is inconsistent.

    A is given by rows, b by rhs (length = number of rows).
    """
    if not rows:
        return []
    # x is the kernel vector of [A | -b] that is 1 at the last column; there
    # is one exactly when that column has no pivot
    n = len(rows[0])
    basis, d = _kernel(_pairs([[*row, -GQ.of(b)] for row, b in zip(rows, rhs)]), None)
    if not basis or basis[-1][n] != d:
        return None
    return [_gq(x, d) for x in basis[-1][:n]]


def matvec(a, v):
    a = [[GQ.of(x) for x in row] for row in a]
    v = [GQ.of(x) for x in v]
    return [sum((row[j] * v[j] for j in range(len(v))), GQ(0)) for row in a]

