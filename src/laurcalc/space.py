"""Ambient real spaces: a dimension and a rational inner product.

A space holds its Gram matrix as ints over one denominator and reads
positive definiteness from the pivots of the integer elimination in
``linalg``; there is one live space per inner product, so spaces compare
by identity.  Inner products and linear forms are computed on the ints.
Nothing here builds a polynomial, so a process that only needs spaces
(a root system, say) does not load ``poly``.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .scalars import GQ, ZERO, _int_rows, _mk, _over_lcm, _parts


class ArityError(ValueError):
    """Raised when operands live in spaces of different dimension or inner product."""


def _sized(v, dim):
    """v, after checking that it is a vector of length dim."""
    if len(v) != dim:
        raise ArityError(f"a vector of length {len(v)} in a space of dimension {dim}")
    return v


# the live spaces by their Gram matrix as (e, int rows over e), each kept while it lives
_SPACES = weakref.WeakValueDictionary()
_CHECKED = 256  # the bound of the checked Gram matrices; a residue workload meets about a hundred


@lru_cache(maxsize=_CHECKED)
def _check_gram(g):
    """Raise ValueError unless the int Gram matrix g is symmetric and
    positive definite.  Only a matrix that passes is remembered, so a space
    that dies and comes back is not eliminated again."""
    if g != tuple(zip(*g)):
        raise ValueError("inner product matrix must be symmetric")
    # Sylvester's criterion: pivots taken down the diagonal are the
    # leading principal minors of the int matrix, e^k times those of ip
    pivots, _ = linalg._eliminate([[(x, 0) for x in row] for row in g])
    for k in range(len(g)):
        if k == len(pivots) or pivots[k][:2] != (k, k) or pivots[k][2][0] <= 0:
            raise ValueError(f"inner product matrix must be positive definite (leading minor {k + 1})")


class Space:
    """Ambient real space: a dimension and a symmetric positive definite
    rational inner product matrix (identity by default), held as ints over
    one denominator; ``ip`` gives it back as rows of Fraction.  A space is
    immutable, and one inner product has one live space."""

    __slots__ = ("dim", "_e", "_g", "_entries", "__weakref__")

    def __new__(cls, dim: int, ip=None):
        if ip is None:
            ip = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
        if len(ip) != dim or any(len(row) != dim for row in ip):
            raise ValueError(f"inner product matrix must be {dim} x {dim}")
        g, e = _int_rows(ip)
        self = _SPACES.get((e, g))
        if self is not None:
            return self
        _check_gram(g)
        self = object.__new__(cls)
        # the nonzero Gram entries as ints over the common denominator e
        entries = tuple((i, j, x) for i, row in enumerate(g) for j, x in enumerate(row) if x)
        for slot, value in zip(Space.__slots__, (dim, e, g, entries)):
            object.__setattr__(self, slot, value)
        _SPACES[e, g] = self
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Space is immutable")

    @property
    def ip(self):
        """The Gram matrix as new rows of Fraction."""
        return [[Fraction(x, self._e) for x in row] for row in self._g]

    def _vector(self, v):
        """A point or direction of the space as int pairs over one
        denominator (see ``_over_lcm``), after checking its length."""
        return _over_lcm(_sized(v, self.dim))

    def subspace(self, basis) -> "Space":
        """span(basis) in the coordinates of the basis, with the inherited
        inner product."""
        basis = [self._vector(b) for b in basis]
        return Space(len(basis), [[self._inner(*u, *v) for v in basis] for u in basis])

    def inner(self, u, v) -> GQ:
        return self._inner(*self._vector(u), *self._vector(v))

    def _inner(self, u, du, v, dv) -> GQ:
        """<u, v> for vectors held as int pairs over du and dv."""
        re = im = 0
        for i, j, g in self._entries:
            (a, b), (c, e) = u[i], v[j]
            re += g * (a * c - b * e)
            im += g * (a * e + b * c)
        return _mk(re, im, self._e * du * dv)

    def _key_inner(self, key, v, dv) -> GQ:
        """<key, v> for an int vector key and v held as int pairs over dv."""
        return self._inner([(x, 0) for x in key], 1, v, dv)

    def form_coeffs(self, alpha):
        """Coefficients of the linear form z -> <alpha, z>."""
        pairs, _, d = self._linear(*self._vector(alpha))
        return [_mk(a, b, d) for a, b in pairs]

    def linear_form(self, alpha, offset=GQ(0)) -> "Polynomial":
        """The polynomial z -> <alpha, z> - offset; ``poly`` is loaded on
        the first call."""
        from .poly import Polynomial

        return Polynomial.linear(self.dim, self.form_coeffs(alpha), -offset)

    def _linear(self, alpha, d, offset=ZERO):
        """z -> <alpha, z> - offset for alpha held as int pairs over d, as
        (pairs, const, denominator) in ints."""
        oa, ob, od = _parts(offset)
        d *= self._e
        re, im = [0] * self.dim, [0] * self.dim
        for i, j, g in self._entries:
            a, b = alpha[i]
            re[j] += g * a * od
            im[j] += g * b * od
        return list(zip(re, im)), (-oa * d, -ob * d), d * od

    def orth_complement(self, vectors):
        """Basis of the orthogonal complement of span(vectors)."""
        rows = [self.form_coeffs(v) for v in vectors]
        return linalg.nullspace(rows, ncols=self.dim)
