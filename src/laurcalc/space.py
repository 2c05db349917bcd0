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
    """The inverse of the int Gram matrix g as (int rows, d); ValueError unless
    g is symmetric and positive definite.  Only a matrix that passes is
    remembered, so a space that dies and comes back is not eliminated again."""
    if g != tuple(zip(*g)):
        raise ValueError("inner product matrix must be symmetric")
    # Sylvester's criterion: pivots of [g | I] taken down g's diagonal are the leading
    # principal minors of g, e^k times those of ip; [g | I] ends as [d I | d g^-1]
    n = len(g)
    aug = [[(x, 0) for x in row] + [(int(i == j), 0) for j in range(n)] for i, row in enumerate(g)]
    pivots, (d, _) = linalg._eliminate(aug)
    for k in range(n):
        if k == len(pivots) or pivots[k][:2] != (k, k) or pivots[k][2][0] <= 0:
            raise ValueError(f"inner product matrix must be positive definite (leading minor {k + 1})")
    return tuple(tuple(x for x, _ in row[n:]) for row in aug), d


class Space:
    """Ambient real space: a dimension and a symmetric positive definite
    rational inner product matrix (identity by default), held as ints over
    one denominator, and its inverse, as ints over another; ``ip`` gives it
    back as rows of Fraction.  Immutable; one inner product has one live space."""

    __slots__ = ("dim", "_e", "_g", "_entries", "_inv", "__weakref__")

    def __new__(cls, dim: int, ip=None):
        if ip is None:
            ip = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
        if len(ip) != dim or any(len(row) != dim for row in ip):
            raise ValueError(f"inner product matrix must be {dim} x {dim}")
        g, e = _int_rows(ip)
        self = _SPACES.get((e, g))
        if self is not None:
            return self
        inv = _check_gram(g)
        self = object.__new__(cls)
        # the nonzero Gram entries as ints over the common denominator e
        entries = tuple((i, j, x) for i, row in enumerate(g) for j, x in enumerate(row) if x)
        for slot, value in zip(Space.__slots__, (dim, e, g, entries, inv)):
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
        """Basis of the orthogonal complement of span(vectors), the kernel of their int forms."""
        basis, d = linalg._kernel([self._linear(*self._vector(v))[0] for v in vectors], self.dim)
        return [[linalg._gq(x, d) for x in v] for v in basis]
