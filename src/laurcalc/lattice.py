"""The lattice Z.Delta of an independent set Delta and its order: one shared
``Lattice`` per Delta from a bounded table, for root systems, parabolic
walls, exponential series and the command line, and one order on its keys.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import le, mul

from . import linalg
from .scalars import _int_rows, _mk, _over_lcm, _re_im


class Lattice:
    """The lattice Z.delta of an independent set delta of real rational
    vectors of length ``dim``, and its order: xi1 precedes xi2 when
    xi2 - xi1 is a nonnegative integer combination of delta.

    delta is held as int rows N over one denominator E, and the left
    inverse E (N N^T)^-1 N as int rows over one denominator, so a query is
    integer dot products plus an exact check that the coordinates give the
    vector back.  ``name`` names delta in error messages.  A lattice is
    immutable and equal to every lattice of the same delta and ``dim``;
    ``Lattice(delta, dim, name)`` returns the one a bounded table keeps.
    """

    __slots__ = ("name", "dim", "_e", "_rows", "_left", "_den")

    def __new__(cls, delta, dim=None, name="delta"):
        rows, e = _int_rows(delta)
        return _table(rows, e, len(rows[0]) if dim is None and rows else dim, name)

    def _build(self, rows, e, dim, name):
        """Set up the lattice of the int rows over e."""
        if any(len(r) != dim for r in rows):
            raise ValueError(f"{name} has a vector of length other than {dim}")
        try:
            inv, (den, _) = linalg._inverse([[(sum(map(mul, r, s)), 0) for s in rows] for r in rows])
        except ValueError:
            raise ValueError(f"{name} not linearly independent") from None
        left = [[sum(x * y for (x, _), y in zip(row, c)) * e for c in zip(*rows)] for row in inv]
        g = gcd(den, *(x for row in left for x in row))
        left = tuple(tuple(x // g for x in row) for row in left)
        for slot, value in zip(Lattice.__slots__, (name, dim, e, rows, left, den // g)):
            object.__setattr__(self, slot, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Lattice is immutable")

    def __eq__(self, other):
        return isinstance(other, Lattice) and (self.dim, self._e, self._rows) == (other.dim, other._e, other._rows)

    def __hash__(self):
        return hash((self.dim, self._e, self._rows))

    def _solve(self, iv):
        """Ints c with iv = sum c_i delta_i / den for an int vector iv, or
        None when iv is off the span."""
        c = [sum(map(mul, row, iv)) for row in self._left]
        back = [self._den * self._e * x for x in iv]
        for ci, row in zip(c, self._rows):
            back = [b - ci * r for b, r in zip(back, row)]
        return None if any(back) else c

    def _ints(self, v):
        """Ints re, im and e > 0 with v = (re + i im) / e, after checking the
        length of v against delta."""
        if self.dim is not None and len(v) != self.dim:
            raise ValueError(f"a vector of length {len(v)} against {self.name} of length {self.dim}")
        pairs, e = _over_lcm(v)
        return (*_re_im(pairs), e)

    def _split(self, v):
        """(re, im, q): ints with v = sum (re_i + i im_i) delta_i / q, or None
        when v is off the complex span."""
        re, im, e = self._ints(v)
        re, im = self._solve(re), self._solve(im)
        return None if re is None or im is None else (re, im, self._den * e)

    def coset(self, v):
        """(class, k) of a complex vector v: k the floors of the real parts of
        its delta-coordinates (of its projection to the span), class the ints
        (re, im, q) of v - sum k_i delta_i in lowest terms.  Classes are equal
        exactly when the vectors are equivalent mod Z.delta."""
        return self._coset(*self._ints(v))

    def _coset(self, re, im, e):
        """``coset`` of the vector (re + i im) / e given as ints, e > 0."""
        k = tuple(sum(map(mul, row, re)) // (self._den * e) for row in self._left)
        re = [self._e * x - e * sum(map(mul, k, col)) for x, *col in zip(re, *self._rows)]
        im, q = [self._e * x for x in im], self._e * e
        g = gcd(q, *re, *im)
        return (tuple(x // g for x in re), tuple(x // g for x in im), q // g), k

    def span_coords(self, v):
        """The coordinates of v over delta as GQs, or None."""
        s = self._split(v)
        return None if s is None else [_mk(a, b, s[2]) for a, b in zip(s[0], s[1])]

    def coords(self, v):
        """The integer coordinates of v over delta, or None off Z.delta."""
        s = self._split(v)
        if s is None or any(s[1]) or any(x % s[2] for x in s[0]):
            return None
        return [x // s[2] for x in s[0]]

    def equiv(self, a, b) -> bool:
        """Whether b - a lies in Z.delta."""
        return self.coset(a)[0] == self.coset(b)[0]

    def height(self, a, b):
        """The coordinate sum of b - a when a precedes b, else None."""
        ka, kb = self.coset(a), self.coset(b)
        return next(iter(_heights([kb], ka)), None)

    def preceq(self, a, b) -> bool:
        return self.height(a, b) is not None

    def lub(self, omega):
        """Least upper bound of a lattice-equivalent family: its class plus
        the componentwise maximum of the members' k."""
        if not omega:
            raise ValueError("empty family has no least upper bound")
        keys = [self.coset(xi) for xi in omega]
        (re, im, q), e = keys[0][0], self._e
        if any(c != keys[0][0] for c, _ in keys):
            raise ValueError("family members are not lattice equivalent")
        top = [max(c) for c in zip(*(k for _, k in keys))]
        return tuple(_mk(r * e + q * sum(map(mul, top, col)), i * e, q * e) for r, i, *col in zip(re, im, *self._rows))


_LATTICES = 64  # the bound of the shared table; a series workload meets a few dozen deltas


@lru_cache(maxsize=_LATTICES)
def _table(rows, e, dim, name):
    return object.__new__(Lattice)._build(rows, e, dim, name)


def _heights(tops, key):
    """The heights of the (class, k) key below each top in tops it precedes."""
    c, k = key
    return [sum(tk) - sum(k) for tc, tk in tops if tc == c and all(map(le, k, tk))]
