"""Truncated exponential polynomial series: finite sums a^xi * q_xi(log a)
with exponents confined to finitely many downward lattice cosets, with
formal differentiation, convolution products, splitting, and the
regrouping of exponents along a wall.

Exponents are vectors paired with directions through the ambient inner
product: xi(H) = <xi, H>.  Coefficients are vectors of polynomials in the
logarithmic coordinates.

A series keeps each exponent with its key (class, k) from
``Lattice.coset``: its class mod Z.Delta and its integer Delta-coordinates.
xi lies at height h below a leader exactly when the classes are equal and
k(leader) - k(xi) is >= 0 with sum h, so heights, the order, pruning and
splitting compare ints.  Series over one Delta share one ``Lattice``.
"""

from __future__ import annotations

from operator import add, le

from .poly import DiffOp, Polynomial
from .lattice import _lattice
from .scalars import GQ
from .space import ArityError, Space


def _exp_key(xi):
    return tuple(GQ.of(x) for x in xi)


def _depths(lead, key):
    """The heights of the exponent with key below the leader keys in lead."""
    c, k = key
    return [sum(lk) - sum(k) for lc, lk in lead if lc == c and all(map(le, k, lk))]


class ExpPolySeries:
    """A finite truncated series.

    terms maps an exponent to a tuple of coefficient polynomials (one per
    coordinate of the value space).  Every exponent must lie within
    lattice height <= trunc below one of the leaders.  ``lattice`` is the
    shared ``Lattice`` of delta.  The terms are held as ``_t``, which maps
    the (class, k) of each exponent to (exponent, coefficients); ``terms``
    is built from it on first read.
    """

    def __init__(self, space: Space, delta, leaders, trunc, vdim, terms):
        delta = [tuple(x) for x in delta]
        lattice = _lattice(delta, space.dim)
        leaders = [_exp_key(x) for x in leaders]
        t = {}
        for xi, polys in dict(terms).items():
            polys = tuple(polys)
            if len(polys) != int(vdim):
                raise ArityError("coefficient vector has wrong length")
            if any(p.dim != space.dim for p in polys):
                raise ArityError("coefficient polynomial arity mismatch")
            xi = _exp_key(xi)
            t[lattice.coset(xi)] = (xi, polys)
        lead = [lattice.coset(x) for x in leaders]
        self._setup(space, delta, lattice, leaders, lead, trunc, vdim, t, True)

    def _like(self, leaders, lead, trunc, vdim, t, check):
        """A series over the space and delta of self, sharing its lattice."""
        out = ExpPolySeries.__new__(ExpPolySeries)
        out._setup(self.space, self.delta, self.lattice, leaders, lead, trunc, vdim, t, check)
        return out

    def _setup(self, space, delta, lattice, leaders, lead, trunc, vdim, t, check):
        """lead holds the leaders' keys and t the terms by key.  Zero terms
        are dropped; with check, a term deeper than trunc below every leader
        is refused (operations in range by construction pass False)."""
        self.space, self.delta, self.lattice = space, delta, lattice
        self.leaders, self._lead = leaders, lead
        self.trunc, self.vdim = int(trunc), int(vdim)
        self._t, self._terms = {}, None
        for key, (xi, polys) in t.items():
            if all(p.is_zero() for p in polys):
                continue
            if check and not any(h <= self.trunc for h in _depths(lead, key)):
                raise ValueError(f"exponent {xi} outside the truncated cosets")
            self._t[key] = (xi, tuple(polys))

    @property
    def terms(self):
        if self._terms is None:
            self._terms = dict(self._t.values())
        return self._terms

    def is_zero(self):
        return not self._t

    def _check_shape(self, other):
        if self.vdim != other.vdim or self.lattice != other.lattice:
            raise ArityError("series shapes differ")
        if self.space is not other.space:
            raise ArityError("series over different inner products")

    def __add__(self, other):
        self._check_shape(other)
        t = dict(self._t)
        for key, (xi, polys) in other._t.items():
            if key in t:
                t[key] = (xi, [a + b for a, b in zip(t[key][1], polys)])
            else:
                t[key] = (xi, polys)
        lead = dict(zip(self._lead + other._lead, self.leaders + other.leaders))
        return self._like(list(lead.values()), list(lead), min(self.trunc, other.trunc), self.vdim, t, True)

    def scale(self, c):
        c = GQ.of(c)
        t = {key: (xi, [p * c for p in polys]) for key, (xi, polys) in self._t.items()}
        return self._like(self.leaders, self._lead, self.trunc, self.vdim, t, False)

    def __eq__(self, other):
        if not isinstance(other, ExpPolySeries):
            return NotImplemented
        if self.vdim != other.vdim or self.space is not other.space:
            return False
        return self._t == other._t if self.lattice == other.lattice else self.terms == other.terms

    def __repr__(self):
        bits = [f"a^{xi} * {polys}" for xi, polys in sorted(self.terms.items(), key=repr)]
        return " + ".join(bits) if bits else "0"


def series_exponents(F: ExpPolySeries):
    """The exponent set and its maximal elements in the lattice order."""
    keys = sorted(F._t, key=lambda key: repr(F._t[key][0]))
    leading = [F._t[a][0] for a in keys if not any(b != a and _depths([b], a) for b in keys)]
    return [F._t[a][0] for a in keys], leading


def series_diffop(u: DiffOp, F: ExpPolySeries) -> ExpPolySeries:
    """Term-by-term action: a coordinate direction H sends q to
    xi(H)q + dq/dH on the a^xi term."""
    if u.dim != F.space.dim:
        raise ArityError("operator arity mismatch")
    n = F.space.dim
    t = {}
    for key, (xi, polys) in F._t.items():
        lam = F.space.form_coeffs(xi)  # xi(H) for each coordinate direction H
        acc = [Polynomial.zero(n)] * F.vdim
        for gamma, c in u.terms.items():
            cur = polys
            for i, g in enumerate(gamma):
                for _ in range(g):
                    cur = [lam[i] * p + p.deriv(i) for p in cur]
            acc = [a + c * p for a, p in zip(acc, cur)]
        t[key] = (xi, acc)
    return F._like(F.leaders, F._lead, F.trunc, F.vdim, t, False)


def _key_sum(lattice, sums, a, b):
    """The (class, k) of the sum of two exponents with (class, k) a and b;
    sums keeps the split of each sum of two classes."""
    (ca, ka), (cb, kb) = a, b
    s = sums.get((ca, cb))
    if s is None:
        (r1, i1, q1), (r2, i2, q2) = ca, cb
        s = sums[ca, cb] = lattice._coset(
            [x * q2 + y * q1 for x, y in zip(r1, r2)], [x * q2 + y * q1 for x, y in zip(i1, i2)], q1 * q2
        )
    return s[0], tuple(x + y + z for x, y, z in zip(ka, kb, s[1]))


def series_mul(F: ExpPolySeries, G: ExpPolySeries):
    """Convolution of two scalar series over exponent pairs.  Terms whose
    validity cannot be guaranteed at the joint truncation are pruned."""
    if F.vdim != 1 or G.vdim != 1:
        raise ArityError("series_mul multiplies scalar series (vdim 1) only")
    F._check_shape(G)
    trunc = min(F.trunc, G.trunc)
    sums, lead, acc = {}, {}, {}
    for x, a in zip(F.leaders, F._lead):
        for y, b in zip(G.leaders, G._lead):
            lead.setdefault(_key_sum(F.lattice, sums, a, b), tuple(map(add, x, y)))
    for a, (xi, (p,)) in F._t.items():
        for b, (eta, (q,)) in G._t.items():
            key = _key_sum(F.lattice, sums, a, b)
            if key in acc:
                acc[key][1] = acc[key][1] + p * q
            else:
                acc[key] = [tuple(map(add, xi, eta)), p * q]
    # prune exponents whose height below any containing leader exceeds the
    # joint truncation: deeper contributions may be missing.  xi + eta lies
    # below the sum of the leaders above xi and eta, so what stays is in range
    kept = {key: (nu, [pq]) for key, (nu, pq) in acc.items() if max(_depths(lead, key)) <= trunc}
    return F._like(list(lead.values()), list(lead), trunc, 1, kept, False)


def series_split(F: ExpPolySeries, S):
    """Partition the terms by which leader coset contains the exponent.

    S must be pairwise lattice-inequivalent; each exponent of F must lie
    below exactly one member of S.
    """
    owners = {}
    for s in map(_exp_key, S):
        c, k = F.lattice.coset(s)
        if c in owners:
            raise ValueError("coset leaders are lattice equivalent")
        owners[c] = (s, k, {})
    for key, term in F._t.items():
        owner = owners.get(key[0])
        if owner is None or not all(map(le, key[1], owner[1])):
            raise ValueError(f"exponent {term[0]} lies in no given coset")
        owner[2][key] = term
    return {s: F._like([s], [(c, k)], F.trunc, F.vdim, t, True) for c, (s, k, t) in owners.items()}


class RestrictedSeries:
    """A series regrouped along a wall.

    groups maps an outer exponent (the values of xi on the wall basis) to
    the list of original exponents restricting to it.  The inner
    coefficient of each term is the original polynomial with its log
    argument split into wall and complement parts.
    """

    def __init__(self, F: ExpPolySeries, wall_basis):
        self.base = F
        self.wall = [tuple(GQ.of(x) for x in b) for b in wall_basis]
        self.comp = F.space.orth_complement(
            [[x.rational() for x in b] for b in self.wall]
        )
        groups = {}
        for xi in F.terms:
            eta = tuple(F.space.inner(xi, b) for b in self.wall)
            groups.setdefault(eta, []).append(xi)
        self.groups = {eta: sorted(v, key=repr) for eta, v in groups.items()}

    def outer_exponents(self):
        return sorted(self.groups, key=repr)

    def inner_exponent(self, xi):
        """The values of xi on the complement basis."""
        return tuple(self.base.space.inner(xi, w) for w in self.comp)

    def shifted_coeff(self, xi):
        """q_xi with its argument split: a polynomial in 2n variables,
        the wall log part first, evaluated at the sum of the halves."""
        return tuple(p._split() for p in self.base.terms[xi])

    def reassemble(self) -> ExpPolySeries:
        """The series rebuilt from the groups and the split coefficients,
        with the complement half of the split argument set to 0."""
        F = self.base
        n = F.space.dim
        wall_half = [Polynomial.variable(n, i) for i in range(n)] + [Polynomial.zero(n)] * n
        keys = {xi: key for key, (xi, _) in F._t.items()}
        t = {
            keys[xi]: (xi, [q.substitute(wall_half) for q in self.shifted_coeff(xi)])
            for xis in self.groups.values()
            for xi in xis
        }
        return F._like(F.leaders, F._lead, F.trunc, F.vdim, t, True)


def series_restrict(F: ExpPolySeries, wall_basis) -> RestrictedSeries:
    """Group the terms of F by the restriction of their exponents to the
    wall spanned by wall_basis."""
    return RestrictedSeries(F, wall_basis)
