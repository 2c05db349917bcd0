"""Truncated exponential polynomial series: finite sums a^xi * q_xi(log a)
with exponents confined to finitely many downward lattice cosets, with
formal differentiation, convolution products, splitting, and the
regrouping of exponents along a wall.

Exponents are vectors paired with directions through the ambient inner
product: xi(H) = <xi, H>.  Coefficients are vectors of polynomials in the
logarithmic coordinates.
"""

from __future__ import annotations

from .poly import ArityError, DiffOp, Polynomial, Space
from .rootsys import Lattice
from .scalars import GQ


def _exp_key(xi):
    return tuple(GQ.of(x) for x in xi)


def _heights(lattice, leaders, xi):
    """The lattice heights of xi below each leader it lies below."""
    hs = (lattice.height(xi, lead) for lead in leaders)
    return [h for h in hs if h is not None]


class ExpPolySeries:
    """A finite truncated series.

    terms maps an exponent to a tuple of coefficient polynomials (one per
    coordinate of the value space).  Every exponent must lie within
    lattice height <= trunc below one of the leaders.  ``lattice`` is the
    ``Lattice`` of delta; a series derived from another shares it.
    """

    def __init__(self, space: Space, delta, leaders, trunc, vdim, terms):
        delta = [tuple(x) for x in delta]
        self._setup(space, delta, Lattice(delta, space.dim), leaders, trunc, vdim, terms)

    def _like(self, leaders, trunc, vdim, terms):
        """A series over the space and delta of self, sharing its lattice."""
        out = ExpPolySeries.__new__(ExpPolySeries)
        out._setup(self.space, self.delta, self.lattice, leaders, trunc, vdim, terms)
        return out

    def _setup(self, space, delta, lattice, leaders, trunc, vdim, terms):
        self.space = space
        self.delta = delta
        self.lattice = lattice
        self.leaders = [_exp_key(x) for x in leaders]
        self.trunc = int(trunc)
        self.vdim = int(vdim)
        self.terms = {}
        for xi, polys in dict(terms).items():
            xi = _exp_key(xi)
            polys = tuple(polys)
            if len(polys) != self.vdim:
                raise ArityError("coefficient vector has wrong length")
            for p in polys:
                if p.dim != space.dim:
                    raise ArityError("coefficient polynomial arity mismatch")
            if all(p.is_zero() for p in polys):
                continue
            if self._height(xi) is None:
                raise ValueError(f"exponent {xi} outside the truncated cosets")
            self.terms[xi] = polys

    def _height(self, xi):
        """Smallest lattice height of xi below a leader within trunc."""
        return min(
            (h for h in _heights(self.lattice, self.leaders, xi) if h <= self.trunc),
            default=None,
        )

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if (
            self.space.dim != other.space.dim
            or self.vdim != other.vdim
            or self.delta != other.delta
        ):
            raise ArityError("series shapes differ")
        terms = {k: list(v) for k, v in self.terms.items()}
        for xi, polys in other.terms.items():
            if xi in terms:
                terms[xi] = [a + b for a, b in zip(terms[xi], polys)]
            else:
                terms[xi] = list(polys)
        leaders = list(dict.fromkeys(self.leaders + other.leaders))
        return self._like(leaders, min(self.trunc, other.trunc), self.vdim, terms)

    def scale(self, c):
        c = GQ.of(c)
        terms = {xi: [p * c for p in polys] for xi, polys in self.terms.items()}
        return self._like(self.leaders, self.trunc, self.vdim, terms)

    def __eq__(self, other):
        if not isinstance(other, ExpPolySeries):
            return NotImplemented
        return (
            self.space.dim == other.space.dim
            and self.vdim == other.vdim
            and self.terms == {k: tuple(v) for k, v in other.terms.items()}
        )

    def __repr__(self):
        bits = [f"a^{xi} * {polys}" for xi, polys in sorted(self.terms.items(), key=repr)]
        return " + ".join(bits) if bits else "0"


def series_exponents(F: ExpPolySeries):
    """The exponent set and its maximal elements in the lattice order."""
    exps = sorted(F.terms, key=repr)
    leading = [
        xi
        for xi in exps
        if not any(
            eta != xi and F.lattice.preceq(xi, eta) for eta in exps
        )
    ]
    return exps, leading


def series_diffop(u: DiffOp, F: ExpPolySeries) -> ExpPolySeries:
    """Term-by-term action: a coordinate direction H sends q to
    xi(H)q + dq/dH on the a^xi term."""
    if u.dim != F.space.dim:
        raise ArityError("operator arity mismatch")
    n = F.space.dim
    terms = {}
    for xi, polys in F.terms.items():
        acc = [Polynomial.zero(n) for _ in range(F.vdim)]
        for gamma, c in u.terms.items():
            cur = list(polys)
            for i, g in enumerate(gamma):
                lam = F.space.inner(xi, [GQ(1) if j == i else GQ(0) for j in range(n)])
                for _ in range(g):
                    cur = [lam * p + p.deriv(i) for p in cur]
            acc = [a + c * p for a, p in zip(acc, cur)]
        terms[xi] = acc
    return F._like(F.leaders, F.trunc, F.vdim, terms)


def series_mul(F: ExpPolySeries, G: ExpPolySeries):
    """Convolution of two scalar series over exponent pairs.  Terms whose
    validity cannot be guaranteed at the joint truncation are pruned."""
    if F.space.dim != G.space.dim or F.delta != G.delta:
        raise ArityError("series shapes differ")
    if F.vdim != 1 or G.vdim != 1:
        raise ArityError("series_mul multiplies scalar series (vdim 1) only")
    trunc = min(F.trunc, G.trunc)
    leaders = []
    for x in F.leaders:
        for y in G.leaders:
            key = tuple(a + b for a, b in zip(x, y))
            if key not in leaders:
                leaders.append(key)
    terms = {}
    for xi, (p,) in F.terms.items():
        for eta, (q,) in G.terms.items():
            nu = tuple(a + b for a, b in zip(xi, eta))
            terms[nu] = terms[nu] + p * q if nu in terms else p * q
    # prune exponents whose height below any containing leader exceeds
    # the joint truncation: deeper contributions may be missing
    kept = {}
    for nu, pq in terms.items():
        hs = _heights(F.lattice, leaders, nu)
        if hs and max(hs) <= trunc:
            kept[nu] = [pq]
    return F._like(leaders, trunc, 1, kept)


def series_split(F: ExpPolySeries, S):
    """Partition the terms by which leader coset contains the exponent.

    S must be pairwise lattice-inequivalent; each exponent of F must lie
    below exactly one member of S.
    """
    S = [_exp_key(s) for s in S]
    for i, s1 in enumerate(S):
        for s2 in S[i + 1 :]:
            if F.lattice.equiv(s1, s2):
                raise ValueError("coset leaders are lattice equivalent")
    out = {}
    for s in S:
        out[s] = {}
    for xi, polys in F.terms.items():
        owners = [s for s in S if F.lattice.preceq(xi, s)]
        if not owners:
            raise ValueError(f"exponent {xi} lies in no given coset")
        out[owners[0]][xi] = polys
    return {s: F._like([s], F.trunc, F.vdim, terms) for s, terms in out.items()}


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
        n = self.base.space.dim
        subs = [
            Polynomial.variable(2 * n, i) + Polynomial.variable(2 * n, n + i)
            for i in range(n)
        ]
        return tuple(p.substitute(subs) for p in self.base.terms[xi])

    def reassemble(self) -> ExpPolySeries:
        """The series rebuilt from the groups and the split coefficients,
        with the complement half of the split argument set to 0."""
        F = self.base
        n = F.space.dim
        wall_half = [Polynomial.variable(n, i) for i in range(n)] + [Polynomial.zero(n)] * n
        terms = {
            xi: [q.substitute(wall_half) for q in self.shifted_coeff(xi)]
            for xis in self.groups.values()
            for xi in xis
        }
        return F._like(F.leaders, F.trunc, F.vdim, terms)


def series_restrict(F: ExpPolySeries, wall_basis) -> RestrictedSeries:
    """Group the terms of F by the restriction of their exponents to the
    wall spanned by wall_basis."""
    return RestrictedSeries(F, wall_basis)
