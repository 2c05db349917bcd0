"""Multivariate polynomials over Q(i), constant-coefficient differential
operators, and the Leibniz-flattening kernel.

A polynomial is a dict from exponent multi-indices (tuples of naturals)
to GQ coefficients; zero coefficients are never stored.  A differential
operator is the same data read as sum of c_gamma * d^gamma.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from . import linalg
from .scalars import GQ


class ArityError(ValueError):
    """Raised when operands live in spaces of different dimension."""


# ---------------------------------------------------------------------------
# ambient space: dimension plus rational inner product
# ---------------------------------------------------------------------------


class Space:
    """Ambient real space: a dimension and a symmetric positive definite
    rational inner product matrix (identity by default)."""

    def __init__(self, dim: int, ip=None):
        self.dim = dim
        if ip is None:
            ip = [[Fraction(1 if i == j else 0) for j in range(dim)] for i in range(dim)]
        self.ip = [[Fraction(x) if not isinstance(x, GQ) else x.rational() for x in row] for row in ip]
        if len(self.ip) != dim or any(len(row) != dim for row in self.ip):
            raise ValueError(f"inner product matrix must be {dim} x {dim}")
        for i in range(dim):
            for j in range(dim):
                if self.ip[i][j] != self.ip[j][i]:
                    raise ValueError("inner product matrix must be symmetric")
        # Sylvester's criterion by Bareiss elimination of the matrix scaled to
        # ints: the k-th pivot is the k-th leading principal minor times e^k
        e = math.lcm(*(x.denominator for row in self.ip for x in row))
        m = [[x.numerator * (e // x.denominator) for x in row] for row in self.ip]
        prev = 1
        for k in range(dim):
            if m[k][k] <= 0:
                raise ValueError(f"inner product matrix must be positive definite (leading minor {k + 1})")
            for i in range(k + 1, dim):
                for j in range(k + 1, dim):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        # the nonzero Gram entries as scalars, converted once
        self._entries = [
            (i, j, GQ(x)) for i, row in enumerate(self.ip) for j, x in enumerate(row) if x
        ]

    def subspace(self, basis) -> "Space":
        """span(basis) in the coordinates of the basis, with the inherited
        inner product."""
        return Space(len(basis), [[self.inner(bi, bj).rational() for bj in basis] for bi in basis])

    def inner(self, u, v) -> GQ:
        u = [GQ.of(x) for x in u]
        v = [GQ.of(x) for x in v]
        s = GQ(0)
        for i, j, g in self._entries:
            s = s + u[i] * g * v[j]
        return s

    def form_coeffs(self, alpha):
        """Coefficients of the linear form z -> <alpha, z>."""
        alpha = [GQ.of(x) for x in alpha]
        out = [GQ(0)] * self.dim
        for i, j, g in self._entries:
            out[j] = out[j] + g * alpha[i]
        return out

    def linear_form(self, alpha, offset=GQ(0)) -> "Polynomial":
        """The polynomial z -> <alpha, z> - offset."""
        c = self.form_coeffs(alpha)
        p = Polynomial.linear(self.dim, c)
        return p - Polynomial.const(self.dim, GQ.of(offset))

    def orth_complement(self, vectors):
        """Basis of the orthogonal complement of span(vectors)."""
        rows = [self.form_coeffs(v) for v in vectors]
        return linalg.nullspace(rows, ncols=self.dim)

    def project_onto(self, v, basis):
        """Orthogonal projection of v onto span(basis)."""
        if not basis:
            return [GQ(0)] * self.dim
        gram = [[self.inner(bi, bj) for bj in basis] for bi in basis]
        rhs = [self.inner(bi, v) for bi in basis]
        coeffs = linalg.solve(gram, rhs)
        out = [GQ(0)] * self.dim
        for c, b in zip(coeffs, basis):
            for i in range(self.dim):
                out[i] = out[i] + c * GQ.of(b[i])
        return out


# ---------------------------------------------------------------------------
# multi-index helpers
# ---------------------------------------------------------------------------


def sub_indices(beta):
    """All gamma with gamma <= beta componentwise."""
    ranges = [range(b + 1) for b in beta]
    return itertools.product(*ranges)


def multi_binom(beta, gamma) -> int:
    out = 1
    for b, g in zip(beta, gamma):
        out *= math.comb(b, g)
    return out


def factorial_multi(gamma) -> int:
    out = 1
    for g in gamma:
        out *= math.factorial(g)
    return out


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class Polynomial:
    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms=None):
        self.dim = dim
        self.terms = {}
        if terms:
            for idx, c in terms.items():
                if type(c) is not GQ:
                    c = GQ.of(c)
                if not c.is_zero():
                    if len(idx) != dim:
                        raise ArityError(f"multi-index {idx} has wrong arity for dim {dim}")
                    self.terms[tuple(idx)] = c

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(dim):
        return Polynomial(dim)

    @staticmethod
    def const(dim, c):
        return Polynomial(dim, {tuple([0] * dim): GQ.of(c)})

    @staticmethod
    def variable(dim, i):
        idx = [0] * dim
        idx[i] = 1
        return Polynomial(dim, {tuple(idx): GQ(1)})

    @staticmethod
    def linear(dim, coeffs, const=GQ(0)):
        terms = {}
        for i, c in enumerate(coeffs):
            c = GQ.of(c)
            if not c.is_zero():
                idx = [0] * dim
                idx[i] = 1
                terms[tuple(idx)] = c
        p = Polynomial(dim, terms)
        const = GQ.of(const)
        if not const.is_zero():
            p = p + Polynomial.const(dim, const)
        return p

    # -- basic queries -----------------------------------------------

    def is_zero(self):
        return not self.terms

    def constant_term(self) -> GQ:
        return self.terms.get(tuple([0] * self.dim), GQ(0))

    def coefficient(self, idx) -> GQ:
        return self.terms.get(tuple(idx), GQ(0))

    # -- arithmetic --------------------------------------------------

    def _check(self, other):
        if self.dim != other.dim:
            raise ArityError("polynomial arity mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GQ)):
            other = Polynomial.const(self.dim, GQ.of(other))
        self._check(other)
        terms = dict(self.terms)
        for idx, c in other.terms.items():
            s = terms.get(idx, GQ(0)) + c
            if s.is_zero():
                terms.pop(idx, None)
            else:
                terms[idx] = s
        return Polynomial(self.dim, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.dim, {idx: -c for idx, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GQ)):
            other = Polynomial.const(self.dim, GQ.of(other))
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GQ)):
            c = GQ.of(other)
            return Polynomial(self.dim, {idx: a * c for idx, a in self.terms.items()})
        self._check(other)
        terms = {}
        for i1, c1 in self.terms.items():
            for i2, c2 in other.terms.items():
                idx = tuple(map(operator.add, i1, i2))
                prev = terms.get(idx)
                terms[idx] = c1 * c2 if prev is None else prev + c1 * c2
        return Polynomial(self.dim, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = Polynomial.const(self.dim, GQ(1))
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    # -- evaluation / calculus ---------------------------------------

    def eval(self, point) -> GQ:
        point = [GQ.of(x) for x in point]
        if len(point) != self.dim:
            raise ArityError("point arity mismatch")
        out = GQ(0)
        for idx, c in self.terms.items():
            v = c
            for i, e in enumerate(idx):
                if e:
                    v = v * point[i] ** e
            out = out + v
        return out

    def deriv(self, i) -> "Polynomial":
        terms = {}
        for idx, c in self.terms.items():
            if idx[i]:
                new = list(idx)
                new[i] -= 1
                terms[tuple(new)] = terms.get(tuple(new), GQ(0)) + c * idx[i]
        return Polynomial(self.dim, terms)

    def deriv_multi(self, gamma) -> "Polynomial":
        p = self
        for i, g in enumerate(gamma):
            for _ in range(g):
                p = p.deriv(i)
        return p

    def directional(self, v) -> "Polynomial":
        """Derivative along the coordinate vector v (no inner product)."""
        out = Polynomial.zero(self.dim)
        for i, vi in enumerate(v):
            vi = GQ.of(vi)
            if not vi.is_zero():
                out = out + vi * self.deriv(i)
        return out

    def substitute(self, subs) -> "Polynomial":
        """Substitute variable i -> subs[i]; all subs share one dimension.
        A polynomial in no variables is returned as it is."""
        if len(subs) != self.dim:
            raise ArityError("need one substitution per variable")
        if not subs:
            return self
        out_dim = subs[0].dim
        out = Polynomial.zero(out_dim)
        # cache powers per variable
        powers = [{0: Polynomial.const(out_dim, GQ(1))} for _ in range(self.dim)]
        for idx, c in self.terms.items():
            term = Polynomial.const(out_dim, c)
            for i, e in enumerate(idx):
                if e:
                    cache = powers[i]
                    if e not in cache:
                        m = max(cache)
                        acc = cache[m]
                        for k in range(m + 1, e + 1):
                            acc = acc * subs[i]
                            cache[k] = acc
                    term = term * cache[e]
            out = out + term
        return out

    def shift(self, a) -> "Polynomial":
        """p(z + a) as a polynomial in z."""
        subs = [
            Polynomial.variable(self.dim, i) + Polynomial.const(self.dim, GQ.of(a[i]))
            for i in range(self.dim)
        ]
        return self.substitute(subs)

    def truncate(self, order: int) -> "Polynomial":
        return Polynomial(
            self.dim, {idx: c for idx, c in self.terms.items() if sum(idx) <= order}
        )

    def divide_by_linear(self, coeffs, const=GQ(0)):
        """Exact quotient by the form sum(coeffs[i]*z_i) + const, or None."""
        coeffs = [GQ.of(c) for c in coeffs]
        const = GQ.of(const)
        k = next((i for i, c in enumerate(coeffs) if not c.is_zero()), None)
        if k is None:
            raise ValueError("not a linear form")
        ck = coeffs[k]
        ell = Polynomial.linear(self.dim, coeffs, const)
        q = Polynomial.zero(self.dim)
        r = self
        while not r.is_zero():
            deg_k = max(idx[k] for idx in r.terms)
            if deg_k == 0:
                return None
            top = {
                tuple(e - (1 if i == k else 0) for i, e in enumerate(idx)): c / ck
                for idx, c in r.terms.items()
                if idx[k] == deg_k
            }
            t = Polynomial(self.dim, top)
            q = q + t
            r = r - ell * t
        return q

    def divide_out(self, coeffs, const=GQ(0), most=None):
        """(quotient, count): divide by the form sum(coeffs[i]*z_i) + const
        as often as it divides exactly, at most ``most`` times.  The zero
        polynomial divides any number of times, so it needs a bound."""
        if most is None and self.is_zero():
            raise ValueError("the zero polynomial has no largest power of a linear factor")
        q, count = self, 0
        while most is None or count < most:
            nxt = q.divide_by_linear(coeffs, const)
            if nxt is None:
                break
            q, count = nxt, count + 1
        return q, count

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for idx in sorted(self.terms):
            mono = "*".join(
                f"z{i}^{e}" if e > 1 else f"z{i}" for i, e in enumerate(idx) if e
            )
            c = self.terms[idx]
            bits.append(f"({c}){'*' + mono if mono else ''}")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# constant-coefficient differential operators
# ---------------------------------------------------------------------------


class DiffOp:
    """Sum of c_gamma * d^gamma in the coordinate partials."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms=None):
        self.dim = dim
        self.terms = {}
        if terms:
            for idx, c in terms.items():
                if type(c) is not GQ:
                    c = GQ.of(c)
                if not c.is_zero():
                    if len(idx) != dim:
                        raise ArityError("derivative multi-index arity mismatch")
                    self.terms[tuple(idx)] = c

    @staticmethod
    def identity(dim):
        return DiffOp(dim, {tuple([0] * dim): GQ(1)})

    @staticmethod
    def partial(dim, i, power=1):
        idx = [0] * dim
        idx[i] = power
        return DiffOp(dim, {tuple(idx): GQ(1)})

    @staticmethod
    def directional(dim, v):
        """The operator of differentiation along the coordinate vector v."""
        terms = {}
        for i, vi in enumerate(v):
            vi = GQ.of(vi)
            if not vi.is_zero():
                idx = [0] * dim
                idx[i] = 1
                terms[tuple(idx)] = vi
        return DiffOp(dim, terms)

    @staticmethod
    def from_symbol(p: Polynomial) -> "DiffOp":
        return DiffOp(p.dim, dict(p.terms))

    def symbol(self) -> Polynomial:
        return Polynomial(self.dim, dict(self.terms))

    def is_zero(self):
        return not self.terms

    def order(self) -> int:
        if not self.terms:
            return 0
        return max(sum(idx) for idx in self.terms)

    def __add__(self, other):
        return DiffOp.from_symbol(self.symbol() + other.symbol())

    def __sub__(self, other):
        return DiffOp.from_symbol(self.symbol() - other.symbol())

    def __neg__(self):
        return DiffOp.from_symbol(-self.symbol())

    def __mul__(self, other):
        """Composition; constant-coefficient operators commute."""
        if isinstance(other, (int, Fraction, GQ)):
            return DiffOp.from_symbol(self.symbol() * GQ.of(other))
        return DiffOp.from_symbol(self.symbol() * other.symbol())

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def apply(self, p: Polynomial) -> Polynomial:
        if p.dim != self.dim:
            raise ArityError("operator/polynomial arity mismatch")
        out = Polynomial.zero(self.dim)
        for gamma, c in self.terms.items():
            out = out + c * p.deriv_multi(gamma)
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for idx in sorted(self.terms):
            mono = "".join(f"D{i}^{e}" if e > 1 else f"D{i}" for i, e in enumerate(idx) if e)
            bits.append(f"({self.terms[idx]}){mono}")
        return " + ".join(bits)


def quotient_rule(dim, pairs):
    """(P, Q) for (form l_k, scalar c_k) pairs: P = prod l_k and
    Q = sum c_k prod_{j != k} l_j.

    With c_k = d_k * d_v(l_k) this is the quotient rule
    d_v(N / prod l_k^d_k) = (P d_v(N) - Q N) / prod l_k^(d_k + 1).
    """
    one = Polynomial.const(dim, GQ(1))
    P, Q = one, Polynomial.zero(dim)
    for k, (form, c) in enumerate(pairs):
        P = P * form
        if not c.is_zero():
            rest = one
            for j, (other, _) in enumerate(pairs):
                if j != k:
                    rest = rest * other
            Q = Q + c * rest
    return P, Q


# ---------------------------------------------------------------------------
# Leibniz flattening and the transfer maps between pole orders
# ---------------------------------------------------------------------------


def leibniz_flatten(u: DiffOp, p: Polynomial, a) -> DiffOp:
    """The unique operator u' with u'(h)(a) = u(p*h)(a) for all h.

    Expansion of the Leibniz rule: contributions are indexed by how many
    derivatives fall on the multiplier p, with exact rational factors.
    """
    if u.dim != p.dim:
        raise ArityError("operator/multiplier arity mismatch")
    ps = p.shift(a)  # coeff of w^gamma is (d^gamma p)(a) / gamma!
    terms = {}
    for beta, c in u.terms.items():
        for gamma in sub_indices(beta):
            pg = ps.terms.get(tuple(gamma))
            if pg is None:
                continue
            # c * binom(beta,gamma) * (d^gamma p)(a) applied as d^(beta-gamma)
            coef = c * GQ(multi_binom(beta, gamma) * factorial_multi(gamma)) * pg
            rest = tuple(b - g for b, g in zip(beta, gamma))
            s = terms.get(rest, GQ(0)) + coef
            terms[rest] = s
    return DiffOp(u.dim, terms)


def pi_product(space: Space, X, a, d) -> Polynomial:
    """The product of <xi, z - a>^d(xi) over xi in X; 1 for empty X.

    ``d`` is a list of naturals parallel to X.
    """
    p = Polynomial.const(space.dim, GQ(1))
    for xi, k in zip(X, d):
        if k:
            form = space.linear_form(xi, space.inner(xi, a))
            p = p * form**k
    return p


def j_map(space: Space, u: DiffOp, d, d_low, X0, a) -> DiffOp:
    """Transfer an operator from pole order d down to d_low.

    Satisfies the cocycle j(d'',d') o j(d',d) = j(d'',d).
    """
    if len(d) != len(X0) or len(d_low) != len(X0):
        raise ArityError("pole index arity mismatch")
    diff = []
    for hi, lo in zip(d, d_low):
        if lo > hi:
            raise ValueError("lower pole index must be componentwise <= upper")
        diff.append(hi - lo)
    p = pi_product(space, X0, a, diff)
    return leibniz_flatten(u, p, a)
