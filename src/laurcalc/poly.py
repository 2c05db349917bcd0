"""Multivariate polynomials over Q(i), constant-coefficient differential
operators, and the Leibniz-flattening kernel.

A polynomial keeps its coefficients as Python ints over one shared
denominator: a dict from exponent multi-indices (tuples of naturals) to
pairs (a, b) of ints, and a positive int d, so that the coefficient of a
monomial is (a + b*i)/d.  No pair is (0, 0) and gcd(d, every a, every b)
is 1, so every polynomial has exactly one representation, equality
compares ints and hashing needs no GQ.  Sums, products, derivatives,
truncation, substitution, evaluation, the binomial Taylor shift and exact
division by a linear form all work on the ints.  ``terms`` is a read-only
view of the same coefficients as GQ values, built when first read.  A
differential operator sum c_gamma * d^gamma wraps the polynomial of its
symbol, sum c_gamma * z^gamma.  Spaces live in ``space``; a linear form
over one is built here (``_key_form``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import partial
from itertools import chain, product
from math import comb, gcd
from operator import add, sub
from types import MappingProxyType

from .scalars import GQ, ZERO, _mk, _over_lcm, _parts
from .space import ArityError, Space, _sized


# ---------------------------------------------------------------------------
# multi-index and Gaussian-integer helpers
# ---------------------------------------------------------------------------


def factorial_multi(gamma) -> int:
    out = 1
    for g in gamma:
        out *= math.factorial(g)
    return out


def _falling(beta, gamma) -> int:
    """prod beta_i! / (beta_i - gamma_i)!, the factor that d^gamma puts on
    z^beta; 0 unless gamma <= beta."""
    out = 1
    for b, g in zip(beta, gamma):
        if g > b:
            return 0
        if g:
            out *= math.perm(b, g)
    return out


def _powers(xa, xb, xd, m):
    """The numerators of x^0, ..., x^m over the common denominator xd^m,
    for x = (xa + xb*i)/xd: the pairs (xa + xb*i)^j * xd^(m - j)."""
    out = []
    pa, pb = 1, 0
    for j in range(m + 1):
        s = xd ** (m - j)
        out.append((pa * s, pb * s))
        pa, pb = pa * xa - pb * xb, pa * xb + pb * xa
    return out


def _pack(re, im):
    """Int terms from parallel real and imaginary part dicts, zero pairs dropped."""
    return {idx: (a, im[idx]) for idx, a in re.items() if a or im[idx]}


def _affine(dim, pairs, const, d) -> "Polynomial":
    """(sum pairs[i]*z_i + const)/d for int pairs and d > 0."""
    t = {}
    for i, (a, b) in enumerate(pairs):
        if a or b:
            idx = [0] * dim
            idx[i] = 1
            t[tuple(idx)] = (a, b)
    if const[0] or const[1]:
        t[(0,) * dim] = const
    return _reduced(dim, t, d)


def _key_form(space: Space, key, offset=ZERO) -> "Polynomial":
    """The polynomial z -> <key, z> - offset over space for an int vector key."""
    return _affine(space.dim, *space._linear([(x, 0) for x in key], 1, offset))


def _times_forms(p: "Polynomial", space: Space, powers, m) -> "Polynomial":
    """p times <key, tau>^k over {key: k} for int keys, tau the last space.dim
    variables of p, one form at a time and cut at degree m in tau."""
    lo = p.dim - space.dim
    for key, k in powers.items():
        pairs, const, d = space._linear([(x, 0) for x in key], 1)
        form = _affine(p.dim, [(0, 0)] * lo + pairs, const, d)
        for _ in range(k):
            p = p._times(form, m, lo)
    return p


def _add_terms(t, u, s):
    """t + s*u for int term dicts and an int s; t is updated and returned."""
    for idx, (a, b) in u.items():
        prev = t.get(idx)
        if prev is None:
            t[idx] = (a * s, b * s)
        else:
            a, b = prev[0] + a * s, prev[1] + b * s
            if a or b:
                t[idx] = (a, b)
            else:
                del t[idx]
    return t


def _scaled(t, a, b):
    """The int terms t times the Gaussian integer a + b*i != 0."""
    return {idx: (x * a - y * b, x * b + y * a) for idx, (x, y) in t.items()}


def _mul_terms(t1, t2, cap=None, lo=0):
    """The int terms of the product of two polynomials' int terms, over the
    product of their denominators; with a cap, a pair whose degree in the
    variables from lo on passes it is skipped before it is multiplied."""
    re, im = {}, {}
    if cap is not None:
        t2 = sorted(t2.items(), key=lambda term: sum(term[0][lo:]))
        degrees = [sum(i2[lo:]) for i2, _ in t2]
    for i1, (a1, b1) in t1.items():
        pairs = t2.items() if cap is None else t2[: bisect_right(degrees, cap - sum(i1[lo:]))]
        for i2, (a2, b2) in pairs:
            idx = tuple(map(add, i1, i2))
            if idx in re:
                re[idx] += a1 * a2 - b1 * b2
                im[idx] += a1 * b2 + b1 * a2
            else:
                re[idx] = a1 * a2 - b1 * b2
                im[idx] = a1 * b2 + b1 * a2
    return _pack(re, im)


def _value(t, tables):
    """sum (a + b*i) * prod_i tables[i][e_i] over the int terms t, as a pair
    of ints: the value at a point whose coordinates' powers are tabled."""
    re = im = 0
    for idx, (a, b) in t.items():
        for table, e in zip(tables, idx):
            pa, pb = table[e]
            a, b = a * pa - b * pb, a * pb + b * pa
        re += a
        im += b
    return re, im


def _contract(big, small):
    """sum beta!/(beta - gamma)! * c_beta * c_gamma * z^(beta - gamma) over
    beta in big and gamma <= beta in small, as int terms over the product of
    the denominators: d^gamma applied to z^beta, summed."""
    re, im = {}, {}
    for beta, (a1, b1) in big.items():
        for gamma, (a2, b2) in small.items():
            f = _falling(beta, gamma)
            if f:
                idx = tuple(map(sub, beta, gamma))
                re[idx] = re.get(idx, 0) + f * (a1 * a2 - b1 * b2)
                im[idx] = im.get(idx, 0) + f * (a1 * b2 + b1 * a2)
    return _pack(re, im)


def _reduced(dim, t, d) -> "Polynomial":
    """The polynomial with nonzero int pairs t over d > 0, in lowest terms."""
    if not t:
        d = 1
    elif d != 1:
        g = gcd(d, *chain.from_iterable(t.values()))
        if g != 1:
            t = {idx: (a // g, b // g) for idx, (a, b) in t.items()}
            d //= g
    p = _new(Polynomial)
    p.dim = dim
    p._t = t
    p._d = d
    p._view = None
    return p


_new = object.__new__
_SCALARS = (int, Fraction, GQ)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class Polynomial:
    """sum (a + b*i)/d * z^idx over the int terms {idx: (a, b)} and the
    shared denominator d (see the module docstring)."""

    __slots__ = ("dim", "_t", "_d", "_view")

    def __init__(self, dim: int, terms=None):
        terms = terms or {}
        # over the lcm of reduced coefficients the gcd of all the ints is 1
        pairs, self._d = _over_lcm(terms.values())
        self._t = {}
        for idx, (a, b) in zip(terms, pairs):
            if a or b:
                if len(idx) != dim:
                    raise ArityError(f"multi-index {idx} has wrong arity for dim {dim}")
                if any(k < 0 for k in idx):
                    raise ValueError(f"multi-index {idx} has a negative exponent")
                self._t[tuple(idx)] = (a, b)
        self.dim = dim
        self._view = None

    @property
    def terms(self):
        """Read-only {multi-index: GQ coefficient}."""
        view = self._view
        if view is None:
            d = self._d
            view = self._view = MappingProxyType({idx: _mk(a, b, d) for idx, (a, b) in self._t.items()})
        return view

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(dim):
        return _reduced(dim, {}, 1)

    @staticmethod
    def const(dim, c):
        a, b, d = _parts(c)
        return _reduced(dim, {(0,) * dim: (a, b)} if a or b else {}, d)

    @staticmethod
    def variable(dim, i):
        idx = [0] * dim
        idx[i] = 1
        return _reduced(dim, {tuple(idx): (1, 0)}, 1)

    @staticmethod
    def linear(dim, coeffs, const=GQ(0)):
        pairs, d = _over_lcm([*_sized(coeffs, dim), const])
        return _affine(dim, pairs[:-1], pairs[-1], d)

    # -- basic queries -----------------------------------------------

    def is_zero(self):
        return not self._t

    def constant_term(self) -> GQ:
        return self.coefficient((0,) * self.dim)

    def coefficient(self, idx) -> GQ:
        ab = self._t.get(tuple(idx))
        return ZERO if ab is None else _mk(ab[0], ab[1], self._d)

    # -- arithmetic --------------------------------------------------

    def _check(self, other):
        if self.dim != other.dim:
            raise ArityError("polynomial arity mismatch")

    def _sum(self, other, sign):
        """self + sign * other for sign = 1 or -1."""
        if isinstance(other, _SCALARS):
            other = Polynomial.const(self.dim, other)
        self._check(other)
        if not other._t:
            return self
        d1, d2 = self._d, other._d
        g = gcd(d1, d2)
        s1, s2 = d2 // g, sign * (d1 // g)
        t = dict(self._t) if s1 == 1 else {idx: (a * s1, b * s1) for idx, (a, b) in self._t.items()}
        return _reduced(self.dim, _add_terms(t, other._t, s2), d1 * s1)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        return _reduced(self.dim, {idx: (-a, -b) for idx, (a, b) in self._t.items()}, self._d)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            a, b, d = _parts(other)
            return _reduced(self.dim, _scaled(self._t, a, b) if a or b else {}, self._d * d)
        self._check(other)
        return _reduced(self.dim, _mul_terms(self._t, other._t), self._d * other._d)

    __rmul__ = __mul__

    def _times(self, other, cap, lo=0):
        """self * other without the terms of degree above cap in the variables from lo on."""
        return _reduced(self.dim, _mul_terms(self._t, other._t, cap, lo), self._d * other._d)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError(f"negative power {k} of a polynomial")
        out = self if k else Polynomial.const(self.dim, 1)
        for _ in range(k - 1):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dim == other.dim and self._d == other._d and self._t == other._t

    def __hash__(self):
        return hash((self.dim, self._d, frozenset(self._t.items())))

    # -- evaluation / calculus ---------------------------------------

    def _degree_in(self, i) -> int:
        return max((idx[i] for idx in self._t), default=0)

    def eval(self, point) -> GQ:
        point = [_parts(x) for x in point]
        if len(point) != self.dim:
            raise ArityError("point arity mismatch")
        # each z_i^e as a numerator over the denominator of z_i^(degree in z_i)
        d = self._d
        tables = []
        for i, (xa, xb, xd) in enumerate(point):
            m = self._degree_in(i)
            tables.append(_powers(xa, xb, xd, m))
            d *= xd**m
        return _mk(*_value(self._t, tables), d)

    def deriv(self, i) -> "Polynomial":
        if not 0 <= i < self.dim:
            raise ValueError(f"index {i} out of range for a polynomial in {self.dim} variables")
        gamma = [0] * self.dim
        gamma[i] = 1
        return self.deriv_multi(gamma)

    def deriv_multi(self, gamma) -> "Polynomial":
        return _reduced(self.dim, _contract(self._t, {tuple(gamma): (1, 0)}), self._d)

    def directional(self, v) -> "Polynomial":
        """Derivative along the coordinate vector v (no inner product)."""
        return DiffOp.directional(self.dim, v).apply(self)

    def substitute(self, subs) -> "Polynomial":
        """Substitute variable i -> subs[i]; all subs share one dimension.
        A polynomial in no variables is returned as it is."""
        if len(subs) != self.dim:
            raise ArityError("need one substitution per variable")
        if not subs:
            return self
        out_dim = subs[0].dim
        for s in subs:
            if s.dim != out_dim:
                raise ArityError("polynomial arity mismatch")
        one = (0,) * out_dim
        # subs[i]^e as int terms over sd_i^m_i, the denominator of subs[i]
        # to the degree of z_i: tables[i][e] for e >= 1 and scales[i] for e = 0
        d = self._d
        tables, scales = [], []
        for i, s in enumerate(subs):
            m = self._degree_in(i)
            sd = s._d
            table = [None]
            if m:
                f = sd ** (m - 1)
                table.append({idx: (a * f, b * f) for idx, (a, b) in s._t.items()})
            for _ in range(m - 1):
                table.append({idx: (a // sd, b // sd) for idx, (a, b) in _mul_terms(table[-1], s._t).items()})
            tables.append(table)
            scales.append(sd**m)
            d *= sd**m
        re, im = {}, {}
        for idx, (a, b) in self._t.items():
            for scale, e in zip(scales, idx):
                if not e:
                    a, b = a * scale, b * scale
            powers = [table[e] for table, e in zip(tables, idx) if e]
            cur = _scaled(powers[0], a, b) if powers else {one: (a, b)}
            for t in powers[1:]:
                cur = _mul_terms(cur, t)
            for j, (x, y) in cur.items():
                re[j] = re.get(j, 0) + x
                im[j] = im.get(j, 0) + y
        return _reduced(out_dim, _pack(re, im), d)

    def shift(self, a) -> "Polynomial":
        """p(z + a) as a polynomial in z, by the binomial expansion of
        (z_i + a_i)^e one variable at a time."""
        t, d = self._t, self._d
        for i, x in enumerate(_sized(a, self.dim)):
            xa, xb, xd = _parts(x)
            m = max((idx[i] for idx in t), default=0)
            if not m or not (xa or xb):
                continue
            # a_i^j as a numerator over xd^m
            g = _powers(xa, xb, xd, m)
            d *= xd**m
            re, im = {}, {}
            for idx, (ca, cb) in t.items():
                e = idx[i]
                head, tail = idx[:i], idx[i + 1 :]
                for k in range(e + 1):
                    pa, pb = g[e - k]
                    c = comb(e, k)
                    new = head + (k,) + tail
                    re[new] = re.get(new, 0) + c * (ca * pa - cb * pb)
                    im[new] = im.get(new, 0) + c * (ca * pb + cb * pa)
            t = _pack(re, im)
        return self if t is self._t else _reduced(self.dim, t, d)

    def _split(self) -> "Polynomial":
        """p(x + y) in the 2n variables (x, y): z^alpha is the sum over
        j <= alpha of prod C(alpha_i, j_i) x^j y^(alpha - j), and no two
        (alpha, j) give the same monomial."""
        t = {}
        for idx, (a, b) in self._t.items():
            for js in product(*[range(e + 1) for e in idx]):
                c = math.prod(map(comb, idx, js))
                t[js + tuple(map(sub, idx, js))] = (a * c, b * c)
        return _reduced(2 * self.dim, t, self._d)

    def truncate(self, order: int) -> "Polynomial":
        t = {idx: ab for idx, ab in self._t.items() if sum(idx) <= order}
        return self if len(t) == len(self._t) else _reduced(self.dim, t, self._d)

    def divide_by_linear(self, coeffs, const=GQ(0)):
        """Exact quotient by the form sum(coeffs[i]*z_i) + const, or None.

        The polynomial is first evaluated at one fixed point where the form
        vanishes (see ``_form``): a nonzero value proves that the form does
        not divide, and only a zero value goes on to the division."""
        q, n = self.divide_out(coeffs, const, 1)
        return q if n else None

    def divide_out(self, coeffs, const=GQ(0), most=None):
        """(quotient, count): divide by the form sum(coeffs[i]*z_i) + const
        as often as it divides exactly, at most ``most`` times.  The zero
        polynomial divides any number of times, so it needs a bound."""
        return self._divide_out(Polynomial.linear(self.dim, coeffs, const), most)

    def _divide_out(self, ell, most=None):
        """``divide_out`` by the linear polynomial ell."""
        form = _form(ell)
        if most is None and self.is_zero():
            raise ValueError("the zero polynomial has no largest power of a linear factor")
        q, count = self, 0
        while most is None or count < most:
            nxt = _divide(q, form)
            if nxt is None:
                break
            q, count = nxt, count + 1
        return q, count

    def __repr__(self):
        terms = self.terms
        if not terms:
            return "0"
        bits = []
        for idx in sorted(terms):
            mono = "*".join(
                f"z{i}^{e}" if e > 1 else f"z{i}" for i, e in enumerate(idx) if e
            )
            bits.append(f"({terms[idx]}){'*' + mono if mono else ''}")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# exact division by a linear form
# ---------------------------------------------------------------------------


def _form(ell):
    """The linear polynomial l = (sum(C_j*z_j) + E)/D, its int terms the
    pairs C_j and E over D, prepared for division.

    With k the first j where C_k != 0 and N = |C_k|^2,
    l = (C_k/D) (z_k + M/N), where M = (sum_(j != k) C_j z_j + E) conj(C_k)
    is free of z_k, and 1/(C_k/D) = D conj(C_k)/N.  The filter point has
    z_j = j + 2 for j != k and the z_k on which l vanishes.  Returns k, the
    int terms of M, N, the real and imaginary numerators over N of z_k at
    the filter point, and the pair D conj(C_k)."""
    t = ell._t
    lead = max(t, default=None)  # z_k sorts above the later variables and the constant
    if lead is None or not any(lead):
        raise ValueError("not a linear form")
    k = lead.index(1)
    ca, cb = t[lead]
    m, ra, rb = {}, 0, 0
    for idx, (a, b) in t.items():
        if idx != lead:
            x = idx.index(1) + 2 if any(idx) else 1  # the monomial's value at the filter point
            a, b = a * ca + b * cb, b * ca - a * cb
            m[idx] = (a, b)
            ra, rb = ra - a * x, rb - b * x
    return k, m, ca * ca + cb * cb, ra, rb, (ell._d * ca, -ell._d * cb)


def _divide(p, form):
    """p / l for a prepared form l, or None when l does not divide p.  A
    nonzero value at the filter point refuses without dividing."""
    t = p._t
    if not t:
        return p
    k, _, md, ra, rb = form[:5]
    n = p._degree_in(k)
    if not n:
        return None
    # the filter: p at the point z_j = j + 2 (j != k), z_k = (ra + rb*i)/md
    tables = [_powers(ra, rb, md, n) if j == k else _powers(j + 2, 0, 1, p._degree_in(j)) for j in range(p.dim)]
    if any(_value(t, tables)):
        return None
    return _exact_quotient(p, form, n)


def _exact_quotient(p, form, n):
    """p / l by synthetic division in z_k, or None when the remainder is not
    zero; n is the degree of p in z_k.

    Write p = sum P_j z_k^j / d and l = (C_k/D) (z_k + M/N).  Dividing by
    z_k + M/N gives the quotient sum Q_j N^j z_k^j / (d N^(n-1)) with
    Q_(n-1) = P_n and Q_(j-1) = P_j N^(n-j) - M Q_j, and the remainder
    (P_0 N^n - M Q_0) / (d N^n); the quotient times D conj(C_k)/N is p / l."""
    k, mu, md, _, _, (qa, qb) = form
    rows = [{} for _ in range(n + 1)]
    for idx, ab in p._t.items():
        rows[idx[k]][idx[:k] + (0,) + idx[k + 1 :]] = ab
    q = [None] * n
    q[n - 1] = cur = rows[n]
    s = 1
    for j in range(n - 1, -1, -1):
        s *= md
        nxt = {idx: (a * s, b * s) for idx, (a, b) in rows[j].items()}
        _add_terms(nxt, _mul_terms(mu, cur), -1)
        if j:
            q[j - 1] = cur = nxt
        elif nxt:
            return None
    out = {}
    w = 1
    for j, row in enumerate(q):
        for idx, (a, b) in row.items():
            a, b = a * w, b * w
            out[idx[:k] + (j,) + idx[k + 1 :]] = (a * qa - b * qb, a * qb + b * qa)
        w *= md
    return _reduced(p.dim, out, p._d * md**n)


# ---------------------------------------------------------------------------
# constant-coefficient differential operators
# ---------------------------------------------------------------------------


def _op(p: Polynomial) -> "DiffOp":
    """The operator whose symbol is p."""
    u = _new(DiffOp)
    u.dim = p.dim
    u._p = p
    return u


class DiffOp:
    """Sum of c_gamma * d^gamma in the coordinate partials, held as the
    polynomial sum c_gamma * z^gamma of its symbol."""

    __slots__ = ("dim", "_p")

    def __init__(self, dim: int, terms=None):
        self.dim = dim
        try:
            self._p = Polynomial(dim, terms)
        except ArityError:
            raise ArityError("derivative multi-index arity mismatch") from None

    @property
    def terms(self):
        """Read-only {multi-index: GQ coefficient}."""
        return self._p.terms

    @staticmethod
    def identity(dim):
        return _op(Polynomial.const(dim, 1))

    @staticmethod
    def partial(dim, i, power=1):
        idx = [0] * dim
        idx[i] = power
        return DiffOp(dim, {tuple(idx): 1})

    @staticmethod
    def directional(dim, v):
        """The operator of differentiation along the coordinate vector v."""
        return _op(Polynomial.linear(dim, v))

    @staticmethod
    def from_symbol(p: Polynomial) -> "DiffOp":
        return _op(p)

    def symbol(self) -> Polynomial:
        return self._p

    def order(self) -> int:
        return max((sum(idx) for idx in self._p._t), default=0)

    def __sub__(self, other):
        return _op(self._p - other._p)

    def __mul__(self, other):
        """Composition; constant-coefficient operators commute."""
        if isinstance(other, _SCALARS):
            return _op(self._p * other)
        return _op(self._p * other._p)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self._p == other._p

    def __hash__(self):
        return hash(self._p)

    def _at_zero(self, p: Polynomial) -> Polynomial:
        """u in p's last u.dim variables at 0 there, a polynomial in the others:
        sum gamma! c_gamma p_(sigma, gamma) z^sigma over the terms c_gamma d^gamma of u."""
        k = p.dim - self.dim
        if k < 0:
            raise ArityError("operator/polynomial arity mismatch")
        u, re, im = self._p._t, {}, {}
        for idx, (c, e) in p._t.items():
            gamma = idx[k:]
            if gamma in u:
                a, b = u[gamma]
                f, sigma = factorial_multi(gamma), idx[:k]
                re[sigma] = re.get(sigma, 0) + f * (a * c - b * e)
                im[sigma] = im.get(sigma, 0) + f * (a * e + b * c)
        return _reduced(k, _pack(re, im), self._p._d * p._d)

    def apply(self, p: Polynomial) -> Polynomial:
        if p.dim != self.dim:
            raise ArityError("operator/polynomial arity mismatch")
        return _reduced(self.dim, _contract(p._t, self._p._t), self._p._d * p._d)

    def __repr__(self):
        terms = self.terms
        if not terms:
            return "0"
        bits = []
        for idx in sorted(terms):
            mono = "".join(f"D{i}^{e}" if e > 1 else f"D{i}" for i, e in enumerate(idx) if e)
            bits.append(f"({terms[idx]}){mono}")
        return " + ".join(bits)


def quotient_rule(dim, pairs):
    """(P, Q) for (form l_k, scalar c_k) pairs: P = prod l_k and
    Q = sum c_k prod_{j != k} l_j, one pair at a time by the product rule.

    With c_k = d_k * d_v(l_k) this is the quotient rule
    d_v(N / prod l_k^d_k) = (P d_v(N) - Q N) / prod l_k^(d_k + 1).
    """
    P, Q = Polynomial.const(dim, GQ(1)), Polynomial.zero(dim)
    for form, c in pairs:
        P, Q = P * form, Q * form + c * P
    return P, Q


def _inverse_sum(A, B, k, m) -> Polynomial:
    """sum_{j<=m} C(k+j-1, j) B^j A^(m-j), the numerator of (A - B)^(-k) over
    A^(k+m) up to degree m in B, for a polynomial or nonzero scalar A, by
    Horner's rule in A on ints: for A = At/ad and B = Bt/bd, the sum to j
    over (ad bd)^j is N_j = N_(j-1) At bd + C(k+j-1, j) (Bt ad)^j.  A scalar
    A only scales, so order m takes m products."""
    bd = B._d
    if isinstance(A, _SCALARS):
        xa, xb, ad = _parts(A)
        times_a = partial(_scaled, a=xa * bd, b=xb * bd)
    else:
        ad = A._d
        times_a = partial(_mul_terms, t2=_scaled(A._t, bd, 0))
    bt = _scaled(B._t, ad, 0)
    s = power = {(0,) * B.dim: (1, 0)}
    for j in range(1, m + 1):
        power = _mul_terms(power, bt)
        s = _add_terms(times_a(s), power, comb(k + j - 1, j))
    return _reduced(B.dim, s, (ad * bd) ** m)


# ---------------------------------------------------------------------------
# Leibniz flattening and the transfer maps between pole orders
# ---------------------------------------------------------------------------


def _flatten(u: DiffOp, jet: Polynomial) -> DiffOp:
    """The unique operator u' with u'(h)(a) = u(p*h)(a) for all h, from the
    jet of the multiplier p at a in w = z - a, whose coefficient of w^gamma
    is (d^gamma p)(a) / gamma!: by the Leibniz rule, c_beta d^beta puts
    c_beta binom(beta, gamma) (d^gamma p)(a) on d^(beta - gamma)."""
    return _op(_reduced(u.dim, _contract(u._p._t, jet._t), u._p._d * jet._d))


def leibniz_flatten(u: DiffOp, p: Polynomial, a) -> DiffOp:
    """``_flatten`` for a multiplier p in z, shifted to a."""
    if u.dim != p.dim:
        raise ArityError("operator/multiplier arity mismatch")
    return _flatten(u, p.shift(a))


def _pole_product(space: Space, X, d, ap=None) -> Polynomial:
    """The product of <xi, z>^d(xi), or <xi, z - a>^d(xi) for ap = space._vector(a), over
    xi in X, 1 for empty X; ``d`` is a list of naturals parallel to X, another length refused."""
    p = Polynomial.const(space.dim, GQ(1))
    for xi, k in zip(X, d):
        if k:
            xp = space._vector(xi)
            offset = ZERO if ap is None else space._inner(*xp, *ap)
            p = p * _affine(space.dim, *space._linear(*xp, offset)) ** k
    # after the factors, so that a bad root among them is reported first
    if len(X) != len(d):
        raise ValueError("pole index must be parallel to the root list")
    return p


def pi_product(space: Space, X, a, d) -> Polynomial:
    """The product of <xi, z - a>^d(xi) over xi in X (``_pole_product``)."""
    return _pole_product(space, X, d, space._vector(a))


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
    space._vector(a)
    p = _pole_product(space, X0, diff)  # the product through a, in w = z - a
    if u.dim != space.dim:
        raise ArityError("operator/multiplier arity mismatch")
    return _flatten(u, p)
