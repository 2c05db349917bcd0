"""Polynomials, differential operators, jets, the Leibniz transfer and
its cocycle property."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from laurcalc import (
    GQ,
    ArityError,
    DiffOp,
    Polynomial,
    Space,
    j_map,
    leibniz_flatten,
    pi_product,
    quotient_rule,
)

from _support import rand_diffop, rand_gq, rand_point, rand_poly

rng = random.Random(23)


def test_ring_identities():
    for _ in range(30):
        dim = rng.randint(1, 3)
        a = rand_poly(rng, dim, 3)
        b = rand_poly(rng, dim, 3)
        c = rand_poly(rng, dim, 3)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        pt = rand_point(rng, dim)
        assert (a * b).eval(pt) == a.eval(pt) * b.eval(pt)
        assert (a + b).eval(pt) == a.eval(pt) + b.eval(pt)


def test_shift_eval():
    for _ in range(20):
        dim = rng.randint(1, 3)
        p = rand_poly(rng, dim, 3)
        a = rand_point(rng, dim)
        z = rand_point(rng, dim)
        assert p.shift(a).eval(z) == p.eval([x + y for x, y in zip(z, a)])


def test_substitute_eval():
    for _ in range(20):
        dim = rng.randint(1, 3)
        inner_dim = rng.randint(1, 3)
        p = rand_poly(rng, dim, 2)
        subs = [rand_poly(rng, inner_dim, 2) for _ in range(dim)]
        pt = rand_point(rng, inner_dim)
        assert p.substitute(subs).eval(pt) == p.eval([s.eval(pt) for s in subs])


def test_deriv_product_rule():
    for _ in range(20):
        dim = rng.randint(1, 3)
        i = rng.randint(0, dim - 1)
        a = rand_poly(rng, dim, 3)
        b = rand_poly(rng, dim, 3)
        assert (a * b).deriv(i) == a.deriv(i) * b + a * b.deriv(i)


def test_divide_by_linear():
    p = Polynomial(2, {(1, 0): GQ(1), (0, 1): GQ(-1)})  # x - y
    q = rand_poly(rng, 2, 2)
    prod = p * q
    got = prod.divide_by_linear([Fraction(1), Fraction(-1)])
    assert got == q
    assert Polynomial.const(2, GQ(1)).divide_by_linear([Fraction(1), Fraction(-1)]) is None


def test_divide_out():
    for _ in range(20):
        dim = rng.randint(1, 3)
        coeffs = [rand_gq(rng) for _ in range(dim)]
        if all(c.is_zero() for c in coeffs):
            continue
        const = rand_gq(rng)
        ell = Polynomial.linear(dim, coeffs, const)
        p = rand_poly(rng, dim, 2)
        if p.is_zero():
            continue
        assert (p * ell**3).divide_out(coeffs, const, most=2) == (p * ell, 2)
        q, n = (p * ell**3).divide_out(coeffs, const)
        assert n >= 3 and q * ell**n == p * ell**3
        assert q.divide_by_linear(coeffs, const) is None
    zero = Polynomial.zero(2)
    assert zero.divide_out([1, 0], most=2) == (zero, 2)
    with pytest.raises(ValueError):
        zero.divide_out([1, 0])


def _leading_minors(g):
    """The leading principal minors of g by the Leibniz formula."""
    out = []
    for k in range(1, len(g) + 1):
        det = 0
        for perm in itertools.permutations(range(k)):
            inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
            term = (-1) ** inversions
            for i in range(k):
                term *= g[i][perm[i]]
            det += term
        out.append(det)
    return out


def test_space_rejects_indefinite_inner_product():
    for ip in ([[-1]], [[1, 2], [2, 1]], [[0, 1], [1, 0]], [[2, 1, 0], [1, 1, 0], [0, 0, -3]]):
        with pytest.raises(ValueError, match="positive definite"):
            Space(len(ip), ip)


def test_space_rejects_singular_inner_product():
    for ip in ([[0]], [[1, 1], [1, 1]], [[2, -1, 1], [-1, 2, 1], [1, 1, 2]]):
        with pytest.raises(ValueError, match="positive definite"):
            Space(len(ip), ip)


def test_space_accepts_exactly_the_positive_definite():
    # Sylvester's criterion against minors computed by the Leibniz formula
    for _ in range(300):
        n = rng.randint(1, 3)
        g = [[None] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = Fraction(rng.randint(-2, 6), rng.randint(1, 2))
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if all(m > 0 for m in _leading_minors(g)):
            assert Space(n, g).ip == g
        else:
            with pytest.raises(ValueError, match="positive definite"):
                Space(n, g)


def test_arity_mismatch():
    with pytest.raises(ArityError):
        Polynomial.variable(2, 0) + Polynomial.variable(3, 0)


def test_diffop_apply_composition():
    for _ in range(20):
        dim = rng.randint(1, 3)
        u = rand_diffop(rng, dim, 2)
        v = rand_diffop(rng, dim, 2)
        p = rand_poly(rng, dim, 4)
        assert (u * v).apply(p) == u.apply(v.apply(p))


def test_taylor_jet_matches_derivatives():
    p = rand_poly(rng, 2, 3)
    a = rand_point(rng, 2)
    jet = p.shift(a).truncate(3)
    assert jet.constant_term() == p.eval(a)


def test_leibniz_flatten_defining_identity():
    # flatten(u, p, a) represents phi -> u(p * phi) evaluated at a
    for _ in range(30):
        dim = rng.randint(1, 3)
        u = rand_diffop(rng, dim, 3)
        p = rand_poly(rng, dim, 3)
        phi = rand_poly(rng, dim, 3)
        a = rand_point(rng, dim)
        lhs = leibniz_flatten(u, p, a).apply(phi).eval(a)
        rhs = u.apply(p * phi).eval(a)
        assert lhs == rhs


def test_j_map_cocycle_small():
    sp = Space(2)
    X0 = [(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))]
    for _ in range(25):
        u = rand_diffop(rng, 2, 3)
        d = [rng.randint(1, 3), rng.randint(1, 3)]
        dm = [rng.randint(0, d[0]), rng.randint(0, d[1])]
        dl = [rng.randint(0, dm[0]), rng.randint(0, dm[1])]
        a = rand_point(rng, 2)
        two_step = j_map(sp, j_map(sp, u, d, dm, X0, a), dm, dl, X0, a)
        assert two_step == j_map(sp, u, d, dl, X0, a)


def test_j_map_identity_level():
    sp = Space(1)
    u = rand_diffop(rng, 1, 3)
    assert j_map(sp, u, [2], [2], [(Fraction(1),)], [GQ(0)]) == u


def test_pi_product_value():
    sp = Space(2)
    p = pi_product(sp, [(Fraction(1), Fraction(0))], [GQ(0), GQ(0)], [2])
    assert p == Polynomial(2, {(2, 0): GQ(1)})


_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _forms_with_direction(draw):
    """Real linear forms l_k with powers d_k, and a real direction v."""
    dim = draw(st.integers(1, 3))
    forms = draw(
        st.lists(
            st.tuples(st.lists(_small, min_size=dim, max_size=dim).filter(any), _small, st.integers(1, 3)),
            max_size=3,
        )
    )
    v = draw(st.lists(_small, min_size=dim, max_size=dim))
    return dim, [(Polynomial.linear(dim, c, k), d) for c, k, d in forms], v


@settings(max_examples=60, deadline=None)
@given(_forms_with_direction())
def test_quotient_rule_defining_identity(case):
    # with c_k = d_k * d_v(l_k) and D = prod l_k^d_k: D' * P == Q * D
    dim, forms, v = case
    P, Q = quotient_rule(dim, [(l, GQ(d) * l.directional(v).constant_term()) for l, d in forms])
    D = Polynomial.const(dim, GQ(1))
    for l, d in forms:
        D = D * l**d
    assert D.directional(v) * P == Q * D
