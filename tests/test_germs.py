"""Germ arithmetic against rational function arithmetic, localization,
and restriction to subspaces."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from laurcalc import (
    ArityError,
    GQ,
    Germ,
    Hyperplane,
    Polynomial,
    RationalFn,
    Space,
    germ_add,
    germ_diff,
    germ_mul,
    germ_normalize,
    rationalfn_germ_at,
    rationalfn_restrict,
    subspace_from,
)
from laurcalc import poly

from _support import (
    germ_at_by_iteration,
    laurent_coefficients,
    over_two_inner_products,
    rand_gq,
    rand_nonzero_gq,
    rand_point,
    rand_poly,
    rational_from_factors,
)

rng = random.Random(41)


def _laurent_of_germ_1d(g):
    """Laurent coefficients of a one-dimensional germ, directly."""
    m = g.pole.get((Fraction(1),), 0)
    out = {}
    for idx, c in g.jet.terms.items():
        out[idx[0] - m] = c
    return out



def _valid_upto(g):
    """Largest Laurent index the germ's truncated jet determines."""
    return g.order - sum(g.pole.values())

def _rand_fn_1d(max_pole=3):
    a = rand_gq(rng, 3, 2)
    while True:
        b = rand_gq(rng, 3, 2)
        if b != a:
            break
    num = [rand_gq(rng) for _ in range(4)]
    m = rng.randint(0, max_pole)
    e = rng.randint(0, 2)
    factors = ([(a, m)] if m else []) + ([(b, e)] if e else [])
    return rational_from_factors(num, factors), num, factors, a


def test_localization_matches_oracle():
    for _ in range(40):
        f, num, factors, a = _rand_fn_1d()
        order = 5
        g = germ_normalize(rationalfn_germ_at(f, [a], order))
        want = laurent_coefficients(num, factors, a, order)
        got = _laurent_of_germ_1d(g)
        for n, c in got.items():
            assert c == want.get(n, GQ(0))
        for n in range(min(got, default=0), 2):
            assert got.get(n, GQ(0)) == want.get(n, GQ(0))


def test_mul_consistent_with_functions():
    for _ in range(25):
        f1, n1, fac1, a = _rand_fn_1d(2)
        f2 = rational_from_factors([rand_gq(rng) for _ in range(3)], [(a, rng.randint(0, 2))])
        order = 6
        g = germ_mul(rationalfn_germ_at(f1, [a], order), rationalfn_germ_at(f2, [a], order))
        direct = rationalfn_germ_at(f1 * f2, [a], order - 4)
        gn, dn = germ_normalize(g), germ_normalize(direct)
        gl = _laurent_of_germ_1d(gn)
        dl = _laurent_of_germ_1d(dn)
        hi = min(_valid_upto(gn), _valid_upto(dn))
        for n in range(-4, hi + 1):
            assert gl.get(n, GQ(0)) == dl.get(n, GQ(0))


def test_add_consistent_with_functions():
    for _ in range(25):
        f1, n1, fac1, a = _rand_fn_1d(2)
        f2 = rational_from_factors([rand_gq(rng) for _ in range(3)], [(a, rng.randint(0, 2))])
        order = 6
        g = germ_add(rationalfn_germ_at(f1, [a], order), rationalfn_germ_at(f2, [a], order))
        direct = rationalfn_germ_at(f1 + f2, [a], order - 4)
        gn, dn = germ_normalize(g), germ_normalize(direct)
        gl = _laurent_of_germ_1d(gn)
        dl = _laurent_of_germ_1d(dn)
        hi = min(_valid_upto(gn), _valid_upto(dn))
        for n in range(-4, hi + 1):
            assert gl.get(n, GQ(0)) == dl.get(n, GQ(0))


def test_diff_consistent_with_functions():
    for _ in range(25):
        f, num, factors, a = _rand_fn_1d(2)
        order = 6
        g = germ_diff([GQ(1)], rationalfn_germ_at(f, [a], order))
        direct = rationalfn_germ_at(f.directional_deriv([GQ(1)]), [a], order - 4)
        gn, dn = germ_normalize(g), germ_normalize(direct)
        gl = _laurent_of_germ_1d(gn)
        dl = _laurent_of_germ_1d(dn)
        hi = min(_valid_upto(gn), _valid_upto(dn))
        for n in range(-4, hi + 1):
            assert gl.get(n, GQ(0)) == dl.get(n, GQ(0))


def test_normalize_cancels_shared_factor():
    sp = Space(1)
    jet = Polynomial(1, {(1,): GQ(2), (2,): GQ(3)})  # z(2 + 3z)
    g = Germ(sp, [GQ(0)], {(Fraction(1),): 2}, jet, 4)
    gn = germ_normalize(g)
    assert gn.pole == {(Fraction(1),): 1}
    assert gn.jet == Polynomial(1, {(0,): GQ(2), (1,): GQ(3)})


def test_normalize_zero_jet_cancels_only_a_covered_pole():
    # 0 + O(w^(N+1)) over w^3 is O(w^(N-2)) when N >= 3, and unknown below
    sp = Space(1)
    gn = germ_normalize(Germ(sp, [0], {(1,): 3}, Polynomial.zero(1), 5))
    assert (gn.pole, gn.jet, gn.order) == ({}, Polynomial.zero(1), 2)
    gn = germ_normalize(Germ(sp, [0], {(1,): 3}, Polynomial.zero(1), 3))
    assert (gn.pole, gn.order) == ({}, 0)
    gn = germ_normalize(Germ(sp, [0], {(1,): 3}, Polynomial.zero(1), 2))
    assert (gn.pole, gn.jet, gn.order) == ({(1,): 3}, Polynomial.zero(1), 2)


def test_rationalfn_equality_cross_multiplied():
    sp = Space(1)
    h = Hyperplane.make((1,), GQ(0))
    one = RationalFn(sp, Polynomial.variable(1, 0), {h: 1})
    const = RationalFn(sp, Polynomial.const(1, GQ(1)))
    assert one == const


def test_rationalfn_space_mismatch():
    # the same hyperplane reads 2z - 1 under <z, w> = 2zw and z - 1 under
    # the standard product: 1/(2z - 1) != 1/(z - 1)
    h = Hyperplane.make((1,), 1)
    f = RationalFn(Space(1, [[2]]), Polynomial.const(1, 1), {h: 1})
    g = RationalFn(Space(1), Polynomial.const(1, 1), {h: 1})
    assert f != g
    assert f == RationalFn(Space(1, [[2]]), Polynomial.const(1, 1), {h: 1})
    with pytest.raises(ArityError):
        f + g


def test_germs_over_different_inner_products_do_not_combine():
    """Read in one space, the product would be 1/(16w^2) or 1/w^2 and the
    sum 2/(4w), where the true values are 1/(4w^2) and 5/(4w)."""
    f4, _, a, b = over_two_inner_products()
    other = RationalFn(Space(1), Polynomial.const(1, 1), {Hyperplane.make((1,), -1): 1})
    for combine in (lambda: germ_mul(a, b), lambda: germ_mul(b, a), lambda: germ_add(a, b), lambda: germ_add(b, a),
                    lambda: f4 * other, lambda: other * f4):
        with pytest.raises(ArityError, match="different inner products"):
            combine()
    assert germ_mul(a, a).pole == {(1,): 2}
    # over one inner product the product is taken: 1/(4z) * z = 1/4
    z = RationalFn(f4.space, Polynomial.variable(1, 0))
    assert f4 * z == RationalFn(f4.space, Polynomial.const(1, GQ(Fraction(1, 4))))


def test_rationalfn_restrict_pointwise():
    sp = Space(2)
    h_cut = Hyperplane.make((0, 1), GQ(1))
    L = subspace_from(sp, [h_cut])
    for _ in range(20):
        num = rand_poly(rng, 2, 2)
        h_den = Hyperplane.make((1, 1), GQ(7))
        f = RationalFn(sp, num, {h_den: 1})
        r = rationalfn_restrict(f, L)
        s = [rand_gq(rng)]
        z = L.param_point(s)
        if f.is_regular_at(z) and r.is_regular_at(s):
            assert f.eval(z) == r.eval(s)


_q = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_c = st.builds(GQ, _q, _q)


@st.composite
def _localizations(draw):
    """(f, a, order) in 1-3 variables with orders 0-5: each denominator
    form takes a complex value c0 at a (0 for a pole) and has power 1-3."""
    dim = draw(st.integers(1, 3))
    sp = Space(dim, [[draw(st.integers(1, 3)) if j == i else 0 for j in range(dim)] for i in range(dim)])
    a = [draw(_c) for _ in range(dim)]
    den = {}
    for _ in range(draw(st.integers(1, 3))):
        v = draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any))
        h = Hyperplane.make(v, sp.inner(v, a) - draw(_c))
        den[h] = den.get(h, 0) + draw(st.integers(1, 3))
    num = Polynomial(dim, draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * dim), _c, max_size=4)))
    return RationalFn(sp, num, den), a, draw(st.integers(0, 5))


@settings(max_examples=60, deadline=None)
@given(_localizations())
def test_germ_at_matches_iterative_inversion(case):
    """The closed-form (c0 + l0)^(-k) gives the germ that k products of the
    iteratively inverted 1/(c0 + l0) gave."""
    f, a, order = case
    got, want = rationalfn_germ_at(f, a, order), germ_at_by_iteration(f, a, order)
    assert (got.pole, got.jet, got.order) == (want.pole, want.jet, want.order)


@pytest.mark.parametrize("order", [0, 1, 4])
def test_inverse_sum_builds_only_the_powers_it_uses(order, monkeypatch):
    # (c0 + l0)^(-k) to degree ``order`` reads l0^0 .. l0^order, which take
    # ``order`` products; the scalar c0 only scales
    calls = []
    mul = poly._mul_terms
    monkeypatch.setattr(poly, "_mul_terms", lambda *a: calls.append(a) or mul(*a))
    l0 = poly._key_form(Space(2), (1, 2))
    S = poly._inverse_sum(GQ(3, 1), -l0, 2, order)
    assert len(calls) == order
    # over c0^(k + order), S is the inverse up to degree ``order``
    one = (S * (GQ(1) / GQ(3, 1) ** (2 + order)))._times((l0 + GQ(3, 1)) ** 2, order)
    assert one == Polynomial.const(2, 1)


@pytest.mark.parametrize("order", [0, 1, 4])
def test_inverse_sum_of_a_polynomial_A(order, monkeypatch):
    # A = a(z0) and B = b(z1), as the Laurent operator reads a form along its
    # map: (A - B)^k S = A^(k + order) up to degree ``order`` in z1, from
    # 2 ``order`` products
    calls = []
    mul = poly._mul_terms
    monkeypatch.setattr(poly, "_mul_terms", lambda *a, **kw: calls.append(a) or mul(*a, **kw))
    A = Polynomial.linear(2, [GQ(2, -1), 0], GQ(Fraction(1, 3)))
    B = Polynomial.linear(2, [0, GQ(Fraction(-3, 2), 1)])
    S = poly._inverse_sum(A, B, 3, order)
    assert len(calls) == 2 * order
    assert ((A - B) ** 3)._times(S, order, 1) == A ** (3 + order)


def test_pole_keys_are_int_tuples_equal_to_fraction_tuples():
    sp = Space(2)
    f = RationalFn(sp, Polynomial.const(2, 1), {Hyperplane.make((Fraction(-2, 3), Fraction(4, 3)), 0): 2})
    g = rationalfn_germ_at(f, [0, 0], 3)
    assert g.pole == {(Fraction(1), Fraction(-2)): 2}
    assert all(type(x) is int for xi in g.pole for x in xi)
    assert hash((1, -2)) == hash((Fraction(1), Fraction(-2)))


@pytest.mark.parametrize("build", [
    lambda sp, jet: Germ(sp, [0], {}, jet, -1),
    lambda sp, jet: rationalfn_germ_at(RationalFn(sp, jet), [0], -1),
])
def test_negative_jet_order_is_refused(build):
    with pytest.raises(ValueError, match="order must be nonnegative, got -1"):
        build(Space(1), Polynomial.const(1, 1))


@pytest.mark.parametrize("base, pole, n", [
    pytest.param([0], {}, 1, id="base-1"),
    pytest.param([0, 0, 0], {}, 3, id="base-3"),
    pytest.param([0, 0], {(1,): 1}, 1, id="pole-1"),
    pytest.param([0, 0], {(1, 0, 0): 2}, 3, id="pole-3"),
    pytest.param([0, 0], {(1,): 0}, 1, id="pole-1-of-order-0"),
])
def test_germ_refuses_a_base_or_pole_direction_of_another_length(base, pole, n):
    with pytest.raises(ArityError, match=f"a vector of length {n} in a space of dimension 2"):
        Germ(Space(2), base, pole, Polynomial.const(2, 1), 3)


def test_germ_refuses_a_jet_of_another_dimension():
    with pytest.raises(ArityError, match="a jet in 1 variables in a space of dimension 2"):
        Germ(Space(2), [0, 0], {}, Polynomial.const(1, 1), 3)


def test_rationalfn_refuses_a_denominator_normal_of_another_length():
    with pytest.raises(ArityError, match="a vector of length 1 in a space of dimension 2"):
        RationalFn(Space(2), Polynomial.const(2, 1), {Hyperplane.make((1,), 0): 1})


def test_rationalfn_repr():
    sp = Space(2)
    num = Polynomial(2, {(1, 0): GQ(2), (0, 0): GQ(1, -1)})
    f = RationalFn(sp, num, {Hyperplane.make((1, -1), GQ(1)): 2, Hyperplane.make((0, 1), GQ(0)): 1})
    assert repr(f) == "[(1 - 1*i) + (2)*z0] / [((-1) + (-1)*z1 + (1)*z0)^2 * ((1)*z1)^1]"
    assert repr(RationalFn(sp, Polynomial.const(2, GQ(3)))) == "(3)"
