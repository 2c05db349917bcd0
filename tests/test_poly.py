"""Polynomials, differential operators, jets, the Leibniz transfer and
its cocycle property."""

import ast
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from laurcalc import (
    GQ,
    ArityError,
    DiffOp,
    Polynomial,
    Space,
    j_map,
    leibniz_flatten,
    pi_product,
    poly,
    quotient_rule,
    space,
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


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda i: Polynomial(2, {(1, 1): GQ(3), (0, 2): GQ(1)}).deriv(i), id="deriv"),
        pytest.param(lambda i: Polynomial.variable(2, i), id="variable"),
        pytest.param(lambda i: DiffOp.partial(2, i), id="partial"),
    ],
)
@pytest.mark.parametrize("i", [-1, 2, 5])
def test_deriv_refuses_an_index_outside_the_variables(make, i):
    """-1 used to take the last variable and 2 or 5 raised an IndexError;
    each is now a ValueError naming the index, for z_i, d/dz_i and its
    operator alike."""
    with pytest.raises(ValueError, match=f"index {i} out of range for a polynomial in 2 variables"):
        make(i)


def test_zero_polynomial_repr():
    assert repr(Polynomial.zero(2)) == "0"


def test_polynomial_repr():
    p = Polynomial(2, {(2, 1): GQ(1, 2), (0, 1): GQ(0, -1), (0, 0): GQ(3)})
    assert repr(p) == "(3) + (-1*i)*z1 + (1 + 2*i)*z0^2*z1"


def test_diffop_repr():
    u = DiffOp(2, {(2, 0): GQ(1, 2), (0, 1): GQ(0, -1), (0, 0): GQ(3)})
    assert repr(u) == "(3) + (-1*i)D1 + (1 + 2*i)D0^2"
    assert repr(DiffOp(2, {})) == "0"


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


def test_one_space_per_inner_product():
    """Space hands out one live instance per Gram matrix, whatever form its
    entries take, and the instance is immutable."""
    g = Space(2, [[2, 1], [1, 2]])
    assert g is Space(2, [[Fraction(2), 1], [1, "2"]]) is Space(2, [[GQ(2), 1], [GQ(1), Fraction(4, 2)]])
    assert g is not Space(2) and g != Space(2) and {g: 1}[Space(2, [[2, 1], [1, 2]])] == 1
    held = Space(2)
    assert held.subspace([(1, 0), (0, 1)]) is held
    assert Space(3).subspace([(1, 0, 0), (0, 0, 1)]) is held
    for name in ("dim", "_e", "_g", "_entries", "ip", "other"):
        with pytest.raises(AttributeError):
            setattr(g, name, None)
    # ip is a new list on every read, so changing it changes no space
    ip = g.ip
    ip[0][0] = Fraction(7)
    assert g.ip == [[2, 1], [1, 2]] and g.ip is not g.ip


def test_a_live_inner_product_is_checked_once(monkeypatch):
    held = Space(2, [[3, 1], [1, 5]])
    calls = []
    real = space.linalg._eliminate
    monkeypatch.setattr(space.linalg, "_eliminate", lambda *a: calls.append(a) or real(*a))
    assert Space(2, [[Fraction(6, 2), 1], [1, 5]]) is held and calls == []
    Space(2, [[3, 1], [1, 6]])
    assert len(calls) == 1


def test_an_inner_product_is_checked_once_while_it_is_remembered(monkeypatch):
    """A space that dies and comes back is not eliminated again; a matrix
    that fails is eliminated on every try."""
    Space(2, [[5, 2], [2, 7]])
    assert all(sp._g != ((5, 2), (2, 7)) for sp in list(space._SPACES.values()))
    calls = []
    real = space.linalg._eliminate
    monkeypatch.setattr(space.linalg, "_eliminate", lambda *a: calls.append(a) or real(*a))
    Space(2, [[5, 2], [2, 7]])
    assert calls == []
    for _ in range(2):
        with pytest.raises(ValueError, match="positive definite"):
            Space(2, [[2, 3], [3, 2]])
    assert len(calls) == 2


def test_a_space_that_dies_or_fails_is_not_kept():
    def kept(g):
        return any(sp._g == g for sp in list(space._SPACES.values()))

    Space(2, [[7, 1], [1, 7]])
    assert not kept(((7, 1), (1, 7)))
    for _ in range(2):
        with pytest.raises(ValueError, match="positive definite"):
            Space(2, [[1, 2], [2, 1]])
    assert not kept(((1, 2), (2, 1)))


def test_arity_mismatch():
    with pytest.raises(ArityError):
        Polynomial.variable(2, 0) + Polynomial.variable(3, 0)


@pytest.mark.parametrize("v", [[1], [1, 2, 3]])
def test_vector_of_another_length_is_refused(v):
    # never cut to length or padded with zeros
    sp = Space(2)
    calls = [
        lambda: sp.inner(v, [1, 1]),
        lambda: sp.inner([1, 1], v),
        lambda: sp.form_coeffs(v),
        lambda: sp.linear_form(v),
        lambda: sp.subspace([v]),
        lambda: Polynomial.variable(2, 0).shift(v),
        lambda: pi_product(sp, [], v, []),
        lambda: j_map(sp, DiffOp.identity(2), [], [], [], v),
    ]
    for call in calls:
        with pytest.raises(ArityError, match=f"a vector of length {len(v)} in a space of dimension 2"):
            call()


@pytest.mark.parametrize("v", [[1], [1, 2, 3]])
def test_linear_coefficients_of_another_length_are_refused(v):
    # Polynomial.linear and what builds on it; never z0 for [1] or an IndexError for [1, 2, 3]
    p = Polynomial(2, {(1, 0): GQ(1), (0, 1): GQ(1)})
    calls = [
        lambda: Polynomial.linear(2, v),
        lambda: DiffOp.directional(2, v),
        lambda: p.directional(v),
        lambda: p.divide_out(v, most=1),
        lambda: p.divide_by_linear(v),
    ]
    for call in calls:
        with pytest.raises(ArityError, match=f"a vector of length {len(v)} in a space of dimension 2"):
            call()


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


def test_pi_product_at_a_complex_point():
    # prod (<xi, z> - <xi, a>)^d(xi) at GQ points z, a root repeated and a power 0
    sp = Space(2, [[2, 1], [1, 3]])
    X = [(1, 0), (Fraction(1, 2), -1), (1, 0), (0, 1)]
    d = [2, 1, 1, 0]
    a = [GQ(Fraction(1, 3), -2), GQ(-1, Fraction(1, 2))]
    p = pi_product(sp, X, a, d)
    for z in [rand_point(rng, 2) for _ in range(4)]:
        expect = GQ(1)
        for xi, k in zip(X, d):
            expect = expect * (sp.inner(xi, z) - sp.inner(xi, a)) ** k
        assert p.eval(z) == expect


@pytest.mark.parametrize("X, d", [([(1, 0), (0, 1)], [1]), ([(1, 0)], [1, 2])])
def test_pi_product_refuses_a_pole_index_not_parallel_to_the_roots(X, d):
    # never a product over the common prefix only (z0 for the first case)
    with pytest.raises(ValueError, match="pole index must be parallel to the root list"):
        pi_product(Space(2), X, [0, 0], d)


def test_j_map_is_the_same_at_every_base_point():
    # the product through a is built in w = z - a, so the operator does not
    # depend on a; it flattens the product in z at a, as leibniz_flatten does
    sp = Space(2, [[2, 1], [1, 3]])
    X0 = [(Fraction(1), Fraction(-1)), (Fraction(1, 2), Fraction(3))]
    for _ in range(10):
        u = rand_diffop(rng, 2, 3)
        d = [rng.randint(1, 3), rng.randint(1, 3)]
        dl = [rng.randint(0, d[0]), rng.randint(0, d[1])]
        a, b = rand_point(rng, 2), rand_point(rng, 2)
        diff = [hi - lo for hi, lo in zip(d, dl)]
        assert j_map(sp, u, d, dl, X0, a) == j_map(sp, u, d, dl, X0, b)
        assert j_map(sp, u, d, dl, X0, a) == leibniz_flatten(u, pi_product(sp, X0, a, diff), a)


def test_j_map_computes_no_inner_product(monkeypatch):
    # the product through a is built at the base point, so no root is paired
    # with a point: every offset is 0 without being computed
    sp = Space(2, [[2, 1], [1, 3]])
    X0 = [(Fraction(1), Fraction(-1)), (Fraction(1, 2), Fraction(3))]
    u = rand_diffop(rng, 2, 3)
    expect = leibniz_flatten(u, pi_product(sp, X0, [GQ(1, 2), GQ(-3)], [2, 1]), [GQ(1, 2), GQ(-3)])
    calls = []
    real_inner = Space._inner
    monkeypatch.setattr(Space, "_inner", lambda *args: calls.append(args) or real_inner(*args))
    assert j_map(sp, u, [3, 2], [1, 1], X0, [GQ(1, 2), GQ(-3)]) == expect
    assert calls == []


def test_only_the_command_line_flattens_a_multiplier_in_z():
    # the library builds every multiplier it flattens in w = z - a and calls
    # poly._flatten; leibniz_flatten, which shifts a multiplier in z to a,
    # is called by cli only
    for path in sorted(Path(poly.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                assert name != "leibniz_flatten", f"{path.name}:{node.lineno}"


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


def test_negative_exponent_in_a_multi_index_is_refused():
    with pytest.raises(ValueError, match=r"multi-index \(1, -1\) has a negative exponent"):
        Polynomial(2, {(1, -1): 1})


def test_negative_power_raises():
    ell = Polynomial.linear(2, [1, 2], 3)
    with pytest.raises(ValueError, match="negative power"):
        ell**-1
    assert ell**0 == Polynomial.const(2, 1)
    assert ell**2 == ell * ell


def test_terms_are_read_only():
    p = Polynomial(2, {(1, 0): GQ(2), (0, 1): GQ(Fraction(1, 3), 1)})
    u = DiffOp(2, {(2, 0): GQ(-1)})
    for obj in (p, u):
        with pytest.raises(TypeError):
            obj.terms[(5, 5)] = GQ(7)
        with pytest.raises(TypeError):
            del obj.terms[next(iter(obj.terms))]
    assert p == Polynomial(2, {(0, 1): GQ(Fraction(1, 3), 1), (1, 0): GQ(2)})
    assert (5, 5) not in p.terms
    # the view reads like a plain dict
    plain = {(1, 0): GQ(2), (0, 1): GQ(Fraction(1, 3), 1)}
    assert dict(p.terms) == plain and type(dict(p.terms)) is dict
    assert p.terms == plain and plain == p.terms
    assert [p.terms] == [plain]
    assert sorted(p.terms.items()) == [((0, 1), GQ(Fraction(1, 3), 1)), ((1, 0), GQ(2))]
    assert all(type(c) is GQ for c in p.terms.values())
    assert u.terms == {(2, 0): GQ(-1)} and u.symbol().terms == u.terms


# -- the integer kernel against a naive GQ-dict reference --------------------
#
# The reference keeps {multi-index: GQ} dicts without zero coefficients and
# does every operation term by term in GQ arithmetic.


def _ref_clean(terms):
    return {idx: c for idx, c in terms.items() if not c.is_zero()}


def _ref_add(s, t, sign=1):
    out = dict(s)
    for idx, c in t.items():
        out[idx] = out.get(idx, GQ(0)) + c * sign
    return _ref_clean(out)


def _ref_mul(s, t):
    out = {}
    for i1, c1 in s.items():
        for i2, c2 in t.items():
            idx = tuple(a + b for a, b in zip(i1, i2))
            out[idx] = out.get(idx, GQ(0)) + c1 * c2
    return _ref_clean(out)


def _ref_scale(s, c):
    return _ref_clean({idx: v * c for idx, v in s.items()})


def _ref_deriv(s, i):
    out = {}
    for idx, c in s.items():
        if idx[i]:
            new = idx[:i] + (idx[i] - 1,) + idx[i + 1 :]
            out[new] = c * idx[i]
    return _ref_clean(out)


def _ref_truncate(s, order):
    return {idx: c for idx, c in s.items() if sum(idx) <= order}


def _ref_eval(s, point):
    out = GQ(0)
    for idx, c in s.items():
        for x, e in zip(point, idx):
            c = c * x**e
        out = out + c
    return out


def _ref_substitute(s, subs, out_dim):
    out = {}
    for idx, c in s.items():
        term = {(0,) * out_dim: c}
        for sub, e in zip(subs, idx):
            for _ in range(e):
                term = _ref_mul(term, sub)
        out = _ref_add(out, term)
    return out


def _ref_shift(s, a):
    dim = len(a)
    subs = []
    for i, x in enumerate(a):
        unit = tuple(1 if j == i else 0 for j in range(dim))
        subs.append(_ref_clean({unit: GQ(1), (0,) * dim: x}))
    return _ref_substitute(s, subs, dim)


_q = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_gq = st.builds(GQ, _q, _q)


def _terms(dim, most=5, deg=3):
    return st.dictionaries(st.tuples(*[st.integers(0, deg)] * dim), _gq, max_size=most)


@st.composite
def _kernel_case(draw):
    dim = draw(st.integers(1, 3))
    return (
        dim,
        draw(_terms(dim)),
        draw(_terms(dim)),
        draw(_gq),
        draw(st.lists(_gq, min_size=dim, max_size=dim)),
        draw(st.integers(0, dim - 1)),
        draw(st.integers(0, 4)),
    )


@settings(max_examples=50, deadline=None)
@given(_kernel_case())
def test_kernel_matches_reference(case):
    dim, s, t, c, a, i, order = case
    p, q = Polynomial(dim, s), Polynomial(dim, t)
    s, t = _ref_clean(s), _ref_clean(t)
    assert p.terms == s
    assert (p + q).terms == _ref_add(s, t)
    assert (p - q).terms == _ref_add(s, t, -1)
    assert (-p).terms == _ref_scale(s, GQ(-1))
    assert (p * q).terms == _ref_mul(s, t)
    assert p._times(q, order, i).terms == {idx: v for idx, v in _ref_mul(s, t).items() if sum(idx[i:]) <= order}
    assert (p * c).terms == _ref_scale(s, c) == (c * p).terms
    assert p.deriv(i).terms == _ref_deriv(s, i)
    assert p.truncate(order).terms == _ref_truncate(s, order)
    assert p.shift(a).terms == _ref_shift(s, a)
    assert p.eval(a) == _ref_eval(s, a)
    assert p.constant_term() == s.get((0,) * dim, GQ(0))


@st.composite
def _at_zero_case(draw):
    ns, nt = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    return ns, nt, draw(_terms(ns + nt, most=8)), draw(_terms(nt, most=4, deg=2))


@settings(max_examples=30, deadline=None)
@given(_at_zero_case())
def test_at_zero_reads_the_last_variables(case):
    # u in the last nt variables of p at 0 there, against the path it
    # replaces: u embedded by substitution, applied, and tau = 0 substituted
    ns, nt, s, t = case
    p, u = Polynomial(ns + nt, s), DiffOp(nt, t)
    tau = [Polynomial.variable(ns + nt, ns + k) for k in range(nt)]
    at_zero = [Polynomial.variable(ns, j) for j in range(ns)] + [Polynomial.zero(ns)] * nt
    assert u._at_zero(p) == DiffOp.from_symbol(u.symbol().substitute(tau)).apply(p).substitute(at_zero)


def test_at_zero_refuses_a_polynomial_in_fewer_variables_than_the_operator():
    with pytest.raises(ArityError, match="operator/polynomial arity mismatch"):
        DiffOp.partial(2, 1)._at_zero(Polynomial.variable(1, 0))


@st.composite
def _substitution_case(draw):
    dim = draw(st.integers(1, 3))
    out_dim = draw(st.integers(1, 3))
    return (
        dim,
        out_dim,
        draw(_terms(dim, deg=2)),
        [draw(_terms(out_dim, most=3, deg=2)) for _ in range(dim)],
        draw(st.lists(_gq, min_size=out_dim, max_size=out_dim)),
    )


@settings(max_examples=40, deadline=None)
@given(_substitution_case())
def test_substitute_matches_reference(case):
    dim, out_dim, s, subs, point = case
    got = Polynomial(dim, s).substitute([Polynomial(out_dim, t) for t in subs])
    subs = [_ref_clean(t) for t in subs]
    assert got.terms == _ref_substitute(_ref_clean(s), subs, out_dim)
    assert got.eval(point) == _ref_eval(_ref_clean(s), [_ref_eval(t, point) for t in subs])


@settings(max_examples=50, deadline=None)
@given(_kernel_case())
def test_kernel_form_is_canonical(case):
    # the same polynomial by two routes: equal, with equal hashes
    dim, s, t, c, a, _, _ = case
    p, q = Polynomial(dim, s), Polynomial(dim, t)
    routes = [
        (p, Polynomial(dim, p.terms)),
        (p, (p + q) - q),
        (p * q, q * p),
        (p, p.shift(a).shift([-x for x in a])),
        (p * c + q * c, (p + q) * c),
        (p.deriv(0) * q + p * q.deriv(0), (p * q).deriv(0)),
    ]
    if not c.is_zero():
        routes.append((p, (p * c) * (GQ(1) / c)))
    for x, y in routes:
        assert x == y and hash(x) == hash(y)
        assert x.terms == y.terms
    zero = Polynomial.zero(dim)
    assert p - p == zero and hash(p - p) == hash(zero)


def test_equality_reads_the_denominator():
    p = Polynomial.linear(2, [1, 2], 3)
    for c in (Fraction(1, 2), GQ(0, Fraction(1, 3)), GQ(2), GQ(-1)):
        assert p * c != p and DiffOp.from_symbol(p * c) != DiffOp.from_symbol(p)
    assert p * Fraction(1, 2) == Polynomial.linear(2, [Fraction(1, 2), 1], Fraction(3, 2))


def test_diffop_shares_the_kernel():
    for _ in range(20):
        dim = rng.randint(1, 3)
        p = rand_poly(rng, dim, 3)
        u = DiffOp.from_symbol(p)
        assert u.symbol() is p and u.terms == p.terms
        assert DiffOp(dim, p.terms) == u and hash(DiffOp(dim, p.terms)) == hash(u)
        # apply against derivatives taken one coordinate at a time
        q = rand_poly(rng, dim, 4)
        want = Polynomial.zero(dim)
        for gamma, c in u.terms.items():
            want = want + c * q.deriv_multi(gamma)
        assert u.apply(q) == want


# -- the evaluation filter of divide_out --------------------------------------


def _ref_divides(coeffs, const, s):
    """Whether the form divides the polynomial s (a reference dict): s
    vanishes on the hyperplane, that is after z_k -> -(rest)/c_k."""
    dim = len(coeffs)
    k = next(i for i, c in enumerate(coeffs) if not c.is_zero())
    subs = []
    for i in range(dim):
        if i == k:
            root = {(0,) * dim: -const / coeffs[k]}
            for j, c in enumerate(coeffs):
                if j != k:
                    root[tuple(1 if m == j else 0 for m in range(dim))] = -c / coeffs[k]
            subs.append(_ref_clean(root))
        else:
            subs.append({tuple(1 if m == i else 0 for m in range(dim)): GQ(1)})
    return not _ref_substitute(s, subs, dim)


@st.composite
def _division_case(draw):
    dim = draw(st.integers(1, 3))
    coeffs = draw(st.lists(_gq, min_size=dim, max_size=dim).filter(lambda c: any(not x.is_zero() for x in c)))
    return dim, coeffs, draw(_gq), draw(_terms(dim, most=4, deg=2)), draw(st.integers(0, 3))


@settings(max_examples=50, deadline=None)
@given(_division_case(), _gq.filter(lambda c: not c.is_zero()))
def test_filter_never_refuses_a_divisor(case, c):
    dim, coeffs, const, s, k = case
    s = _ref_clean(s)
    assume(s and not _ref_divides(coeffs, const, s))
    q = Polynomial(dim, s)
    ell = Polynomial.linear(dim, coeffs, const)
    assert (ell**k * q).divide_out(coeffs, const) == (q, k)
    if k:
        assert (ell**k * q).divide_by_linear(coeffs, const) == ell ** (k - 1) * q
    assert q.divide_by_linear(coeffs, const) is None
    # the division by c * ell, whatever the scale c of the form
    scaled = [c * x for x in coeffs]
    assert (ell**k * q).divide_out(scaled, c * const) == (q * (1 / c) ** k, k)
    if k:
        assert (ell**k * q).divide_by_linear(scaled, c * const) == ell ** (k - 1) * q * (1 / c)
    assert q.divide_by_linear(scaled, c * const) is None


@st.composite
def _key_form_case(draw):
    """A space with the positive definite Gram matrix A A^T + 1 for a drawn
    A, an int vector key and an offset."""
    dim = draw(st.integers(1, 3))
    a = draw(st.lists(st.lists(_small, min_size=dim, max_size=dim), min_size=dim, max_size=dim))
    gram = [[sum(x * y for x, y in zip(a[i], a[j])) + (i == j) for j in range(dim)] for i in range(dim)]
    key = draw(st.lists(st.integers(-5, 5), min_size=dim, max_size=dim))
    return Space(dim, gram), key, draw(_gq)


@settings(max_examples=60, deadline=None)
@given(_key_form_case())
def test_key_form_is_the_linear_form(case):
    sp, key, offset = case
    assert poly._key_form(sp, key, offset) == sp.linear_form(key, offset)
    assert poly._key_form(sp, key) == sp.linear_form(key)


def test_only_poly_builds_forms_from_int_parts():
    # poly owns the int parts of a linear form: no other module imports or
    # reads _affine or _form
    src = Path(poly.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name == "poly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else []
            names += [node.attr] if isinstance(node, ast.Attribute) else []
            assert not {"_affine", "_form"} & set(names), f"{path.name}:{node.lineno}"


def test_no_product_is_truncated_after_it_is_formed():
    # a truncated product skips the pairs that pass the cap (Polynomial._times):
    # no .truncate(...) in the library has a product in its receiver
    def is_product(node):
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)

    for path in sorted(Path(poly.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "truncate":
                assert not any(map(is_product, ast.walk(node.func.value))), f"{path.name}:{node.lineno}"


def _filter_point(coeffs, const):
    """The point of the hyperplane of the form that the filter evaluates at:
    z_j = j + 2 off the first variable k of the form, and z_k on the
    hyperplane."""
    k = next(i for i, c in enumerate(coeffs) if not c.is_zero())
    point = [GQ(j + 2) for j in range(len(coeffs))]
    rest = const + sum((c * x for j, (c, x) in enumerate(zip(coeffs, point)) if j != k), GQ(0))
    point[k] = -rest / coeffs[k]
    return k, point


@pytest.mark.parametrize("coeffs", [(GQ(2, 1), GQ(-1)), (GQ(0), GQ(3), GQ(1, -2)), (GQ(1), GQ(0), GQ(-2, 1))])
def test_exact_division_decides_when_the_filter_passes(coeffs, monkeypatch):
    # q vanishes at the filter point without the form dividing it, so the
    # filter passes and the exact division must refuse
    dim = len(coeffs)
    const = GQ(Fraction(1, 2), -3)
    k, point = _filter_point(coeffs, const)
    j = next(i for i in range(dim) if i != k)
    ell = Polynomial.linear(dim, coeffs, const)
    q = (Polynomial.variable(dim, j) - point[j]) * (rand_poly(rng, dim, 2) + Polynomial.variable(dim, k))
    assert q.eval(point) == 0
    # free of z_k, a polynomial vanishing at the filter point is refused too
    assert (Polynomial.variable(dim, j) - point[j]).divide_out(coeffs, const) == (Polynomial.variable(dim, j) - point[j], 0)
    assert not _ref_divides(list(coeffs), const, dict(q.terms))
    exact = []
    quotient = poly._exact_quotient
    monkeypatch.setattr(poly, "_exact_quotient", lambda *a: exact.append(quotient(*a)) or exact[-1])
    for n in range(3):
        exact.clear()
        assert (ell**n * q).divide_out(coeffs, const) == (q, n)
        assert len(exact) == n + 1 and exact[-1] is None


@settings(max_examples=50, deadline=None)
@given(_division_case(), _gq)
def test_filter_refuses_without_dividing(case, value):
    # q = (z_k - r) s + value has the value at the filter point, and the
    # form does not divide it: the filter refuses it without a division
    dim, coeffs, const, s, _ = case
    assume(not value.is_zero())
    k, point = _filter_point(coeffs, const)
    ell = Polynomial.linear(dim, coeffs, const)
    assert ell.eval(point) == 0
    calls = []
    quotient = poly._exact_quotient
    poly._exact_quotient = lambda *a: calls.append(a) or quotient(*a)
    try:
        # a drawn value, a purely imaginary and a real one
        for v in (value, GQ(0, 1), GQ(Fraction(-3, 2))):
            q = (Polynomial.variable(dim, k) - point[k]) * (Polynomial(dim, s) + 1) + v
            assert q.eval(point) == v
            assert q.divide_out(coeffs, const) == (q, 0)
            assert q.divide_by_linear(coeffs, const) is None
    finally:
        poly._exact_quotient = quotient
    assert not calls
