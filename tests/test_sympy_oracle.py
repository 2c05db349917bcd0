"""A second, independent oracle: sympy reads the defining formulas of the
Laurent functionals, the Laurent operators and the restriction of rational
functions on exact rational points, with ``cancel`` and ``subs`` only.

For a summand (a, X, d_max, u) the value on f is sum_gamma c_gamma
d^gamma (pi * f)(a) with pi the product of <xi, w - a>^d_max(xi) over X.
The Laurent operator applies this in the transverse variables tau of the
map z = center + sum_j s_j b_j + sum_k tau_k u_k and reads the result as a
function of s; the diagonal action reads a function on the doubled space
along (center + B s + U tau, center + B s' + U tau) and sets s' = s after.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from laurcalc import (  # noqa: E402
    GQ,
    DiffOp,
    Hyperplane,
    LaurentFunctional,
    LFSummand,
    Polynomial,
    RationalFn,
    Space,
    laurent_operator_apply,
    lf_apply_rational,
    lf_diagonal_apply,
    lf_from_evaluation,
    lf_residue,
    rationalfn_restrict,
    subspace_from,
    transverse_space,
)

from _support import rand_gq, rand_poly  # noqa: E402


def _q(x):
    """A GQ, Fraction or int as a sympy number."""
    x = GQ.of(x)
    return sympy.Rational(x.re.numerator, x.re.denominator) + sympy.I * sympy.Rational(
        x.im.numerator, x.im.denominator
    )


def _inner(space, u, v):
    """<u, v> over the space's Gram matrix, for sympy vectors."""
    ip = space.ip
    return sum(_q(ip[i][j]) * u[i] * v[j] for i in range(space.dim) for j in range(space.dim))


def _expr(f: RationalFn, z):
    """f at the sympy point z, from its numerator terms and the hyperplanes'
    normals and offsets; the library's own forms are not used."""
    num = sum(_q(c) * sympy.prod(x**e for x, e in zip(z, idx)) for idx, c in f.numerator.terms.items())
    den = sympy.prod(
        (_inner(f.space, [_q(x) for x in h.normal], z) - _q(h.offset)) ** k for h, k in f.denominator.items()
    )
    return num / den


def _summand_value(s: LFSummand, space: Space, expr, w):
    """sum c_gamma d^gamma (pi * expr) at w = a, for expr a sympy function of
    the variables w; None when pi * expr is singular at a."""
    a = dict(zip(w, [_q(x) for x in s.support]))
    shifted = [x - a[x] for x in w]
    pi = sympy.prod(_inner(space, [_q(x) for x in xi], shifted) ** k for xi, k in zip(s.x_list, s.d_max))
    g = sympy.cancel(pi * expr)
    if sympy.denom(g).subs(a) == 0:
        return None
    out = 0
    for gamma, c in s.u.terms.items():
        d = g
        for x, e in zip(w, gamma):
            if e:
                d = sympy.diff(d, x, e)
        out += _q(c) * d.subs(a)
    return sympy.expand(out)


def _vec(space, vectors):
    """sum_k t_k v_k over the sympy symbols t_k, as a list of coordinates."""
    return lambda ts: [sum(t * _q(v[i]) for t, v in zip(ts, vectors)) for i in range(space.dim)]


def _operator_case(rng, n, codim):
    """(L, f, Lsub): a functional on the transverse space, its poles along
    the shifted subspace covered by d_max, perhaps a transverse hyperplane
    missing the support point, and hyperplanes crossing the subspace."""
    sp = Space(n) if rng.random() < 0.5 else Space(n, [[2 if i == j else (1 if abs(i - j) == 1 else 0)
                                                       for j in range(n)] for i in range(n)])
    while True:
        normals = [tuple(rng.randint(-1, 2) for _ in range(n)) for _ in range(codim)]
        if all(any(v) for v in normals):
            try:
                Lsub = subspace_from(sp, [Hyperplane.make(v, rng.randint(-2, 2)) for v in normals])
            except ValueError:
                continue
            if len(Lsub.basis_VL) == n - codim:
                break
    perp, tsp = Lsub.normal_basis(), transverse_space(Lsub)
    support = [Fraction(0)] * codim if rng.random() < 0.5 else [Fraction(rng.randint(-2, 2), 2) for _ in range(codim)]
    x_list, d_max, den = [], [], {}
    point = [c + sum((GQ(x) * p[i] for x, p in zip(support, perp)), GQ(0)) for i, c in enumerate(Lsub.center)]
    for _ in range(rng.randint(1, 2)):
        xi = tuple(1 if k == 0 else rng.randint(-1, 1) for k in range(codim))
        if xi in x_list:
            continue
        k = rng.randint(1, 2)
        x_list.append(xi)
        d_max.append(k + rng.randint(0, 1))
        # the ambient normal sum_k xi_k u_k has the form <xi, tau> in tau
        normal = [sum(GQ(x) * p[i] for x, p in zip(xi, perp)) for i in range(n)]
        den[Hyperplane.make(normal, sp.inner(normal, point))] = k
    if rng.random() < 0.5:
        # a transverse hyperplane missing the support point
        normal = [sum(GQ(x) * p[i] for x, p in zip(x_list[0], perp)) for i in range(n)]
        den[Hyperplane.make(normal, sp.inner(normal, point) + 1)] = 1
    wanted = len(den) + rng.randint(1, 2)
    while len(den) < wanted:
        normal = [rng.randint(-2, 2) for _ in range(n)]
        if any(not sp.inner(normal, b).is_zero() for b in Lsub.basis_VL):
            den[Hyperplane.make(normal, rng.randint(-3, 3))] = rng.randint(1, 2)
    terms = {tuple(rng.randint(0, 2 - j) if k == 0 else rng.randint(0, j) for k in range(codim)): rand_gq(rng, 3, 2)
             for j in range(rng.randint(1, 3))}
    L = LaurentFunctional(tsp, [LFSummand(support, x_list, d_max, DiffOp(codim, terms))])
    return L, RationalFn(sp, rand_poly(rng, n, 2, 3), den), Lsub


@pytest.mark.parametrize("case", range(12))
def test_laurent_operator_matches_the_defining_formula(case):
    rng = random.Random(f"operator:{case}")
    n, codim = [(2, 1), (3, 1), (3, 2)][case % 3]
    L, f, Lsub = _operator_case(rng, n, codim)
    out = laurent_operator_apply(L, f, Lsub)
    ss = sympy.symbols(f"s0:{n - codim}")
    ts = sympy.symbols(f"t0:{codim}")
    perp = Lsub.normal_basis()
    checked = 0
    while checked < 2:
        s = [Fraction(rng.randint(-7, 7), rng.randint(1, 3)) for _ in ss]
        if not out.is_regular_at(s):
            continue
        center = [_q(c) + x for c, x in zip(Lsub.center, _vec(f.space, Lsub.basis_VL)([_q(x) for x in s]))]
        z = [c + x for c, x in zip(center, _vec(f.space, perp)(ts))]
        value = _summand_value(L.summands[0], L.space, _expr(f, z), ts)
        if value is None:
            continue  # another hyperplane crosses the support point at this s
        assert sympy.expand(value - _q(out.eval(s))) == 0
        checked += 1


@pytest.mark.parametrize("case", range(9))
def test_lf_apply_rational_matches_the_defining_formula(case):
    rng = random.Random(f"apply:{case}")
    n = 1 + case % 3
    sp = Space(n)
    a = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
    X = [tuple(1 if k == i else rng.randint(-1, 1) * (k > i) for k in range(n)) for i in range(rng.randint(1, n))]
    d_max = [rng.randint(1, 2) for _ in X]
    make = lf_residue if case % 2 else lf_from_evaluation
    L = make(sp, a, X, d_max)
    den = {Hyperplane.make(xi, sp.inner(xi, a)): rng.randint(1, k) for xi, k in zip(X, d_max)}
    while len(den) < len(X) + 1:
        normal = [rng.randint(-2, 2) for _ in range(n)]
        if any(normal) and not Hyperplane.make(normal, 5).contains(sp, a):
            den[Hyperplane.make(normal, 5)] = 1
    f = RationalFn(sp, rand_poly(rng, n, 2, 3), den)
    w = sympy.symbols(f"w0:{n}")
    assert sympy.expand(_summand_value(L.summands[0], sp, _expr(f, w), w) - _q(lf_apply_rational(L, f))) == 0
    if make is lf_from_evaluation:
        # on a function holomorphic at a, evaluation at a
        hol = RationalFn(sp, f.numerator, {h: k for h, k in den.items() if not h.contains(sp, a)})
        assert lf_apply_rational(L, hol) == hol.eval(a)


@pytest.mark.parametrize("case", range(6))
def test_rationalfn_restrict_matches_substitution(case):
    rng = random.Random(f"restrict:{case}")
    n = 2 + case % 2
    codim = 1 + case % (n - 1)
    L, f, Lsub = _operator_case(rng, n, codim)
    sp = f.space
    # every hyperplane but those containing the subspace
    f = RationalFn(sp, f.numerator, {h: k for h, k in f.denominator.items() if not (
        h.contains(sp, Lsub.center) and all(sp.inner(h.normal, b).is_zero() for b in Lsub.basis_VL))})
    out = rationalfn_restrict(f, Lsub)
    ss = sympy.symbols(f"s0:{n - codim}")
    z = [_q(c) + x for c, x in zip(Lsub.center, _vec(sp, Lsub.basis_VL)(ss))]
    assert sympy.cancel(_expr(out, ss) - _expr(f, z)) == 0


def _diagonal_case(rng, n):
    """(L, Phi, Lsub): a functional on the transverse space of a hyperplane
    of Space(n), and Phi over a doubled space of a random inner product
    with poles through the diagonal copy of the support point, perhaps a
    form vanishing on the diagonal off that point, and generic hyperplanes."""
    sp = Space(n)
    Lsub = subspace_from(sp, [Hyperplane.make([rng.randint(0, 2) or 1 for _ in range(n)], rng.randint(-2, 2))])
    perp, tsp = Lsub.normal_basis(), transverse_space(Lsub)
    m = [[rng.randint(-1, 1) for _ in range(2 * n)] for _ in range(2 * n)]
    dsp = Space(2 * n, [[sum(r[i] * r[j] for r in m) + (i == j) for j in range(2 * n)] for i in range(2 * n)])
    a = [Fraction(rng.randint(-2, 2), 2)]
    point = [c + GQ(a[0]) * p for c, p in zip(Lsub.center, perp[0])] * 2
    zero = [GQ(0)] * n
    doubled = [list(b) + zero for b in Lsub.basis_VL] + [zero + list(b) for b in Lsub.basis_VL]
    diagonal = [list(b) * 2 for b in Lsub.basis_VL]
    den, order = {}, 0
    for normals, shift, count in [(doubled, 0, rng.randint(1, 2)), (diagonal, 1, rng.randint(0, 1))]:
        comp = dsp.orth_complement(normals)
        for _ in range(count):
            c = [GQ(rng.randint(-1, 1)) for _ in comp]
            v = [sum((x * w[i] for x, w in zip(c, comp)), GQ(0)) for i in range(2 * n)]
            if any(not x.is_zero() for x in v) and not dsp.inner(v, perp[0] * 2).is_zero():
                k = rng.randint(1, 2)
                den[Hyperplane.make(v, dsp.inner(v, point) + shift)] = k
                order += k * (shift == 0)
    while len(den) < 4:
        den[Hyperplane.make([rng.randint(-2, 2) or 1 for _ in range(2 * n)], rng.randint(-3, 3))] = 1
    kind = rng.randrange(3)
    if kind == 2:
        L = LaurentFunctional(tsp, [LFSummand(a, [(1,)], [order + 1], DiffOp(1, {(1,): GQ(1, 1), (0,): GQ(2)}))])
    else:
        L = (lf_residue, lf_from_evaluation)[kind](tsp, a, [(1,)], [order + rng.randint(0, 1)])
    return L, RationalFn(dsp, rand_poly(rng, 2 * n, 2, 3), den), Lsub


def _diagonal_value(L, Phi, Lsub, s):
    """The defining formula at the exact point s: u applied in tau to
    pi * Phi(center + B s + U tau, center + B s' + U tau) at tau = a, then
    s' = s, with s' = s + (h, ..., h) and h set to 0 after cancelling;
    None when pi * Phi is singular at tau = a there."""
    h = sympy.Symbol("h")
    ts = sympy.symbols(f"t0:{L.space.dim}")
    U = _vec(Lsub.space, Lsub.normal_basis())(ts)
    z = []
    for shift in (0, h):
        B = _vec(Lsub.space, Lsub.basis_VL)([_q(x) + shift for x in s])
        z += [_q(c) + x + u for c, x, u in zip(Lsub.center, B, U)]
    value = _summand_value(L.summands[0], L.space, _expr(Phi, z), ts)
    return None if value is None else sympy.cancel(value).subs(h, 0)


@pytest.mark.parametrize("case", range(6))
def test_diagonal_action_matches_the_defining_formula(case):
    rng = random.Random(f"diagonal:{case}")
    L, Phi, Lsub = _diagonal_case(rng, 2 + case % 2)
    out = lf_diagonal_apply(L, Phi, Lsub)
    checked = 0
    while checked < 2:
        s = [Fraction(rng.randint(-7, 7), rng.randint(1, 3)) for _ in Lsub.basis_VL]
        value = _diagonal_value(L, Phi, Lsub, s) if out.is_regular_at(s) else None
        if value is not None:
            assert sympy.expand(value - _q(out.eval(s))) == 0
            checked += 1


def test_diagonal_action_applies_before_it_restricts():
    # Phi = 1/(x + y - x') along the map is 1/(s - s' + tau): regular in tau
    # while s != s', so the residue is 0; restricting to s = s' first would
    # give 1/tau and the value 1
    Lsub = subspace_from(Space(2), [Hyperplane.make((0, 1), GQ(0))])
    L = lf_residue(transverse_space(Lsub), [0], [(1,)], [1])
    Phi = RationalFn(Space(4), Polynomial.const(4, GQ(1)), {Hyperplane.make((1, 1, -1, 0), GQ(0)): 1})
    out = lf_diagonal_apply(L, Phi, Lsub)
    assert out.numerator.is_zero()
    for s in ([Fraction(3)], [Fraction(-5, 2)]):
        assert _diagonal_value(L, Phi, Lsub, s) == 0
