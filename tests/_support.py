"""Shared helpers for the test suite: random generators over the Gaussian
rationals, an independent one-variable Laurent expansion oracle built
from polynomial shifting and power series inversion only, a reference
Gauss-Jordan elimination with exact GQ pivots, the integer kernel as GQ
vectors, the localization of a rational function by iterative Taylor
inversion, one function read over two inner products, the genericity
queries by a lattice solve per pair of classes, and the theorems of the
Weyl layer on every pair of walls of a root system.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

from laurcalc import (
    GQ,
    DiffOp,
    Germ,
    Hyperplane,
    ParabolicData,
    Polynomial,
    RationalFn,
    Space,
    equiv_PQ,
    linalg,
    min_coset_reps,
    rationalfn_germ_at,
    rootsys,
    wq_subgroup,
)


def rand_fraction(rng, num=6, den=4):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_gq(rng, num=6, den=4, complex_ok=True):
    re = rand_fraction(rng, num, den)
    im = rand_fraction(rng, num, den) if complex_ok and rng.random() < 0.4 else Fraction(0)
    return GQ(re, im)


def rand_nonzero_gq(rng, num=6, den=4):
    while True:
        c = rand_gq(rng, num, den)
        if not c.is_zero():
            return c


def rand_poly(rng, dim, deg, nterms=4, complex_ok=True):
    terms = {}
    for _ in range(nterms):
        idx = tuple(rng.randint(0, deg) for _ in range(dim))
        if sum(idx) > deg:
            idx = tuple(0 for _ in range(dim))
        terms[idx] = rand_gq(rng, complex_ok=complex_ok)
    return Polynomial(dim, terms)


def rand_nonzero_poly(rng, dim, deg, nterms=4):
    while True:
        p = rand_poly(rng, dim, deg, nterms)
        if not p.is_zero():
            return p


def rand_diffop(rng, dim, deg, nterms=3):
    terms = {}
    for _ in range(nterms):
        idx = tuple(rng.randint(0, deg) for _ in range(dim))
        if sum(idx) > deg:
            idx = tuple(0 for _ in range(dim))
        terms[idx] = rand_gq(rng)
    return DiffOp(dim, terms)


def rand_direction(rng, dim):
    while True:
        v = tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim))
        if any(v):
            return v


def rand_point(rng, dim):
    return [rand_gq(rng, num=3, den=2) for _ in range(dim)]


# -- one-variable Laurent expansion oracle ---------------------------------


def _shift_coeffs(coeffs, a):
    """Coefficient list of p(a + t) from the list of p(z)."""
    out = [GQ(0)] * max(1, len(coeffs))
    for i, c in enumerate(coeffs):
        for j in range(i + 1):
            out[j] = out[j] + c * GQ(comb(i, j)) * a ** (i - j)
    return out


def _mul_series(u, v, order):
    out = [GQ(0)] * (order + 1)
    for i, a in enumerate(u[: order + 1]):
        for j, b in enumerate(v[: order + 1 - i]):
            out[i + j] = out[i + j] + a * b
    return out


def _inv_series(u, order):
    """Multiplicative inverse of a power series with u[0] != 0."""
    inv0 = GQ(1) / u[0]
    out = [inv0] + [GQ(0)] * order
    for n in range(1, order + 1):
        s = GQ(0)
        for k in range(1, n + 1):
            uk = u[k] if k < len(u) else GQ(0)
            s = s + uk * out[n - k]
        out[n] = -inv0 * s
    return out


def laurent_coefficients(num_coeffs, factors, a, order):
    """Laurent coefficients of num(z) / prod (z - b)^k at z = a.

    factors is a list of (b, k) pairs.  Returns a dict n -> c_n for
    -m <= n <= order, where m is the total pole order at a.
    """
    m = sum(k for b, k in factors if b == a)
    hol = _shift_coeffs(num_coeffs, a)
    hol = hol + [GQ(0)] * (order + m + 1)
    for b, k in factors:
        if b == a:
            continue
        fac = _shift_coeffs([-b, GQ(1)], a)
        inv = _inv_series(fac, order + m)
        for _ in range(k):
            hol = _mul_series(hol, inv, order + m)
    return {n: hol[n + m] for n in range(-m, order + 1) if n + m < len(hol)}


def rational_from_factors(num_coeffs, factors):
    """The same function as a RationalFn over the standard line."""
    sp = Space(1)
    num = Polynomial(1, {(i,): c for i, c in enumerate(num_coeffs)})
    den = {}
    for b, k in factors:
        h = Hyperplane.make((1,), b)
        den[h] = den.get(h, 0) + k
    return RationalFn(sp, num, den)


# -- reference elimination: plain Gauss-Jordan with GQ pivots ---------------


def rref(rows):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns)."""
    m = [[GQ.of(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if not m[i][c].is_zero()), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = GQ(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def kernel(rows, ncols):
    """A basis of the kernel of the matrix given by rows (``ncols`` columns
    when there are none), as GQ vectors: ``linalg._kernel`` over its
    denominator."""
    basis, d = linalg._kernel(linalg._pairs(rows), ncols)
    return [[linalg._gq(x, d) for x in v] for v in basis]


# -- reference localization: iterative Taylor inversion ---------------------


def germ_at_by_iteration(f, a, order):
    """The germ of f at a, as ``rationalfn_germ_at`` computed it before its
    closed-form inverse: 1/(c0 + l0) is summed as (1/c0) sum (-l0/c0)^j,
    one truncated product per step, and multiplied into the jet k times."""
    a = [GQ.of(x) for x in a]
    pole = {}
    jet = f.numerator.shift(a).truncate(order)
    for h, k in f.denominator.items():
        c0 = f.space.inner(h.normal, a) - h.offset
        if c0.is_zero():
            pole[h.normal] = pole.get(h.normal, 0) + k
        else:
            l0 = f.space.linear_form(h.normal, GQ(0))
            inv = Polynomial.zero(f.space.dim)
            t = Polynomial.const(f.space.dim, GQ(1) / c0)
            for _ in range(order + 1):
                inv = inv + t
                t = (t * l0 * (GQ(-1) / c0)).truncate(order)
            for _ in range(k):
                jet = (jet * inv).truncate(order)
    return Germ(f.space, a, pole, jet, order)


def over_two_inner_products():
    """1 / <(1,), z> over the line with <z, w> = 4zw, which is 1/(4z), and
    over the standard line, which is 1/z; then each localized at 0 to order 2."""
    h = Hyperplane.make((1,), 0)
    f4 = RationalFn(Space(1, [[4]]), Polynomial.const(1, 1), {h: 1})
    f1 = RationalFn(Space(1), Polynomial.const(1, 1), {h: 1})
    return f4, f1, rationalfn_germ_at(f4, [0], 2), rationalfn_germ_at(f1, [0], 2)


# -- reference genericity queries: a lattice solve per pair -----------------


def _pairwise_translates(rs, P, Q, S, lam):
    classes = equiv_PQ(rs, P, Q)
    lam = [GQ.of(x) for x in lam]
    S_r = [P.restrict_gq(s) for s in S] or [tuple(GQ(0) for _ in P.basis)]
    return classes, [P.restrict_gq(cl[0].act_gq(lam)) for cl in classes], S_r


def pairwise_generic_witness(rs, P, Q, S, lam):
    """``generic_witness`` by one ``Lattice.coords`` solve for each pair of
    classes i < j and each pair of S entries, in (i, j, i1, i2) order."""
    classes, base, S_r = _pairwise_translates(rs, P, Q, S, lam)
    for i, v1 in enumerate(base):
        for j in range(i + 1, len(base)):
            eta = [a - b for a, b in zip(v1, base[j])]
            for i1, a in enumerate(S_r):
                for i2, b in enumerate(S_r):
                    c = P.lattice.coords([e - (x - y) for e, x, y in zip(eta, a, b)])
                    if c is not None:
                        return (classes[i][0], classes[j][0], (i1, i2, c))
    return None


def pairwise_exponent_classify(rs, P, Q, S, lam, xi):
    """``exponent_classify`` by one ``Lattice.preceq`` for each class and S
    entry."""
    classes, base, S_r = _pairwise_translates(rs, P, Q, S, lam)
    xi = [GQ.of(x) for x in xi]
    candidates = [
        k
        for k, v in enumerate(base)
        if any(P.lattice.preceq(xi, [b + s for b, s in zip(v, s0)]) for s0 in S_r)
    ]
    if not candidates:
        raise ValueError("weight lies in no translated coset")
    if len(candidates) == 1:
        return ("class", candidates[0], classes)
    return ("ambiguous", candidates, classes)


# -- the theorems of the Weyl layer, each by a second method ----------------


def check_weyl_theorems(rs):
    """Assert, for every pair (P, Q) of sets of simple roots of rs, the empty
    set and all of them included, the theorems that W_Q, W^Q and the classes
    of (P, Q) rest on (Humphreys, *Reflection Groups and Coxeter Groups*,
    1990, §1.10; Geck & Pfeiffer 2000, §2.1):

    - W_Q, the centralizer of wall Q, is the group that the reflections in
      Delta_Q generate, built by closure;
    - W^Q is the set of w with w(Delta_Q) positive by ``is_positive``, and
      (s, t) -> st maps W^Q x W_Q bijectively onto W, with l(st) = l(s) + l(t);
    - every class of (P, Q) is left W_P- and right W_Q-invariant."""
    W = rs.weyl_group()
    lengths = {w: w.length for w in W}
    n = len(rs.simple)
    walls = [ParabolicData(rs, c) for r in range(n + 1) for c in combinations(range(n), r)]
    for Q in walls:
        wq = wq_subgroup(rs, Q)
        closure = rootsys._closure([rs.reflection(a) for a in Q.delta_Q], rs.identity())
        assert set(wq) == set(closure), "centralizer and reflection subgroup disagree"
        reps = min_coset_reps(rs, Q)
        positive = [w for w in W if all(rs.is_positive(w.act_gq(a)) for a in Q.delta_Q)]
        assert reps == positive, "W^Q is not the set sending Delta_Q into the positive roots"
        products = [s * t for s in reps for t in wq]
        assert len(set(products)) == len(products), "coset decomposition not injective"
        assert set(products) == set(W), "coset decomposition not surjective"
        assert all(lengths[s * t] == s.length + t.length for s in reps for t in wq), "length additivity fails"
        for P in walls:
            index = {w: k for k, cl in enumerate(equiv_PQ(rs, P, Q)) for w in cl}
            wp = wq_subgroup(rs, P)
            assert all(index[p * w] == index[w] for w in W for p in wp), "classes not left invariant"
            assert all(index[w * q] == index[w] for w in W for q in wq), "classes not right invariant"
