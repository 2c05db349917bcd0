"""End-to-end acceptance suite.

Ten exact, oracle-backed checks covering the transfer cocycle, residue
extraction, Laurent operators, push-forward, the module actions, the
annihilator construction, Weyl group regressions, genericity, the
restriction equivalence and the series algebra.  Every comparison is
exact; there are no tolerances.  Each test prints a single pass line.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, product
from math import factorial

from laurcalc import (
    GQ,
    DiffOp,
    ExpPolySeries,
    Hyperplane,
    LaurentFunctional,
    LaurentOrderError,
    LFSummand,
    ParabolicData,
    Polynomial,
    RationalFn,
    Space,
    builtin_system,
    canonical_normal,
    double_cosets,
    equiv_PQ,
    generic_witness,
    germ_constant,
    j_map,
    laurent_operator_apply,
    lf_annihilator_witness,
    lf_apply,
    lf_apply_rational,
    lf_diff_action,
    lf_mul_action,
    lf_pullback_fn,
    lf_pushforward,
    lf_residue,
    min_coset_reps,
    rationalfn_germ_at,
    series_diffop,
    series_mul,
    series_restrict,
    series_split,
    subspace_from,
    transverse_space,
    wq_subgroup,
)
from laurcalc import linalg

from _support import (
    laurent_coefficients,
    rand_diffop,
    rand_gq,
    rand_point,
    rand_poly,
    rational_from_factors,
)


def _report(name):
    print(f"PASS {name}")


# -- 1: transfer cocycle ---------------------------------------------------


def test_criterion_01_j_cocycle():
    rng = random.Random(101)
    start = time.time()
    done = 0
    while done < 500:
        dim = rng.randint(1, 3)
        sp = Space(dim)
        nroots = rng.randint(1, 3)
        roots = []
        for _ in range(nroots):
            while True:
                v = tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim))
                if any(v):
                    break
            c, _ = canonical_normal(v)
            if c not in roots:
                roots.append(c)
        k = len(roots)
        u = rand_diffop(rng, dim, 4)
        d = [rng.randint(0, 3) for _ in range(k)]
        dm = [rng.randint(0, x) for x in d]
        dl = [rng.randint(0, x) for x in dm]
        a = rand_point(rng, dim)
        two = j_map(sp, j_map(sp, u, d, dm, roots, a), dm, dl, roots, a)
        assert two == j_map(sp, u, d, dl, roots, a)
        done += 1
    elapsed = time.time() - start
    assert elapsed < 10, f"cocycle check took {elapsed:.1f}s"
    _report("criterion 1: j-map cocycle, 500 instances")


# -- 2: one-variable residue oracle ----------------------------------------


def test_criterion_02_residue_oracle():
    rng = random.Random(102)
    sp = Space(1)
    done = 0
    while done < 100:
        a = rand_gq(rng, 3, 2)
        b = rand_gq(rng, 3, 2)
        if b == a:
            continue
        num = [rand_gq(rng) for _ in range(rng.randint(1, 5))]
        m = rng.randint(1, 3)
        e = rng.randint(0, 2)
        factors = [(a, m)] + ([(b, e)] if e else [])
        f = rational_from_factors(num, factors)
        coeffs = laurent_coefficients(num, factors, a, 6)
        k = rng.randint(m, m + 1)
        j = rng.randint(0, 2)
        u = DiffOp.partial(1, 0, j) if j else DiffOp.identity(1)
        L = LaurentFunctional(sp, [LFSummand([a], [(1,)], [k], u)])
        g = rationalfn_germ_at(f, [a], j + k + 2)
        got = lf_apply(L, g)
        want = GQ(factorial(j)) * coeffs.get(j - k, GQ(0))
        assert got == want
        done += 1
    _report("criterion 2: residue functionals vs independent Laurent oracle, 100 germs")


# -- 3: Laurent operator pointwise identity --------------------------------


def _transverse_slice(f, Lsub, s):
    """f restricted to the transverse slice through the point of Lsub with
    coordinates s, as a rational function of the transverse coordinates.

    Returns None when some denominator factor degenerates at s."""
    space = f.space
    perp = Lsub.normal_basis()
    m = len(perp)
    tsp = transverse_space(Lsub)
    pt = Lsub.param_point(s)
    subs = [
        Polynomial.linear(m, [GQ.of(perp[k][i]) for k in range(m)], pt[i])
        for i in range(space.dim)
    ]
    num = f.numerator.substitute(subs)
    den = {}
    for h, k in f.denominator.items():
        ft = h.form(space).substitute(subs)
        lin = [ft.coefficient(tuple(1 if j == t else 0 for j in range(m))) for t in range(m)]
        const = ft.constant_term()
        if all(c.is_zero() for c in lin):
            if const.is_zero():
                return None
            num = num * (GQ(1) / const) ** k
            continue
        beta = linalg.solve([[GQ(x) for x in row] for row in tsp.ip], lin)
        _, scal = canonical_normal([x.rational() for x in beta])
        hp = Hyperplane.make([x.rational() for x in beta], -const)
        num = num * (GQ(1) / GQ(scal)) ** k
        den[hp] = den.get(hp, 0) + k
    return RationalFn(tsp, num, den)


def test_criterion_03_operator_pointwise():
    rng = random.Random(103)
    done = 0
    while done < 25:
        n = rng.randint(2, 3)
        sp = Space(n)
        codim = rng.randint(1, n - 1)
        # defining hyperplanes of the subspace
        normals = []
        while len(normals) < codim:
            v = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
            if not any(v):
                continue
            c, _ = canonical_normal(v)
            if c in [h[0] for h in normals]:
                continue
            if linalg.rank([[GQ(x) for x in r] for r, _ in normals] + [[GQ(x) for x in c]]) == len(
                normals
            ) + 1:
                normals.append((c, rand_gq(rng, 2, 2)))
        defining = [Hyperplane.make(nv, off) for nv, off in normals]
        try:
            Lsub = subspace_from(sp, defining)
        except ValueError:
            continue
        tsp = transverse_space(Lsub)
        # denominator: the defining hyperplanes plus an extra oblique one
        den = {}
        powers = {}
        for h in defining:
            powers[h] = rng.randint(1, 2)
            den[h] = powers[h]
        extra = Hyperplane.make(
            tuple(Fraction(rng.randint(-2, 2)) if i else Fraction(1) for i in range(n)),
            rand_gq(rng, 3, 1) + GQ(5),
        )
        if extra not in den and rng.random() < 0.7:
            den[extra] = 1
        f = RationalFn(sp, rand_poly(rng, n, 2), den)
        # the functional must cover the pulled-back pole of each defining
        # hyperplane; find those transverse directions
        probe = _transverse_slice(f, Lsub, [GQ(0)] * (n - codim))
        x_list = []
        d_max = []
        if probe is None:
            continue
        for h, k in probe.cancel().denominator.items():
            if h.offset.is_zero():
                x_list.append(h.normal)
                d_max.append(k + rng.randint(0, 1))
        u = rand_diffop(rng, codim, 2)
        L = LaurentFunctional(tsp, [LFSummand([GQ(0)] * codim, x_list, d_max, u)])
        try:
            out = laurent_operator_apply(L, f, Lsub)
        except LaurentOrderError:
            continue
        checked = 0
        attempts = 0
        while checked < 20 and attempts < 200:
            attempts += 1
            s = [rand_gq(rng, 4, 2) for _ in range(n - codim)]
            slice_fn = _transverse_slice(f, Lsub, s)
            if slice_fn is None:
                continue
            # the slice must keep its poles at the origin only where the
            # functional expects them
            try:
                rhs = lf_apply_rational(L, slice_fn)
            except LaurentOrderError:
                continue
            if not out.is_regular_at(s):
                continue
            assert out.eval(s) == rhs
            checked += 1
        assert checked == 20
        done += 1
    _report("criterion 3: Laurent operator pointwise identity, 25 x 20 points")


# -- 4: push-forward -------------------------------------------------------


def _axis_embedding(rng, n0, n):
    idx = sorted(rng.sample(range(n), n0))
    return [[Fraction(1) if j < n0 and idx[j] == i else Fraction(0) for j in range(n0)] for i in range(n)]


_SKEWS = [
    (1, 2, [[Fraction(3, 5)], [Fraction(4, 5)]]),
    (1, 2, [[Fraction(5, 13)], [Fraction(12, 13)]]),
    (2, 3, [
        [Fraction(3, 5), Fraction(-4, 5)],
        [Fraction(4, 5), Fraction(3, 5)],
        [Fraction(0), Fraction(0)],
    ]),
]


def test_criterion_04_pushforward():
    rng = random.Random(104)
    done = 0
    while done < 100:
        if rng.random() < 0.5:
            n0 = rng.randint(1, 2)
            n = rng.randint(n0 + 1, 3)
            iota = _axis_embedding(rng, n0, n)
        else:
            n0, n, iota = _SKEWS[rng.randrange(len(_SKEWS))]
        sp0 = Space(n0)
        sp = Space(n)
        a0 = rand_point(rng, n0)
        while True:
            xi0 = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n0))
            if any(xi0):
                break
        xi0, _ = canonical_normal(xi0)
        d = rng.randint(1, 2)
        u = rand_diffop(rng, n0, 2)
        L0 = LaurentFunctional(sp0, [LFSummand(a0, [xi0], [d], u)])
        L = lf_pushforward(iota, L0, sp)
        # ambient test function: polynomial, with the pushed pole sometimes
        num = rand_poly(rng, n, 2)
        den = {}
        if rng.random() < 0.5:
            pushed = [
                sum((GQ.of(iota[i][j]) * GQ(xi0[j]) for j in range(n0)), GQ(0))
                for i in range(n)
            ]
            a_amb = L.summands[0].support
            offset = sp.inner(pushed, a_amb)
            den[Hyperplane.make([x.rational() for x in pushed], offset)] = min(d, 1)
        f = RationalFn(sp, num, den)
        try:
            lhs = lf_apply_rational(L, f)
            rhs = lf_apply_rational(L0, lf_pullback_fn(iota, f, sp0))
        except LaurentOrderError:
            continue
        assert lhs == rhs
        done += 1
    _report("criterion 4: push-forward identity, 100 instances (axis and skew)")


# -- 5: module action identities -------------------------------------------


def _rand_functional(rng, sp, ndirs, dmax_hi=2):
    n = sp.dim
    a = rand_point(rng, n)
    dirs = []
    while len(dirs) < ndirs:
        v = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
        if not any(v):
            continue
        c, _ = canonical_normal(v)
        if c not in dirs:
            dirs.append(c)
    d = [rng.randint(1, dmax_hi) for _ in dirs]
    u = rand_diffop(rng, n, 2)
    return LaurentFunctional(sp, [LFSummand(a, dirs, d, u)]), a, dirs, d


def _fn_with_poles(rng, sp, a, dirs, powers, deg=2):
    den = {}
    for xi, k in zip(dirs, powers):
        if k:
            den[Hyperplane.make(xi, sp.inner(xi, a))] = k
    return RationalFn(sp, rand_poly(rng, sp.dim, deg), den)


def test_criterion_05_action_identities():
    rng = random.Random(105)
    done = 0
    while done < 100:
        n = rng.randint(1, 2)
        sp = Space(n)
        L, a, dirs, d = _rand_functional(rng, sp, rng.randint(1, min(2, n)))
        p = [rng.randint(0, k) for k in d]  # multiplier pole
        q = [rng.randint(0, k - pk) for k, pk in zip(d, p)]  # test pole
        psi = _fn_with_poles(rng, sp, a, dirs, p, deg=2)
        phi = _fn_with_poles(rng, sp, a, dirs, q, deg=2)
        try:
            M = lf_mul_action(psi, L)
        except ValueError:
            continue
        try:
            lhs = lf_apply_rational(M, phi)
            rhs = lf_apply_rational(L, psi * phi)
        except LaurentOrderError:
            continue
        assert lhs == rhs
        done += 1
    done = 0
    while done < 100:
        n = rng.randint(1, 2)
        sp = Space(n)
        L, a, dirs, d = _rand_functional(rng, sp, rng.randint(1, min(2, n)))
        q = [rng.randint(0, k - 1) for k in d]
        phi = _fn_with_poles(rng, sp, a, dirs, q, deg=3)
        v = [rand_gq(rng, 2, 1) for _ in range(n)]
        D = lf_diff_action(v, L)
        try:
            lhs = lf_apply_rational(D, phi)
            rhs = lf_apply_rational(L, phi.directional_deriv(v))
        except LaurentOrderError:
            continue
        assert lhs == rhs
        done += 1
    _report("criterion 5: multiplication and differentiation transposes, 100 each")


# -- 6: annihilator construction -------------------------------------------


def test_criterion_06_annihilator():
    rng = random.Random(106)
    done = 0
    while done < 50:
        n = rng.randint(1, 2)
        sp = Space(n)
        a = rand_point(rng, n)
        ndirs = rng.randint(1, min(2, n))
        dirs = []
        while len(dirs) < ndirs:
            v = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
            if not any(v):
                continue
            c, _ = canonical_normal(v)
            if c not in dirs:
                dirs.append(c)
        den = {
            Hyperplane.make(xi, sp.inner(xi, a)): rng.randint(1, 2) for xi in dirs
        }
        num = rand_poly(rng, n, 2) + Polynomial.const(n, GQ(1, Fraction(1)))
        if num.eval(a).is_zero():
            continue
        f = RationalFn(sp, num, den)
        g = rationalfn_germ_at(f, a, 4)
        W = lf_annihilator_witness(g)
        assert isinstance(W, LaurentFunctional)
        assert not lf_apply(W, g).is_zero()
        for _ in range(50):
            hol = germ_constant(sp, a, GQ(0), 4).copy_with(jet=rand_poly(rng, n, 3))
            assert lf_apply(W, hol) == GQ(0)
        done += 1
    done = 0
    while done < 50:
        n = rng.randint(1, 3)
        sp = Space(n)
        a = rand_point(rng, n)
        g = germ_constant(sp, a, GQ(0), 3).copy_with(jet=rand_poly(rng, n, 3))
        assert lf_annihilator_witness(g) == "holomorphic"
        done += 1
    _report("criterion 6: annihilator witnesses, 50 singular / 50 holomorphic")


# -- 7: Weyl regression ----------------------------------------------------


def test_criterion_07_weyl_regression():
    start = time.time()
    orders = {"A1": 2, "A1xA1": 4, "A2": 6, "B2": 8, "G2": 12, "A3": 24}
    for name, size in orders.items():
        rs = builtin_system(name)
        W = rs.weyl_group()
        assert len(W) == size
        length = {w.matrix: w.length for w in W}
        rank = len(rs.simple)
        for r in range(rank + 1):
            for idx in combinations(range(rank), r):
                Q = ParabolicData(rs, list(idx))
                reps = min_coset_reps(rs, Q)
                sub = wq_subgroup(rs, Q)
                seen = set()
                for s in reps:
                    for t in sub:
                        st = s * t
                        assert st.matrix not in seen
                        assert length[st.matrix] == length[s.matrix] + length[t.matrix]
                        seen.add(st.matrix)
                assert len(seen) == size
    elapsed = time.time() - start
    assert elapsed < 5, f"Weyl regression took {elapsed:.1f}s"
    _report("criterion 7: Weyl orders and coset factorizations, all parabolic subsets")


# -- 8: genericity ---------------------------------------------------------


def _coset_points(P, rep, lam, S_r, height):
    base = P.restrict_gq(rep.act_gq(lam))
    dr = P.delta_r
    k = len(dr)
    pts = set()
    for s0 in S_r:
        for ns in product(range(height + 1), repeat=k):
            if sum(ns) > height:
                continue
            pt = tuple(
                base[j] + s0[j] - sum((GQ(ns[i]) * GQ(dr[i][j]) for i in range(k)), GQ(0))
                for j in range(len(P.basis))
            )
            pts.add(pt)
    return pts


def test_criterion_08_genericity():
    rng = random.Random(108)
    done = 0
    n_generic = n_singular = 0
    while done < 200:
        name = rng.choice(["A2", "B2"])
        rs = builtin_system(name)
        psize = rng.randint(0, 1)
        P = ParabolicData(rs, rng.sample(range(2), psize))
        Q = ParabolicData(rs, rng.sample(range(2), rng.randint(0, 1)))
        S = [
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(2))
            for _ in range(rng.randint(1, 3))
        ]
        if rng.random() < 0.5:
            lam = [GQ(Fraction(rng.randint(-20, 20), rng.choice([7, 11, 13]))) for _ in range(2)]
        else:
            lam = [GQ(rng.randint(-2, 2)) for _ in range(2)]
        w = generic_witness(rs, P, Q, S, lam)
        S_r = [P.restrict_gq([GQ(x) for x in s]) for s in S]
        classes = equiv_PQ(rs, P, Q)
        reps = [cl[0] for cl in classes]
        if w is None:
            n_generic += 1
            clouds = [_coset_points(P, rep, lam, S_r, 6) for rep in reps]
            for i in range(len(clouds)):
                for j in range(i + 1, len(clouds)):
                    assert not (clouds[i] & clouds[j])
        else:
            n_singular += 1
            s1, s2, (i1, i2, coeffs) = w
            eta = tuple(
                x - y
                for x, y in zip(
                    P.restrict_gq(s1.act_gq(lam)), P.restrict_gq(s2.act_gq(lam))
                )
            )
            recon = [a - b for a, b in zip(S_r[i1], S_r[i2])]
            for c, dvec in zip(coeffs, P.delta_r):
                assert c.denominator == 1
                recon = [r + GQ(c) * GQ(x) for r, x in zip(recon, dvec)]
            assert list(eta) == recon
        done += 1
    assert n_generic > 0 and n_singular > 0
    _report(
        f"criterion 8: genericity on A2/B2, 200 weights "
        f"({n_generic} generic sampled to height 6, {n_singular} certified)"
    )


# -- 9: restriction equivalence vs double cosets ---------------------------


def test_criterion_09_equiv_vs_double_cosets():
    for name in ("A1xA1", "A2", "B2", "G2", "A3"):
        rs = builtin_system(name)
        rank = len(rs.simple)
        subsets = [list(c) for r in (rank - 1, rank) for c in combinations(range(rank), r)]
        for ip_idx in subsets:
            for iq_idx in subsets:
                P = ParabolicData(rs, ip_idx)
                Q = ParabolicData(rs, iq_idx)
                part1 = {frozenset(w.matrix for w in cl) for cl in equiv_PQ(rs, P, Q)}
                part2 = {frozenset(w.matrix for w in cl) for cl in double_cosets(rs, P, Q)}
                assert part1 == part2
    _report("criterion 9: restriction equivalence equals double cosets, codim <= 1")


# -- 10: series algebra ----------------------------------------------------


def _rand_series(rng, sp, delta, trunc, nlead=1, deg=2):
    n = sp.dim
    leaders = []
    while len(leaders) < nlead:
        lam = tuple(rand_gq(rng, 3, 2) for _ in range(n))
        if lam not in leaders:
            leaders.append(lam)
    terms = {}
    k = len(delta)
    for lam in leaders:
        for _ in range(rng.randint(1, 3)):
            ns = [rng.randint(0, trunc) for _ in range(k)]
            if sum(ns) > trunc:
                continue
            xi = tuple(
                GQ.of(lam[j]) - sum((GQ(ns[i]) * GQ(delta[i][j]) for i in range(k)), GQ(0))
                for j in range(n)
            )
            terms[xi] = [rand_poly(rng, n, deg)]
    if not terms:
        lam = leaders[0]
        terms[tuple(GQ.of(x) for x in lam)] = [Polynomial.const(n, GQ(1))]
    return ExpPolySeries(sp, delta, leaders, trunc, 1, terms)


def test_criterion_10_series_algebra():
    rng = random.Random(110)
    done = 0
    while done < 200:
        n = rng.randint(1, 3)
        sp = Space(n)
        k = rng.randint(1, n)
        delta = [tuple(Fraction(1) if j == i else Fraction(0) for j in range(n)) for i in range(k)]
        trunc = rng.randint(1, 5)
        F = _rand_series(rng, sp, delta, trunc)
        G = _rand_series(rng, sp, delta, trunc)
        i = rng.randint(0, n - 1)
        d = DiffOp.partial(n, i)
        # derivation property through the convolution product
        lhs = series_diffop(d, series_mul(F, G))
        rhs = series_mul(series_diffop(d, F), G) + series_mul(F, series_diffop(d, G))
        assert lhs == rhs
        # split and reassemble when the leaders separate
        H = _rand_series(rng, sp, delta, trunc, nlead=2)
        from laurcalc import equiv_delta

        if not equiv_delta(delta, H.leaders[0], H.leaders[1]):
            try:
                parts = series_split(H, H.leaders)
            except ValueError:
                parts = None
            if parts is not None:
                total = None
                for piece in parts.values():
                    total = piece if total is None else total + piece
                assert total == H
        # restriction: grouping respects the wall values, finer walls refine
        if n >= 2:
            wall1 = [delta[0], tuple(Fraction(0) if j != n - 1 else Fraction(1) for j in range(n))]
            wall2 = [delta[0]]
            R1 = series_restrict(F, wall1)
            R2 = series_restrict(F, wall2)
            member2 = {}
            for eta, xis in R2.groups.items():
                for xi in xis:
                    member2[xi] = eta
            for eta, xis in R1.groups.items():
                # all exponents sharing a fine group share the coarse group
                coarse = {member2[xi] for xi in xis}
                assert len(coarse) == 1
            assert R1.reassemble() == F
        done += 1
    _report("criterion 10: series derivation, splitting and restriction, 200 instances")
