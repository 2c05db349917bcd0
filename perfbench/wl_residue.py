"""``residue`` workload: a seeded mix of acceptance families 1-6 in one to
three variables with complex data.

Families: the transfer cocycle (``j_map``), the one-variable residue
against an independent Laurent expansion, the Laurent operator checked
pointwise on transverse slices, push-forward against pull-back, the
multiplication and differentiation transposes, and annihilator
witnesses.  Time goes to ``poly``, ``config``, ``germs``, ``laurent`` and
complex ``scalars``; ``rootsys`` and ``series`` are never called.  The
documented refusal is ``LaurentOrderError`` (a pole the functional does
not cover); ``lf_mul_action`` also refuses a multiplier whose jet is too
short with ``ValueError``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial

from laurcalc import (
    GQ,
    DiffOp,
    Hyperplane,
    LaurentFunctional,
    LaurentOrderError,
    LFSummand,
    Polynomial,
    RationalFn,
    Space,
    germ_constant,
    gq_to_string,
    j_map,
    laurent_operator_apply,
    lf_annihilator_witness,
    lf_apply,
    lf_apply_rational,
    lf_diff_action,
    lf_mul_action,
    lf_pullback_fn,
    lf_pushforward,
    rationalfn_germ_at,
    subspace_from,
    transverse_space,
)
from laurcalc import linalg

from common import (
    canon_terms,
    check,
    primitive,
    rand_diffop,
    rand_gq,
    rand_int_vector,
    rand_point,
    rand_poly,
    rank,
)

NAME = "residue"
ROUND = ("cocycle", "cocycle", "oracle", "operator", "pushforward", "transpose", "annihilator")
# cold subprocesses: the laurent, germ and poly verbs this workload's tasks use
COLD = ["laurent_apply_fn", "germ_localize", "poly_flatten"]


def _distinct_primitive(rng, dim, count):
    out = []
    while len(out) < count:
        c = primitive(rand_int_vector(rng, dim))
        if c not in out:
            out.append(c)
    return out


def _gen_cocycle(rng, k):
    dim = 1 + k % 3
    roots = []
    for _ in range(min(dim, 2)):
        c = primitive(rand_int_vector(rng, dim))
        if c not in roots:
            roots.append(c)
    d = [rng.randint(1, 2) for _ in roots]
    dm = [rng.randint(0, x) for x in d]
    dl = [rng.randint(0, x) for x in dm]
    return dict(dim=dim, roots=roots, u=rand_diffop(rng, dim, 3), d=d, dm=dm, dl=dl, a=rand_point(rng, dim))


def _gen_oracle(rng, k):
    while True:
        a, b = rand_gq(rng, 3, 2), rand_gq(rng, 3, 2)
        if a != b:
            break
    m, e = 1 + k % 3, 1 + k % 2
    return dict(
        a=a,
        factors=[(a, m), (b, e)],
        num=[rand_gq(rng) for _ in range(3)],
        k=m + k % 2,
        j=k % 3,
    )


# (ambient dimension, codimension of the subspace, points checked), in
# turn; fewer points where a point costs more, so the shapes cost alike
_OPERATOR_SHAPES = ((2, 1, 4), (3, 1, 3), (3, 2, 1))


def _gen_operator(rng, k):
    n, codim, npoints = _OPERATOR_SHAPES[k % len(_OPERATOR_SHAPES)]
    normals = []
    while len(normals) < codim:
        c = primitive(rand_int_vector(rng, n))
        if c not in [v for v, _ in normals] and rank([v for v, _ in normals] + [c]) == len(normals) + 1:
            normals.append((c, rand_gq(rng, 2, 2)))
    normal = tuple(Fraction(rng.randint(-2, 2)) if i else Fraction(1) for i in range(n))
    return dict(
        n=n,
        normals=normals,
        powers=[1 + (k + i) % 2 for i in range(codim)],
        extra=(normal, rand_gq(rng, 3, 1) + GQ(5)),
        num=rand_poly(rng, n, 2),
        bump=[rng.randint(0, 1) for _ in range(n)],
        u=rand_diffop(rng, codim, 2),
        npoints=npoints,
        points=[[rand_gq(rng, 4, 2) for _ in range(n - codim)] for _ in range(10 * npoints)],
    )


_SKEWS = [
    (1, 2, [[Fraction(3, 5)], [Fraction(4, 5)]]),
    (1, 2, [[Fraction(5, 13)], [Fraction(12, 13)]]),
    (2, 3, [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)], [Fraction(0), Fraction(0)]]),
]


def _gen_pushforward(rng, k):
    if k % 2:
        n0 = rng.randint(1, 2)
        n = rng.randint(n0 + 1, 3)
        idx = sorted(rng.sample(range(n), n0))
        iota = [[Fraction(int(j < n0 and idx[j] == i)) for j in range(n0)] for i in range(n)]
    else:
        n0, n, iota = _SKEWS[rng.randrange(len(_SKEWS))]
    return dict(
        n0=n0,
        n=n,
        iota=iota,
        a0=rand_point(rng, n0),
        xi0=primitive(rand_int_vector(rng, n0)),
        d=rng.randint(1, 2),
        u=rand_diffop(rng, n0, 2),
        num=rand_poly(rng, n, 2),
        pole=k % 4 < 2,
    )


def _gen_functional(rng, n):
    dirs = _distinct_primitive(rng, n, n)
    return dict(a=rand_point(rng, n), dirs=dirs, d=[rng.randint(1, 2) for _ in dirs], u=rand_diffop(rng, n, 2))


def _gen_transpose(rng, k):
    n1, n2 = 1 + k % 2, 2 - k % 2
    L1, L2 = _gen_functional(rng, n1), _gen_functional(rng, n2)
    p = [rng.randint(0, k) for k in L1["d"]]
    q = [rng.randint(0, k - pk) for k, pk in zip(L1["d"], p)]
    return dict(
        mul=dict(n=n1, L=L1, p=p, q=q, psi=rand_poly(rng, n1, 2), phi=rand_poly(rng, n1, 2)),
        diff=dict(
            n=n2,
            L=L2,
            q=[rng.randint(0, k - 1) for k in L2["d"]],
            phi=rand_poly(rng, n2, 3),
            v=[rand_gq(rng, 2, 1) for _ in range(n2)],
        ),
    )


def _gen_annihilator(rng, k):
    singular = k % 2 == 0
    n = 1 + k % 4 // 2 if singular else 1 + k % 3
    out = dict(singular=singular, n=n, a=rand_point(rng, n))
    if singular:
        dirs = _distinct_primitive(rng, n, n)
        out.update(
            dirs=dirs,
            powers=[rng.randint(1, 2) for _ in dirs],
            num=rand_poly(rng, n, 2) + Polynomial.const(n, GQ(1, 1)),
            probes=[rand_poly(rng, n, 3) for _ in range(5)],
        )
    else:
        out.update(jet=rand_poly(rng, n, 3))
    return out


_GEN = dict(
    cocycle=_gen_cocycle,
    oracle=_gen_oracle,
    operator=_gen_operator,
    pushforward=_gen_pushforward,
    transpose=_gen_transpose,
    annihilator=_gen_annihilator,
)


def generate(seed, rounds):
    """Rounds of one task per family (two cocycle tasks, so that the median
    latency falls inside one family's range, not between two).  The shape
    of each task (dimension, codimension, pole orders) follows the round
    number; the seed draws the data, so every seed gets the same mix."""
    rng = random.Random(f"{NAME}:{seed}")
    made = dict.fromkeys(ROUND, 0)

    def task(family):
        made[family] += 1
        return dict(family=family, **_GEN[family](rng, made[family] - 1))

    return [[task(f) for f in ROUND] for _ in range(rounds)]


# -- independent one-variable Laurent expansion (the oracle of family 2) ------


def _shift_coeffs(coeffs, a):
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
    inv0 = GQ(1) / u[0]
    out = [inv0] + [GQ(0)] * order
    for n in range(1, order + 1):
        s = GQ(0)
        for k in range(1, n + 1):
            s = s + (u[k] if k < len(u) else GQ(0)) * out[n - k]
        out[n] = -inv0 * s
    return out


def laurent_coefficients(num, factors, a, order):
    """Coefficients c_n, -m <= n <= order, of num(z) / prod (z - b)^k at a."""
    m = sum(k for b, k in factors if b == a)
    hol = _shift_coeffs(num, a) + [GQ(0)] * (order + m + 1)
    for b, k in factors:
        if b != a:
            inv = _inv_series(_shift_coeffs([-b, GQ(1)], a), order + m)
            for _ in range(k):
                hol = _mul_series(hol, inv, order + m)
    return {n: hol[n + m] for n in range(-m, order + 1) if n + m < len(hol)}


# -- tasks ---------------------------------------------------------------------


def _hyperplanes(tr, pairs):
    """Denominator dict from (normal, offset, power) triples."""
    den = {}
    for normal, offset, k in pairs:
        h = tr.call("config.Hyperplane.make", Hyperplane.make, normal, offset)
        den[h] = den.get(h, 0) + k
    return den


def _run_cocycle(tr, t, stats):
    sp = tr.call("poly.Space", Space, t["dim"])
    roots, a = t["roots"], t["a"]
    mid = tr.call("poly.j_map", j_map, sp, t["u"], t["d"], t["dm"], roots, a)
    two = tr.call("poly.j_map", j_map, sp, mid, t["dm"], t["dl"], roots, a)
    one = tr.call("poly.j_map", j_map, sp, t["u"], t["d"], t["dl"], roots, a)
    check(two == one, "j-map cocycle")
    return canon_terms(one.terms)


def _run_oracle(tr, t, stats):
    a, k, j = t["a"], t["k"], t["j"]
    sp = tr.call("poly.Space", Space, 1)
    num = tr.call("poly.Polynomial", Polynomial, 1, {(i,): c for i, c in enumerate(t["num"])})
    den = _hyperplanes(tr, [((1,), b, e) for b, e in t["factors"]])
    f = tr.call("germs.RationalFn", RationalFn, sp, num, den)
    u = tr.call("poly.DiffOp.partial", DiffOp.partial, 1, 0, j) if j else DiffOp.identity(1)
    L = tr.call("laurent.LaurentFunctional", LaurentFunctional, sp, [LFSummand([a], [(1,)], [k], u)])
    g = tr.call("germs.rationalfn_germ_at", rationalfn_germ_at, f, [a], j + k + 2)
    got = tr.call("laurent.lf_apply", lf_apply, L, g)
    want = GQ(factorial(j)) * laurent_coefficients(t["num"], t["factors"], a, 6).get(j - k, GQ(0))
    check(got == want, "residue against the Laurent expansion oracle")
    return gq_to_string(got)


def _transverse_slice(tr, f, Lsub, tsp, s):
    """f on the transverse slice through the point of Lsub with coordinates
    s, as a rational function of the transverse coordinates; None when a
    denominator factor vanishes identically there."""
    space = f.space
    perp = tr.call("config.XSubspace.normal_basis", Lsub.normal_basis)
    m = len(perp)
    pt = tr.call("config.XSubspace.param_point", Lsub.param_point, s)
    subs = [Polynomial.linear(m, [GQ.of(perp[k][i]) for k in range(m)], pt[i]) for i in range(space.dim)]
    num = tr.call("poly.Polynomial.substitute", f.numerator.substitute, subs)
    den = {}
    for h, k in f.denominator.items():
        form = tr.call("poly.Polynomial.substitute", h.form(space).substitute, subs)
        lin = [form.coefficient(tuple(int(j == i) for j in range(m))) for i in range(m)]
        const = form.constant_term()
        if all(c.is_zero() for c in lin):
            if const.is_zero():
                return None
            num = num * (GQ(1) / const) ** k
            continue
        beta = tr.call("linalg.solve", linalg.solve, [[GQ(x) for x in row] for row in tsp.ip], lin)
        beta = [x.rational() for x in beta]
        scale = next(x for x in beta if x) / next(x for x in primitive(beta) if x)
        h2 = tr.call("config.Hyperplane.make", Hyperplane.make, beta, -const)
        num = num * (GQ(1) / GQ(scale)) ** k
        den[h2] = den.get(h2, 0) + k
    return tr.call("germs.RationalFn", RationalFn, tsp, num, den)


def _run_operator(tr, t, stats):
    n = t["n"]
    sp = tr.call("poly.Space", Space, n)
    defining = [tr.call("config.Hyperplane.make", Hyperplane.make, v, off) for v, off in t["normals"]]
    Lsub = tr.call("config.subspace_from", subspace_from, sp, defining)
    tsp = tr.call("laurent.transverse_space", transverse_space, Lsub)
    pairs = [(v, off, k) for (v, off), k in zip(t["normals"], t["powers"])]
    if t["extra"] is not None and primitive(t["extra"][0]) not in [primitive(v) for v, _ in t["normals"]]:
        pairs.append(t["extra"] + (1,))
    f = tr.call("germs.RationalFn", RationalFn, sp, t["num"], _hyperplanes(tr, pairs))
    probe = _transverse_slice(tr, f, Lsub, tsp, [GQ(0)] * (n - len(defining)))
    if probe is None:
        return "degenerate"
    x_list, d_max = [], []
    probe = tr.call("germs.RationalFn.cancel", probe.cancel)
    for bump, (h, k) in zip(t["bump"] * 4, probe.denominator.items()):
        if h.offset.is_zero():
            x_list.append(h.normal)
            d_max.append(k + bump)
    summand = LFSummand([GQ(0)] * len(defining), x_list, d_max, t["u"])
    L = tr.call("laurent.LaurentFunctional", LaurentFunctional, tsp, [summand])
    stats["laurent_attempts"] += 1
    try:
        out = tr.call("laurent.laurent_operator_apply", laurent_operator_apply, L, f, Lsub)
    except LaurentOrderError:
        stats["laurent_refused"] += 1
        return "refused"
    values = []
    for s in t["points"]:
        if len(values) == t["npoints"]:
            break
        slice_fn = _transverse_slice(tr, f, Lsub, tsp, s)
        if slice_fn is None:
            continue
        stats["laurent_attempts"] += 1
        try:
            rhs = tr.call("laurent.lf_apply_rational", lf_apply_rational, L, slice_fn)
        except LaurentOrderError:
            stats["laurent_refused"] += 1
            continue
        if not tr.call("germs.RationalFn.is_regular_at", out.is_regular_at, s):
            continue
        check(tr.call("germs.RationalFn.eval", out.eval, s) == rhs, "Laurent operator pointwise")
        values.append(gq_to_string(rhs))
    return ",".join(values)


def _run_pushforward(tr, t, stats):
    n0, n, iota = t["n0"], t["n"], t["iota"]
    sp0 = tr.call("poly.Space", Space, n0)
    sp = tr.call("poly.Space", Space, n)
    L0 = tr.call("laurent.LaurentFunctional", LaurentFunctional, sp0, [LFSummand(t["a0"], [t["xi0"]], [t["d"]], t["u"])])
    L = tr.call("laurent.lf_pushforward", lf_pushforward, iota, L0, sp)
    pairs = []
    if t["pole"]:
        pushed = [sum((GQ(iota[i][j]) * GQ(t["xi0"][j]) for j in range(n0)), GQ(0)) for i in range(n)]
        offset = tr.call("poly.Space.inner", sp.inner, pushed, L.summands[0].support)
        pairs.append(([x.rational() for x in pushed], offset, 1))
    f = tr.call("germs.RationalFn", RationalFn, sp, t["num"], _hyperplanes(tr, pairs))
    stats["laurent_attempts"] += 1
    try:
        lhs = tr.call("laurent.lf_apply_rational", lf_apply_rational, L, f)
        pulled = tr.call("laurent.lf_pullback_fn", lf_pullback_fn, iota, f, sp0)
        rhs = tr.call("laurent.lf_apply_rational", lf_apply_rational, L0, pulled)
    except LaurentOrderError:
        stats["laurent_refused"] += 1
        return "refused"
    check(lhs == rhs, "push-forward against pull-back")
    return gq_to_string(lhs)


def _functional(tr, sp, spec):
    summand = LFSummand(spec["a"], spec["dirs"], spec["d"], spec["u"])
    return tr.call("laurent.LaurentFunctional", LaurentFunctional, sp, [summand])


def _fn_with_poles(tr, sp, spec, powers, num):
    pairs = []
    for xi, k in zip(spec["dirs"], powers):
        if k:
            pairs.append((xi, tr.call("poly.Space.inner", sp.inner, xi, spec["a"]), k))
    return tr.call("germs.RationalFn", RationalFn, sp, num, _hyperplanes(tr, pairs))


def _run_transpose(tr, t, stats):
    out = []
    m = t["mul"]
    sp = tr.call("poly.Space", Space, m["n"])
    L = _functional(tr, sp, m["L"])
    psi = _fn_with_poles(tr, sp, m["L"], m["p"], m["psi"])
    phi = _fn_with_poles(tr, sp, m["L"], m["q"], m["phi"])
    stats["laurent_attempts"] += 1
    try:
        M = tr.call("laurent.lf_mul_action", lf_mul_action, psi, L)
        lhs = tr.call("laurent.lf_apply_rational", lf_apply_rational, M, phi)
        prod = tr.call("germs.RationalFn.__mul__", psi.__mul__, phi)
        rhs = tr.call("laurent.lf_apply_rational", lf_apply_rational, L, prod)
    except (LaurentOrderError, ValueError):
        stats["laurent_refused"] += 1
        out.append("refused")
    else:
        check(lhs == rhs, "multiplication transpose")
        out.append(gq_to_string(lhs))
    dd = t["diff"]
    sp = tr.call("poly.Space", Space, dd["n"])
    L = _functional(tr, sp, dd["L"])
    phi = _fn_with_poles(tr, sp, dd["L"], dd["q"], dd["phi"])
    D = tr.call("laurent.lf_diff_action", lf_diff_action, dd["v"], L)
    stats["laurent_attempts"] += 1
    try:
        lhs = tr.call("laurent.lf_apply_rational", lf_apply_rational, D, phi)
        dphi = tr.call("germs.RationalFn.directional_deriv", phi.directional_deriv, dd["v"])
        rhs = tr.call("laurent.lf_apply_rational", lf_apply_rational, L, dphi)
    except LaurentOrderError:
        stats["laurent_refused"] += 1
        out.append("refused")
    else:
        check(lhs == rhs, "differentiation transpose")
        out.append(gq_to_string(lhs))
    return ",".join(out)


def _run_annihilator(tr, t, stats):
    n, a = t["n"], t["a"]
    sp = tr.call("poly.Space", Space, n)
    if not t["singular"]:
        g = tr.call("germs.germ_constant", germ_constant, sp, a, GQ(0), 3).copy_with(jet=t["jet"])
        check(tr.call("laurent.lf_annihilator_witness", lf_annihilator_witness, g) == "holomorphic", "holomorphic germ")
        return "holomorphic"
    if t["num"].eval(a).is_zero():
        return "degenerate"
    pairs = [(xi, tr.call("poly.Space.inner", sp.inner, xi, a), k) for xi, k in zip(t["dirs"], t["powers"])]
    f = tr.call("germs.RationalFn", RationalFn, sp, t["num"], _hyperplanes(tr, pairs))
    g = tr.call("germs.rationalfn_germ_at", rationalfn_germ_at, f, a, 4)
    W = tr.call("laurent.lf_annihilator_witness", lf_annihilator_witness, g)
    check(isinstance(W, LaurentFunctional), "singular germ has a witness")
    check(not tr.call("laurent.lf_apply", lf_apply, W, g).is_zero(), "witness does not vanish on the germ")
    hol = tr.call("germs.germ_constant", germ_constant, sp, a, GQ(0), 4)
    for jet in t["probes"]:
        check(tr.call("laurent.lf_apply", lf_apply, W, hol.copy_with(jet=jet)) == GQ(0), "witness kills holomorphic germs")
    return "singular"


_RUN = dict(
    cocycle=_run_cocycle,
    oracle=_run_oracle,
    operator=_run_operator,
    pushforward=_run_pushforward,
    transpose=_run_transpose,
    annihilator=_run_annihilator,
)


def new_stats():
    return dict(laurent_attempts=0, laurent_refused=0)


def run(tr, task, stats):
    """Run one task with its exact checks; returns its canonical output."""
    return task["family"] + ":" + _RUN[task["family"]](tr, task, stats)


# -- operands for the kernel replay rows ----------------------------------------


def operands(tasks):
    """Scalars, matrices, polynomials, io objects and delta sets taken
    from the workload's own inputs."""
    scalars, matrices, polys, io_objs, deltas = [], [], [], [], []
    for t in tasks:
        fam = t["family"]
        if fam == "cocycle":
            scalars += t["a"] + list(t["u"].terms.values())
            rows = [list(r) for r in t["roots"]]
            matrices.append((rows, [sum((GQ(x) * y for x, y in zip(r, t["a"])), GQ(0)) for r in rows]))
            u = t["u"].symbol()
            polys.append((u, t["a"], (list(t["roots"][0]), t["a"][0])))
            deltas.append((t["roots"], t["a"]))
            io_objs.append(("diffop", t["u"]))
        elif fam == "oracle":
            scalars += t["num"] + [t["a"]]
        elif fam == "operator":
            scalars += list(t["num"].terms.values()) + [off for _, off in t["normals"]]
            matrices.append(([list(v) for v, _ in t["normals"]], [off for _, off in t["normals"]]))
            polys.append((t["num"], t["points"][0] + [GQ(0)] * len(t["normals"]), (list(t["normals"][0][0]), t["normals"][0][1])))
            io_objs.append(("poly", t["num"]))
        elif fam == "pushforward":
            scalars += t["a0"] + list(t["num"].terms.values())
            polys.append((t["num"], t["a0"] + [GQ(0)] * (t["n"] - t["n0"]), ([1] + [0] * (t["n"] - 1), t["a0"][0])))
            matrices.append(([list(r) for r in t["iota"]], [GQ(1)] * t["n"]))
        elif fam == "transpose":
            for part in (t["mul"], t["diff"]):
                scalars += part["L"]["a"] + list(part["phi"].terms.values())
                polys.append((part["phi"], part["L"]["a"], (list(part["L"]["dirs"][0]), part["L"]["a"][0])))
        elif fam == "annihilator" and t["singular"]:
            scalars += t["a"] + list(t["num"].terms.values())
            polys.append((t["num"], t["a"], (list(t["dirs"][0]), t["a"][0])))
    return dict(scalars=scalars, matrices=matrices, polys=polys, io=io_objs, deltas=deltas)
