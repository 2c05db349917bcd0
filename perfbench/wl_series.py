"""``series`` workload: seeded truncated exponential polynomial series in
one to three variables with truncation 1-5.

Each task checks the derivation identity d(FG) = d(F)G + F d(G) through
``series_mul``, splits a two-leader series with ``series_split`` and
checks the parts add back up, and regroups F along two nested walls with
``series_restrict``, checking every ``shifted_coeff`` against an
independent binomial expansion.  Every product exponent and every stored
term runs a ``delta_coords`` elimination over the same delta, so reuse
per delta shows here and nowhere else.  ``series_split`` refuses
leaders that do not separate the terms with ``ValueError``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb
from itertools import product

from laurcalc import GQ, DiffOp, ExpPolySeries, Polynomial, Space, equiv_delta, series_diffop, series_mul, series_restrict, series_split

from common import canon_terms, canon_vec, check, rand_gq, rand_poly, rank

NAME = "series"
DIMS = (1, 2, 3)
COLD = ["series_mul", "series_restrict", "series_diff"]


def _delta(rng, n, k):
    """k independent integer vectors; half the time the unit vectors."""
    if rng.random() < 0.5:
        return [tuple(Fraction(int(j == i)) for j in range(n)) for i in range(k)]
    while True:
        rows = [tuple(Fraction(int(j == i) + (rng.randint(0, 1) if j > i else 0)) for j in range(n)) for i in range(k)]
        if rank(rows) == k:
            return rows


def _series_spec(rng, n, delta, trunc, nlead=1, deg=2):
    leaders = []
    while len(leaders) < nlead:
        lam = tuple(rand_gq(rng, 3, 2) for _ in range(n))
        if lam not in leaders:
            leaders.append(lam)
    terms = {}
    for lam in leaders:
        for _ in range(2):
            ns = [rng.randint(0, trunc) for _ in delta]
            if sum(ns) > trunc:
                continue
            xi = tuple(lam[j] - sum((GQ(c) * GQ(d[j]) for c, d in zip(ns, delta)), GQ(0)) for j in range(n))
            terms[xi] = [rand_poly(rng, n, deg)]
    if not terms:
        terms[leaders[0]] = [Polynomial.const(n, GQ(1))]
    return dict(leaders=leaders, terms=terms)


def _task(rng, n, k):
    """The k-th task in n variables: the delta size and the truncation
    follow k, the seed draws the rest."""
    delta = _delta(rng, n, 1 + k % n)
    trunc = 1 + k % 5
    return dict(
        family=f"dim{n}",
        n=n,
        delta=delta,
        trunc=trunc,
        F=_series_spec(rng, n, delta, trunc),
        G=_series_spec(rng, n, delta, trunc),
        H=_series_spec(rng, n, delta, trunc, nlead=2),
        i=k % n,
    )


def generate(seed, rounds):
    """Rounds of one task per dimension."""
    rng = random.Random(f"{NAME}:{seed}")
    return [[_task(rng, n, k) for n in DIMS] for k in range(rounds)]


def _build(tr, sp, t, spec):
    return tr.call("series.ExpPolySeries", ExpPolySeries, sp, t["delta"], spec["leaders"], t["trunc"], 1, spec["terms"])


def _mul(tr, A, B, stats):
    out = tr.call("series.series_mul", series_mul, A, B)
    stats["pairs"] += len(A.terms) * len(B.terms)
    stats["kept"] += len(out.terms)
    return out


def _split_expansion(p, n):
    """Terms of p(w + v) in 2n variables, w first, by the binomial theorem."""
    out = {}
    for idx, c in p.terms.items():
        for beta in product(*(range(e + 1) for e in idx)):
            coef = 1
            for e, b in zip(idx, beta):
                coef *= comb(e, b)
            key = tuple(beta) + tuple(e - b for e, b in zip(idx, beta))
            out[key] = out.get(key, GQ(0)) + c * GQ(coef)
    return {k: v for k, v in out.items() if not v.is_zero()}


def _check_restrict(tr, F, wall, n):
    R = tr.call("series.series_restrict", series_restrict, F, wall)
    for eta, xis in R.groups.items():
        for xi in xis:
            values = tuple(sum((GQ.of(x) * GQ(b) for x, b in zip(xi, w)), GQ(0)) for w in wall)
            check(values == eta, "outer exponent is the restriction to the wall")
            shifted = tr.call("series.RestrictedSeries.shifted_coeff", R.shifted_coeff, xi)
            check([q.terms for q in shifted] == [_split_expansion(p, n) for p in F.terms[xi]], "shifted_coeff is q(w + v)")
    return R


def run(tr, t, stats):
    n = t["n"]
    sp = tr.call("poly.Space", Space, n)
    F, G = _build(tr, sp, t, t["F"]), _build(tr, sp, t, t["G"])
    d = tr.call("poly.DiffOp.partial", DiffOp.partial, n, t["i"])
    lhs = tr.call("series.series_diffop", series_diffop, d, _mul(tr, F, G, stats))
    dF = tr.call("series.series_diffop", series_diffop, d, F)
    dG = tr.call("series.series_diffop", series_diffop, d, G)
    rhs = tr.call("series.ExpPolySeries.__add__", _mul(tr, dF, G, stats).__add__, _mul(tr, F, dG, stats))
    check(lhs == rhs, "derivation identity through series_mul")
    out = [";".join(canon_vec(xi) + canon_terms(ps[0].terms) for xi, ps in sorted(lhs.terms.items(), key=lambda kv: canon_vec(kv[0])))]
    H = _build(tr, sp, t, t["H"])
    if not tr.call("rootsys.equiv_delta", equiv_delta, t["delta"], H.leaders[0], H.leaders[1]):
        try:
            parts = tr.call("series.series_split", series_split, H, H.leaders)
        except ValueError:
            out.append("split refused")
        else:
            total = None
            for piece in parts.values():
                total = piece if total is None else tr.call("series.ExpPolySeries.__add__", total.__add__, piece)
            check(total == H, "split parts add up to the series")
            out.append(f"split {sorted(len(p.terms) for p in parts.values())}")
    if n >= 2:
        last = tuple(Fraction(int(j == n - 1)) for j in range(n))
        fine = _check_restrict(tr, F, [t["delta"][0], last], n)
        coarse = _check_restrict(tr, F, [t["delta"][0]], n)
        owner = {xi: eta for eta, xis in coarse.groups.items() for xi in xis}
        check(all(len({owner[xi] for xi in xis}) == 1 for xis in fine.groups.values()), "finer wall refines the grouping")
        out.append(f"groups {len(fine.groups)}/{len(coarse.groups)}")
    return "|".join(out)


def new_stats():
    return dict(pairs=0, kept=0)


def operands(tasks):
    """Leaders, exponents and coefficients; delta columns against each
    leader; coefficient polynomials shifted by the leader and divided by
    the form of delta[0]; the series themselves for io."""
    scalars, matrices, polys, io_objs, deltas = [], [], [], [], []
    for t in tasks:
        n, delta = t["n"], t["delta"]
        for spec in (t["F"], t["G"]):
            lead = list(spec["leaders"][0])
            scalars += lead + [x for xi in spec["terms"] for x in xi]
            scalars += [c for ps in spec["terms"].values() for c in ps[0].terms.values()]
            matrices.append(([[d[j] for d in delta] for j in range(n)], lead))
            for xi, ps in spec["terms"].items():
                deltas.append((delta, [a - b for a, b in zip(lead, xi)]))
                polys.append((ps[0], lead, (list(delta[0]), lead[0])))
        io_objs.append(("series", ExpPolySeries(Space(n), delta, t["F"]["leaders"], t["trunc"], 1, t["F"]["terms"])))
    return dict(scalars=scalars, matrices=matrices, polys=polys, io=io_objs, deltas=deltas)
