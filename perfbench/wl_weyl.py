"""``weyl`` workload: seeded queries over (system, P, Q, S, lambda).

Each query builds the system with ``builtin_system``, enumerates W, takes
the minimal coset representatives W^Q, checks ``equiv_PQ`` against
``double_cosets``, then runs ``generic_witness`` and ``exponent_classify``.
The work is real rational arithmetic, matrix products and the
element lookups of ``rootsys`` and ``linalg``, with no polynomial work.
(system, P, Q) triples come from a small set, so they repeat across
queries as they would for a user exploring one system.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

from laurcalc import (
    GQ,
    ParabolicData,
    Polynomial,
    builtin_system,
    double_cosets,
    equiv_PQ,
    exponent_classify,
    generic_witness,
    min_coset_reps,
    wq_subgroup,
)

from common import check

NAME = "weyl"
SYSTEMS = ("A1xA1", "A2", "B2", "G2", "A3")
ORDER = {"A1xA1": 4, "A2": 6, "B2": 8, "G2": 12, "A3": 24}
RANK = {"A1xA1": 2, "A2": 2, "B2": 2, "G2": 2, "A3": 3}
COLD = ["rootsys_weyl_A3", "rootsys_equiv", "rootsys_generic_singular"]
# a vector with trivial stabilizer in every built-in Weyl group; w is
# identified by its image of this vector, whatever W's representation
_PROBE = (Fraction(1), Fraction(1, 7), Fraction(1, 53))


def _pairs(name):
    """(P, Q) pairs of simple-root subsets: every pair in rank 2; in A3
    the walls of types A2 and A1xA1, whose queries cost ten times a
    rank-2 query."""
    if name == "A3":
        subsets = [[0, 1], [0, 2]]
    else:
        subsets = [list(c) for r in range(3) for c in combinations(range(2), r)]
    return [(p, q) for p in subsets for q in subsets]


def _query(rng, name, pair, generic):
    rank = RANK[name]
    if generic:
        lam = [Fraction(rng.randint(-20, 20), rng.choice([7, 11, 13])) for _ in range(rank)]
    else:
        lam = [Fraction(rng.randint(-2, 2)) for _ in range(rank)]
    return dict(
        family=name,
        name=name,
        P=pair[0],
        Q=pair[1],
        S=[tuple(Fraction(rng.randint(-2, 2)) for _ in range(rank)) for _ in range(2)],
        lam=lam,
        cls=rng.randrange(1000),
        s0=rng.randrange(2),
        ns=[rng.randint(0, 2) for _ in range(rank)],
    )


def generate(seed, rounds):
    """Rounds of one query per system.  Each system's (P, Q) pairs come in
    seeded order, all with a generic lambda, then all with a singular one:
    32 queries per rank-2 system and 8 for A3, so triples repeat.  A3
    queries are a fifth of the list and its costliest queries, so the
    90th percentile falls among them, whose mix is the same for every
    seed (3 times the 8 when there are 24 rounds), and not among the
    G2 and B2 queries, whose cost varies with the drawn data."""
    rng = random.Random(f"{NAME}:{seed}")
    queue = {name: [] for name in SYSTEMS}

    def query(name):
        if not queue[name]:
            pairs = _pairs(name)
            queue[name] = [(p, True) for p in rng.sample(pairs, len(pairs))]
            queue[name] += [(p, False) for p in rng.sample(pairs, len(pairs))]
        pair, generic = queue[name].pop(0)
        return _query(rng, name, pair, generic)

    return [[query(name) for name in SYSTEMS] for _ in range(rounds)]


def _key(w):
    return w.act(_PROBE[: w.dim])


def _partition(classes):
    return {frozenset(_key(w) for w in cl) for cl in classes}


def _restricted(P, rep, lam):
    return P.restrict_gq(rep.act_gq(lam))


def _clouds_disjoint(P, reps, lam, S_r, height):
    """No two classes' translated cosets meet below the given height."""
    dr = P.delta_r
    seen = {}
    for k, rep in enumerate(reps):
        base = _restricted(P, rep, lam)
        for s0 in S_r:
            for ns in product(range(height + 1), repeat=len(dr)):
                if sum(ns) > height:
                    continue
                pt = tuple(
                    base[j] + s0[j] - sum((GQ(ns[i]) * GQ(dr[i][j]) for i in range(len(dr))), GQ(0))
                    for j in range(len(P.basis))
                )
                if seen.setdefault(pt, k) != k:
                    return False
    return True


def run(tr, t, stats):
    name, lam = t["name"], [GQ(x) for x in t["lam"]]
    rs = tr.call("rootsys.builtin_system", builtin_system, name)
    W = tr.call("rootsys.RootSystem.weyl_group", rs.weyl_group)
    check(len(W) == ORDER[name], f"|W({name})|")
    check(len({_key(w) for w in W}) == len(W), "Weyl elements separated by the probe vector")
    stats["orders"] += len(W)
    P = tr.call("rootsys.ParabolicData", ParabolicData, rs, t["P"])
    Q = tr.call("rootsys.ParabolicData", ParabolicData, rs, t["Q"])
    reps = tr.call("rootsys.min_coset_reps", min_coset_reps, rs, Q)
    WQ = tr.call("rootsys.wq_subgroup", wq_subgroup, rs, Q)
    check(len(reps) * len(WQ) == len(W), "|W^Q| |W_Q| = |W|")
    positive = set(rs.positive)
    check(all(w.act(a) in positive for w in reps for a in Q.delta_Q), "W^Q sends Delta_Q to positive roots")
    classes = tr.call("rootsys.equiv_PQ", equiv_PQ, rs, P, Q)
    cosets = tr.call("rootsys.double_cosets", double_cosets, rs, P, Q)
    check(_partition(classes) == _partition(cosets), "restriction classes equal double cosets")
    S = [[GQ(x) for x in s] for s in t["S"]]
    S_r = [P.restrict_gq(s) for s in S]
    w = tr.call("rootsys.generic_witness", generic_witness, rs, P, Q, S, lam)
    reps_pq = [cl[0] for cl in classes]
    if w is None:
        check(_clouds_disjoint(P, reps_pq, lam, S_r, 3), "generic weight: translated cosets disjoint")
    else:
        s1, s2, (i1, i2, coeffs) = w
        eta = [a - b for a, b in zip(_restricted(P, s1, lam), _restricted(P, s2, lam))]
        recon = [a - b for a, b in zip(S_r[i1], S_r[i2])]
        check(all(Fraction(c).denominator == 1 for c in coeffs), "integer certificate")
        for c, dvec in zip(coeffs, P.delta_r):
            recon = [r + GQ(c) * GQ(x) for r, x in zip(recon, dvec)]
        check(eta == recon, "lattice certificate reconstructs the difference")
    rep = reps_pq[t["cls"] % len(reps_pq)]
    s0 = S_r[t["s0"] % len(S_r)]
    xi = [
        b + s - sum((GQ(n) * GQ(d[j]) for n, d in zip(t["ns"], P.delta_r)), GQ(0))
        for j, (b, s) in enumerate(zip(_restricted(P, rep, lam), s0))
    ]
    kind, payload, cl2 = tr.call("rootsys.exponent_classify", exponent_classify, rs, P, Q, S, lam, xi)
    home = next(k for k, cl in enumerate(cl2) if _key(rep) in {_key(x) for x in cl})
    check(payload == home if kind == "class" else home in payload, "classified into the class it was built in")
    sizes = sorted(len(cl) for cl in classes)
    return f"{name}|{t['P']}|{t['Q']}|W^Q={len(reps)}|classes={sizes}|generic={w is None}|{kind}"


def new_stats():
    return dict(orders=0)


def repeat_share(tasks):
    seen, repeats = set(), 0
    for t in tasks:
        key = (t["name"], tuple(t["P"]), tuple(t["Q"]))
        repeats += key in seen
        seen.add(key)
    return repeats / len(tasks)


def operands(tasks):
    """Operands from the queries: lambda and S entries, the Gram matrix
    against lambda, the restricted simple roots against lambda's
    restriction, the product of the positive-root forms, and the root
    system itself for io."""
    scalars, matrices, polys, io_objs, deltas = [], [], [], [], []
    systems = {}
    for t in tasks:
        if t["name"] not in systems:
            systems[t["name"]] = builtin_system(t["name"])
        rs = systems[t["name"]]
        lam = [GQ(x) for x in t["lam"]]
        scalars += lam + [GQ(x) for s in t["S"] for x in s] + [GQ(x) for row in rs.space.ip for x in row]
        matrices.append(([list(r) for r in rs.space.ip], lam))
        P = ParabolicData(rs, t["P"])
        if P.delta_r:
            cols = [[v[j] for v in P.delta_r] for j in range(len(P.basis))]
            target = list(P.restrict_gq(lam))
            matrices.append((cols, target))
            deltas.append((P.delta_r, target))
        deltas.append((rs.simple, lam))
        weyl_den = Polynomial.const(rs.dim, GQ(1))
        for alpha in rs.positive:
            weyl_den = weyl_den * rs.space.linear_form(alpha)
        first = rs.space.form_coeffs(rs.simple[0])
        polys.append((weyl_den, lam, (first, GQ(0))))
        io_objs.append(("rootsystem", rs))
    return dict(scalars=scalars, matrices=matrices, polys=polys, io=io_objs, deltas=deltas)
