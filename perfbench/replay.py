"""Kernel replay rows of the traced run.

Each row times one public kernel on operands the workload module took
from its own inputs (``operands()``), sampled by seed, and reports the
median over repeated sweeps of the time per call, at reference speed
(see ``speed.py``).  Each replayed result
is checked exactly, so a faster kernel cannot also be a wrong one.
"""

from __future__ import annotations

import json
import random
import statistics

from laurcalc import GQ, Polynomial, linalg
from laurcalc.rootsys import delta_coords

from common import IO_TYPES, check
from speed import timed

SCALAR_PAIRS = 200
SAMPLES = 24
SWEEPS = (3, 15)
SWEEP_BUDGET_S = 0.3


def _per_call_us(fn, items):
    """Median over sweeps of the time per item of ``fn`` applied to every
    item; at least three sweeps, more while the row stays within its budget."""
    def sweep():
        for it in items:
            fn(it)

    times = []
    while len(times) < SWEEPS[0] or (len(times) < SWEEPS[1] and sum(times) < SWEEP_BUDGET_S):
        times.append(timed(sweep)[1])
    return statistics.median(times) / len(items) * 1e6


def replay(ops, rng: random.Random):
    out = {}
    scalars = ops["scalars"]
    pairs = [(rng.choice(scalars), rng.choice(scalars)) for _ in range(SCALAR_PAIRS)]
    nonzero = [x for x in scalars if not x.is_zero()]
    quotients = [(a, rng.choice(nonzero)) for a, _ in pairs]
    out["scalars.complex_share"] = sum(not x.is_real() for p in pairs for x in p) / (2 * len(pairs))
    out["scalars.add_us"] = _per_call_us(lambda p: p[0] + p[1], pairs)
    out["scalars.mul_us"] = _per_call_us(lambda p: p[0] * p[1], pairs)
    out["scalars.div_us"] = _per_call_us(lambda p: p[0] / p[1], quotients)
    check(all((a / b) * b == a for a, b in quotients), "scalar division")

    mats = [rng.choice(ops["matrices"]) for _ in range(SAMPLES)]
    out["linalg.solve_us"] = _per_call_us(lambda m: linalg.solve(m[0], m[1]), mats)
    augmented = [[list(row) + [b] for row, b in zip(rows, rhs)] for rows, rhs in mats]
    out["linalg.rref_us"] = _per_call_us(linalg.rref, augmented)
    for rows, rhs in mats:
        x = linalg.solve(rows, rhs)
        if x is not None:
            check(linalg.matvec(rows, x) == [GQ.of(b) for b in rhs], "solve")

    polys = [rng.choice(ops["polys"]) for _ in range(SAMPLES)]
    out["poly.mul_us"] = _per_call_us(lambda t: t[0] * t[0], polys)
    out["poly.shift_us"] = _per_call_us(lambda t: t[0].shift(t[1]), polys)
    divisions = []
    for p, _, (coeffs, const) in polys:
        divisions.append((p * Polynomial.linear(p.dim, coeffs, const), coeffs, const, p))
    out["poly.divide_by_linear_us"] = _per_call_us(lambda d: d[0].divide_by_linear(d[1], d[2]), divisions)
    check(all(d[0].divide_by_linear(d[1], d[2]) == d[3] for d in divisions), "exact division by a linear form")

    objs = [rng.choice(ops["io"]) for _ in range(SAMPLES)]
    docs = [(IO_TYPES[kind], json.loads(json.dumps(IO_TYPES[kind][1](obj)))) for kind, obj in objs]
    out["io.emit_us"] = _per_call_us(lambda ko: IO_TYPES[ko[0]][1](ko[1]), objs)
    out["io.parse_us"] = _per_call_us(lambda rd: rd[0][0](rd[1]), docs)
    check(all(rw[1](rw[0](d)) == d for rw, d in docs), "io read-back")

    deltas = [rng.choice(ops["deltas"]) for _ in range(SAMPLES)]
    out["rootsys.delta_coords_us"] = _per_call_us(lambda d: delta_coords(d[0], d[1]), deltas)
    return out
