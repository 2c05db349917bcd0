"""Shared pieces of the benchmark: seeded input helpers over Q(i),
canonical output strings, the check failure type and the tracer.

The tracer records one span around each call the benchmark makes into a
public function of ``laurcalc``; spans inside the library are not
recorded.  A span's layer is the module name (``poly``, ``rootsys``, ...).
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import gcd

from laurcalc import GQ, DiffOp, Polynomial, gq_to_string
from laurcalc import io as lio


class Mismatch(AssertionError):
    """An exact check of a task's output failed."""


def check(cond, what):
    if not cond:
        raise Mismatch(what)


# -- seeded inputs ------------------------------------------------------------


def rand_fraction(rng, num=6, den=4):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_gq(rng, num=6, den=4):
    re = rand_fraction(rng, num, den)
    im = rand_fraction(rng, num, den) if rng.random() < 0.4 else Fraction(0)
    return GQ(re, im)


def rand_terms(rng, dim, deg, nterms):
    terms = {}
    for _ in range(nterms):
        idx = tuple(rng.randint(0, deg) for _ in range(dim))
        if sum(idx) > deg:
            idx = (0,) * dim
        terms[idx] = rand_gq(rng)
    return terms


def rand_poly(rng, dim, deg, nterms=4):
    return Polynomial(dim, rand_terms(rng, dim, deg, nterms))


def rand_diffop(rng, dim, deg, nterms=3):
    return DiffOp(dim, rand_terms(rng, dim, deg, nterms))


def rand_point(rng, dim):
    return [rand_gq(rng, num=3, den=2) for _ in range(dim)]


def rand_int_vector(rng, dim):
    while True:
        v = tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim))
        if any(v):
            return v


def primitive(v):
    """The primitive integer vector with positive leading entry on the
    line of v; computed here so that inputs do not depend on the library."""
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    lead = next(x for x in ints if x)
    sign = 1 if lead > 0 else -1
    return tuple(Fraction(sign * x // g) for x in ints)


def rank(rows):
    """Rank of a small rational matrix, by elimination over Fraction."""
    m = [list(map(Fraction, r)) for r in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


# -- canonical output strings --------------------------------------------------


def canon_vec(v):
    return "(" + ",".join(gq_to_string(GQ.of(x)) for x in v) + ")"


def canon_terms(terms):
    """Terms of a Polynomial or DiffOp as a sorted, representation-free string."""
    return "{" + ";".join(f"{list(i)}:{gq_to_string(c)}" for i, c in sorted(terms.items())) + "}"


# reader and writer of each io type the benchmark round-trips
IO_TYPES = {
    "poly": (lio.poly_from_json, lio.poly_to_json),
    "diffop": (lio.diffop_from_json, lio.diffop_to_json),
    "config": (lio.config_from_json, lio.config_to_json),
    "germ": (lio.germ_from_json, lio.germ_to_json),
    "rationalfn": (lio.rationalfn_from_json, lio.rationalfn_to_json),
    "functional": (lio.functional_from_json, lio.functional_to_json),
    "series": (lio.series_from_json, lio.series_to_json),
    "rootsystem": (lio.rootsystem_from_json, lio.rootsystem_to_json),
}


# -- tracing -------------------------------------------------------------------


class NullTracer:
    """Untraced runs: calls go straight through."""

    def call(self, name, fn, *args, **kw):
        return fn(*args, **kw)

    def begin_task(self, task_id, family):
        pass

    def end_task(self):
        pass


class Tracer(NullTracer):
    """Keeps spans in memory as (name, start, end, parent, task) tuples;
    the parent is an index into ``spans`` or -1, and times are seconds
    from ``time.perf_counter``."""

    def __init__(self):
        self.spans = []
        self.task = None
        self._stack = []

    def _open(self, name):
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, self.task])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kw):
        sid = self._open(name)
        try:
            return fn(*args, **kw)
        finally:
            self._close(sid)

    def begin_task(self, task_id, family):
        self.task = task_id
        self._open("task." + family)

    def end_task(self):
        self._close(self._stack[-1])
        self.task = None


def self_times(spans):
    """Per span: duration minus the part of it that its child spans cover."""
    children = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for sid, s in enumerate(spans):
        covered = 0.0
        end = s[1]
        for a, b in sorted(children.get(sid, ())):
            a = max(a, end)
            if b > a:
                covered += b - a
                end = b
        out.append(s[2] - s[1] - covered)
    return out
