"""Finite root systems with exact rational data, their Weyl groups, coset
combinatorics, and the genericity tests for translated exponent cosets.

Root systems are stored in the coordinate basis of their simple roots
(or any rational basis), with the geometry carried by a rational inner
product matrix, so every reflection is an exact rational matrix.  Inside,
every vector and matrix is Python ints over one common denominator (1 for
every built-in system): the roots, each Weyl element, the wall basis and
forms of a parabolic subgroup, and the rows of a lattice.  Products,
equality, hashing, the root and closure checks and the (P, Q) signatures
are integer operations, and ``linalg``'s integer elimination supplies the
inverses and kernels; ``roots``, ``matrix``, ``act``, ``delta_r`` and the
other public names build their Fractions (or GQs) from the ints.  The Weyl layer
looks elements up by the element itself.

Z.Delta questions go to the shared ``Lattice(delta)`` of each Delta
(``laurcalc.lattice``), which also orders the (class, k) keys; a genericity
query keys each translate minus each S entry by its coset, so a dict finds
the colliding pair and one lattice solve gives its certificate.

What does not change is computed once per process: ``builtin_system``
builds and validates each built-in on its first call and returns that
system afterwards, and each system keeps W, W_Q and W^Q per Q and the
restriction classes, double cosets and translate maps per (P, Q).  Each
entry computes only what it returns; ``RootSystem._validate`` checks the
input, and the theorems the entries rest on are proved by the test suite.
Everything shared is immutable (Weyl elements, root tuples), and the
public functions hand out new lists.
"""

from __future__ import annotations

from math import gcd
from operator import mul, sub

from . import linalg
from .lattice import Lattice, _heights
from .scalars import GQ, _fractions, _int_rows, _mk, _over_lcm, _re_im, _real_over_lcm
from .space import Space, _sized


class WeylElement:
    """An orthogonal rational matrix permuting the root set.

    The matrix is stored as a tuple of int row tuples ``_m`` over one
    positive denominator ``_d`` with gcd(_m..., _d) = 1, so every element
    has exactly one representation.  ``matrix`` gives it back as rows of
    ``Fraction``; ``length`` is the word length in the elements that
    ``weyl_group``, ``identity`` and ``wq_subgroup`` give, else None.
    Elements are immutable: root systems share them between callers.
    """

    __slots__ = ("_m", "_d", "dim", "length")

    def __init__(self, matrix):
        lengths = [len(row) for row in matrix]
        if any(k != len(matrix) for k in lengths):
            raise ValueError(f"a Weyl element needs a square matrix, got rows of lengths {lengths}")
        _element(*_int_rows(matrix), len(matrix), None, self)

    def __setattr__(self, name, value):
        raise AttributeError("WeylElement is immutable")

    @property
    def matrix(self):
        return tuple(_fractions(row, self._d) for row in self._m)

    def _apply(self, iv):
        """The ints _m . iv, so that w(iv / e) = _apply(iv) / (_d * e)."""
        return [sum(map(mul, row, iv)) for row in self._m]

    def act(self, v):
        iv, e = _real_over_lcm(_sized(v, self.dim))
        return _fractions(self._apply(iv), self._d * e)

    def act_gq(self, v):
        pairs, e = _over_lcm(_sized(v, self.dim))
        re, im = _re_im(pairs)
        d = self._d * e
        return tuple(_mk(a, b, d) for a, b in zip(self._apply(re), self._apply(im)))

    def __mul__(self, other):
        cols = list(zip(*other._m))
        m = tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in self._m)
        return _element(m, self._d * other._d, self.dim)

    def inverse(self):
        # (m / d)^-1 = d m^-1 = d inv / det for the int inverse inv / det
        inv, (det, _) = linalg._inverse([[(x, 0) for x in row] for row in self._m])
        s = self._d if det > 0 else -self._d
        return _element(tuple(tuple(s * x for x, _ in row) for row in inv), abs(det), self.dim)

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self._m == other._m and self._d == other._d

    def __hash__(self):
        return hash((self._m, self._d))

    def __repr__(self):
        return f"WeylElement({self.matrix}, l={self.length})"


def _element(m, d, dim, length=None, w=None):
    """The WeylElement with int rows m over d > 0, brought to lowest terms;
    w is set up when given."""
    if d != 1:
        g = gcd(d, *(x for row in m for x in row))
        if g != 1:
            m = tuple(tuple(x // g for x in row) for row in m)
            d //= g
    w = object.__new__(WeylElement) if w is None else w
    for slot, value in zip(WeylElement.__slots__, (m, d, dim, length)):
        object.__setattr__(w, slot, value)
    return w


def _identity_ints(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _closure(gens, ident):
    """The group generated by gens, in breadth-first order from ident; each
    element carries its depth, the word length in gens, as its length."""
    seen = {ident: ident}
    frontier = [ident]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for w in frontier:
            for g in gens:
                m = w * g
                if m not in seen:
                    m = _element(m._m, m._d, m.dim, depth)
                    seen[m] = m
                    nxt.append(m)
        frontier = nxt
        if len(seen) > 100000:
            raise ValueError("group closure did not terminate; invalid input")
    return tuple(seen.values())


class RootSystem:
    def __init__(self, dim, roots, ip=None, positive=None, simple=None, name=None):
        self.space = Space(dim, ip)
        self.dim = dim
        self._roots, self._e = _int_rows(roots)
        self.roots = tuple(_fractions(r, self._e) for r in self._roots)
        if positive is None:
            raise ValueError("a positive system must be specified")
        for i in positive:
            if i not in range(len(self._roots)):
                raise ValueError(f"positive root index {i} out of range for {len(self._roots)} roots")
        self.positive = tuple(self.roots[i] for i in positive)
        pos = [self._roots[i] for i in positive]
        self._positive = set(pos)
        if simple is None:
            # the positive roots that are not a positive root plus another
            simple = [
                _fractions(a, self._e)
                for a in pos
                if not any(tuple(map(sub, a, b)) in self._positive for b in pos if b != a)
            ]
        self.simple = tuple(_fractions(*_real_over_lcm(s)) for s in simple)
        self.name = name
        self._identity = _element(_identity_ints(dim), 1, dim, length=0)
        self._weyl = None
        # the parabolic data, W_Q and W^Q per Q.indices, the classes and
        # double cosets per (P.indices, Q.indices); see ``_per_walls``
        self._pairs = {}
        self._validate()

    # -- geometry ----------------------------------------------------

    def _key(self, v):
        """The ints r with v = r / _e, or None when v has no such form (so v
        is no root)."""
        iv, d = _real_over_lcm(v)
        return tuple(x * (self._e // d) for x in iv) if self._e % d == 0 else None

    def reflection(self, alpha) -> WeylElement:
        s = self._reflections.get(self._key(alpha))
        return self._reflect(_real_over_lcm(alpha)[0]) if s is None else s

    def _reflect(self, a) -> WeylElement:
        # z -> z - 2 <alpha, z> alpha / <alpha, alpha> for alpha a multiple of
        # the int vector a, with the form <a, .> scaled to the ints b = G a
        # of the int Gram matrix G, so <alpha, alpha> ~ a . b, which is
        # positive unless a = 0, for G is positive definite
        b = [sum(map(mul, row, a)) for row in self.space._g]
        n2 = sum(map(mul, a, b))
        if n2 == 0:
            raise ValueError("cannot reflect in an isotropic vector")
        n = self.dim
        m = tuple(tuple((n2 if i == j else 0) - 2 * a[i] * b[j] for j in range(n)) for i in range(n))
        return _element(m, n2, n)

    # -- validation --------------------------------------------------

    def _validate(self):
        rset = set(self._roots)
        if len(rset) != len(self._roots):
            raise ValueError("duplicate roots")
        for a in self._roots:
            if not any(a):
                raise ValueError("zero is not a root")
            if tuple(-x for x in a) not in rset:
                raise ValueError("root set not symmetric")
        # each root's reflection, built once and kept for ``reflection``
        self._reflections = {a: self._reflect(a) for a in self._roots}
        for s in self._reflections.values():
            scaled = {tuple(s._d * x for x in a) for a in rset}
            if any(tuple(s._apply(b)) not in scaled for b in self._roots):
                raise ValueError("root set not closed under reflections")
        pset = self._positive
        if len(pset) * 2 != len(rset) or any((a in pset) == (tuple(-x for x in a) in pset) for a in self._roots):
            raise ValueError("invalid positive system")
        lattice = Lattice(self.simple, self.dim, "simple roots")
        # every positive root is a nonnegative integer combination of Delta
        for a in self.positive:
            c = lattice.coords(a)
            if c is None or any(x < 0 for x in c):
                raise ValueError("positive root outside the nonnegative simple span")
        if any(self._key(a) not in pset for a in self.simple):
            raise ValueError("simple root that is not a positive root")

    def is_positive(self, v):
        return self._key(v) in self._positive

    # -- Weyl group --------------------------------------------------

    def weyl_group(self):
        """All Weyl elements, with lengths, by closure of the simple
        reflections, in breadth-first order; a new list on every call."""
        return list(self._group())

    def _group(self):
        """W as a tuple, built on the first call; breadth-first depth
        equals the word length, and the identity comes first."""
        if self._weyl is None:
            self._weyl = _closure([self.reflection(a) for a in self.simple], self._identity)
        return self._weyl

    def identity(self):
        """The unit of W, with length 0; built with the system."""
        return self._identity


# ---------------------------------------------------------------------------
# built-in systems (coordinates in the simple-root basis; the Gram matrix
# of the simple roots carries the geometry)
# ---------------------------------------------------------------------------


def _span_system(name, gram, positive_coords):
    roots = positive_coords + [tuple(-x for x in r) for r in positive_coords]
    dim = len(gram)
    simple = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    return RootSystem(dim, roots, ip=gram, positive=list(range(len(positive_coords))), simple=simple, name=name)


# name: (Gram matrix of the simple roots, positive roots in their coordinates)
_BUILTINS = {
    "A1": ([[2]], [(1,)]),
    "A1xA1": ([[2, 0], [0, 2]], [(1, 0), (0, 1)]),
    "A2": ([[2, -1], [-1, 2]], [(1, 0), (0, 1), (1, 1)]),
    "B2": ([[2, -1], [-1, 1]], [(1, 0), (0, 1), (1, 1), (1, 2)]),
    "G2": ([[2, -3], [-3, 6]], [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)]),
    "A3": (
        [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)],
    ),
}

BUILTIN_NAMES = list(_BUILTINS)

# each built-in, built and validated on its first ``builtin_system`` call
_BUILT = {}


def builtin_system(name: str) -> RootSystem:
    """The built-in system of that name (any letter case); every call
    returns the same validated system."""
    key = name.upper().replace("X", "x")
    rs = _BUILT.get(key)
    if rs is None:
        if key not in _BUILTINS:
            raise ValueError(f"unknown root system name {name!r}")
        rs = _BUILT[key] = _span_system(key, *_BUILTINS[key])
    return rs


# ---------------------------------------------------------------------------
# parabolic data
# ---------------------------------------------------------------------------


class ParabolicData:
    """A subset of the simple roots, the wall it cuts out and the restricted
    simple roots on that wall, as tuples; one per set of indices of a system."""

    def __new__(cls, rs: RootSystem, delta_q_indices):
        indices = tuple(sorted(set(delta_q_indices)))
        key = ("ParabolicData", indices)
        self = rs._pairs.get(key)
        if self is not None:
            return self
        for i in indices:
            if i not in range(len(rs.simple)):
                raise ValueError(f"simple root index {i} out of range for {len(rs.simple)} simple roots")
        self = object.__new__(cls)
        self.rs = rs
        self.indices = indices
        self.delta_Q = tuple(rs.simple[i] for i in indices)
        # the wall, the kernel of the forms <alpha, .> for alpha in Delta_Q, as
        # int vectors over d > 0; the forms <., b> for them, as the ints G b over _den
        basis, (d, _) = linalg._kernel([rs.space._linear(*_over_lcm(a))[0] for a in self.delta_Q], rs.dim)
        self._basis = tuple(tuple(x if d > 0 else -x for x, _ in v) for v in basis)
        d = abs(d)
        self.basis = tuple(_fractions(v, d) for v in self._basis)
        self._forms = tuple(tuple(sum(map(mul, row, b)) for row in rs.space._g) for b in self._basis)
        self._den = rs.space._e * d
        self.delta_rest_indices = tuple(i for i in range(len(rs.simple)) if i not in indices)
        simple = [rs._key(rs.simple[i]) for i in self.delta_rest_indices]  # ints over rs._e
        self.delta_r = tuple(_fractions(self._restrict(iv), rs._e * self._den) for iv in simple)
        self.lattice = Lattice(self.delta_r, len(self.basis), "restricted simple roots")
        rs._pairs[key] = self
        return self

    def _restrict(self, iv):
        """<iv, .> on the wall basis for an int vector iv, as ints over ``_den``."""
        return [sum(map(mul, iv, f)) for f in self._forms]

    def _after(self, w):
        """Restriction to the wall after the Weyl element w, as int rows over
        ``w._d * _den``."""
        return tuple(zip(*map(self._restrict, zip(*w._m)))), w._d * self._den

    def restrict_gq(self, v):
        """The functional <v, .> on the wall: its values on the wall basis."""
        re, im, d = self._restricted(v)
        return tuple(_mk(a, b, d) for a, b in zip(re, im))

    def _restricted(self, v):
        """``restrict_gq(v)`` as ints (re, im, d), d > 0."""
        pairs, e = self.rs.space._vector(v)
        re, im = _re_im(pairs)
        return self._restrict(re), self._restrict(im), e * self._den


def _per_walls(build):
    """``build(rs, *walls)`` computed once per system and per tuple of wall
    indices, and kept on the system.  A wall of another system is refused
    first, so that it cannot store an entry under valid indices; a build
    that raises stores nothing."""

    def entry(rs, *walls):
        for X in walls:
            if X.rs is not rs:
                raise ValueError("parabolic data built for another root system")
        key = (build.__name__, *(X.indices for X in walls))
        out = rs._pairs.get(key)
        if out is None:
            out = rs._pairs[key] = build(rs, *walls)
        return out

    return entry


@_per_walls
def _wq(rs, Q):
    return _closure([rs.reflection(a) for a in Q.delta_Q], rs._identity)


def wq_subgroup(rs: RootSystem, Q: ParabolicData):
    """W_Q: the group the reflections in Delta_Q generate, by closure, with
    lengths, in the order of W.  It is the centralizer of the wall
    (Humphreys 1990, §1.10), and W is not built."""
    return list(_wq(rs, Q))


@_per_walls
def _coset_reps(rs, Q):
    W = rs._group()
    # w(a / _e) = w._apply(a) / (w._d * _e) is a root, so w._d divides w._apply(a)
    simple = [rs._key(a) for a in Q.delta_Q]
    return tuple(w for w in W if all(tuple(x // w._d for x in w._apply(a)) in rs._positive for a in simple))


def min_coset_reps(rs: RootSystem, Q: ParabolicData):
    """W^Q: the elements sending Delta_Q into the positive system, in the
    order of W.  Each w in W is uniquely st with s in W^Q and t in W_Q, and
    l(w) = l(s) + l(t) (Humphreys 1990, §1.10)."""
    return list(_coset_reps(rs, Q))


# ---------------------------------------------------------------------------
# the double-restriction equivalence and genericity
# ---------------------------------------------------------------------------


def _pq_signature(rs, P: ParabolicData, Q: ParabolicData, w: WeylElement):
    """The composed map: wall-Q functionals, pushed by w, restricted to
    wall P; as a matrix over the wall bases.  Its entries are ints over
    w's denominator times one for the pair (P, Q), brought to lowest terms,
    so equal maps give equal signatures."""
    m = [x for b in Q._basis for x in P._restrict(w._apply(b))]
    g = gcd(w._d, *m)
    return tuple(x // g for x in m), w._d // g


@_per_walls
def _classes(rs, P, Q):
    W = rs._group()
    classes = {}
    for w in W:
        classes.setdefault(_pq_signature(rs, P, Q, w), []).append(w)
    return tuple(map(tuple, classes.values()))


def equiv_PQ(rs: RootSystem, P: ParabolicData, Q: ParabolicData):
    """Partition of W: w1 ~ w2 when both give the same composed map from
    wall-Q functionals to wall-P functionals, in the order of W.  Classes
    are left W_P- and right W_Q-invariant (Geck & Pfeiffer 2000, §2.1)."""
    return [list(cl) for cl in _classes(rs, P, Q)]


@_per_walls
def _double_cosets(rs, P, Q):
    wp = _wq(rs, P)
    wq = _wq(rs, Q)
    W = rs._group()
    remaining = {w: w for w in W}
    out = []
    for w in W:
        if w not in remaining:
            continue
        coset = {}
        for p in wp:
            pw = p * w
            for q in wq:
                coset[pw * q] = None
        out.append(tuple(remaining.pop(m) for m in coset if m in remaining))
    return tuple(out)


def double_cosets(rs: RootSystem, P: ParabolicData, Q: ParabolicData):
    """The partition of W into W_P w W_Q double cosets."""
    return [list(c) for c in _double_cosets(rs, P, Q)]


@_per_walls
def _translate_maps(rs, P, Q):
    return tuple(P._after(cl[0]) for cl in _classes(rs, P, Q))


def _translates(rs, P, Q, S, lam):
    """The classes of (P, Q), the translate of lam by each class's kept map
    to wall P, and S restricted to wall P (the zero functional when S is
    empty), each vector as ints (re, im, d), d > 0."""
    classes = _classes(rs, P, Q)
    lam = [GQ.of(x) for x in lam]
    S_r = [P._restricted(s) for s in S] or [([0] * len(P.basis), [0] * len(P.basis), 1)]
    pairs, e = rs.space._vector(lam)
    re, im = _re_im(pairs)
    maps = _translate_maps(rs, P, Q)
    return classes, [([sum(map(mul, r, re)) for r in m], [sum(map(mul, r, im)) for r in m], d * e) for m, d in maps], S_r


def _minus(u, v):
    """u - v for vectors held as ints (re, im, d), d > 0."""
    (ur, ui, ud), (vr, vi, vd) = u, v
    return [a * vd - b * ud for a, b in zip(ur, vr)], [a * vd - b * ud for a, b in zip(ui, vi)], ud * vd


def generic_witness(rs: RootSystem, P: ParabolicData, Q: ParabolicData, S, lam):
    """None when lam is generic; otherwise a violating pair of Weyl
    elements with its lattice certificate (i1, i2, c): the difference eta
    of their restricted translates of lam lies in S_r[i1] - S_r[i2] +
    Z.Delta_r(P), with integer coordinates c.  The pair is the first
    (i, j, i1, i2) with i < j where base[i] - S_r[i1] and base[j] - S_r[i2]
    share a coset mod Z.Delta_r(P)."""
    classes, base, S_r = _translates(rs, P, Q, S, lam)
    hits, seen = [], {}  # seen: coset -> the least (i, i1) of the rows before j
    for j, v in enumerate(base):
        keys = [P.lattice._coset(*_minus(v, s0))[0] for s0 in S_r]
        hits += [(seen[k][0], j, seen[k][1], i2) for i2, k in enumerate(keys) if k in seen]
        if hits and min(hits)[0] == 0:  # no later j gives a pair before it
            break
        for i1, k in enumerate(keys):
            seen.setdefault(k, (j, i1))
    if not hits:
        return None
    i, j, i1, i2 = min(hits)
    re, im, d = _minus(_minus(base[i], S_r[i1]), _minus(base[j], S_r[i2]))
    c = P.lattice.coords([_mk(a, b, d) for a, b in zip(re, im)])
    return (classes[i][0], classes[j][0], (i1, i2, c))


def exponent_classify(rs: RootSystem, P: ParabolicData, Q: ParabolicData, S, lam, xi):
    """Locate xi (a functional on wall P, as values on its basis) in the
    translated cosets sigma.lam + (S - N.Delta)|_wall.

    Returns ("class", k, classes) for a unique class index k, or
    ("ambiguous", candidate indices, classes); raises when xi lies in no
    coset.
    """
    classes, base, S_r = _translates(rs, P, Q, S, lam)
    # xi precedes b + s exactly when xi - s precedes b: both share a coset and k_(xi - s) <= k_b
    xi = P.lattice._ints([GQ.of(x) for x in xi])
    below = [P.lattice._coset(*_minus(xi, s0)) for s0 in S_r]
    cosets = [P.lattice._coset(*v) for v in base]
    candidates = [k for k, top in enumerate(cosets) if any(_heights([top], b) for b in below)]
    if not candidates:
        raise ValueError("weight lies in no translated coset")
    classes = [list(cl) for cl in classes]
    if len(candidates) == 1:
        return ("class", candidates[0], classes)
    return ("ambiguous", candidates, classes)


# ---------------------------------------------------------------------------
# coordinates and equivalence over an independent set
# ---------------------------------------------------------------------------


def delta_coords(delta, v):
    """Coordinates of v over the independent set delta, or None."""
    return Lattice(delta).span_coords(v)


def equiv_delta(delta, xi1, xi2) -> bool:
    """Whether xi2 - xi1 lies in the integer lattice of delta."""
    return Lattice(delta).equiv(xi1, xi2)
