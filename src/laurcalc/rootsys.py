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
inverses and kernels; ``roots``, ``matrix``, ``act``, ``restrict`` and the
other public names build their Fractions from the ints.  The Weyl layer
looks elements up by the element itself.

Z.Delta questions go to the shared ``Lattice`` of each Delta
(``laurcalc.lattice``), here and in the ``*_delta`` functions.

What does not change is computed once per process: ``builtin_system``
builds and validates each built-in on its first call and returns that
system afterwards, and each system keeps W, W_Q and W^Q per Q and the
restriction classes and double cosets per (P, Q), every theorem check
run when its entry is built.  Everything shared is immutable (Weyl
elements, root tuples), and the public functions hand out new lists.
"""

from __future__ import annotations

from math import gcd
from operator import mul, sub

from . import linalg
from .lattice import Lattice, _lattice
from .scalars import GQ, _fractions, _int_rows, _mk, _over_lcm, _re_im, _real_over_lcm
from .space import Space, _sized


class WeylElement:
    """An orthogonal rational matrix permuting the root set.

    The matrix is stored as a tuple of int row tuples ``_m`` over one
    positive denominator ``_d`` with gcd(_m..., _d) = 1, so every element
    has exactly one representation.  ``matrix`` gives it back as rows of
    ``Fraction``; ``length`` is the word length when the element came out
    of ``RootSystem.weyl_group`` and None otherwise.  Elements are
    immutable: root systems share them between callers.
    """

    __slots__ = ("_m", "_d", "dim", "length")

    def __init__(self, matrix):
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

    def _fixes(self, iv):
        """Whether w fixes the vector iv / e, for any e."""
        return self._apply(iv) == [self._d * x for x in iv]

    def __mul__(self, other):
        cols = list(zip(*other._m))
        m = tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in self._m)
        return _element(m, self._d * other._d, self.dim)

    def inverse(self):
        # (m / d)^-1 = d m^-1 = d inv / det for the int inverse inv / det
        inv, (det, _) = linalg._inverse([[(x, 0) for x in row] for row in self._m])
        s = self._d if det > 0 else -self._d
        return _element(tuple(tuple(s * x for x, _ in row) for row in inv), abs(det), self.dim)

    def is_identity(self):
        return self._d == 1 and self._m == _identity_ints(self.dim)

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
        if self._weyl is not None:
            return self._weyl
        ident = _element(_identity_ints(self.dim), 1, self.dim, length=0)
        self._weyl = _closure([self.reflection(a) for a in self.simple], ident)
        return self._weyl

    def identity(self):
        return self._group()[0]


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
        # int vectors over d; the forms <., b> for them, as the ints G b over _den
        basis, (d, _) = linalg._kernel([rs.space._linear(*_over_lcm(a))[0] for a in self.delta_Q], rs.dim)
        self._basis = tuple(tuple(x for x, _ in v) for v in basis)
        self.basis = tuple(_fractions(v, d) for v in self._basis)
        self._forms = tuple(tuple(sum(map(mul, row, b)) for row in rs.space._g) for b in self._basis)
        self._den = rs.space._e * d
        self.delta_rest_indices = tuple(i for i in range(len(rs.simple)) if i not in indices)
        self.delta_r = tuple(self.restrict(rs.simple[i]) for i in self.delta_rest_indices)
        if len(set(self.delta_r)) != len(self.delta_r):
            raise ValueError("restricted simple roots not pairwise distinct")
        self.lattice = _lattice(self.delta_r, len(self.basis), "restricted simple roots")
        rs._pairs[key] = self
        return self

    def _restrict(self, iv):
        """The ints of ``restrict`` for an int vector iv, over ``_den``."""
        return [sum(map(mul, iv, f)) for f in self._forms]

    def restrict(self, v):
        """The functional on the wall: values on the wall basis."""
        iv, e = _real_over_lcm(_sized(v, self.rs.dim))
        return _fractions(self._restrict(iv), e * self._den)

    def restrict_gq(self, v):
        """``restrict`` for a vector of GQs."""
        pairs, e = self.rs.space._vector(v)
        re, im = _re_im(pairs)
        d = e * self._den
        return tuple(_mk(sum(map(mul, re, f)), sum(map(mul, im, f)), d) for f in self._forms)


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
    W = rs._group()
    centralizer = tuple(w for w in W if all(w._fixes(b) for b in Q._basis))
    if set(centralizer) != set(_closure([rs.reflection(a) for a in Q.delta_Q], rs.identity())):
        raise ValueError("centralizer and reflection subgroup disagree")
    return centralizer


def wq_subgroup(rs: RootSystem, Q: ParabolicData):
    """W_Q by both characterizations: centralizer of the wall, and the
    group generated by the reflections in Delta_Q; asserted equal."""
    return list(_wq(rs, Q))


@_per_walls
def _coset_reps(rs, Q):
    W = rs._group()
    reps = tuple(w for w in W if all(rs.is_positive(w.act_gq(a)) for a in Q.delta_Q))
    wq = _wq(rs, Q)
    lengths = {w: w.length for w in W}
    seen = set()
    for s in reps:
        for t in wq:
            st = s * t
            if st in seen:
                raise ValueError("coset decomposition not injective")
            if lengths[st] != s.length + t.length:
                raise ValueError("length additivity fails")
            seen.add(st)
    if len(seen) != len(W):
        raise ValueError("coset decomposition not surjective")
    return reps


def min_coset_reps(rs: RootSystem, Q: ParabolicData):
    """W^Q: elements sending Delta_Q into the positive system.  Verifies
    that W^Q x W_Q -> W multiplies bijectively with additive lengths."""
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
    out = tuple(map(tuple, classes.values()))
    wp = _wq(rs, P)
    wq = _wq(rs, Q)
    index = {}
    for k, cl in enumerate(out):
        for w in cl:
            index[w] = k
    for w in W:
        for p in wp:
            if index[p * w] != index[w]:
                raise ValueError("classes not left invariant")
        for q in wq:
            if index[w * q] != index[w]:
                raise ValueError("classes not right invariant")
    return out


def equiv_PQ(rs: RootSystem, P: ParabolicData, Q: ParabolicData):
    """Partition of W: w1 ~ w2 when both give the same composed map from
    wall-Q functionals to wall-P functionals.  Classes are left W_P- and
    right W_Q-invariant (asserted)."""
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


def _translates(rs, P, Q, S, lam):
    """The classes of (P, Q), the translate of lam by each class
    representative restricted to wall P, and S restricted to wall P (the
    zero functional when S is empty)."""
    classes = _classes(rs, P, Q)
    lam = [GQ.of(x) for x in lam]
    S_r = [P.restrict_gq(s) for s in S] or [tuple(GQ(0) for _ in P.basis)]
    return classes, [P.restrict_gq(cl[0].act_gq(lam)) for cl in classes], S_r


def generic_witness(rs: RootSystem, P: ParabolicData, Q: ParabolicData, S, lam):
    """None when lam is generic; otherwise a violating pair of Weyl
    elements with its lattice certificate (i1, i2, c): the difference eta
    of their restricted translates of lam lies in S_r[i1] - S_r[i2] +
    Z.Delta_r(P), with integer coordinates c."""
    classes, base, S_r = _translates(rs, P, Q, S, lam)
    for i, v1 in enumerate(base):
        for j in range(i + 1, len(base)):
            eta = [a - b for a, b in zip(v1, base[j])]
            for i1, a in enumerate(S_r):
                for i2, b in enumerate(S_r):
                    c = P.lattice.coords([e - (x - y) for e, x, y in zip(eta, a, b)])
                    if c is not None:
                        return (classes[i][0], classes[j][0], (i1, i2, c))
    return None


def is_generic(rs: RootSystem, P: ParabolicData, Q: ParabolicData, S, lam) -> bool:
    return generic_witness(rs, P, Q, S, lam) is None


def exponent_classify(rs: RootSystem, P: ParabolicData, Q: ParabolicData, S, lam, xi):
    """Locate xi (a functional on wall P, as values on its basis) in the
    translated cosets sigma.lam + (S - N.Delta)|_wall.

    Returns ("class", k, classes) for a unique class index k, or
    ("ambiguous", candidate indices, classes); raises when xi lies in no
    coset.
    """
    classes, base, S_r = _translates(rs, P, Q, S, lam)
    xi = [GQ.of(x) for x in xi]
    candidates = [
        k
        for k, v in enumerate(base)
        if any(P.lattice.preceq(xi, [b + s for b, s in zip(v, s0)]) for s0 in S_r)
    ]
    if not candidates:
        raise ValueError("weight lies in no translated coset")
    classes = [list(cl) for cl in classes]
    if len(candidates) == 1:
        return ("class", candidates[0], classes)
    return ("ambiguous", candidates, classes)


# ---------------------------------------------------------------------------
# the partial order generated by an independent set
# ---------------------------------------------------------------------------


def delta_coords(delta, v):
    """Coordinates of v over the independent set delta, or None."""
    return _lattice(delta).span_coords(v)


def preceq_delta(delta, xi1, xi2) -> bool:
    """Whether xi2 - xi1 is a nonnegative integer combination of delta."""
    return _lattice(delta).preceq(xi1, xi2)


def equiv_delta(delta, xi1, xi2) -> bool:
    """Whether xi2 - xi1 lies in the integer lattice of delta."""
    return _lattice(delta).equiv(xi1, xi2)


def class_lub(delta, omega):
    """Least upper bound of a lattice-equivalent family (``Lattice.lub``)."""
    return _lattice(delta).lub(omega)
