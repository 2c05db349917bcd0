"""Finite root systems with exact rational data, their Weyl groups, coset
combinatorics, and the genericity tests for translated exponent cosets.

Root systems are stored in the coordinate basis of their simple roots
(or any rational basis), with the geometry carried by a rational inner
product matrix, so every reflection is an exact rational matrix.  A Weyl
element holds that matrix as Python ints over one common denominator
(1 for every built-in system), so products, equality and hashing are
integer operations; the Weyl layer looks elements up by the element
itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import linalg
from .poly import Space
from .scalars import GQ, _mk, _triple


def _vec(v):
    return tuple(
        x if type(x) is Fraction else x.rational() if isinstance(x, GQ) else Fraction(x)
        for x in v
    )


def _scaled(v):
    """Ints iv and e > 0 with v = iv / e, for a sequence of Fractions; the
    lcm of reduced denominators leaves gcd(iv..., e) = 1."""
    e = lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (e // x.denominator) for x in v), e


class WeylElement:
    """An orthogonal rational matrix permuting the root set.

    The matrix is stored row by row as a flat tuple of ints ``_m`` over one
    positive denominator ``_d`` with gcd(_m..., _d) = 1, so every element
    has exactly one representation.  ``matrix`` gives it back as rows of
    ``Fraction``; ``length`` is the word length when the element came out
    of ``RootSystem.weyl_group`` and None otherwise.
    """

    __slots__ = ("_m", "_d", "dim", "length")

    def __init__(self, matrix, length=None):
        rows = [[Fraction(x) for x in row] for row in matrix]
        self._m, self._d = _scaled([x for row in rows for x in row])
        self.dim = len(rows)
        self.length = length

    @property
    def matrix(self):
        return tuple(tuple(Fraction(x, self._d) for x in row) for row in self._rows())

    def _rows(self):
        n, m = self.dim, self._m
        return [m[i * n : (i + 1) * n] for i in range(n)]

    def _apply(self, iv):
        """The ints _m . iv, so that w(iv / e) = _apply(iv) / (_d * e)."""
        return [sum(map(mul, row, iv)) for row in self._rows()]

    def act(self, v):
        iv, e = _scaled(_vec(v))
        d = self._d * e
        return tuple(Fraction(x, d) for x in self._apply(iv))

    def act_gq(self, v):
        v = [_triple(GQ.of(x)) for x in v]
        e = lcm(*(d for _, _, d in v))
        re = self._apply([a * (e // d) for a, _, d in v])
        im = self._apply([b * (e // d) for _, b, d in v])
        d = self._d * e
        return tuple(_mk(a, b, d) for a, b in zip(re, im))

    def _fixes(self, iv):
        """Whether w fixes the vector iv / e, for any e."""
        return self._apply(iv) == [self._d * x for x in iv]

    def __mul__(self, other):
        n = self.dim
        cols = [other._m[j::n] for j in range(n)]
        m = tuple(sum(map(mul, row, col)) for row in self._rows() for col in cols)
        return _element(m, self._d * other._d, n)

    def inverse(self):
        inv = linalg.invert([[GQ(x) for x in row] for row in self.matrix])
        return WeylElement([[x.rational() for x in row] for row in inv])

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


def _element(m, d, dim, length=None):
    """The WeylElement with ints m over d > 0, brought to lowest terms."""
    if d != 1:
        g = gcd(d, *m)
        if g != 1:
            m = tuple(x // g for x in m)
            d //= g
    w = WeylElement.__new__(WeylElement)
    w._m = m
    w._d = d
    w.dim = dim
    w.length = length
    return w


def _identity_ints(n):
    return tuple(1 if i == j else 0 for i in range(n) for j in range(n))


class RootSystem:
    def __init__(self, dim, roots, ip=None, positive=None, simple=None, name=None):
        self.space = Space(dim, ip)
        self.dim = dim
        self.roots = [_vec(r) for r in roots]
        if positive is None:
            raise ValueError("a positive system must be specified")
        self.positive = [self.roots[i] for i in positive]
        self._positive = set(self.positive)
        if simple is None:
            simple = self._find_simple()
        self.simple = [_vec(s) for s in simple]
        self.name = name
        self._weyl = None
        self._validate()

    # -- geometry ----------------------------------------------------

    def inner(self, u, v) -> Fraction:
        return self.space.inner(u, v).rational()

    def reflection(self, alpha) -> WeylElement:
        alpha = _vec(alpha)
        s = self._reflections.get(alpha)
        if s is None:
            return self._reflect(alpha)
        # a fresh element, so setting its length leaves the kept one alone
        return _element(s._m, s._d, s.dim)

    def _reflect(self, alpha) -> WeylElement:
        # z -> z - 2 <alpha, z> alpha / <alpha, alpha>, with alpha and the
        # form <alpha, .> scaled to ints a and b, so <alpha, alpha> ~ a . b
        a, _ = _scaled(alpha)
        b, _ = _scaled(_vec(self.space.form_coeffs(alpha)))
        n2 = sum(map(mul, a, b))
        if n2 == 0:
            raise ValueError("cannot reflect in an isotropic vector")
        n = self.dim
        m = tuple((n2 if i == j else 0) - 2 * a[i] * b[j] for i in range(n) for j in range(n))
        if n2 < 0:
            m, n2 = tuple(-x for x in m), -n2
        return _element(m, n2, n)

    # -- validation --------------------------------------------------

    def _find_simple(self):
        simple = []
        for a in self.positive:
            decomposable = any(
                tuple(x - y for x, y in zip(a, b)) in self._positive
                for b in self.positive
                if b != a
            )
            if not decomposable:
                simple.append(a)
        return simple

    def _validate(self):
        rset = set(self.roots)
        if len(rset) != len(self.roots):
            raise ValueError("duplicate roots")
        for a in self.roots:
            if all(x == 0 for x in a):
                raise ValueError("zero is not a root")
            if tuple(-x for x in a) not in rset:
                raise ValueError("root set not symmetric")
        # each root's reflection, built once and kept for ``reflection``
        self._reflections = {a: self._reflect(a) for a in self.roots}
        for s in self._reflections.values():
            for b in self.roots:
                if s.act(b) not in rset:
                    raise ValueError("root set not closed under reflections")
        pset = self._positive
        if len(pset) * 2 != len(rset) or any(
            (a in pset) == (tuple(-x for x in a) in pset) for a in self.roots
        ):
            raise ValueError("invalid positive system")
        if linalg.rank([[GQ(x) for x in s] for s in self.simple]) != len(self.simple):
            raise ValueError("simple roots not linearly independent")
        # every positive root is a nonnegative integer combination of Delta
        for a in self.positive:
            c = lattice_coords(self.simple, a)
            if c is None or any(x < 0 for x in c):
                raise ValueError("positive root outside the nonnegative simple span")

    def is_positive(self, v):
        return _vec(v) in self._positive

    # -- Weyl group --------------------------------------------------

    def weyl_group(self):
        """All Weyl elements, with lengths, by closure of the simple
        reflections; breadth-first depth equals the word length."""
        if self._weyl is not None:
            return self._weyl
        gens = [self.reflection(a) for a in self.simple]
        ident = _element(_identity_ints(self.dim), 1, self.dim, length=0)
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
                        m.length = depth
                        seen[m] = m
                        nxt.append(m)
            frontier = nxt
            if len(seen) > 100000:
                raise ValueError("group closure did not terminate; invalid input")
        self._weyl = list(seen.values())
        return self._weyl

    def identity(self):
        return next(w for w in self.weyl_group() if w.length == 0)


def weyl_enumerate(rs: RootSystem):
    return rs.weyl_group()


# ---------------------------------------------------------------------------
# built-in systems (coordinates in the simple-root basis; the Gram matrix
# of the simple roots carries the geometry)
# ---------------------------------------------------------------------------


def _span_system(name, gram, positive_coords):
    roots = [tuple(Fraction(x) for x in c) for c in positive_coords]
    roots = roots + [tuple(-x for x in r) for r in roots]
    dim = len(gram)
    simple = [
        tuple(Fraction(1 if j == i else 0) for j in range(dim)) for i in range(dim)
    ]
    return RootSystem(
        dim,
        roots,
        ip=gram,
        positive=list(range(len(positive_coords))),
        simple=simple,
        name=name,
    )


def builtin_system(name: str) -> RootSystem:
    key = name.upper().replace("X", "x")
    if key == "A1":
        return _span_system("A1", [[2]], [(1,)])
    if key in ("A1xA1", "A1XA1"):
        return _span_system("A1xA1", [[2, 0], [0, 2]], [(1, 0), (0, 1)])
    if key == "A2":
        return _span_system(
            "A2", [[2, -1], [-1, 2]], [(1, 0), (0, 1), (1, 1)]
        )
    if key == "B2":
        return _span_system(
            "B2",
            [[2, -1], [-1, 1]],
            [(1, 0), (0, 1), (1, 1), (1, 2)],
        )
    if key == "G2":
        return _span_system(
            "G2",
            [[2, -3], [-3, 6]],
            [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)],
        )
    if key == "A3":
        return _span_system(
            "A3",
            [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
            [
                (1, 0, 0),
                (0, 1, 0),
                (0, 0, 1),
                (1, 1, 0),
                (0, 1, 1),
                (1, 1, 1),
            ],
        )
    raise ValueError(f"unknown built-in root system {name!r}")


BUILTIN_NAMES = ["A1", "A1xA1", "A2", "B2", "G2", "A3"]


# ---------------------------------------------------------------------------
# parabolic data
# ---------------------------------------------------------------------------


class ParabolicData:
    """A subset of the simple roots, the wall it cuts out, and the
    restricted simple roots on that wall."""

    def __init__(self, rs: RootSystem, delta_q_indices):
        self.rs = rs
        self.indices = sorted(set(delta_q_indices))
        for i in self.indices:
            if i not in range(len(rs.simple)):
                raise ValueError(
                    f"simple root index {i} out of range for {len(rs.simple)} simple roots"
                )
        self.delta_Q = [rs.simple[i] for i in self.indices]
        rows = [rs.space.form_coeffs(a) for a in self.delta_Q]
        self.basis = [
            tuple(x.rational() for x in v)
            for v in linalg.nullspace(rows, ncols=rs.dim)
        ]
        # the forms <., b> for b in the basis, as ints over a denominator
        self._forms = [_scaled(_vec(rs.space.form_coeffs(b))) for b in self.basis]
        self.delta_rest_indices = [
            i for i in range(len(rs.simple)) if i not in self.indices
        ]
        self.delta_r = [self.restrict(rs.simple[i]) for i in self.delta_rest_indices]
        if len(set(self.delta_r)) != len(self.delta_r):
            raise ValueError("restricted simple roots not pairwise distinct")
        if self.delta_r and linalg.rank(
            [[GQ(x) for x in v] for v in self.delta_r]
        ) != len(self.delta_r):
            raise ValueError("restricted simple roots not linearly independent")
        # restrictions of the roots outside the span of delta_Q
        self.sigma_r = sorted(
            {
                self.restrict(a)
                for a in rs.positive
                if any(x != 0 for x in self.restrict(a))
            }
        )

    @property
    def codim(self):
        """Codimension of the wall in the full space."""
        return self.rs.dim - len(self.basis)

    def restrict(self, v):
        """The functional on the wall: values on the wall basis."""
        iv, e = _scaled(_vec(v))
        return tuple(Fraction(sum(map(mul, iv, f)), e * d) for f, d in self._forms)

    def restrict_gq(self, v):
        return tuple(self.rs.space.inner(v, b) for b in self.basis)


def wq_subgroup(rs: RootSystem, Q: ParabolicData):
    """W_Q by both characterizations: centralizer of the wall, and the
    group generated by the reflections in Delta_Q; asserted equal."""
    W = rs.weyl_group()
    basis = [_scaled(b)[0] for b in Q.basis]
    centralizer = [w for w in W if all(w._fixes(b) for b in basis)]
    gens = [rs.reflection(a) for a in Q.delta_Q]
    ident = rs.identity()
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                m = w * g
                if m not in seen:
                    seen.add(m)
                    nxt.append(m)
        frontier = nxt
    if set(centralizer) != seen:
        raise ValueError("centralizer and reflection subgroup disagree")
    return centralizer


def min_coset_reps(rs: RootSystem, Q: ParabolicData):
    """W^Q: elements sending Delta_Q into the positive system.  Verifies
    that W^Q x W_Q -> W multiplies bijectively with additive lengths."""
    W = rs.weyl_group()
    reps = [
        w for w in W if all(rs.is_positive(w.act(a)) for a in Q.delta_Q)
    ]
    wq = wq_subgroup(rs, Q)
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


def wq_decompose(rs: RootSystem, Q: ParabolicData, w: WeylElement):
    """Write w = s * t with s in W^Q and t in W_Q."""
    for t in wq_subgroup(rs, Q):
        s = w * t.inverse()
        if all(rs.is_positive(s.act(a)) for a in Q.delta_Q):
            return s, t
    raise ValueError("decomposition failed; invalid input")


def wq_invariance_check(rs: RootSystem, Q: ParabolicData, s: WeylElement, alpha):
    """With t the W_Q-component of s, report whether s and s_alpha*s lie
    in W^Q t.  Requires the reflected image of alpha not to vanish on the
    wall."""
    alpha = _vec(alpha)
    sinva = s.inverse().act(alpha)
    if all(x == 0 for x in Q.restrict(sinva)):
        raise ValueError("reflected root vanishes on the wall")
    _, t = wq_decompose(rs, Q, s)
    _, t2 = wq_decompose(rs, Q, rs.reflection(alpha) * s)
    return (t == t, t2 == t)


# ---------------------------------------------------------------------------
# the double-restriction equivalence and genericity
# ---------------------------------------------------------------------------


def _pq_signature(rs, P: ParabolicData, Q: ParabolicData, w: WeylElement):
    """The composed map: wall-Q functionals, pushed by w, restricted to
    wall P; as a matrix over the wall bases."""
    return tuple(P.restrict(w.act(v)) for v in Q.basis)


def equiv_PQ(rs: RootSystem, P: ParabolicData, Q: ParabolicData):
    """Partition of W: w1 ~ w2 when both give the same composed map from
    wall-Q functionals to wall-P functionals.  Classes are left W_P- and
    right W_Q-invariant (asserted)."""
    W = rs.weyl_group()
    classes = {}
    for w in W:
        classes.setdefault(_pq_signature(rs, P, Q, w), []).append(w)
    out = list(classes.values())
    wp = wq_subgroup(rs, P)
    wq = wq_subgroup(rs, Q)
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


def double_cosets(rs: RootSystem, P: ParabolicData, Q: ParabolicData):
    """The partition of W into W_P w W_Q double cosets."""
    wp = wq_subgroup(rs, P)
    wq = wq_subgroup(rs, Q)
    remaining = {w: w for w in rs.weyl_group()}
    out = []
    for w in rs.weyl_group():
        if w not in remaining:
            continue
        coset = {}
        for p in wp:
            pw = p * w
            for q in wq:
                coset[pw * q] = None
        out.append([remaining.pop(m) for m in coset if m in remaining])
    return out


def _lattice_certificate(P: ParabolicData, eta, S_r):
    """If eta lies in [S+(-S)]|_wall + Z.Delta_r(P), return the witnessing
    (sigma1, sigma2, integer coefficients); otherwise None.

    eta and the members of S_r are GQ tuples over the wall basis.
    """
    for i1, s1 in enumerate(S_r):
        for i2, s2 in enumerate(S_r):
            target = [e - (a - b) for e, a, b in zip(eta, s1, s2)]
            c = lattice_coords(P.delta_r, target)
            if c is not None:
                return (i1, i2, c)
    return None


def generic_witness(rs: RootSystem, P: ParabolicData, Q: ParabolicData, S, lam):
    """None when lam is generic; otherwise a violating pair of Weyl
    elements with its lattice certificate."""
    lam = [GQ.of(x) for x in lam]
    S_r = [P.restrict_gq(s) for s in S] or [tuple(GQ(0) for _ in P.basis)]
    classes = equiv_PQ(rs, P, Q)
    reps = [cl[0] for cl in classes]
    for i, s1 in enumerate(reps):
        for s2 in reps[i + 1 :]:
            v1 = s1.act_gq(lam)
            v2 = s2.act_gq(lam)
            eta = tuple(
                a - b
                for a, b in zip(P.restrict_gq(v1), P.restrict_gq(v2))
            )
            cert = _lattice_certificate(P, eta, S_r)
            if cert is not None:
                return (s1, s2, cert)
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
    lam = [GQ.of(x) for x in lam]
    xi = [GQ.of(x) for x in xi]
    S_r = [P.restrict_gq(s) for s in S] or [tuple(GQ(0) for _ in P.basis)]
    classes = equiv_PQ(rs, P, Q)
    candidates = []
    for k, cl in enumerate(classes):
        base = P.restrict_gq(cl[0].act_gq(lam))
        for s0 in S_r:
            target = [b + s - x for b, s, x in zip(base, s0, xi)]
            c = lattice_coords(P.delta_r, target)
            if c is not None and all(x >= 0 for x in c):
                candidates.append(k)
                break
    if not candidates:
        raise ValueError("weight lies in no translated coset")
    if len(candidates) == 1:
        return ("class", candidates[0], classes)
    return ("ambiguous", candidates, classes)


# ---------------------------------------------------------------------------
# the partial order generated by an independent set
# ---------------------------------------------------------------------------


def delta_coords(delta, v):
    """Coordinates of v over the independent set delta, or None."""
    delta = [_vec(d) for d in delta]
    v = [GQ.of(x) for x in v]
    cols = [[GQ(d[i]) for d in delta] for i in range(len(v))]
    # exact elimination: None exactly when v is outside the span of delta
    return linalg.solve(cols, v)


def lattice_coords(delta, v):
    """The integer coordinates (as Fractions) of v over the independent set
    delta, or None when v is not in the lattice Z.delta."""
    c = delta_coords(delta, v)
    if c is None:
        return None
    out = []
    for x in c:
        a, b, d = _triple(x)
        if b or d != 1:
            return None
        out.append(Fraction(a))
    return out


def preceq_delta(delta, xi1, xi2) -> bool:
    """xi1 precedes xi2 when the difference is a nonnegative integer
    combination of delta."""
    diff = [GQ.of(b) - GQ.of(a) for a, b in zip(xi1, xi2)]
    c = lattice_coords(delta, diff)
    return c is not None and all(x >= 0 for x in c)


def equiv_delta(delta, xi1, xi2) -> bool:
    """Difference in the integer lattice of delta."""
    diff = [GQ.of(b) - GQ.of(a) for a, b in zip(xi1, xi2)]
    return lattice_coords(delta, diff) is not None


def class_lub(delta, omega):
    """Least upper bound of a lattice-equivalent family: componentwise
    maximum of the delta-coordinates relative to the first member."""
    if not omega:
        raise ValueError("empty family has no least upper bound")
    base = [GQ.of(x) for x in omega[0]]
    coords = []
    for xi in omega:
        diff = [GQ.of(b) - a for a, b in zip(base, xi)]
        c = lattice_coords(delta, diff)
        if c is None:
            raise ValueError("family members are not lattice equivalent")
        coords.append(c)
    best = [max(col) for col in zip(*coords)] if delta else []
    out = list(base)
    for m, d in zip(best, [_vec(x) for x in delta]):
        for i in range(len(out)):
            out[i] = out[i] + GQ(m) * GQ(d[i])
    return tuple(out)
