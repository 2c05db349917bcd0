"""Hyperplanes with roots drawn from a fixed finite set, finite
configurations of them, affine subspaces cut out by them, and the
localized products of linear forms.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from . import linalg
from .poly import Polynomial, _key_form
from .scalars import GQ, _fractions, _mk, _re_im, _real_over_lcm, _triple
from .space import Space, _sized


def _primitive(ints):
    """(canon, g) for a nonzero int vector ints = g * canon, canon the
    primitive int tuple with positive first nonzero coordinate."""
    if not any(ints):
        raise ValueError("zero vector has no canonical representative")
    g = gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints), g


def _canonical(v):
    """(canon, g, d) for a real rational vector v = g/d * canon: where a
    direction enters the library; past it, directions are keyed by canon."""
    ints, d = _real_over_lcm(v)
    return (*_primitive(ints), d)


def _order(k, field, *args):
    """The int k, a multiplicity, power or pole order read from the field
    ``field.format(*args)``; a negative one is a ValueError naming the
    field, which is formatted only then."""
    k = int(k)
    if k < 0:
        raise ValueError(f"{field.format(*args)} must be nonnegative, got {k}")
    return k


def canonical_normal(v):
    """Scale a nonzero rational vector to the primitive integer vector with
    positive first nonzero coordinate.  Returns (canonical, scalar) with
    v = scalar * canonical, the canonical vector as a tuple of Fraction."""
    canon, g, d = _canonical(v)
    return _fractions(canon, 1), Fraction(g, d)


class Hyperplane:
    """The zero set of z -> <normal, z> - offset, with a real rational
    normal in canonical primitive form, a tuple of Fraction, kept also as
    the int tuple that keys it inside the library (equal, and equal in
    hash, to the Fraction tuple).  Immutable; equality, hash and repr are
    those of the pair (normal, offset), and the hash is computed once."""

    __slots__ = ("normal", "offset", "_hash", "_ints")

    def __init__(self, normal, offset):
        """normal is the canonical primitive vector, as ints or integral
        Fractions; ``make`` and ``from_form`` find it."""
        canon, g, d = _canonical(normal)
        if g != d:
            raise ValueError("hyperplane normals must be canonical primitive vectors")
        _hyperplane(canon, offset, self)

    def __setattr__(self, name, value):
        raise AttributeError("Hyperplane is immutable")

    def __eq__(self, other):
        if other.__class__ is not Hyperplane:
            return NotImplemented
        return self._ints == other._ints and self.offset == other.offset

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Hyperplane(normal={self.normal!r}, offset={self.offset!r})"

    @staticmethod
    def make(normal, offset) -> "Hyperplane":
        canon, g, d = _canonical(normal)
        return _hyperplane(canon, GQ.of(offset) / _mk(g, 0, d))

    @staticmethod
    def from_form(space: Space, coeffs, const):
        """The hyperplane of the form z -> sum coeffs[j] z_j + const, as
        (h, scalar) with the form equal to scalar * h.form(space)."""
        # the form is <beta, z> + const with G beta = coeffs, and G is the
        # int Gram matrix over e, so beta is e G^-1 coeffs, G^-1 kept as ints over di
        pairs, dc = space._vector(coeffs)
        rows, di = space._inv
        re, im = ([sum(map(mul, row, part)) for row in rows] for part in _re_im(pairs))
        for a, b in zip(re, im):
            if b:
                raise ValueError(f"{_mk(a, b, di * dc)} is not real")
        canon, g = _primitive(re)
        scalar = _mk(g * space._e, 0, di * dc)
        return _hyperplane(canon, -GQ.of(const) / scalar), scalar

    @property
    def dim(self):
        return len(self._ints)

    def form(self, space: Space) -> Polynomial:
        return _key_form(space, self._ints, self.offset)

    def contains(self, space: Space, point) -> bool:
        return (space._key_inner(self._ints, *space._vector(point)) - self.offset).is_zero()


def _hyperplane(ints, offset, h=None) -> Hyperplane:
    """The hyperplane of the canonical primitive int normal ints, which is
    not checked; h is set up when given."""
    h = object.__new__(Hyperplane) if h is None else h
    for name, value in zip(Hyperplane.__slots__, (_fractions(ints, 1), offset, hash((ints, offset)), ints)):
        object.__setattr__(h, name, value)
    return h


class Configuration:
    """A finite collection of hyperplanes with multiplicities, with the
    underlying root set and its canonical proportionality representatives."""

    def __init__(self, space: Space, hyperplanes=None, x_set=None):
        self.space = space
        self.multiplicity = {}
        if hyperplanes:
            for h, mult in hyperplanes:
                if h.dim != space.dim:
                    raise ValueError("hyperplane dimension mismatch")
                if h in self.multiplicity:
                    raise ValueError(f"duplicate hyperplane {h}")
                self.multiplicity[h] = _order(mult, "mult of {}", h)
        self.x_set = [_fractions(*_real_over_lcm(v)) for v in (x_set or [])]
        if any(not any(v) for v in self.x_set):
            raise ValueError("x_set holds the zero vector, which has no canonical representative")

    @property
    def hyperplanes(self):
        return list(self.multiplicity)

    def mult(self, h: Hyperplane) -> int:
        # the usual convention: multiplicity 0 off the configuration
        return self.multiplicity.get(h, 0)


class XSubspace:
    """Nonempty intersection of hyperplanes: direction space, central point
    and an affine parametrization.  Immutable, with tuple fields; its normal
    basis and its induced and transverse spaces are computed when it is built."""

    __slots__ = ("space", "defining", "basis_VL", "center", "_normal", "_induced", "_transverse")

    def __init__(self, space: Space, defining, basis_VL, center):
        basis_VL = tuple(tuple(GQ.of(x) for x in b) for b in basis_VL)
        normal = tuple(map(tuple, space.orth_complement(basis_VL)))
        center = tuple(GQ.of(x) for x in _sized(center, space.dim))
        values = (space, tuple(defining), basis_VL, center, normal, space.subspace(basis_VL), space.subspace(normal))
        for slot, value in zip(XSubspace.__slots__, values):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name, value):
        raise AttributeError("XSubspace is immutable")

    def param_point(self, s):
        """Ambient point center + sum s_j * b_j."""
        out = list(self.center)
        for c, b in zip(_sized(s, len(self.basis_VL)), self.basis_VL):
            c = GQ.of(c)
            for i in range(self.space.dim):
                out[i] = out[i] + c * b[i]
        return out

    def induced_space(self) -> Space:
        """Coordinates s on the subspace, with the inherited inner product."""
        return self._induced

    def normal_basis(self):
        """Basis of the orthogonal complement of the direction space."""
        return self._normal

    def contains(self, point) -> bool:
        diff = [GQ.of(p) - c for p, c in zip(_sized(point, self.space.dim), self.center)]
        # point - center must be orthogonal to every normal direction
        return all(self.space.inner(n, diff).is_zero() for n in self._normal)


def subspace_from(space: Space, hyps) -> XSubspace:
    """Intersection of hyperplanes, its direction space and central point.

    Raises ValueError when the linear system is inconsistent.
    """
    # the central point is the point of L in the span of the normals
    normals = [h._ints for h in hyps]
    c = linalg.solve([[space.inner(a, b) for b in normals] for a in normals], [h.offset for h in hyps])
    if c is None:
        raise ValueError("hyperplanes have empty intersection")
    center = [sum((x * GQ(n[i]) for x, n in zip(c, normals)), GQ(0)) for i in range(space.dim)]
    basis = space.orth_complement(normals)
    return XSubspace(space, hyps, basis, center)


def hyperplanes_through(cfg: Configuration, L: XSubspace):
    """Hyperplanes of the configuration containing L."""
    out = []
    for h in cfg.hyperplanes:
        normal_in_perp = all(
            cfg.space.inner(h._ints, b).is_zero() for b in L.basis_VL
        )
        if normal_in_perp and h.contains(cfg.space, L.center):
            out.append(h)
    return out


def induced_config(cfg: Configuration, L: XSubspace) -> Configuration:
    """The configuration induced on L: the hyperplanes of L cut out by the
    hyperplanes of cfg, each with the largest multiplicity among those
    cutting it out."""
    sub = L.induced_space()

    def restrict(normal, offset):
        """The hyperplane of L cut out by <normal, z> = offset, in the
        s-coordinates; None when the form is constant on L."""
        coeffs = [cfg.space.inner(normal, b) for b in L.basis_VL]
        if all(c.is_zero() for c in coeffs):
            return None
        const = cfg.space.inner(normal, L.center) - offset
        return Hyperplane.from_form(sub, coeffs, const)[0]

    found = {}
    x_r = set()
    for v in cfg.x_set:
        hL = restrict(v, GQ(0))
        if hL is not None:
            x_r.add(hL._ints)
    for h in cfg.hyperplanes:
        hL = restrict(h._ints, h.offset)
        if hL is not None:
            found[hL] = max(found.get(hL, 0), cfg.mult(h))
    return Configuration(sub, list(found.items()), x_set=sorted(x_r))


def pi_omega_d(cfg: Configuration, center, radius2) -> Polynomial:
    """Product of l_H^mult over hyperplanes meeting the open ball of given
    center and squared radius, by the exact squared-distance test."""
    (r,), rd = _real_over_lcm([radius2])
    center = [GQ.of(x) for x in center]
    p = Polynomial.const(cfg.space.dim, GQ(1))
    for h in cfg.hyperplanes:
        k = cfg.mult(h)
        if not k:
            continue
        # |<normal, center> - offset|^2 < radius2 <normal, normal>, in ints
        va, vb, vd = _triple(cfg.space.inner(h._ints, center) - h.offset)
        na, _, nd = _triple(cfg.space.inner(h._ints, h._ints))
        if (va * va + vb * vb) * rd * nd < r * na * vd * vd:
            p = p * h.form(cfg.space) ** k
    return p
