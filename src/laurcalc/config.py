"""Hyperplanes with roots drawn from a fixed finite set, finite
configurations of them, affine subspaces cut out by them, and the
localized products of linear forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .poly import Polynomial, Space
from .scalars import GQ, _triple


def canonical_normal(v):
    """Scale a nonzero rational vector to the primitive integer vector with
    positive first nonzero coordinate.  Returns (canonical, scalar) with
    v = scalar * canonical."""
    nums, dens = [], []
    for x in v:
        x = GQ.of(x)
        a, b, d = _triple(x)
        if b:
            raise ValueError(f"{x} is not real")
        nums.append(a)
        dens.append(d)
    if not any(nums):
        raise ValueError("zero vector has no canonical representative")
    # v = ints / denlcm and ints = g * canon, so the scalar is g / denlcm
    denlcm = lcm(*dens)
    ints = [a * (denlcm // d) for a, d in zip(nums, dens)]
    g = gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    canon = tuple(Fraction(x // g) for x in ints)
    return canon, Fraction(g, denlcm)


@dataclass(frozen=True)
class Hyperplane:
    """The zero set of z -> <normal, z> - offset, with a real rational
    normal stored in canonical primitive form."""

    normal: tuple  # Fractions
    offset: GQ

    @staticmethod
    def make(normal, offset) -> "Hyperplane":
        canon, scalar = canonical_normal(normal)
        return Hyperplane(canon, GQ.of(offset) / GQ(scalar))

    @staticmethod
    def from_form(space: Space, coeffs, const):
        """The hyperplane of the form z -> sum coeffs[j] z_j + const, as
        (h, scalar) with the form equal to scalar * h.form(space)."""
        # the form is <beta, z> + const with beta = G^{-1} coeffs
        beta = linalg.solve(space.ip, coeffs)
        canon, scalar = canonical_normal(beta)
        scalar = GQ(scalar)
        return Hyperplane(canon, -GQ.of(const) / scalar), scalar

    @property
    def dim(self):
        return len(self.normal)

    def form(self, space: Space) -> Polynomial:
        return space.linear_form(self.normal, self.offset)

    def contains(self, space: Space, point) -> bool:
        return (space.inner(self.normal, point) - self.offset).is_zero()


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
                self.multiplicity[h] = int(mult)
        self.x_set = [tuple(GQ.of(c).rational() for c in v) for v in (x_set or [])]
        if any(not any(v) for v in self.x_set):
            raise ValueError("x_set holds the zero vector, which has no canonical representative")

    @property
    def hyperplanes(self):
        return list(self.multiplicity)

    def mult(self, h: Hyperplane) -> int:
        # the usual convention: multiplicity 0 off the configuration
        return self.multiplicity.get(h, 0)


class XSubspace:
    """Nonempty intersection of hyperplanes: direction space, orthogonal
    basis-free central point, and an affine parametrization."""

    def __init__(self, space: Space, defining, basis_VL, center):
        self.space = space
        self.defining = list(defining)
        self.basis_VL = [tuple(GQ.of(x) for x in b) for b in basis_VL]
        self.center = tuple(GQ.of(x) for x in center)

    def param_point(self, s):
        """Ambient point center + sum s_j * b_j."""
        out = list(self.center)
        for c, b in zip(s, self.basis_VL):
            c = GQ.of(c)
            for i in range(self.space.dim):
                out[i] = out[i] + c * b[i]
        return out

    def induced_space(self) -> Space:
        """Coordinates s on the subspace, with the inherited inner product."""
        return self.space.subspace(self.basis_VL)

    def normal_basis(self):
        """Basis of the orthogonal complement of the direction space."""
        return self.space.orth_complement(self.basis_VL)

    def contains(self, point) -> bool:
        diff = [GQ.of(p) - c for p, c in zip(point, self.center)]
        # point - center must be orthogonal to every normal direction
        return all(
            self.space.inner(n, diff).is_zero() for n in self.normal_basis()
        )


def subspace_from(space: Space, hyps) -> XSubspace:
    """Intersection of hyperplanes, its direction space and central point.

    Raises ValueError when the linear system is inconsistent.
    """
    rows = [space.form_coeffs(h.normal) for h in hyps]
    rhs = [h.offset for h in hyps]
    if rows:
        z0 = linalg.solve(rows, rhs)
        if z0 is None:
            raise ValueError("hyperplanes have empty intersection")
    else:
        z0 = [GQ(0)] * space.dim
    basis = space.orth_complement([h.normal for h in hyps])
    # central point: the unique point of L orthogonal to the direction space
    proj = space.project_onto(z0, basis)
    center = [a - b for a, b in zip(z0, proj)]
    return XSubspace(space, hyps, basis, center)


def hyperplanes_through(cfg: Configuration, L: XSubspace):
    """Hyperplanes of the configuration containing L."""
    out = []
    for h in cfg.hyperplanes:
        normal_in_perp = all(
            cfg.space.inner(h.normal, b).is_zero() for b in L.basis_VL
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
            x_r.add(hL.normal)
    for h in cfg.hyperplanes:
        hL = restrict(h.normal, h.offset)
        if hL is not None:
            found[hL] = max(found.get(hL, 0), cfg.mult(h))
    return Configuration(sub, list(found.items()), x_set=sorted(x_r))


def pi_omega_d(cfg: Configuration, center, radius2) -> Polynomial:
    """Product of l_H^mult over hyperplanes meeting the open ball of given
    center and squared radius, by the exact squared-distance test."""
    radius2 = Fraction(radius2) if not isinstance(radius2, GQ) else radius2.rational()
    center = [GQ.of(x) for x in center]
    p = Polynomial.const(cfg.space.dim, GQ(1))
    for h in cfg.hyperplanes:
        k = cfg.mult(h)
        if not k:
            continue
        val = cfg.space.inner(h.normal, center) - h.offset
        a2 = cfg.space.inner(h.normal, h.normal).rational()
        if val.norm2() < radius2 * a2:
            p = p * h.form(cfg.space) ** k
    return p
