"""Local germs with linear-form poles, and global rational functions whose
denominators are products of configuration hyperplanes.

A germ at a is stored as a pole multi-index over canonical root directions
together with a truncated Taylor jet of the regularized function: the
represented object is jet(w) / prod <xi, w>^d(xi), w = z - a.
"""

from __future__ import annotations

from .config import Hyperplane, XSubspace, _canonical, _order
from .poly import Polynomial, _inverse_sum, _key_form, quotient_rule
from .scalars import GQ
from .space import ArityError, Space, _sized


class Germ:
    """A germ at ``base``: ``jet`` over the product of <xi, w>^k for the
    entries xi: k of ``pole``, with w = z - base.  The keys of ``pole`` are
    canonical primitive int tuples, which equal and hash like the tuples
    of Fraction with the same entries."""

    __slots__ = ("space", "base", "pole", "jet", "order")

    def __init__(self, space: Space, base, pole, jet: Polynomial, order: int):
        order = _order(order, "order")
        if jet.dim != space.dim:
            raise ArityError(f"a jet in {jet.dim} variables in a space of dimension {space.dim}")
        keys = {}
        for xi, k in dict(pole).items():
            _sized(xi, space.dim)
            k = _order(k, "pole order along {}", xi)
            if k:
                canon, g, d = _canonical(xi)
                if g != d:
                    raise ValueError("pole directions must be canonical primitive vectors")
                keys[canon] = k
        _germ(space, tuple(GQ.of(x) for x in _sized(base, space.dim)), keys, jet.truncate(order), order, self)

    def copy_with(self, jet: Polynomial) -> "Germ":
        """The germ with the same base, pole and order and a new jet."""
        return _germ(self.space, self.base, dict(self.pole), jet.truncate(self.order), self.order)

    def is_holomorphic(self):
        return not self.pole


def _germ(space, base, pole, jet, order, g=None) -> Germ:
    """The germ of canonical int keys with positive powers and a jet
    truncated to the order, none of which is checked; g is set up when
    given."""
    g = object.__new__(Germ) if g is None else g
    g.space, g.base, g.pole, g.jet, g.order = space, base, pole, jet, order
    return g


def _over_common_denominator(parts, form):
    """Bring fractions num / prod form(key)^power, given as (num, powers)
    pairs, to their least common denominator.

    Returns the common powers and, per part, the lifted numerator with the
    degree it gained.
    """
    den = {}
    for _, powers in parts:
        for key, k in powers.items():
            den[key] = max(den.get(key, 0), k)
    lifted = []
    for num, powers in parts:
        gained = 0
        for key, k in den.items():
            add = k - powers.get(key, 0)
            if add:
                num = num * form(key) ** add
                gained += add
        lifted.append((num, gained))
    return den, lifted


def germ_constant(space: Space, base, value, order: int) -> Germ:
    return Germ(space, base, {}, Polynomial.const(space.dim, GQ.of(value)), order)


def _cancel_poles(num, powers, form):
    """Divide num by the linear form(key) of each pole key, at most
    to its power.  Returns the quotient, the remaining powers and the number
    of factors divided out.  Distinct keys give coprime forms, so one pass
    each suffices."""
    powers = dict(powers)
    removed = 0
    for key in list(powers):
        num, n = num._divide_out(form(key), most=powers[key])
        removed += n
        powers[key] -= n
        if powers[key] == 0:
            del powers[key]
    return num, powers, removed


def germ_normalize(g: Germ) -> Germ:
    """Cancel linear factors of the jet against the pole until minimal."""
    if g.jet.is_zero():
        # 0 + O(w^(N+1)) over a pole of total K is O(w^(N+1-K)); with N < K
        # the jet does not know enough to cancel the pole
        total = sum(g.pole.values())
        if g.order < total:
            return g
        return _germ(g.space, g.base, {}, g.jet, g.order - total)
    jet, pole, removed = _cancel_poles(g.jet, g.pole, lambda key: _key_form(g.space, key))
    # each factor divided out lowers the degree of the jet by one
    return _germ(g.space, g.base, pole, jet, g.order - removed)


def germ_mul(g1: Germ, g2: Germ) -> Germ:
    if g1.space is not g2.space:
        raise ArityError("germs over different inner products")
    if g1.base != g2.base:
        raise ValueError("germ base points differ")
    order = min(g1.order, g2.order)
    pole = dict(g1.pole)
    for xi, k in g2.pole.items():
        pole[xi] = pole.get(xi, 0) + k
    jet = g1.jet._times(g2.jet, order)
    return _germ(g1.space, g1.base, pole, jet, order)


def germ_add(g1: Germ, g2: Germ) -> Germ:
    """Sum over the common denominator, at the compatible truncation."""
    if g1.space is not g2.space:
        raise ArityError("germs over different inner products")
    if g1.base != g2.base:
        raise ValueError("germ base points differ")
    # the poles pass through the base point: the forms <xi, w> have no offset
    pole, [(p1, e1), (p2, e2)] = _over_common_denominator(
        [(g1.jet, g1.pole), (g2.jet, g2.pole)], lambda key: _key_form(g1.space, key)
    )
    order = min(g1.order + e1, g2.order + e2)
    return _germ(g1.space, g1.base, pole, (p1 + p2).truncate(order), order)


def germ_diff(v, g: Germ) -> Germ:
    """Derivative along the vector v, with pole bookkeeping: the quotient
    rule raises the pole by one on every active direction."""
    if g.order < 1:
        raise ValueError("jet order must be at least 1 to differentiate")
    v = [GQ.of(x) for x in v]
    space, vp = g.space, g.space._vector(v)
    # the poles pass through the base point: the forms <xi, w> have no offset
    P, Q = quotient_rule(space.dim, [(_key_form(space, xi), d * space._key_inner(xi, *vp)) for xi, d in g.pole.items()])
    order = g.order + len(g.pole) - 1
    numerator = P._times(g.jet.directional(v), order) - Q._times(g.jet, order)
    pole = {xi: d + 1 for xi, d in g.pole.items()}
    return germ_normalize(_germ(g.space, g.base, pole, numerator, order))


# ---------------------------------------------------------------------------
# rational functions with hyperplane denominators
# ---------------------------------------------------------------------------


class RationalFn:
    """numerator / prod l_H^k over a finite set of hyperplanes."""

    __slots__ = ("space", "numerator", "denominator")

    def __init__(self, space: Space, numerator: Polynomial, denominator=None):
        if numerator.dim != space.dim:
            raise ArityError("numerator arity mismatch")
        self.space = space
        self.numerator = numerator
        self.denominator = {}
        for h, k in dict(denominator or {}).items():
            _sized(h.normal, space.dim)
            k = _order(k, "power of {}", h)
            if k:
                self.denominator[h] = k

    def cancel(self) -> "RationalFn":
        """Divide out exact common linear factors."""
        num, den, _ = _cancel_poles(self.numerator, self.denominator, lambda h: h.form(self.space))
        return RationalFn(self.space, num, den)

    def __add__(self, other):
        if isinstance(other, RationalFn):
            if self.space is not other.space:
                raise ArityError("rational functions over different spaces")
            den, [(p1, _), (p2, _)] = _over_common_denominator(
                [(self.numerator, self.denominator), (other.numerator, other.denominator)],
                lambda h: h.form(self.space),
            )
            return RationalFn(self.space, p1 + p2, den).cancel()
        raise TypeError("can only add rational functions")

    def __neg__(self):
        return RationalFn(self.space, -self.numerator, self.denominator)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RationalFn):
            if self.space is not other.space:
                raise ArityError("rational functions over different inner products")
            den = dict(self.denominator)
            for h, k in other.denominator.items():
                den[h] = den.get(h, 0) + k
            return RationalFn(self.space, self.numerator * other.numerator, den).cancel()
        return RationalFn(self.space, self.numerator * GQ.of(other), self.denominator)

    __rmul__ = __mul__

    def directional_deriv(self, v) -> "RationalFn":
        """Quotient rule; output denominator powers raised by one."""
        v = [GQ.of(x) for x in v]
        vp = self.space._vector(v)
        P, Q = quotient_rule(
            self.space.dim,
            [(h.form(self.space), k * self.space._key_inner(h._ints, *vp)) for h, k in self.denominator.items()],
        )
        out = P * self.numerator.directional(v) - Q * self.numerator
        den = {h: k + 1 for h, k in self.denominator.items()}
        return RationalFn(self.space, out, den).cancel()

    def eval(self, point) -> GQ:
        point = [GQ.of(x) for x in point]
        val = self.numerator.eval(point)
        pp = self.space._vector(point)
        for h, k in self.denominator.items():
            d = self.space._key_inner(h._ints, *pp) - h.offset
            if d.is_zero():
                raise ZeroDivisionError("evaluation on a pole hyperplane")
            val = val / d**k
        return val

    def is_regular_at(self, point) -> bool:
        try:
            self.eval(point)
            return True
        except ZeroDivisionError:
            return False

    def __eq__(self, other):
        if not isinstance(other, RationalFn):
            return NotImplemented
        if self.space is not other.space:
            return False
        return (self - other).numerator.is_zero()

    def __repr__(self):
        if not self.denominator:
            return repr(self.numerator)
        den = " * ".join(f"({h.form(self.space)})^{k}" for h, k in self.denominator.items())
        return f"[{self.numerator}] / [{den}]"


def rationalfn_germ_at(f: RationalFn, a, order: int) -> Germ:
    """Localize at a: pole index from the hyperplanes through a; all other
    denominator factors are Taylor-inverted into the jet."""
    order = _order(order, "order")
    a = [GQ.of(x) for x in a]
    ap = f.space._vector(a)
    pole, scale = {}, GQ(1)
    jet = f.numerator.shift(a).truncate(order)
    for h, k in f.denominator.items():
        c0 = f.space._key_inner(h._ints, *ap) - h.offset
        if c0.is_zero():
            pole[h._ints] = pole.get(h._ints, 0) + k
        else:
            # (c0 + l0)^(-k) in w is the sum over c0^(k+order), l0 = <h, w>
            jet = jet._times(_inverse_sum(c0, -_key_form(f.space, h._ints), k, order), order)
            scale = scale * c0 ** (k + order)
    return _germ(f.space, tuple(a), pole, jet if scale == 1 else jet * (GQ(1) / scale), order)


def _along(f: RationalFn, dim, cols, point):
    """f's numerator along t -> point + sum_j t_j cols[j] in dim variables, and
    (coeffs, const, power) per denominator form, which is sum_j coeffs[j] t_j + const there."""
    space = f.space
    subs = [Polynomial.linear(dim, [GQ.of(c[i]) for c in cols], point[i]) for i in range(space.dim)]
    colp, pp = [space._vector(c) for c in cols], space._vector(point)
    return f.numerator.substitute(subs), [
        ([space._key_inner(h._ints, *c) for c in colp], space._key_inner(h._ints, *pp) - h.offset, k)
        for h, k in f.denominator.items()
    ]


def rationalfn_pullback(f: RationalFn, target: Space, cols, point, vanishing_msg) -> RationalFn:
    """t -> f(point + sum_j t_j cols[j]) on target, not cancelled; raises
    ValueError(vanishing_msg) when a denominator form vanishes identically
    along the map."""
    num, forms = _along(f, target.dim, cols, point)
    den = {}
    for coeffs, c0, k in forms:
        # the form is c0 times the form of h2, or the constant c0
        if not all(c.is_zero() for c in coeffs):
            h2, c0 = Hyperplane.from_form(target, coeffs, c0)
            den[h2] = den.get(h2, 0) + k
        elif c0.is_zero():
            raise ValueError(vanishing_msg)
        num = num * (GQ(1) / c0) ** k
    return RationalFn(target, num, den)


def rationalfn_restrict(f: RationalFn, L: XSubspace) -> RationalFn:
    """Restrict to the affine subspace L, in its s-coordinates.

    Raises ValueError when a denominator hyperplane contains L even after
    exact cancellation.
    """
    return rationalfn_pullback(
        f.cancel(),
        L.induced_space(),
        L.basis_VL,
        L.center,
        "denominator hyperplane contains the subspace",
    ).cancel()
