"""Laurent functionals in bounded-order string representation, their
actions, and the induced operators sending rational functions on the
ambient space to rational functions on an affine subspace.

A functional is a finite sum of summands (a, X, d_max, u): on a germ at a
with pole index d covered by d_max, the value is u(pi_{a,X,d_max} * phi)(a),
computed directly from the stored top-level operator.  Application to a
pole not covered by d_max is an error; extensions beyond the stored order
are never chosen silently.
"""

from __future__ import annotations

from . import linalg
from .config import Hyperplane, XSubspace, _order, _primitive
from .germs import (
    Germ,
    RationalFn,
    _along,
    germ_normalize,
    rationalfn_germ_at,
    rationalfn_pullback,
    rationalfn_restrict,
)
from .poly import (
    DiffOp, Polynomial, _flatten, _inverse_sum, _key_form, _pole_product, _times_forms, factorial_multi, quotient_rule,
)
from .scalars import GQ, _fractions, _mk, _real_over_lcm
from .space import ArityError, Space, _sized


class LaurentOrderError(ValueError):
    """Pole order of the argument exceeds the stored functional order."""


class LFSummand:
    """One support point: roots, top pole index, and the top operator.
    Not changed after it is built: the totals of d_max per canonical
    direction (canonical int tuples) and the scalar relating the stored
    product of forms to the canonical one are computed here, once."""

    __slots__ = ("support", "x_list", "d_max", "u", "_totals", "_scalar")

    def __init__(self, support, x_list, d_max, u: DiffOp):
        self.support = tuple(GQ.of(x) for x in support)
        x_list = [_real_over_lcm(v) for v in x_list]
        self.x_list = tuple(_fractions(*v) for v in x_list)
        self.d_max = tuple(_order(k, "d_max") for k in d_max)
        if len(self.d_max) != len(x_list):
            raise ValueError("pole index must be parallel to the root list")
        self.u = u
        self._totals = {}
        self._scalar = GQ(1)
        for (ints, d), k in zip(x_list, self.d_max):
            if k:
                canon, g = _primitive(ints)
                self._totals[canon] = self._totals.get(canon, 0) + k
                self._scalar = self._scalar * _mk(g, 0, d) ** k

    def leftover(self, pole, message):
        """The capacity of d_max left per canonical direction after the
        canonical pole index ``pole``, plus the canonical scalar.  Raises
        LaurentOrderError(message) when d_max does not cover the pole."""
        totals = self._totals
        if any(totals.get(dir_, 0) < k for dir_, k in pole.items()):
            raise LaurentOrderError(message)
        rest = {dir_: cap - pole.get(dir_, 0) for dir_, cap in totals.items()}
        return {dir_: k for dir_, k in rest.items() if k}, self._scalar


class LaurentFunctional:
    def __init__(self, space: Space, summands):
        self.space = space
        self.summands = list(summands)
        seen = set()
        for s in self.summands:
            for v in (s.support, *s.x_list):
                _sized(v, space.dim)
            if s.u.dim != space.dim:
                raise ArityError("operator/space arity mismatch")
            if s.support in seen:
                raise ValueError("support points must be distinct")
            seen.add(s.support)


def _evaluate(space: Space, s: LFSummand, g: Germ) -> GQ:
    """The summand's value on a germ at its support whose pole is already
    minimal; the jet is read as it stands, without normalizing it."""
    leftover, scalar = s.leftover(g.pole, "functional order insufficient for the germ's pole")
    m = s.u.order()
    if m > g.order + sum(leftover.values()):
        raise ValueError("jet order too small for the operator order")
    # the regularizing product: u only reads degrees <= m
    return scalar * s.u._at_zero(_times_forms(g.jet, space, leftover, m)).constant_term()


def lf_apply(L: LaurentFunctional, g: Germ) -> GQ:
    """Apply to a single germ; summands supported elsewhere contribute 0."""
    if g.space is not L.space:
        raise ArityError("germ and functional over different inner products")
    out = GQ(0)
    for s in L.summands:
        if s.support == g.base:
            out = out + _evaluate(L.space, s, germ_normalize(g))
    return out


def lf_apply_rational(L: LaurentFunctional, f: RationalFn) -> GQ:
    """Cancel f once, localize it at every support point and sum the
    summand values.  Cancelled, f has its exact pole at each point, and the
    operator reads the jet only up to its own order."""
    if f.space is not L.space:
        raise ArityError("function and functional over different inner products")
    f = f.cancel()
    out = GQ(0)
    for s in L.summands:
        out = out + _evaluate(L.space, s, rationalfn_germ_at(f, s.support, s.u.order()))
    return out


# ---------------------------------------------------------------------------
# canonical constructions
# ---------------------------------------------------------------------------


def lf_residue(space: Space, a, X, d_max) -> LaurentFunctional:
    """The functional with top operator 1 (pure coefficient extraction)."""
    return LaurentFunctional(
        space, [LFSummand(a, X, d_max, DiffOp.identity(space.dim))]
    )


def lf_from_evaluation(space: Space, a, X, d_max) -> LaurentFunctional:
    """A functional restricting to evaluation at a on holomorphic germs.

    Canonical choice: the top operator is the symbol of the pole product
    applied as derivatives, normalized so that the single surviving
    homogeneous contribution equals 1.
    """
    space._vector(a)
    pi = _pole_product(space, X, d_max)  # the product through a, in w = z - a
    norm = DiffOp.from_symbol(pi)._at_zero(pi).constant_term()  # sum gamma! c_gamma^2 > 0, pi being nonzero and real
    u = DiffOp(space.dim, {g: c / norm for g, c in pi.terms.items()})
    return LaurentFunctional(space, [LFSummand(a, X, d_max, u)])


# ---------------------------------------------------------------------------
# push-forward along an injective linear map
# ---------------------------------------------------------------------------


def lf_pushforward(iota, L0: LaurentFunctional, space_V: Space) -> LaurentFunctional:
    """Transport a functional along the injective linear map given by the
    matrix iota (columns = images of the source basis vectors); the roots
    of each summand are pushed by iota.

    The source space must carry the pulled-back inner product.
    """
    n0 = L0.space.dim
    n = space_V.dim
    if len(iota) != n or any(len(row) != n0 for row in iota):
        raise ArityError(f"embedding matrix must be {n} x {n0}, the target by the source dimension")
    cols = [[GQ.of(iota[i][j]) for i in range(n)] for j in range(n0)]
    if linalg.rank(cols) < n0:
        raise ValueError("embedding is not injective")
    if space_V.subspace(cols) is not L0.space:
        raise ValueError("source space does not carry the pulled-back inner product")
    subs = [Polynomial.linear(n, [cols[j][i] for i in range(n)]) for j in range(n0)]
    summands = [
        LFSummand(
            linalg.matvec(iota, s.support),
            [linalg.matvec(iota, xi) for xi in s.x_list],
            s.d_max,
            DiffOp.from_symbol(s.u.symbol().substitute(subs)),
        )
        for s in L0.summands
    ]
    return LaurentFunctional(space_V, summands)


def lf_pullback_fn(iota, f: RationalFn, space_V0: Space) -> RationalFn:
    """Pull a rational function back along the linear map iota."""
    n = f.space.dim
    cols = [[iota[i][j] for i in range(n)] for j in range(space_V0.dim)]
    return rationalfn_pullback(
        f, space_V0, cols, [GQ(0)] * n, "pull-back has a denominator vanishing identically"
    ).cancel()


# ---------------------------------------------------------------------------
# multiplicative and differential actions
# ---------------------------------------------------------------------------


def _summand(support, totals, u) -> LFSummand:
    """The summand at support with the pole orders {direction: total}, its
    directions in sorted order."""
    dirs = sorted(totals)
    return LFSummand(support, dirs, [totals[d] for d in dirs], u)


def lf_mul_action(psi: RationalFn, L: LaurentFunctional) -> LaurentFunctional:
    """The transpose of multiplication: the result satisfies
    result(phi) = L(psi * phi) on all admissible arguments."""
    if not isinstance(psi, RationalFn):
        raise TypeError("multiplier must be a rational function")
    if psi.space is not L.space:
        raise ArityError("multiplier and functional over different inner products")
    psi = psi.cancel()
    space = L.space
    summands = []
    for s in L.summands:
        # e_d, the zero order of psi along each direction d of the functional:
        # the power of the form through the support dividing the numerator
        num, zeros, sp = psi.numerator, {}, space._vector(s.support)
        if not num.is_zero():
            for d in s._totals:
                num, zeros[d] = num._divide_out(_key_form(space, d, space._key_inner(d, *sp)))
        g = rationalfn_germ_at(RationalFn(psi.space, num, psi.denominator), s.support, s.u.order())
        new_totals, scalar = s.leftover(g.pole, "multiplier pole exceeds the functional order")
        # zeros of the multiplier raise the capacity left; psi is cancelled,
        # so it has no zero along a direction of its own pole, and every d
        # with e_d > 0 is in the leftover
        for d, e in zeros.items():
            if e:
                new_totals[d] += e
        u_new = _flatten(s.u, scalar * g.jet)
        summands.append(_summand(s.support, new_totals, u_new))
    return LaurentFunctional(space, summands)


def lf_diff_action(v, L: LaurentFunctional) -> LaurentFunctional:
    """The transpose of differentiation along v: the result satisfies
    result(phi) = L(d_v phi)."""
    v = [GQ.of(x) for x in v]
    space, vp = L.space, L.space._vector(v)
    dv = DiffOp.directional(space.dim, v)
    summands = []
    for s in L.summands:
        totals, scalar = s._totals, s._scalar
        # the quotient rule over one power of every canonical form, in
        # w = z - a; flattening is linear in its multiplier, so Q is
        # flattened once
        P, Q = quotient_rule(space.dim, [(_key_form(space, d), k * space._key_inner(d, *vp)) for d, k in totals.items()])
        u_new = scalar * (_flatten(DiffOp.from_symbol(s.u.symbol() * dv.symbol()), P) - _flatten(s.u, Q))
        new_totals = {d: k - 1 for d, k in totals.items() if k > 1}
        summands.append(_summand(s.support, new_totals, u_new))
    return LaurentFunctional(space, summands)


# ---------------------------------------------------------------------------
# annihilator witness
# ---------------------------------------------------------------------------


def lf_annihilator_witness(g: Germ):
    """Either "holomorphic", or a functional vanishing on all holomorphic
    germs at the base point but not on g."""
    gn = germ_normalize(g)
    if gn.is_holomorphic():
        return "holomorphic"
    space = gn.space
    xi = sorted(gn.pole)[0]
    perp = space.orth_complement([xi])
    # restrict the numerator jet to the orthocomplement of xi
    subs = [Polynomial.linear(len(perp), [GQ.of(b[i]) for b in perp]) for i in range(space.dim)]
    restricted = gn.jet.substitute(subs)
    if restricted.is_zero():
        raise ValueError("jet order too small to certify the singularity")
    deg = min(sum(idx) for idx in restricted.terms)
    gamma = min(idx for idx in restricted.terms if sum(idx) == deg)
    c = restricted.terms[gamma]
    u = DiffOp.identity(space.dim)
    for j, k in enumerate(gamma):
        for _ in range(k):
            u = u * DiffOp.directional(space.dim, perp[j])
    u = u * (GQ(1) / (GQ(factorial_multi(gamma)) * c))
    return LaurentFunctional(space, [_summand(gn.base, gn.pole, u)])


# ---------------------------------------------------------------------------
# Laurent operators on rational functions
# ---------------------------------------------------------------------------


def transverse_space(L: XSubspace) -> Space:
    """Coordinates on the orthogonal complement of the direction space."""
    return L._transverse


def _transverse(L: LaurentFunctional, Lsub: XSubspace):
    """Lsub.normal_basis(), after checking that L lives on its coordinates."""
    if Lsub._transverse is not L.space:
        raise ValueError("functional space does not carry the transverse inner product")
    return Lsub._normal


def laurent_operator_apply(L: LaurentFunctional, f: RationalFn, Lsub: XSubspace) -> RationalFn:
    """Apply a functional in the transverse variables of Lsub to a rational
    function on the ambient space; the result is a rational function on
    Lsub in its subspace coordinates.  L lives on the coordinates of the
    orthogonal complement basis of the direction space, transverse_space(Lsub).
    """
    if f.space is not Lsub.space:
        raise ArityError("function and subspace over different inner products")
    return _operator(L, f, Lsub.induced_space(), Lsub.center, Lsub.basis_VL, _transverse(L, Lsub))


def _operator(L: LaurentFunctional, f: RationalFn, sub: Space, center, basis, perp) -> RationalFn:
    """L applied in tau to f, read in its own space along the map
    z = center + sum_j s_j basis_j + sum_k tau_k perp_k; a rational
    function of s on sub."""
    f = f.cancel()
    ns, nt = sub.dim, len(perp)
    total = ns + nt

    # f's numerator along the map, and each of its forms as a(s) + b(tau) + c0
    num, forms = _along(f, total, basis + perp, center)
    zs, zt = [GQ(0)] * ns, [GQ(0)] * nt
    result = RationalFn(sub, Polynomial.zero(ns))
    for s in L.summands:
        m = s.u.order()
        p = num.shift(zs + list(s.support))  # tau -> tau + a: the map through the support point
        den, pole, scale = {}, {}, GQ(1)  # over sub; canonical transverse direction -> power
        for coeffs, c0, k in forms:
            a, b = coeffs[:ns], coeffs[ns:]
            c = c0 + sum(x * y for x, y in zip(b, s.support))
            a0, b0 = (all(x.is_zero() for x in v) for v in (a, b))
            if a0 and c.is_zero():
                if b0:
                    raise ValueError("denominator hyperplane contains the shifted subspace")
                # a pole along the subspace, through the support point
                h, scalar = Hyperplane.from_form(L.space, b, 0)
                pole[h._ints] = pole.get(h._ints, 0) + k
            else:
                if not b0:
                    # 1/(A + b(tau))^k over A^(k+m), A = a(s) + c: u reads tau-degrees up to m only
                    A, B = Polynomial.linear(total, a + zt, c), Polynomial.linear(total, zs + [-x for x in b])
                    p = p._times(_inverse_sum(A, B, k, m), m, ns)
                    k += m
                scalar = c
                if not a0:
                    h, scalar = Hyperplane.from_form(sub, a, c)
                    den[h] = den.get(h, 0) + k
            scale = scale / scalar**k
        leftover, scalar = s.leftover(pole, "pole order along the subspace exceeds the functional order")
        # the regularizing product to tau-degree m, then u in tau at tau = 0
        p = _times_forms(p, L.space, leftover, m)
        result = result + RationalFn(sub, s.u._at_zero(p) * (scale * scalar), den)
    return result


# ---------------------------------------------------------------------------
# diagonal action
# ---------------------------------------------------------------------------


def _product_space(space: Space) -> Space:
    """The doubled space with half the block-diagonal inner product, so
    that the diagonal embedding is isometric."""
    n = space.dim
    out = [[0] * (2 * n) for _ in range(2 * n)]
    for i, j, x in space._entries:
        out[i][j] = out[n + i][n + j] = _mk(x, 0, 2 * space._e)
    return Space(2 * n, out)


def lf_diagonal_apply(L: LaurentFunctional, Phi: RationalFn, Lsub: XSubspace) -> RationalFn:
    """Apply a transverse functional diagonally to a rational function on
    the doubled space: Phi is read along (center + B s + U tau, center +
    B s' + U tau), B the basis of Lsub and U its orthogonal complement
    basis, as a function of (s, s') over _product_space, then restricted to
    s = s'; restricting first would lose the poles only (s, s') tells apart."""
    n = Lsub.space.dim
    if Phi.space.dim != 2 * n:
        raise ValueError("the argument must live on the doubled space")
    perp = _transverse(L, Lsub)
    zero = (GQ(0),) * n
    basis = [b + zero for b in Lsub.basis_VL] + [zero + b for b in Lsub.basis_VL]
    sub2 = _product_space(Lsub.induced_space())
    out2 = _operator(L, Phi, sub2, Lsub.center * 2, basis, [tuple(u) * 2 for u in perp])
    ns = len(Lsub.basis_VL)
    diag_basis = [tuple(GQ(int(j % ns == i)) for j in range(2 * ns)) for i in range(ns)]
    diag = XSubspace(sub2, [], diag_basis, (GQ(0),) * (2 * ns))
    return rationalfn_restrict(out2, diag)
