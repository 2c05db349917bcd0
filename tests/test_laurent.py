"""Laurent functionals: application, canonical constructions, module
actions, push-forward, operators on rational functions and the diagonal
action."""

import inspect
import random
import sys
from fractions import Fraction

import pytest

from laurcalc import (
    GQ,
    ArityError,
    DiffOp,
    Germ,
    Hyperplane,
    LaurentFunctional,
    LaurentOrderError,
    LFSummand,
    Polynomial,
    RationalFn,
    Space,
    germ_add,
    germ_constant,
    germ_diff,
    germ_mul,
    germ_normalize,
    laurent_operator_apply,
    lf_annihilator_witness,
    lf_apply,
    lf_apply_rational,
    lf_diagonal_apply,
    lf_diff_action,
    lf_from_evaluation,
    lf_mul_action,
    lf_pullback_fn,
    lf_pushforward,
    lf_residue,
    rationalfn_germ_at,
    subspace_from,
    transverse_space,
)
from laurcalc import config, linalg
from laurcalc import laurent as laurent_module

from _support import over_two_inner_products, rand_diffop, rand_direction, rand_gq, rand_point, rand_poly

rng = random.Random(53)


def _simple_pole_fn(sp, num, normal, offset=GQ(0), power=1):
    return RationalFn(sp, num, {Hyperplane.make(normal, offset): power})


def test_residue_simple_pole():
    sp = Space(1)
    L = lf_residue(sp, [0], [(1,)], [1])
    f = _simple_pole_fn(sp, Polynomial(1, {(0,): GQ(3), (1,): GQ(5)}), (1,))
    assert lf_apply_rational(L, f) == GQ(3)


def test_order_insufficient_raises():
    sp = Space(1)
    L = lf_residue(sp, [0], [(1,)], [1])
    f = _simple_pole_fn(sp, Polynomial.const(1, GQ(1)), (1,), power=2)
    with pytest.raises(LaurentOrderError):
        lf_apply_rational(L, f)


def test_dimension_mismatch_raises():
    L = lf_residue(Space(1), [0], [(1,)], [1])
    f = RationalFn(Space(2), Polynomial.const(2, GQ(1)))
    with pytest.raises(ValueError):
        lf_apply_rational(L, f)


def test_functional_and_argument_over_different_inner_products_are_refused():
    """L reads 1/(4z) over <z, w> = 4zw as 1/z unless the inner products
    are compared; written over L's own line the function gives 1/4."""
    f4, f1, a, _ = over_two_inner_products()
    L = lf_residue(Space(1), [0], [(1,)], [1])
    for apply in (
        lambda: lf_apply_rational(L, f4),
        lambda: lf_apply(L, a),
        lambda: lf_mul_action(f4, lf_residue(Space(1), [0], [(1,)], [2])),
    ):
        with pytest.raises(ArityError, match="different inner products"):
            apply()
    assert lf_apply_rational(L, f1 * GQ(Fraction(1, 4))) == GQ(Fraction(1, 4))


def test_higher_order_extracts_deeper_coefficient():
    # a summand of order 2 reads off the coefficient of the double pole
    sp = Space(1)
    L = lf_residue(sp, [0], [(1,)], [2])
    f = _simple_pole_fn(sp, Polynomial(1, {(0,): GQ(7), (1,): GQ(2)}), (1,), power=2)
    assert lf_apply_rational(L, f) == GQ(7)
    # on a simple pole it reads the (absent) double-pole coefficient
    g = _simple_pole_fn(sp, Polynomial.const(1, GQ(1)), (1,), power=1)
    assert lf_apply_rational(L, g) == GQ(0)


def test_evaluation_functional():
    sp = Space(2)
    for _ in range(10):
        a = [rand_gq(rng, 3, 2), rand_gq(rng, 3, 2)]
        L = lf_from_evaluation(sp, a, [(Fraction(1), Fraction(0))], [1])
        phi = rand_poly(rng, 2, 3)
        g = rationalfn_germ_at(RationalFn(sp, phi), a, 4)
        assert lf_apply(L, g) == phi.eval(a)


def test_evaluation_functional_empty_x():
    sp = Space(1)
    L = lf_from_evaluation(sp, [GQ(2)], [], [])
    g = germ_constant(sp, [GQ(2)], GQ(9), 3)
    assert lf_apply(L, g) == GQ(9)


def test_apply_normalizes_the_germ_it_is_given():
    # z (2 + 3z) / z^2 has a simple pole, which order 1 covers
    sp = Space(1)
    L = lf_residue(sp, [0], [(1,)], [1])
    g = Germ(sp, [0], {(1,): 2}, Polynomial(1, {(1,): GQ(2), (2,): GQ(3)}), 4)
    assert lf_apply(L, g) == GQ(2)


def test_mul_action_identity():
    sp = Space(1)
    L = lf_residue(sp, [0], [(1,)], [2])
    psi = _simple_pole_fn(sp, Polynomial.const(1, GQ(1)), (1,))  # 1/z
    M = lf_mul_action(psi, L)
    f = _simple_pole_fn(sp, Polynomial(1, {(0,): GQ(4), (1,): GQ(1)}), (1,))
    assert lf_apply_rational(M, f) == lf_apply_rational(L, psi * f)


def test_mul_action_capacity_extension():
    # multiplying the order-1 residue by z yields the functional reading
    # the double-pole coefficient
    sp = Space(1)
    L = lf_residue(sp, [0], [(1,)], [1])
    psi = RationalFn(sp, Polynomial.variable(1, 0))
    M = lf_mul_action(psi, L)
    f = _simple_pole_fn(sp, Polynomial.const(1, GQ(1)), (1,), power=2)
    assert lf_apply_rational(M, f) == GQ(1)


def test_mul_action_pole_exceeds_order():
    sp = Space(1)
    L = lf_residue(sp, [0], [(1,)], [1])
    psi = _simple_pole_fn(sp, Polynomial.const(1, GQ(1)), (1,), power=2)
    with pytest.raises(LaurentOrderError):
        lf_mul_action(psi, L)


def test_rational_function_is_read_after_cancelling():
    # z^k / z^k is the constant 1 for every k, however far k is above the
    # operator order
    sp = Space(1)
    z, H = Polynomial.variable(1, 0), Hyperplane.make((1,), 0)
    E = lf_from_evaluation(sp, [0], [], [])
    for k in range(1, 7):
        assert lf_apply_rational(E, RationalFn(sp, z**k, {H: k})) == GQ(1)


@pytest.mark.parametrize("e", [2, 3, 4, 6])
def test_uncovered_pole_is_refused_whatever_the_numerator_degree(e):
    # (x + y^e) / x^2 has a double pole along x = 0 for every e; the
    # functional covers a simple one only
    sp = Space(2)
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    L = lf_residue(sp, [0, 0], [(1, 0)], [1])
    f = RationalFn(sp, x + y**e, {Hyperplane.make((1, 0), 0): 2})
    with pytest.raises(LaurentOrderError):
        lf_apply_rational(L, f)


def test_mul_action_cancels_the_multiplier():
    sp = Space(1)
    z, H = Polynomial.variable(1, 0), Hyperplane.make((1,), 0)
    E = lf_from_evaluation(sp, [0], [], [])
    psi = RationalFn(sp, z**3, {H: 3})
    phi = RationalFn(sp, Polynomial.const(1, GQ(5)))
    assert lf_apply_rational(lf_mul_action(psi, E), phi) == GQ(5)
    assert lf_apply_rational(E, psi * phi) == GQ(5)


def test_germ_multiplier_is_refused():
    sp = Space(1)
    L = lf_residue(sp, [0], [(1,)], [1])
    with pytest.raises(TypeError, match="multiplier must be a rational function"):
        lf_mul_action(germ_constant(sp, [0], 2, 3), L)


def _outcome(fn, *args):
    """The value of fn(*args), or the type and message of the refusal."""
    try:
        return fn(*args)
    except LaurentOrderError as e:
        return type(e), str(e)


def test_a_common_factor_changes_neither_value_nor_refusal():
    # f and f * H^k / H^k, not cancelled, are the same function: for H
    # through the support and off it, and for k beyond sum(d_max) + 2
    prng = random.Random(59)
    grams = {1: [[3]], 2: [[2, 1], [1, 3]]}
    for case in range(32):
        n = prng.randint(1, 2)
        sp = Space(n) if case % 3 else Space(n, grams[n])
        a = rand_point(prng, n)
        dirs = [rand_direction(prng, n) for _ in range(prng.randint(1, n))]
        d_max = [prng.randint(0, 2) for _ in dirs]
        L = LaurentFunctional(sp, [LFSummand(a, dirs, d_max, rand_diffop(prng, n, 2))])
        through = [Hyperplane.make(xi, sp.inner(xi, a)) for xi in dirs]
        den = {h: prng.randint(0, 2) for h in through}
        f = RationalFn(sp, rand_poly(prng, n, 2), den)
        xi = prng.choice(dirs) if prng.random() < 0.5 else rand_direction(prng, n)
        offset = sp.inner(xi, a) + (0 if case % 2 else prng.randint(1, 3))
        H = Hyperplane.make(xi, offset)
        top = sum(d_max) + 2
        k = prng.randint(top + 1, top + 3) if case % 4 < 2 else prng.randint(1, top)
        blown = RationalFn(sp, f.numerator * H.form(sp) ** k, {**f.denominator, H: f.denominator.get(H, 0) + k})
        assert _outcome(lf_apply_rational, L, blown) == _outcome(lf_apply_rational, L, f)
        phi = RationalFn(sp, rand_poly(prng, n, 2), {h: prng.randint(0, 1) for h in through})
        M, M_blown = _outcome(lf_mul_action, f, L), _outcome(lf_mul_action, blown, L)
        if isinstance(M, tuple):
            assert M_blown == M
        else:
            value = _outcome(lf_apply_rational, M, phi)
            assert _outcome(lf_apply_rational, M_blown, phi) == value
            if not isinstance(value, tuple):
                assert lf_apply_rational(L, f * phi) == value


def test_diff_action_identity():
    sp = Space(1)
    L = lf_residue(sp, [0], [(1,)], [2])
    D = lf_diff_action([GQ(1)], L)
    f = _simple_pole_fn(sp, Polynomial(1, {(0,): GQ(3), (2,): GQ(1)}), (1,))
    assert lf_apply_rational(D, f) == lf_apply_rational(L, f.directional_deriv([GQ(1)]))


def test_pushforward_axis():
    # embed the line as the first axis of the plane
    sp1 = Space(1)
    sp2 = Space(2)
    iota = [[Fraction(1)], [Fraction(0)]]
    L0 = lf_residue(sp1, [0], [(1,)], [1])
    L = lf_pushforward(iota, L0, sp2)
    f = RationalFn(
        sp2,
        Polynomial(2, {(0, 0): GQ(1), (0, 1): GQ(3)}),
        {Hyperplane.make((1, 0), GQ(0)): 1},
    )
    lhs = lf_apply_rational(L, f)
    rhs = lf_apply_rational(L0, lf_pullback_fn(iota, f, sp1))
    assert lhs == rhs


def test_pushforward_requires_isometry():
    sp1 = Space(1)
    sp2 = Space(2)
    iota = [[Fraction(2)], [Fraction(0)]]  # stretches lengths
    L0 = lf_residue(sp1, [0], [(1,)], [1])
    with pytest.raises(ValueError):
        lf_pushforward(iota, L0, sp2)


@pytest.mark.parametrize("iota", [
    pytest.param([["3/5", "3/5"]], id="1x2"),
    pytest.param([["3/5"]], id="1x1"),
    pytest.param([["3/5", "0"], ["4/5", "0"]], id="2x2"),
    pytest.param([["3/5"], ["4/5"], ["0"]], id="3x1"),
])
def test_pushforward_refuses_an_embedding_of_another_shape(iota):
    L0 = lf_residue(Space(1), [0], [(1,)], [1])
    with pytest.raises(ArityError, match="embedding matrix must be 2 x 1, the target by the source dimension"):
        lf_pushforward(iota, L0, Space(2))


def test_pushforward_skew_isometric():
    sp1 = Space(1)
    sp2 = Space(2)
    iota = [[Fraction(3, 5)], [Fraction(4, 5)]]
    L0 = lf_residue(sp1, [0], [(1,)], [1])
    L = lf_pushforward(iota, L0, sp2)
    f = RationalFn(
        sp2,
        Polynomial(2, {(0, 0): GQ(2), (1, 0): GQ(1)}),
        {Hyperplane.make((3, 4), GQ(0)): 1},
    )
    assert lf_apply_rational(L, f) == lf_apply_rational(L0, lf_pullback_fn(iota, f, sp1))


def test_annihilator_witness_singular():
    sp = Space(2)
    f = RationalFn(
        sp,
        Polynomial(2, {(0, 0): GQ(1), (1, 0): GQ(2)}),
        {Hyperplane.make((1, 0), GQ(0)): 1},
    )
    g = rationalfn_germ_at(f, [GQ(0), GQ(0)], 3)
    W = lf_annihilator_witness(g)
    assert isinstance(W, LaurentFunctional)
    assert not lf_apply(W, g).is_zero()
    for _ in range(10):
        hol = germ_constant(sp, [GQ(0), GQ(0)], GQ(1), 3)
        hol = hol.copy_with(jet=rand_poly(rng, 2, 3))
        assert lf_apply(W, hol) == GQ(0)


def test_annihilator_witness_holomorphic():
    sp = Space(1)
    g = germ_constant(sp, [GQ(0)], GQ(5), 2)
    assert lf_annihilator_witness(g) == "holomorphic"


def test_jet_order_below_the_operator_order_is_refused():
    # a holomorphic germ known to order 0 cannot feed an operator of order 2
    sp = Space(1)
    L = LaurentFunctional(sp, [LFSummand([0], [(1,)], [1], DiffOp.partial(1, 0, 2))])
    with pytest.raises(ValueError, match="jet order too small for the operator order"):
        lf_apply(L, Germ(sp, [0], {}, Polynomial.const(1, GQ(1)), 0))


def test_functional_operator_in_fewer_variables_than_its_space_is_refused():
    # d/dz in one variable on the plane would read the jet's last variable only
    with pytest.raises(ArityError, match="operator/space arity mismatch"):
        LaurentFunctional(Space(2), [LFSummand([0, 0], [(1, 0)], [1], DiffOp.partial(1, 0))])


def test_capped_products_take_the_leftover_forms_one_at_a_time(monkeypatch):
    # a factor handed to a capped product is at most one form beyond the cap,
    # so no power of a leftover form is built only to be dropped
    excess, times = [], Polynomial._times

    def spy(p, other, cap, lo=0):
        excess.append(max((sum(idx[lo:]) for idx in other.terms), default=0) - max(cap, 1))
        return times(p, other, cap, lo)

    monkeypatch.setattr(Polynomial, "_times", spy)
    line, plane = Space(1), Space(2)
    # the residue (order 0) of 1/z with d_max 4 leaves z^3
    lf_apply(lf_residue(line, [0], [(1,)], [4]), Germ(line, [0], {(1,): 1}, Polynomial.const(1, GQ(1)), 3))
    # the residue in tau of 1/y with d_max 4 on {y = 0} leaves tau^3
    Lsub = subspace_from(plane, [Hyperplane.make((0, 1), GQ(0))])
    f = RationalFn(plane, Polynomial.const(2, GQ(1)), {Hyperplane.make((0, 1), GQ(0)): 1})
    laurent_operator_apply(lf_residue(transverse_space(Lsub), [0], [(1,)], [4]), f, Lsub)
    assert excess and max(excess) <= 0


def test_operator_residue_on_line():
    # residue in the transverse variable of {y = 0} applied to 1/(y(x-y))
    sp = Space(2)
    Lsub = subspace_from(sp, [Hyperplane.make((0, 1), GQ(0))])
    tsp = transverse_space(Lsub)
    L = lf_residue(tsp, [0], [(1,)], [1])
    f = RationalFn(
        sp,
        Polynomial.const(2, GQ(1)),
        {Hyperplane.make((0, 1), GQ(0)): 1, Hyperplane.make((1, -1), GQ(0)): 1},
    )
    out = laurent_operator_apply(L, f, Lsub)
    for s in (GQ(1), GQ(2), GQ(Fraction(-3, 2))):
        assert out.eval([s]) == GQ(1) / s


def test_operator_inert_denominator_survives():
    sp = Space(2)
    Lsub = subspace_from(sp, [Hyperplane.make((0, 1), GQ(0))])
    tsp = transverse_space(Lsub)
    L = lf_residue(tsp, [0], [(1,)], [1])
    f = RationalFn(
        sp,
        Polynomial.const(2, GQ(1)),
        {Hyperplane.make((0, 1), GQ(0)): 1, Hyperplane.make((1, 0), GQ(3)): 1},
    )
    out = laurent_operator_apply(L, f, Lsub)
    assert out.eval([GQ(5)]) == GQ(1) / GQ(2)


def test_operator_reads_tau_degrees_up_to_its_order_only(monkeypatch):
    # an operator of order 2 and a denominator form x + y - 1 that depends on
    # tau: u reads the numerator through _at_zero, and no term it is handed
    # has tau-degree above 2
    sp = Space(2)
    Lsub = subspace_from(sp, [Hyperplane.make((0, 1), GQ(0))])
    L = LaurentFunctional(transverse_space(Lsub), [LFSummand([0], [(1,)], [3], DiffOp.partial(1, 0, 2))])
    num = Polynomial(2, {(0, 4): GQ(1), (3, 2): GQ(2), (1, 0): GQ(-1)})
    f = RationalFn(sp, num, {Hyperplane.make((0, 1), GQ(0)): 1, Hyperplane.make((1, 1), GQ(1)): 2})
    degrees, at_zero = [], DiffOp._at_zero

    def spy(u, p):
        degrees.extend(sum(idx[p.dim - u.dim :]) for idx in p.terms)
        return at_zero(u, p)

    monkeypatch.setattr(DiffOp, "_at_zero", spy)
    laurent_operator_apply(L, f, Lsub)
    assert degrees and max(degrees) == 2


def test_zero_operator_gives_the_zero_function():
    sp = Space(2)
    Lsub = subspace_from(sp, [Hyperplane.make((0, 1), GQ(0))])
    L = LaurentFunctional(transverse_space(Lsub), [LFSummand([0], [(1,)], [1], DiffOp(1, {}))])
    f = RationalFn(
        sp,
        Polynomial.const(2, GQ(1)),
        {Hyperplane.make((0, 1), GQ(0)): 1, Hyperplane.make((1, -1), GQ(0)): 1},
    )
    out = laurent_operator_apply(L, f, Lsub)
    assert out.numerator.is_zero() and not out.denominator and out.space is Lsub.induced_space()


@pytest.mark.parametrize("dim", [3, 1])
def test_function_over_another_space_than_the_subspace_is_refused(dim):
    # never an IndexError or a complaint about a vector's length from the pull-back
    Lsub = subspace_from(Space(2), [Hyperplane.make((0, 1), GQ(0))])
    L = lf_residue(transverse_space(Lsub), [0], [(1,)], [1])
    f = RationalFn(Space(dim), Polynomial.const(dim, GQ(1)), {Hyperplane.make((1,) * dim, GQ(0)): 1})
    with pytest.raises(ArityError, match="function and subspace over different inner products"):
        laurent_operator_apply(L, f, Lsub)


def test_diagonal_apply_cross_pole():
    # evaluation-type coefficient extraction across the two factors
    sp = Space(2)
    Lsub = subspace_from(sp, [Hyperplane.make((0, 1), GQ(0))])
    tsp = transverse_space(Lsub)
    # both factor poles pull back to the same transverse direction, so
    # the functional must carry the combined order
    L = lf_residue(tsp, [0], [(1,)], [2])
    prod_sp = Space(4)
    f = RationalFn(
        prod_sp,
        Polynomial.const(4, GQ(1)),
        {
            Hyperplane.make((0, 1, 0, 0), GQ(0)): 1,
            Hyperplane.make((0, 0, 0, 1), GQ(0)): 1,
            Hyperplane.make((1, -1, 0, 0), GQ(0)): 1,
        },
    )
    out = lf_diagonal_apply(L, f, Lsub)
    assert out.eval([GQ(7)]) == GQ(1) / GQ(7)


def test_diagonal_reads_phi_in_its_own_space_without_a_pullback(monkeypatch):
    """The diagonal action reads Phi along the doubled map in Phi's own
    space; the only pull-back left is the final restriction to s = s',
    which germs.rationalfn_restrict makes."""
    Lsub = subspace_from(Space(2), [Hyperplane.make((0, 1), GQ(0))])
    L = lf_residue(transverse_space(Lsub), [0], [(1,)], [2])
    f = RationalFn(
        Space(4),
        Polynomial.const(4, GQ(1)),
        {
            Hyperplane.make((0, 1, 0, 0), GQ(0)): 1,
            Hyperplane.make((0, 0, 0, 1), GQ(0)): 1,
            Hyperplane.make((1, -1, 0, 0), GQ(0)): 1,
        },
    )

    def refused(*args, **kw):
        raise AssertionError("called")

    monkeypatch.setattr(laurent_module, "rationalfn_pullback", refused)
    assert lf_diagonal_apply(L, f, Lsub).eval([GQ(7)]) == GQ(1) / GQ(7)


def test_operator_takes_the_functional_the_function_and_the_subspace():
    assert list(inspect.signature(laurent_operator_apply).parameters) == ["L", "f", "Lsub"]


def test_germ_and_laurent_builders_do_not_recanonicalize(monkeypatch):
    """A direction is made canonical once, where it enters (a public
    constructor or a reader); germ arithmetic, localization and the Laurent
    operators carry the canonical int tuples on and never call
    config._canonical again.  The inputs are built before it is counted."""
    sp = Space(3, [[2, 1, 0], [1, 2, 0], [0, 0, 1]])
    a = [GQ(1), GQ(0, 1), GQ(Fraction(1, 2))]
    through = [Hyperplane.make(v, sp.inner(v, a)) for v in [(1, -1, 0), (0, 0, 2)]]
    num = Polynomial(3, {(0, 0, 0): GQ(1), (1, 0, 1): GQ(2, -1), (0, 2, 0): GQ(Fraction(1, 3))})
    f = RationalFn(sp, num, {through[0]: 2, through[1]: 1, Hyperplane.make((1, 1, 1), GQ(3, 1)): 1})
    u = DiffOp(3, {(1, 0, 0): GQ(1), (0, 0, 0): GQ(2)})
    L = LaurentFunctional(sp, [LFSummand(a, [(1, -1, 0), (0, 0, 1)], [2, 1], u)])
    g1 = rationalfn_germ_at(f, a, 6)
    g2 = rationalfn_germ_at(RationalFn(sp, Polynomial.variable(3, 0), {through[0]: 1}), a, 6)
    line = Space(2)
    Lsub = subspace_from(line, [Hyperplane.make((0, 1), GQ(0))])
    Lt = lf_residue(transverse_space(Lsub), [0], [(1,)], [1])
    ft = RationalFn(
        line, Polynomial.const(2, 1), {Hyperplane.make((0, 1), GQ(0)): 1, Hyperplane.make((1, -1), GQ(0)): 1}
    )

    calls = []
    original = config._canonical
    for module in list(sys.modules.values()):
        if module.__name__.startswith("laurcalc") and getattr(module, "_canonical", None) is original:
            monkeypatch.setattr(module, "_canonical", lambda v: calls.append(v) or original(v))
    germ_normalize(germ_add(germ_mul(g1, g2), g2))
    germ_diff([1, 0, 2], g1)
    lf_apply_rational(L, f)
    laurent_operator_apply(Lt, ft, Lsub)
    assert calls == []
    # the counter is live: a public constructor canonicalizes its pole
    Germ(sp, a, {(1, -1, 0): 1}, num, 2)
    assert len(calls) == 1


def test_operator_reads_taylor_coefficients_without_pullback_or_derivatives(monkeypatch):
    """The operator reads each form along the map and the Taylor
    coefficients of one polynomial: no pull-back, no derivative of a
    rational function and no space over the combined (s, tau) coordinates."""
    sp = Space(3, [[2, 1, 0], [1, 2, 0], [0, 0, 1]])
    Lsub = subspace_from(sp, [Hyperplane.make((0, 0, 1), GQ(1))])
    tsp = transverse_space(Lsub)
    u = DiffOp(1, {(2,): GQ(1), (1,): GQ(0, 1), (0,): GQ(3)})
    L = LaurentFunctional(tsp, [LFSummand([Fraction(1, 2)], [(1,)], [3], u)])
    f = RationalFn(
        sp,
        rand_poly(random.Random(5), 3, 2),
        {Hyperplane.make((0, 0, 1), GQ(Fraction(3, 2))): 2, Hyperplane.make((1, 0, 1), GQ(2)): 1},
    )
    expected = laurent_operator_apply(L, f, Lsub)

    def refused(*args, **kw):
        raise AssertionError("called")

    sizes = []
    subspace = Space.subspace
    monkeypatch.setattr(laurent_module, "rationalfn_pullback", refused)
    monkeypatch.setattr(RationalFn, "directional_deriv", refused)
    monkeypatch.setattr(Space, "subspace", lambda self, basis: sizes.append(len(basis)) or subspace(self, basis))
    assert laurent_operator_apply(L, f, Lsub) == expected
    assert 3 not in sizes and sizes == []
    # the spy is live: a subspace builds its induced and transverse spaces
    subspace_from(sp, [Hyperplane.make((0, 0, 1), GQ(1))])
    assert sizes == [2, 1]


def test_a_subspace_computes_its_normal_basis_and_spaces_once(monkeypatch):
    """Reading a subspace's normal basis, induced and transverse spaces, and
    applying an operator on it, runs no kernel after it is built."""
    sp = Space(3, [[2, 1, 0], [1, 2, 0], [0, 0, 1]])
    Lsub = subspace_from(sp, [Hyperplane.make((0, 0, 1), GQ(1))])
    L = lf_residue(transverse_space(Lsub), [Fraction(1, 2)], [(1,)], [1])
    f = RationalFn(
        sp,
        rand_poly(random.Random(7), 3, 2),
        {Hyperplane.make((0, 0, 1), GQ(Fraction(3, 2))): 1, Hyperplane.make((1, 0, 1), GQ(2)): 1},
    )
    calls, real = [], linalg._kernel
    monkeypatch.setattr(linalg, "_kernel", lambda *a: calls.append(a) or real(*a))
    first = laurent_operator_apply(L, f, Lsub)
    for _ in range(2):
        assert Lsub.normal_basis() is Lsub.normal_basis() and len(Lsub.normal_basis()) == 1
        assert Lsub.induced_space().dim == 2 and transverse_space(Lsub) is L.space
        assert laurent_operator_apply(L, f, Lsub) == first
    assert calls == []
    # the spy is live: building a subspace runs kernels
    subspace_from(sp, [Hyperplane.make((1, 0, 0), GQ(0))])
    assert calls


def test_diagonal_refuses_a_denominator_containing_the_shifted_subspace():
    # <(0, 1, 0, -1), z> vanishes along the diagonal copy (0, 1, 0, 1) of the transverse direction
    Lsub = subspace_from(Space(2), [Hyperplane.make((0, 1), GQ(0))])
    L = lf_residue(transverse_space(Lsub), [0], [(1,)], [1])
    Phi = RationalFn(Space(4), Polynomial.const(4, GQ(1)), {Hyperplane.make((0, 1, 0, -1), GQ(0)): 1})
    with pytest.raises(ValueError, match="denominator hyperplane contains the shifted subspace"):
        lf_diagonal_apply(L, Phi, Lsub)


def test_annihilator_witness_differentiates_along_the_complement():
    # z2 / z1: the jet restricted to {z1 = 0} starts at z2, so the witness is d/dz2
    sp = Space(2)
    g = Germ(sp, [0, 0], {(1, 0): 1}, Polynomial.variable(2, 1), 4)
    W = lf_annihilator_witness(g)
    assert [s.u for s in W.summands] == [DiffOp(2, {(0, 1): GQ(1)})]
    assert lf_apply(W, g) == GQ(1)
    hol_rng = random.Random(11)
    for _ in range(5):
        assert lf_apply(W, Germ(sp, [0, 0], {}, rand_poly(hol_rng, 2, 3), 4)) == GQ(0)


def test_pullback_fn_refuses_a_denominator_vanishing_along_the_map():
    f = RationalFn(Space(2), Polynomial.const(2, GQ(1)), {Hyperplane.make((1, -1), GQ(0)): 1})
    with pytest.raises(ValueError, match="pull-back has a denominator vanishing identically"):
        lf_pullback_fn([[1], [1]], f, Space(1, [[2]]))
