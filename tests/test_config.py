"""Hyperplane configurations, subspaces and their induced structures."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from laurcalc import (
    GQ,
    ArityError,
    Configuration,
    Hyperplane,
    Polynomial,
    RationalFn,
    Space,
    XSubspace,
    canonical_normal,
    hyperplanes_through,
    induced_config,
    pi_omega_d,
    subspace_from,
)

from laurcalc import io as lio
from laurcalc import linalg
from laurcalc.config import _primitive
from laurcalc.scalars import _real_over_lcm

from _support import rand_gq, rand_point

rng = random.Random(37)


def test_canonical_normal():
    canon, scalar = canonical_normal((Fraction(-2, 3), Fraction(4, 3)))
    assert canon == (Fraction(1), Fraction(-2))
    assert scalar == Fraction(-2, 3)
    assert all(scalar * c == v for c, v in zip(canon, (Fraction(-2, 3), Fraction(4, 3))))
    with pytest.raises(ValueError):
        canonical_normal((0, 0))


def test_hyperplane_make_scales_offset():
    h = Hyperplane.make((Fraction(2), Fraction(-2)), GQ(4))
    assert h.normal == (Fraction(1), Fraction(-1))
    assert h.offset == GQ(2)
    # the zero set is unchanged by rescaling
    sp = Space(2)
    assert h.contains(sp, [GQ(3), GQ(1)])


@pytest.mark.parametrize("normal", [(Fraction(1, 2),), (2, 0), (-1, 1), (0, 0)], ids=repr)
def test_hyperplane_constructor_refuses_a_normal_that_is_not_canonical(normal):
    """A non-canonical normal used to make a second object for the same
    hyperplane: Hyperplane((2,), 2) != Hyperplane.make((1,), 1)."""
    with pytest.raises(ValueError, match="canonical"):
        Hyperplane(normal, GQ(1))


def test_subspace_center_orthogonal():
    sp = Space(2)
    h = Hyperplane.make((1, 1), GQ(2))
    L = subspace_from(sp, [h])
    # center lies on L and is orthogonal to the direction space
    assert h.contains(sp, L.center)
    for b in L.basis_VL:
        assert sp.inner(L.center, b).is_zero()
    s = [rand_gq(rng)]
    assert L.contains(L.param_point(s))


@pytest.mark.parametrize("n", [1, 3])
def test_subspace_refuses_a_vector_of_another_length(n):
    # the line z0 = 0 in the plane: a point has 2 coordinates, a parameter 1
    L = subspace_from(Space(2), [Hyperplane.make((1, 0), 0)])
    with pytest.raises(ArityError, match=f"a vector of length {n} in a space of dimension 2"):
        L.contains([0, 5, 7][:n])
    with pytest.raises(ArityError, match=f"a vector of length {n - 1} in a space of dimension 1"):
        L.param_point([GQ(1), GQ(2)][: n - 1])


def test_subspace_refuses_a_center_of_another_length():
    """A center of the wrong length used to build: param_point then ended in
    an IndexError, and contains blamed the point it was given."""
    with pytest.raises(ArityError, match="a vector of length 1 in a space of dimension 2"):
        XSubspace(Space(2), [], [(1, 0)], (0,))
    with pytest.raises(ArityError, match="a vector of length 1 in a space of dimension 2"):
        XSubspace(Space(2), [], [(1,)], (0, 0))


def test_subspace_is_an_immutable_value_with_tuple_fields():
    L = subspace_from(Space(3, [[2, 1, 0], [1, 2, 0], [0, 0, 1]]), [Hyperplane.make((1, 0, 0), 1)])
    for name in ("space", "defining", "basis_VL", "center", "_normal", "other"):
        with pytest.raises(AttributeError, match="XSubspace is immutable"):
            setattr(L, name, None)
    assert not hasattr(L, "__dict__")
    for field in (L.defining, L.basis_VL, L.center, *L.basis_VL, L.normal_basis(), *L.normal_basis()):
        assert isinstance(field, tuple)
    assert L.normal_basis() is L.normal_basis() and L.induced_space() is L.induced_space()
    assert L.induced_space() is L.space.subspace(L.basis_VL)


def reference_from_form(space, coeffs, const):
    """from_form as it was: one linalg.solve with the int Gram matrix, and
    the solution read back as ints."""
    ints, d = _real_over_lcm(linalg.solve(space._g, coeffs))
    canon, g = _primitive(ints)
    scalar = GQ(Fraction(g * space._e, d))
    return Hyperplane(canon, -GQ.of(const) / scalar), scalar


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return f"ValueError: {e}"


small = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def forms(draw):
    """A positive definite Gram matrix (M M^T + I) / den, and the
    coefficients and constant of a form, some complex, some all zero."""
    n = draw(st.integers(1, 3))
    m = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    den = draw(st.integers(1, 4))
    ip = [[Fraction(sum(a * b for a, b in zip(m[i], m[j])) + (i == j), den) for j in range(n)] for i in range(n)]
    imag = draw(st.sampled_from([st.just(0), small]))
    coeffs = [GQ(draw(small), draw(imag)) for _ in range(n)]
    return Space(n, ip), coeffs, GQ(draw(small), draw(small))


@settings(max_examples=30, deadline=None)
@given(forms())
def test_from_form_equals_the_solve_of_the_gram_matrix(case):
    sp, coeffs, const = case
    got = outcome(Hyperplane.from_form, sp, coeffs, const)
    assert got == outcome(reference_from_form, sp, coeffs, const)
    if not all(c.is_real() for c in coeffs):
        assert got.startswith("ValueError: ") and got.endswith(" is not real")
    elif not all(c.is_zero() for c in coeffs):
        h, scalar = got
        assert h.form(sp) * scalar == Polynomial.linear(sp.dim, coeffs, const)


def test_from_form_eliminates_nothing_once_its_space_exists(monkeypatch):
    sp = Space(3, [[2, 1, 0], [1, 2, 0], [0, 0, 5]])
    calls, real = [], linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda m: calls.append(m) or real(m))
    h, scalar = Hyperplane.from_form(sp, [1, Fraction(1, 2), 3], 2)
    assert calls == [] and h.form(sp) * scalar == Polynomial.linear(3, [1, Fraction(1, 2), 3], 2)
    # the spy is live: a new Gram matrix is eliminated once
    Space(2, [[97, 1], [1, 89]])
    assert len(calls) == 1


@pytest.mark.parametrize("coeffs", [[1], [1, 2, 3]])
def test_from_form_refuses_coefficients_of_another_length(coeffs):
    """The solve cut the coefficients to the space's length, or padded them
    with a free coordinate: [1] in the plane gave z0 = 0 with scalar 1."""
    with pytest.raises(ArityError, match=f"a vector of length {len(coeffs)} in a space of dimension 2"):
        Hyperplane.from_form(Space(2), coeffs, 0)


def test_subspace_inconsistent():
    sp = Space(2)
    h1 = Hyperplane.make((1, 0), GQ(0))
    h2 = Hyperplane.make((1, 0), GQ(1))
    with pytest.raises(ValueError):
        subspace_from(sp, [h1, h2])


def test_hyperplanes_through():
    sp = Space(2)
    h1 = Hyperplane.make((1, 0), GQ(0))
    h2 = Hyperplane.make((0, 1), GQ(0))
    h3 = Hyperplane.make((1, 1), GQ(3))
    cfg = Configuration(sp, [(h1, 1), (h2, 2), (h3, 1)], [])
    L = subspace_from(sp, [h1])
    assert hyperplanes_through(cfg, L) == [h1]


def test_induced_config_forms_restrict():
    # forms of the induced configuration agree with ambient forms composed
    # with the parametrization, up to the recorded scalars
    sp = Space(2)
    h1 = Hyperplane.make((0, 1), GQ(0))
    h2 = Hyperplane.make((1, -1), GQ(1))
    cfg = Configuration(sp, [(h1, 1), (h2, 2)], [])
    L = subspace_from(sp, [h1])
    out = induced_config(cfg, L)
    assert out.space.dim == 1
    # h2 restricts to a point on the line, h1 disappears
    hs = out.hyperplanes
    assert len(hs) == 1 and out.mult(hs[0]) == 2
    s = [rand_gq(rng)]
    z = L.param_point(s)
    ambient = sp.inner(h2.normal, z) - h2.offset
    restricted = out.space.inner(hs[0].normal, s) - hs[0].offset
    # proportional linear functions vanish together
    assert ambient.is_zero() == restricted.is_zero()


def test_induced_config_restricts_x_set():
    # Gram [[2, 1], [1, 3]] and L = {z1 = 1}: L is z = (s - 1/2, 1) with
    # inner product 2 s s'.  Every root but a multiple of the normal
    # (1, -2) pairs with the direction (1, 0) to 2 v0 + v1 != 0, so it
    # restricts to the one direction (1,).  z0 = 0 cuts L at s = 1/2 and
    # z0 + z1 = 2 at s = 3/2, the forms 2 s = 1 and 2 s = 3; L itself
    # restricts to a constant and drops out.
    sp = Space(2, [[2, 1], [1, 3]])
    H = Hyperplane.from_form(sp, [0, 1], -1)[0]
    h0 = Hyperplane.from_form(sp, [1, 0], 0)[0]
    h1 = Hyperplane.from_form(sp, [1, 1], -2)[0]
    L = subspace_from(sp, [H])
    cfg = Configuration(sp, [(H, 2), (h0, 1), (h1, 3)], [(1, 0), (0, 1), (1, 1), (2, -1)])
    out = induced_config(cfg, L)
    assert out.space.ip == [[Fraction(2)]]
    assert out.x_set == [(Fraction(1),)]
    assert out.multiplicity == {Hyperplane.make((1,), 1): 1, Hyperplane.make((1,), 3): 3}
    assert induced_config(Configuration(sp, [], [(1, -2), (2, -1)]), L).x_set == [(Fraction(1),)]
    assert induced_config(Configuration(sp, [], [(1, -2)]), L).x_set == []


def test_multiplicity_zero_off_configuration():
    sp = Space(1)
    cfg = Configuration(sp, [(Hyperplane.make((1,), GQ(0)), 3)], [])
    assert cfg.mult(Hyperplane.make((1,), GQ(5))) == 0


def test_pi_omega_d_ball_product():
    # only hyperplanes meeting the ball of squared radius r2 contribute
    sp = Space(1)
    near = Hyperplane.make((1,), GQ(0))
    far = Hyperplane.make((1,), GQ(10))
    cfg = Configuration(sp, [(near, 2), (far, 1)], [])
    p = pi_omega_d(cfg, [GQ(0)], Fraction(1))
    assert p == Polynomial(1, {(2,): GQ(1)})


def test_pi_omega_d_skips_a_hyperplane_of_multiplicity_zero(monkeypatch):
    # both hyperplanes meet the ball; the one of multiplicity 0 is off the
    # configuration, so it adds no factor and its form is never built
    sp = Space(1)
    zero, near = Hyperplane.make((1,), GQ(0)), Hyperplane.make((1,), GQ(Fraction(1, 2)))
    cfg = Configuration(sp, [(zero, 0), (near, 1)], [])
    want = near.form(sp)
    form, built = Hyperplane.form, []
    monkeypatch.setattr(Hyperplane, "form", lambda self, space: built.append(self) or form(self, space))
    assert pi_omega_d(cfg, [GQ(0)], Fraction(1)) == want
    assert built == [near]


def test_zero_vector_in_x_set_rejected():
    sp = Space(2)
    assert Configuration(sp, [], [(1, 0)]).x_set == [(Fraction(1), Fraction(0))]
    with pytest.raises(ValueError, match="x_set holds the zero vector"):
        Configuration(sp, [], [(1, 0), (0, 0)])


def test_hyperplane_is_an_immutable_value_whose_repr_orders_the_writers():
    hyps = [
        Hyperplane.make(n, o)
        for n, o in (((2, 0), 1), ((0, -3), GQ(1, 1)), ((1, 1), Fraction(-1, 2)), ((3, -6), 0))
    ]
    h = hyps[0]
    assert repr(h) == "Hyperplane(normal=(Fraction(1, 1), Fraction(0, 1)), offset=1/2)"
    assert repr(hyps[1]) == "Hyperplane(normal=(Fraction(0, 1), Fraction(1, 1)), offset=-1/3 - 1/3*i)"
    assert hash(h) == hash((h.normal, h.offset))
    assert h == Hyperplane((Fraction(1), Fraction(0)), GQ(Fraction(1, 2))) != hyps[1]
    assert h != (h.normal, h.offset)
    for name in ("normal", "offset", "other"):
        with pytest.raises(AttributeError):
            setattr(h, name, None)
    # both writers list hyperplanes in the order of their repr
    cfg = Configuration(Space(2), [(x, 1) for x in hyps])
    assert [(d["normal"], d["offset"]) for d in lio.config_to_json(cfg)["hyperplanes"]] == [
        (["0/1", "1/1"], "-1/3 - 1/3 i"),
        (["1/1", "-2/1"], "0/1"),
        (["1/1", "0/1"], "1/2"),
        (["1/1", "1/1"], "-1/2"),
    ]
    f = RationalFn(Space(2), Polynomial.const(2, 1), {x: k + 1 for k, x in enumerate(hyps)})
    assert [d["power"] for d in lio.rationalfn_to_json(f)["denominator"]] == [2, 4, 1, 3]
