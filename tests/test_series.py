"""Truncated exponential polynomial series: validation, differentiation,
products, splitting and wall restriction."""

import json
import random
from fractions import Fraction

import pytest

from laurcalc import (
    GQ,
    ArityError,
    DiffOp,
    ExpPolySeries,
    Polynomial,
    Space,
    series_diffop,
    series_exponents,
    series_mul,
    series_restrict,
    series_split,
)
from laurcalc import Lattice
from laurcalc import io as lio
from laurcalc.cli import run

from _support import rand_gq, rand_poly

rng = random.Random(61)


def _basic(trunc=3):
    sp = Space(2)
    delta = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    lam = (GQ(Fraction(5, 2)), GQ(1))
    terms = {
        lam: [Polynomial.const(2, GQ(2))],
        (lam[0] - GQ(1), lam[1]): [Polynomial.variable(2, 0)],
    }
    return ExpPolySeries(sp, delta, [lam], trunc, 1, terms)


def test_series_is_zero():
    F = _basic()
    assert not F.is_zero()
    # scaling by 0 and F - F drop every term
    assert F.scale(0).is_zero() and (F + F.scale(-1)).is_zero()


def test_series_repr():
    F = _basic()
    assert repr(F) == "a^(3/2, 1) * ((1)*z0,) + a^(5/2, 1) * ((2),)"
    assert repr(F.scale(0)) == "0"


def test_exponent_outside_cosets_rejected():
    sp = Space(1)
    with pytest.raises(ValueError):
        ExpPolySeries(
            sp,
            [(Fraction(1),)],
            [(GQ(0),)],
            2,
            1,
            {(GQ(Fraction(1, 2)),): [Polynomial.const(1, GQ(1))]},
        )


def test_truncation_depth_enforced():
    sp = Space(1)
    with pytest.raises(ValueError):
        ExpPolySeries(
            sp,
            [(Fraction(1),)],
            [(GQ(0),)],
            2,
            1,
            {(GQ(-3),): [Polynomial.const(1, GQ(1))]},
        )


def test_exponents_and_leaders():
    F = _basic()
    exps, leading = series_exponents(F)
    assert len(exps) == 2
    assert leading == [(GQ(Fraction(5, 2)), GQ(1))]


def test_diffop_derivation_on_products():
    for _ in range(15):
        F = _basic()
        G = ExpPolySeries(
            F.space,
            F.delta,
            [(GQ(0), GQ(0))],
            3,
            1,
            {(GQ(0), GQ(0)): [rand_poly(rng, 2, 2)]},
        )
        d = DiffOp.partial(2, rng.randint(0, 1))
        lhs = series_diffop(d, series_mul(F, G))
        rhs = series_mul(series_diffop(d, F), G) + series_mul(F, series_diffop(d, G))
        assert lhs == rhs


def test_mul_prunes_deep_terms():
    sp = Space(1)
    delta = [(Fraction(1),)]
    mk = lambda e, h: ExpPolySeries(
        sp,
        delta,
        [(GQ(e),)],
        2,
        1,
        {(GQ(e - k),): [Polynomial.const(1, GQ(1))] for k in range(h + 1)},
    )
    F = mk(0, 2)
    G = mk(0, 2)
    H = series_mul(F, G)
    # depth beyond the joint truncation is dropped
    assert all((GQ(0) - xi[0]).re <= 2 for xi in H.terms)
    assert (GQ(-3),) not in H.terms


def test_split_and_reassemble():
    sp = Space(1)
    delta = [(Fraction(1),)]
    s1, s2 = (GQ(0),), (GQ(Fraction(1, 2)),)
    terms = {
        s1: [Polynomial.const(1, GQ(1))],
        (GQ(-1),): [Polynomial.const(1, GQ(2))],
        s2: [Polynomial.const(1, GQ(3))],
    }
    F = ExpPolySeries(sp, delta, [s1, s2], 2, 1, terms)
    parts = series_split(F, [s1, s2])
    assert set(parts) == {s1, s2}
    total = parts[s1] + parts[s2]
    assert total == F


def test_split_rejects_equivalent_leaders():
    sp = Space(1)
    delta = [(Fraction(1),)]
    F = ExpPolySeries(
        sp, delta, [(GQ(0),)], 2, 1, {(GQ(0),): [Polynomial.const(1, GQ(1))]}
    )
    with pytest.raises(ValueError):
        series_split(F, [(GQ(0),), (GQ(1),)])


def test_restriction_grouping():
    F = _basic()
    R = series_restrict(F, [(Fraction(1), Fraction(0))])
    outer = R.outer_exponents()
    # the two exponents differ on the wall direction
    assert len(outer) == 2
    for eta, xis in R.groups.items():
        for xi in xis:
            assert tuple(F.space.inner(xi, b) for b in R.wall) == eta
    assert R.reassemble() == F


def test_shifted_coeff_collapses_to_original():
    F = _basic()
    R = series_restrict(F, [(Fraction(1), Fraction(0))])
    for xi, polys in F.terms.items():
        shifted = R.shifted_coeff(xi)
        n = F.space.dim
        for q2, q in zip(shifted, polys):
            # substituting y = 0 in the split argument recovers q(x)
            back = q2.substitute(
                [Polynomial.variable(n, i) for i in range(n)]
                + [Polynomial.zero(n) for _ in range(n)]
            )
            assert back == q


def test_shifted_coeff_in_no_variables():
    # a series over a 0-dimensional space: the coefficients are constants
    F = ExpPolySeries(Space(0), [], [()], 1, 1, {(): [Polynomial.const(0, 1)]})
    R = series_restrict(F, [])
    assert R.shifted_coeff(()) == (Polynomial.const(0, 1),)
    assert R.reassemble() == F


def test_bad_delta_rejected():
    one = {(GQ(0), GQ(0)): [Polynomial.const(2, GQ(1))]}
    with pytest.raises(ValueError, match="delta has a vector of length other than 2"):
        ExpPolySeries(Space(2), [(Fraction(1),)], [(GQ(0), GQ(0))], 1, 1, one)
    with pytest.raises(ValueError, match="delta not linearly independent"):
        ExpPolySeries(Space(2), [(1, 0), (2, 0)], [(GQ(0), GQ(0))], 1, 1, one)
    with pytest.raises(ValueError, match="delta"):
        ExpPolySeries(Space(2), [(1, 0)], [(GQ(0),)], 1, 1, one)


def test_derived_series_share_the_lattice():
    F = _basic()
    G = series_diffop(DiffOp.partial(2, 0), F)
    derived = [F + F, F.scale(GQ(2)), G, series_mul(F, F), *series_split(F, F.leaders).values()]
    derived.append(series_restrict(F, [(Fraction(1), Fraction(0))]).reassemble())
    assert all(H.lattice is F.lattice for H in derived)


def test_mul_of_vector_series_is_an_arity_error():
    F = _basic()
    V = ExpPolySeries(F.space, F.delta, F.leaders, F.trunc, 2, {F.leaders[0]: [Polynomial.const(2, GQ(1))] * 2})
    for a, b in ((V, F), (F, V), (V, V)):
        with pytest.raises(ArityError):
            series_mul(a, b)


def test_series_that_differ_compare_unequal():
    F = _basic()
    assert F == _basic()
    lam = F.leaders[0]
    one_term_fewer = {lam: F.terms[lam]}
    other_coeff = dict(F.terms)
    other_coeff[lam] = [Polynomial.const(2, GQ(3))]
    for terms in (one_term_fewer, other_coeff):
        assert ExpPolySeries(F.space, F.delta, F.leaders, F.trunc, F.vdim, terms) != F
    empty = [ExpPolySeries(F.space, F.delta, F.leaders, F.trunc, vdim, {}) for vdim in (1, 2)]
    assert empty[0] != empty[1]
    assert empty[0] == ExpPolySeries(F.space, F.delta, F.leaders, F.trunc, 1, {})


def _inner_products():
    """One series over the standard inner product and one with the same
    terms over diag(2, 1)."""
    F = _basic()
    G = ExpPolySeries(Space(2, [[2, 0], [0, 1]]), F.delta, F.leaders, F.trunc, 1, F.terms)
    return F, G


def test_series_over_different_inner_products_do_not_combine():
    F, G = _inner_products()
    assert F != G and G != F
    assert F == ExpPolySeries(Space(2), F.delta, F.leaders, F.trunc, 1, F.terms)
    for combine in (lambda: F + G, lambda: series_mul(F, G), lambda: series_mul(G, F)):
        with pytest.raises(ArityError, match="different inner products"):
            combine()


def test_cli_mul_over_different_inner_products_is_exit_2(tmp_path, capsys):
    paths = []
    for name, H in zip("ab", _inner_products()):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(lio.series_to_json(H)))
    code = run(["series", "mul", "--a", str(paths[0]), "--b", str(paths[1])])
    assert code == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "precondition" and "different inner products" in err["detail"]


def test_one_delta_in_any_spelling_combines():
    F = _basic()
    for delta in ([(1, 0), (0, 1)], [("1", "0"), ("0", "1")], [(GQ(1), GQ(0)), (GQ(0), GQ(1))]):
        G = ExpPolySeries(F.space, delta, F.leaders, F.trunc, 1, F.terms)
        assert G.lattice is F.lattice
        assert F + G == F.scale(2)
        assert series_mul(F, G) == series_mul(F, F)
    swapped = ExpPolySeries(F.space, [(0, 1), (1, 0)], F.leaders, F.trunc, 1, F.terms)
    with pytest.raises(ArityError, match="series shapes differ"):
        F + swapped


def _random_series(n, delta, trunc, nlead):
    leaders = [tuple(rand_gq(rng, 3, 2) for _ in range(n)) for _ in range(nlead)]
    terms = {}
    for lam in leaders:
        for _ in range(3):
            ks = [rng.randint(0, trunc) for _ in delta]
            if sum(ks) <= trunc:
                xi = tuple(lam[j] - sum((GQ(c) * GQ(d[j]) for c, d in zip(ks, delta)), GQ(0)) for j in range(n))
                terms[xi] = [rand_poly(rng, n, 2)]
    return ExpPolySeries(Space(n), delta, leaders, trunc, 1, terms)


def test_results_that_skip_the_height_check_pass_it():
    """scale, series_diffop and series_mul vouch for their exponents; the
    public constructor accepts every series they give, unchanged."""
    for n, delta in ((1, [(1,)]), (2, [(1, 0), (0, 1)]), (2, [(1, 1)]), (3, [(1, 1, 0), (0, 1, 1)])):
        for _ in range(8):
            trunc = rng.randint(0, 3)
            F, G = (_random_series(n, delta, trunc + i, rng.randint(1, 2)) for i in (0, 1))
            d = DiffOp.partial(n, rng.randrange(n))
            for H in (F.scale(rand_gq(rng)), F.scale(0), series_diffop(d, F), series_mul(F, G), series_mul(G, G)):
                again = ExpPolySeries(H.space, H.delta, H.leaders, H.trunc, H.vdim, H.terms)
                assert again == H
                assert (again.leaders, again.trunc) == (H.leaders, H.trunc)


def test_add_rechecks_at_the_smaller_trunc():
    sp, delta = Space(1), [(Fraction(1),)]
    one = [Polynomial.const(1, GQ(1))]
    deep = ExpPolySeries(sp, delta, [(GQ(0),)], 3, 1, {(GQ(-3),): one})
    shallow = ExpPolySeries(sp, delta, [(GQ(0),)], 1, 1, {(GQ(0),): one})
    with pytest.raises(ValueError, match="outside the truncated cosets"):
        deep + shallow
    assert set((deep + deep).terms) == {(GQ(-3),)}


def test_mul_against_pairwise_products():
    """series_mul against the definition: every pair's product, summed per
    exponent, kept when it lies below some product leader and within trunc
    below each one, with heights from ``Lattice.coords``."""
    for n, delta in ((1, [(1,)]), (2, [(1, 0), (0, 1)]), (2, [(1, 1)]), (3, [(1, 1, 0), (0, 1, 1)])):
        L = Lattice(delta, n)
        for _ in range(6):
            trunc = rng.randint(0, 3)
            F, G = (_random_series(n, delta, trunc + i, 2) for i in (0, 1))
            expected = {}
            for xi, (p,) in F.terms.items():
                for eta, (q,) in G.terms.items():
                    nu = tuple(a + b for a, b in zip(xi, eta))
                    expected[nu] = expected.get(nu, Polynomial.zero(n)) + p * q
            leaders = {tuple(a + b for a, b in zip(x, y)) for x in F.leaders for y in G.leaders}
            kept = {}
            for nu, pq in expected.items():
                cs = [L.coords([b - a for a, b in zip(nu, lead)]) for lead in leaders]
                hs = [sum(c) for c in cs if c is not None and min(c, default=0) >= 0]
                if hs and max(hs) <= trunc and not pq.is_zero():
                    kept[nu] = (pq,)
            H = series_mul(F, G)
            assert H.terms == kept
            assert set(H.leaders) == leaders and H.trunc == trunc


def test_split_refuses_an_exponent_above_its_leader():
    sp, delta = Space(1), [(Fraction(1),)]
    F = ExpPolySeries(sp, delta, [(GQ(0),)], 2, 1, {(GQ(0),): [Polynomial.const(1, GQ(1))]})
    with pytest.raises(ValueError, match="lies in no given coset"):
        series_split(F, [(GQ(-1),)])
    assert series_split(F, [(GQ(1),)])[(GQ(1),)] == F


def test_series_over_different_deltas_compare_by_terms():
    sp, one = Space(1), [Polynomial.const(1, GQ(1))]
    terms = {(GQ(0),): one, (GQ(-1),): one}
    F = ExpPolySeries(sp, [(1,)], [(GQ(0),)], 2, 1, terms)
    G = ExpPolySeries(sp, [(Fraction(1, 2),)], [(GQ(0),)], 2, 1, terms)
    assert F.lattice != G.lattice and F == G
    assert F != ExpPolySeries(sp, [(Fraction(1, 2),)], [(GQ(0),)], 2, 1, {(GQ(0),): one})
