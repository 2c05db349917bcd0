"""Root systems, Weyl groups, parabolic walls, genericity and the lattice
partial order."""

import ast
import random
import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from laurcalc import io as lio
from laurcalc import lattice, linalg, rootsys
from laurcalc import (
    GQ,
    BUILTIN_NAMES,
    ArityError,
    ExpPolySeries,
    Lattice,
    ParabolicData,
    Polynomial,
    RootSystem,
    Space,
    WeylElement,
    builtin_system,
    double_cosets,
    equiv_PQ,
    equiv_delta,
    exponent_classify,
    generic_witness,
    min_coset_reps,
    wq_subgroup,
)

import _support
from _support import check_weyl_theorems, kernel, pairwise_exponent_classify, pairwise_generic_witness

rng = random.Random(59)

ORDERS = {"A1": 2, "A1xA1": 4, "A2": 6, "B2": 8, "G2": 12, "A3": 24}


@pytest.mark.parametrize("v", [[1], [1, 2, 3]])
def test_weyl_action_and_restriction_refuse_a_vector_of_another_length(v):
    rs = builtin_system("A2")
    w = rs.reflection(rs.simple[0])
    P = ParabolicData(rs, [0])
    for call in (w.act, w.act_gq, P.restrict_gq, rs.reflection, rs.is_positive):
        with pytest.raises(ArityError, match=f"a vector of length {len(v)} in a space of dimension 2"):
            call(v)


def test_weyl_element_repr():
    rs = builtin_system("A2")
    one = "(Fraction(1, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(1, 1))"
    assert repr(rs.identity()) == f"WeylElement(({one}), l=0)"
    s = "(Fraction(-1, 1), Fraction(1, 1)), (Fraction(0, 1), Fraction(1, 1))"
    assert repr(rs.reflection(rs.simple[0])) == f"WeylElement(({s}), l=None)"


def test_builtin_orders():
    for name, k in ORDERS.items():
        assert len(builtin_system(name).weyl_group()) == k


def test_reflections_preserve_roots():
    for name in ("A2", "B2", "G2"):
        rs = builtin_system(name)
        roots = set(rs.roots)
        for alpha in rs.roots:
            s = rs.reflection(alpha)
            assert s * s == rs.identity()
            for beta in rs.roots:
                assert tuple(s.act(beta)) in roots


def test_longest_element_length():
    rs = builtin_system("A2")
    lengths = sorted(w.length for w in rs.weyl_group())
    assert lengths == [0, 1, 1, 2, 2, 3]


def test_coset_decomposition_unique():
    for name in ("A2", "B2"):
        rs = builtin_system(name)
        for idx in ([0], [1]):
            Q = ParabolicData(rs, idx)
            reps = min_coset_reps(rs, Q)
            sub = wq_subgroup(rs, Q)
            length = {w.matrix: w.length for w in rs.weyl_group()}
            seen = set()
            for s in reps:
                for t in sub:
                    st = s * t
                    assert length[st.matrix] == length[s.matrix] + length[t.matrix]
                    seen.add(st.matrix)
            assert len(seen) == len(rs.weyl_group())


def test_equiv_matches_double_cosets_A2():
    rs = builtin_system("A2")
    P = ParabolicData(rs, [0])
    Q = ParabolicData(rs, [1])
    part1 = {frozenset(w.matrix for w in cl) for cl in equiv_PQ(rs, P, Q)}
    part2 = {frozenset(w.matrix for w in cl) for cl in double_cosets(rs, P, Q)}
    assert part1 == part2


def test_genericity_witness_certificate():
    rs = builtin_system("A2")
    P = ParabolicData(rs, [0])
    Q = ParabolicData(rs, [0])
    S = [(Fraction(0), Fraction(0))]
    # a Weyl-fixed weight is never generic
    lam = [GQ(0), GQ(0)]
    w = generic_witness(rs, P, Q, S, lam)
    assert w is not None
    s1, s2, (i1, i2, coeffs) = w
    eta = tuple(
        a - b
        for a, b in zip(
            P.restrict_gq(s1.act_gq(lam)), P.restrict_gq(s2.act_gq(lam))
        )
    )
    dr = P.delta_r
    recon = [GQ(S[i1][j]) - GQ(S[i2][j]) for j in range(len(P.basis))]
    # S entries restrict through the wall basis
    s1r = P.restrict_gq([GQ(x) for x in S[i1]])
    s2r = P.restrict_gq([GQ(x) for x in S[i2]])
    recon = [a - b for a, b in zip(s1r, s2r)]
    for c, d in zip(coeffs, dr):
        recon = [r + GQ(c) * GQ(x) for r, x in zip(recon, d)]
    assert list(eta) == recon


def test_generic_weight_exists():
    rs = builtin_system("A2")
    P = ParabolicData(rs, [0])
    Q = ParabolicData(rs, [0])
    S = [(Fraction(0), Fraction(0))]
    lam = [GQ(Fraction(1, 7)), GQ(Fraction(2, 11))]
    assert generic_witness(rs, P, Q, S, lam) is None


def test_exponent_classify_unique():
    rs = builtin_system("A2")
    P = ParabolicData(rs, [0])
    Q = ParabolicData(rs, [0])
    S = [(Fraction(0), Fraction(0))]
    lam = [GQ(Fraction(1, 7)), GQ(Fraction(2, 11))]
    classes = equiv_PQ(rs, P, Q)
    rep = classes[0][0]
    xi = list(P.restrict_gq(rep.act_gq(lam)))
    kind, k, _ = exponent_classify(rs, P, Q, S, lam, xi)
    assert kind == "class"
    assert any(w.matrix == rep.matrix for w in classes[k])


def test_exponent_classify_no_coset():
    rs = builtin_system("A2")
    P = ParabolicData(rs, [0])
    Q = ParabolicData(rs, [0])
    lam = [GQ(Fraction(1, 7)), GQ(Fraction(2, 11))]
    with pytest.raises(ValueError):
        exponent_classify(rs, P, Q, [], lam, [GQ(Fraction(355, 113))])


def test_preceq_and_lub():
    delta = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    a = [GQ(1), GQ(2)]
    b = [GQ(3), GQ(2)]
    assert Lattice(delta).preceq(a, b)
    assert not Lattice(delta).preceq(b, a)
    assert equiv_delta(delta, a, b)
    assert not equiv_delta(delta, a, [GQ(Fraction(1, 2)), GQ(2)])
    lub = Lattice(delta).lub([a, b])
    assert lub == (GQ(3), GQ(2))


def test_all_builtin_names_resolve():
    for name in BUILTIN_NAMES:
        assert name in ORDERS
        builtin_system(name)


def _unit(n):
    """The identity of dimension n as a standalone Weyl element."""
    return WeylElement([[int(i == j) for j in range(n)] for i in range(n)])


def _half_basis_A2():
    """A2 in the basis {alpha_1 / 2, alpha_2}: a reflection matrix has a
    half-integer entry, so Weyl elements carry the denominator 2."""
    h = Fraction(1, 2)
    pos = [(2, 0), (0, 1), (2, 1)]
    return RootSystem(
        2, pos + [(-a, -b) for a, b in pos], ip=[[h, -h], [-h, 2]], positive=[0, 1, 2]
    )


def _matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n))
        for i in range(n)
    )


def _matvec(a, v):
    return tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a)


def test_non_integral_basis():
    rs = _half_basis_A2()
    W = rs.weyl_group()
    assert sorted(w.length for w in W) == [0, 1, 1, 2, 2, 3]
    half = [w for w in W if any(x.denominator == 2 for row in w.matrix for x in row)]
    assert len(half) == 4
    assert all(x.denominator in (1, 2) for w in W for row in w.matrix for x in row)
    roots = set(rs.roots)
    for w in W:
        for beta in rs.roots:
            assert _matvec(w.matrix, beta) in roots
            assert w.act(beta) == _matvec(w.matrix, beta)
        for v in W:
            assert (w * v).matrix == _matmul(w.matrix, v.matrix)
    subsets = [list(c) for r in range(3) for c in combinations(range(2), r)]
    for p in subsets:
        for q in subsets:
            P, Q = ParabolicData(rs, p), ParabolicData(rs, q)
            part1 = {frozenset(cl) for cl in equiv_PQ(rs, P, Q)}
            part2 = {frozenset(cl) for cl in double_cosets(rs, P, Q)}
            assert part1 == part2
            assert len(min_coset_reps(rs, Q)) * len(wq_subgroup(rs, Q)) == len(W)


def test_non_spanning_system():
    rs = RootSystem(2, [(1, 0), (-1, 0)], positive=[0])
    W = rs.weyl_group()
    one, zero = Fraction(1), Fraction(0)
    assert {w.matrix for w in W} == {((one, zero), (zero, one)), ((-one, zero), (zero, one))}
    assert sorted(w.length for w in W) == [0, 1]


def test_weyl_element_contract():
    for rs in [builtin_system(name) for name in ("A1", "B2", "G2", "A3")] + [_half_basis_A2()]:
        ident = rs.identity()
        for w in rs.weyl_group():
            m = w.matrix
            assert type(m) is tuple and all(type(row) is tuple for row in m)
            assert all(type(x) is Fraction for row in m for x in row)
            assert len(m) == w.dim == rs.dim
            v = WeylElement(m)
            assert v == w and hash(v) == hash(w) and v.length is None
            assert w * w.inverse() == ident == _unit(rs.dim)
            assert (w == ident) == (w.length == 0)
            with pytest.raises(AttributeError):
                w.matrix = m
            assert w.act_gq(rs.simple[0]) == tuple(GQ(x) for x in w.act(rs.simple[0]))
    w = builtin_system("A2").weyl_group()[-1]
    with pytest.raises(AttributeError):
        w.length = 7
    assert WeylElement([[Fraction(2, 4), "1/3"], [0, 1]]).matrix == (
        (Fraction(1, 2), Fraction(1, 3)),
        (Fraction(0), Fraction(1)),
    )


@pytest.mark.parametrize("matrix, lengths", [([[1, 2]], "[2]"), ([[1, 0], [0]], "[2, 1]")])
def test_weyl_element_refuses_a_matrix_that_is_not_square(matrix, lengths):
    with pytest.raises(ValueError, match=re.escape(f"square matrix, got rows of lengths {lengths}")):
        WeylElement(matrix)


def test_weyl_layer_stays_on_ints(monkeypatch):
    """Products, equality and hashing build no Fraction, and the Weyl layer
    never reads an element's Fraction matrix."""
    rs = _fresh("B2")
    groups = [builtin_system("A3").weyl_group(), _half_basis_A2().weyl_group()]

    def refuse(self):
        raise AssertionError("WeylElement.matrix read")

    monkeypatch.setattr(WeylElement, "matrix", property(refuse))
    P, Q = ParabolicData(rs, [0]), ParabolicData(rs, [1])
    rs.weyl_group(), wq_subgroup(rs, Q), min_coset_reps(rs, Q)
    equiv_PQ(rs, P, Q), double_cosets(rs, P, Q)
    built = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kw):
        built.append(args)
        return real_new(cls, *args, **kw)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for W in groups:
        for w in W:
            for v in W:
                w * v, w == v, hash(w)
    assert built == []


def test_bad_parabolic_indices():
    rs = builtin_system("A2")
    for indices, bad in (([5], 5), ([0, -1], -1), ([2], 2)):
        with pytest.raises(ValueError, match=f"simple root index {bad} out of range"):
            ParabolicData(rs, indices)


def test_one_parabolic_data_per_wall(monkeypatch):
    """A wall is built once per system and set of indices, in any order or
    repetition, and holds tuples."""
    rs = _fresh("A3")
    calls = []
    real = linalg._kernel
    monkeypatch.setattr(linalg, "_kernel", lambda *a: calls.append(a) or real(*a))
    P = ParabolicData(rs, [2, 0])
    assert ParabolicData(rs, (0, 2, 2)) is P and len(calls) == 1
    assert ParabolicData(_fresh("A3"), [0, 2]) is not P and len(calls) == 2
    assert P.indices == (0, 2) and P.delta_rest_indices == (1,)
    for field in (P.delta_Q, P.basis, P.delta_r, *P.basis, *P.delta_r):
        assert isinstance(field, tuple)


def test_walls_restrict_by_the_inner_product():
    # whatever the sign of the kernel's denominator, delta_r and restrict_gq
    # are <alpha, b> over the wall basis b, which Delta_P annihilates
    for name in BUILTIN_NAMES:
        rs = builtin_system(name)
        for p in _subsets(rs):
            P = ParabolicData(rs, p)
            assert all(rs.space.inner(a, b) == 0 for a in P.delta_Q for b in P.basis)
            for k, i in enumerate(P.delta_rest_indices):
                values = tuple(rs.space.inner(rs.simple[i], b) for b in P.basis)
                assert tuple(map(GQ, P.delta_r[k])) == values == P.restrict_gq(rs.simple[i])
    # the elimination gives this wall's basis over a negative denominator
    assert ParabolicData(builtin_system("A2"), [1]).basis == ((Fraction(2), Fraction(1)),)


def test_failed_parabolic_data_stores_nothing(monkeypatch):
    rs = _fresh("A2")
    before = dict(rs._pairs)
    for _ in range(2):
        with pytest.raises(ValueError, match="simple root index 2 out of range"):
            ParabolicData(rs, [0, 2])
    with monkeypatch.context() as m:
        m.setattr(ParabolicData, "_restrict", lambda self, iv: [0] * len(self.basis))
        for _ in range(2):
            with pytest.raises(ValueError, match="restricted simple roots not linearly independent"):
                ParabolicData(rs, [])
    assert rs._pairs == before
    assert len(ParabolicData(rs, []).delta_r) == 2


small = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def lattice_cases(draw):
    """An independent rational delta (k <= n <= 3), integer coordinates c
    and c2, rational coordinates r, and a complex base vector."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, n))
    delta = [tuple(draw(small) for _ in range(n)) for _ in range(k)]
    assume(linalg.rank(delta) == k)
    ints = st.lists(st.integers(-5, 5), min_size=k, max_size=k)
    c, c2 = draw(ints), draw(ints)
    r = draw(st.lists(small, min_size=k, max_size=k))
    base = [GQ(draw(small), draw(small)) for _ in range(n)]
    return n, delta, c, c2, r, base


def _comb(delta, c, n):
    return [sum((GQ(x) * GQ(d[j]) for x, d in zip(c, delta)), GQ(0)) for j in range(n)]


def _plus(u, v):
    return [a + b for a, b in zip(u, v)]


@given(lattice_cases())
def test_lattice_against_solve(case):
    n, delta, c, c2, r, base = case
    L = Lattice(delta, n)
    cols = [[d[j] for d in delta] for j in range(n)]
    v = _comb(delta, c, n)
    assert L.coords(v) == c
    assert L.span_coords(v) == linalg.solve(cols, v) == [GQ(x) for x in c]
    if delta:
        assert L.coords(_plus(v, [GQ(x) / 2 for x in delta[0]])) is None
        im = _plus(v, [GQ(0, x) for x in delta[0]])
        assert L.coords(im) is None
        assert L.span_coords(im) == linalg.solve(cols, im)
    for off in kernel(delta, n):
        assert L.coords(_plus(v, off)) is None
        assert L.span_coords(_plus(v, off)) is None is linalg.solve(cols, _plus(v, off))
    w = _plus(_comb(delta, r, n), [GQ(0, 1) * x for x in _comb(delta, c2, n)])
    assert L.span_coords(w) == linalg.solve(cols, w) == [GQ(x, y) for x, y in zip(r, c2)]
    assert L.span_coords(base) == linalg.solve(cols, base)
    if not delta:
        assert Lattice([]).coords([GQ(0)] * n) == []
        assert Lattice([]).coords(base) == (None if any(not x.is_zero() for x in base) else [])
    # the order and least upper bounds, from their definitions
    top = _plus(base, v)
    assert Lattice(delta).preceq(base, top) == all(x >= 0 for x in c)
    assert equiv_delta(delta, base, top)
    best = [max(0, x, y) for x, y in zip(c, c2)]
    family = [base, top, _plus(base, _comb(delta, c2, n))]
    assert Lattice(delta).lub(family) == tuple(_plus(base, _comb(delta, best, n)))


def test_delta_coords_and_the_isotropic_reflection():
    delta = [(1, 0, 1), (0, Fraction(1, 2), 0)]
    third = Fraction(1, 3)
    assert rootsys.delta_coords(delta, [third, 1, third]) == [GQ(third), GQ(2)]
    assert rootsys.delta_coords(delta, [GQ(0, 1), Fraction(1, 2), GQ(0, 1)]) == [GQ(0, 1), GQ(1)]
    assert rootsys.delta_coords(delta, [1, 0, 0]) is None
    with pytest.raises(ValueError, match="cannot reflect in an isotropic vector"):
        builtin_system("A2").reflection((0, 0))


def test_lattice_rejects_bad_input():
    with pytest.raises(ValueError, match="delta not linearly independent"):
        Lattice([(1, 0), (2, 0)])
    with pytest.raises(ValueError, match="delta not linearly independent"):
        Lattice([(0, 0)])
    with pytest.raises(ValueError, match="delta has a vector of length other than 2"):
        Lattice([(1, 0), (1,)])
    with pytest.raises(ValueError, match="delta has a vector of length other than 2"):
        Lattice([(1,)], 2)
    L = Lattice([(1, 0)])
    for bad in (L.coords, L.span_coords):
        with pytest.raises(ValueError, match="against delta of length 2"):
            bad([GQ(1)])
    for bad in (L.preceq, L.equiv, L.height):
        for a, b in (([0, 0], [1]), ([0, 0, 5], [1, 0])):
            with pytest.raises(ValueError, match="delta"):
                bad([GQ(x) for x in a], [GQ(x) for x in b])
        # the first vector is read first, so two bad vectors blame it
        with pytest.raises(ValueError, match="a vector of length 3 against delta"):
            bad([GQ(0)] * 3, [GQ(0)])
    with pytest.raises(ValueError, match="delta"):
        Lattice([(1, 0)]).lub([[GQ(0), GQ(0)], [GQ(1)]])


@given(lattice_cases())
def test_coset_split_against_coords(case):
    """The (class, k) split answers equiv, height and preceq as the
    coordinates of the difference do, on and off the span of delta."""
    n, delta, c, c2, r, base = case
    L = Lattice(delta, n)
    family = [base, _plus(base, _comb(delta, c, n)), _plus(base, _comb(delta, r, n))]
    family.append(_plus(family[1], [GQ(0, 1) * x for x in _comb(delta, c2, n)]))
    family += [_plus(family[1], off) for off in kernel(delta, n)]
    zero = ((0,) * n, (0,) * n, 1)
    assert L.coset(_comb(delta, c, n)) == (zero, tuple(c))
    for a in family:
        ka = L.coset(a)
        # the class is the representative with real coordinates in [0, 1)
        (re, im, q), k = ka
        assert L.coset([GQ(x, y) / q for x, y in zip(re, im)]) == (ka[0], (0,) * len(k))
        shifted = L.coset(_plus(a, _comb(delta, c2, n)))
        assert shifted == (ka[0], tuple(x + y for x, y in zip(ka[1], c2)))
        for b in family:
            kb = L.coset(b)
            diff = L.coords([y - x for x, y in zip(a, b)])
            height = None if diff is None or min(diff, default=0) < 0 else sum(diff)
            assert (ka[0] == kb[0]) == L.equiv(a, b) == (diff is not None)
            assert L.height(a, b) == height
            assert L.preceq(a, b) == (height is not None)
            assert lattice._heights([kb], ka) == ([] if height is None else [height])
            if diff is not None:
                assert [y - x for x, y in zip(ka[1], kb[1])] == diff


def test_lattice_is_immutable_and_shared():
    L = Lattice([(1, 0), (1, 1)])
    for name in ("dim", "name", "_rows", "_left", "_den", "_e", "other"):
        with pytest.raises(AttributeError):
            setattr(L, name, None)
    assert isinstance(L._rows, tuple) and all(isinstance(row, tuple) for row in L._rows)
    spellings = (
        [(1, 0), (1, 1)],
        [(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))],
        [("1", "0"), ("1", "1")],
        [(GQ(1), GQ(0)), (GQ(1), GQ(1))],
        ((GQ(1), 0), ["1", Fraction(1)]),
    )
    assert all(Lattice(d) is L for d in spellings)
    named = Lattice(spellings[0], 2, "roots")
    assert named is not L and named == L and named.name == "roots"
    assert ParabolicData(builtin_system("A2"), [0]).lattice is ParabolicData(builtin_system("A2"), [0]).lattice
    assert Lattice([(1, 0), (1, 1)]) == L != Lattice([(1, 1), (1, 0)])
    assert hash(Lattice([(1, 0), (1, 1)])) == hash(L)


def test_only_the_lattice_module_orders_coset_keys():
    # lattice.py owns Z.Delta: no other module compares (class, k) keys with
    # operator.le, and no module keeps a second constructor ``_lattice``
    for path in sorted(Path(lattice.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', '')}"
            if isinstance(node, ast.ImportFrom):
                names = [a.asname or a.name for a in node.names]
                assert node.module != "operator" or "le" not in names or path.name == "lattice.py", where
                assert "_lattice" not in names + [a.name for a in node.names], where
            elif isinstance(node, ast.Attribute):
                assert (node.attr, getattr(node.value, "id", None)) != ("le", "operator"), where
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                assert node.name != "_lattice", where
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                assert node.id != "_lattice", where


def test_every_reader_gets_the_shared_lattice():
    P = ParabolicData(_fresh("A3"), [1])
    assert P.lattice is Lattice(P.delta_r, len(P.basis), "restricted simple roots")
    xi = (GQ(1, 1), GQ(0))
    F = ExpPolySeries(Space(2), [(1, 0), (0, 1)], [xi], 1, 1, {xi: [Polynomial.const(2, GQ(1))]})
    assert F.lattice is Lattice(F.delta, F.space.dim)
    # a fresh system validates its simple roots against the table's lattice
    _fresh("A2")
    before = lattice._table.cache_info()
    _fresh("A2")
    after = lattice._table.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_lattice_table_is_bounded():
    for m in range(1, 3 * lattice._LATTICES):
        Lattice([(m, 1)])
        assert lattice._table.cache_info().currsize <= lattice._LATTICES
    assert lattice._table.cache_info().currsize == lattice._LATTICES
    assert equiv_delta([(5, 1)], [GQ(0), GQ(0)], [GQ(-5), GQ(-1)])


def test_lub_refuses_inequivalent_family():
    with pytest.raises(ValueError, match="not lattice equivalent"):
        Lattice([(1, 0)]).lub([[GQ(0), GQ(0)], [GQ(1, 1), GQ(0)]])
    with pytest.raises(ValueError, match="not lattice equivalent"):
        Lattice([(2, 0)]).lub([[GQ(0), GQ(0)], [GQ(1), GQ(0)]])


# -- what is computed once per process -----------------------------------


def _fresh(name):
    """A new system equal to the built-in ``name``, sharing nothing with it."""
    return rootsys._span_system(name, *rootsys._BUILTINS[name])


def _subsets(rs):
    n = len(rs.simple)
    return [list(c) for r in range(n + 1) for c in combinations(range(n), r)]


def _matrices(groups):
    return [[w.matrix for w in g] for g in groups]


def test_builtin_system_is_shared():
    assert builtin_system("A3") is builtin_system("A3")
    assert builtin_system("a1XA1") is builtin_system("A1xA1")
    assert builtin_system("A2") is not builtin_system("B2")
    # a system read from JSON is built anew on every call
    doc = lio.rootsystem_to_json(builtin_system("A2"))
    assert lio.rootsystem_from_json(doc) is not lio.rootsystem_from_json(doc)


def test_builtin_validated_once_per_name(monkeypatch):
    monkeypatch.setattr(rootsys, "_BUILT", {})
    validated = []
    real = RootSystem._validate

    def counting(self):
        validated.append(self.name)
        real(self)

    monkeypatch.setattr(RootSystem, "_validate", counting)
    for _ in range(3):
        for name in BUILTIN_NAMES:
            builtin_system(name)
            builtin_system(name.lower())
    assert validated == BUILTIN_NAMES


def test_cached_results_equal_fresh_ones():
    """Every entry of a shared system's pair cache, asked for twice, equals
    what a system built anew computes, in the same order."""
    for name in BUILTIN_NAMES:
        rs, new = builtin_system(name), _fresh(name)
        assert _matrices([rs.weyl_group()]) == _matrices([new.weyl_group()])
        assert [w.length for w in rs.weyl_group()] == [w.length for w in new.weyl_group()]
        for p in _subsets(rs):
            for q in _subsets(rs):
                args = ParabolicData(rs, p), ParabolicData(rs, q)
                new_args = ParabolicData(new, p), ParabolicData(new, q)
                for fn in (equiv_PQ, double_cosets):
                    want = _matrices(fn(new, *new_args))
                    assert _matrices(fn(rs, *args)) == want == _matrices(fn(rs, *args))
        for q in _subsets(rs):
            Q, new_Q = ParabolicData(rs, q), ParabolicData(new, q)
            for fn in (min_coset_reps, wq_subgroup):
                want = _matrices([fn(new, new_Q)])
                assert _matrices([fn(rs, Q)]) == want == _matrices([fn(rs, Q)])


def _calls(rs, P, Q):
    """Each public Weyl-layer query, as a function of no arguments, and
    whether its result is a partition of W."""
    S, lam = [(0, 0)], [GQ(Fraction(1, 7)), GQ(Fraction(2, 11))]
    xi = list(P.restrict_gq(equiv_PQ(rs, P, Q)[0][0].act_gq(lam)))
    return [
        (rs.weyl_group, False),
        (lambda: wq_subgroup(rs, Q), False),
        (lambda: min_coset_reps(rs, Q), False),
        (lambda: equiv_PQ(rs, P, Q), True),
        (lambda: double_cosets(rs, P, Q), True),
        (lambda: exponent_classify(rs, P, Q, S, lam, xi)[2], True),
    ]


def test_queries_hand_out_the_kept_tuples():
    """Every query returns the tuple kept on the system, the same object on
    every call, and no caller can change it: the tuples cannot grow and
    their Weyl elements refuse assignment."""
    rs = _fresh("A2")
    P, Q = ParabolicData(rs, [0]), ParabolicData(rs, [1])
    for call, partition in _calls(rs, P, Q):
        got = call()
        assert got is call()
        parts = got if partition else (got,)
        for seq in (got, *parts):
            assert type(seq) is tuple
            with pytest.raises(AttributeError):
                seq.append(seq[0])
        assert all(isinstance(w, WeylElement) for part in parts for w in part)


def test_shared_elements_are_immutable():
    rs = builtin_system("A2")
    w = rs.weyl_group()[-1]
    for target in (w, rs.reflection(rs.simple[0]), w * w, WeylElement(w.matrix)):
        for attr in ("length", "dim", "_m", "_d", "anything"):
            with pytest.raises(AttributeError):
                setattr(target, attr, 7)
    assert w.length == 3
    for seq in (rs.roots, rs.positive, rs.simple):
        assert type(seq) is tuple
    # the refused assignments leave the shared lengths, so W^Q still builds
    Q = ParabolicData(rs, [0])
    assert sorted(x.length for x in min_coset_reps(rs, Q)) == [0, 1, 2]


@pytest.mark.parametrize(
    "roots, positive, simple, message",
    [
        ([(1,), (-1,), (1,)], [0], None, "duplicate roots"),
        ([(0,), (1,), (-1,)], [1], None, "zero is not a root"),
        ([(1,), (2,)], [0], None, "root set not symmetric"),
        ([(1,), (-1,)], [0, 1], None, "invalid positive system"),
        ([(1,), (-1,)], [0], [(-1,)], "positive root outside the nonnegative simple span"),
        ([(1,), (-1,)], [5], None, "positive root index 5 out of range for 2 roots"),
    ],
)
def test_invalid_root_systems_are_refused(roots, positive, simple, message):
    with pytest.raises(ValueError, match=message):
        RootSystem(1, roots, positive=positive, simple=simple)


def test_failed_builtin_build_stores_nothing(monkeypatch):
    monkeypatch.setattr(rootsys, "_BUILT", {})
    gram, positive = rootsys._BUILTINS["A2"]
    # A2 without its highest root is not closed under reflections
    monkeypatch.setitem(rootsys._BUILTINS, "A2", (gram, positive[:2]))
    for _ in range(2):
        with pytest.raises(ValueError, match="not closed under reflections"):
            builtin_system("A2")
    assert rootsys._BUILT == {}
    monkeypatch.setitem(rootsys._BUILTINS, "A2", (gram, positive))
    assert len(builtin_system("A2").weyl_group()) == 6


def test_weyl_theorems_hold_on_every_system_and_pair():
    for rs in [builtin_system(name) for name in BUILTIN_NAMES] + [_half_basis_A2()]:
        check_weyl_theorems(rs)


def test_no_weyl_build_raises():
    """The entries kept per wall compute only what they return: the input
    is refused by ``RootSystem._validate``, ``ParabolicData`` and the entry
    of ``_per_walls`` before a build starts, and the theorems the builds
    rest on are proved by ``check_weyl_theorems``."""
    tree = ast.parse(Path(rootsys.__file__).read_text())
    builds = [
        f for f in tree.body
        if isinstance(f, ast.FunctionDef) and any(getattr(d, "id", None) == "_per_walls" for d in f.decorator_list)
    ]
    assert {"wq_subgroup", "min_coset_reps", "equiv_PQ", "double_cosets"} <= {f.name for f in builds}
    assert [f.name for f in builds if any(isinstance(n, ast.Raise) for n in ast.walk(f))] == []


def test_each_query_is_one_entry_with_its_own_name_and_docstring():
    for name in ("wq_subgroup", "min_coset_reps", "equiv_PQ", "double_cosets"):
        fn = getattr(rootsys, name)
        assert fn.__name__ == fn.__wrapped__.__name__ == name
        assert fn.__doc__ and fn.__doc__ == fn.__wrapped__.__doc__


_GROUP = RootSystem.weyl_group  # the real closure, under the fake that breaks its lengths
_WQ = wq_subgroup  # the real W_Q, under the fake that reorders it


@pytest.mark.parametrize(
    "target, fake, message",
    [
        pytest.param(
            # the reflections in Delta_Q but the last generate too small a group
            _support,
            ("wq_subgroup", lambda rs, Q: rootsys._closure([rs.reflection(a) for a in Q.delta_Q[:-1]], rs.identity())),
            "centralizer and reflection subgroup disagree", id="centralizer",
        ),
        pytest.param(
            _support, ("wq_subgroup", lambda rs, Q: _WQ(rs, Q)[::-1]), "centralizer and reflection subgroup disagree",
            id="centralizer-order",
        ),
        pytest.param(RootSystem, ("is_positive", lambda self, v: True), "not the set sending Delta_Q", id="membership-all"),
        pytest.param(RootSystem, ("is_positive", lambda self, v: False), "not the set sending Delta_Q", id="membership-none"),
        # the set that W^Q membership reads, with every root or none in it
        pytest.param(None, ("_positive", lambda rs: set(rs._roots)), "not injective", id="coset-injection"),
        pytest.param(None, ("_positive", lambda rs: set()), "not surjective", id="coset-surjection"),
        pytest.param(
            # lengths 0 and 1 stay right, so W_Q of one simple root still matches
            RootSystem,
            ("weyl_group", lambda self: tuple(rootsys._element(w._m, w._d, w.dim, min(w.length, 1)) for w in _GROUP(self))),
            "length additivity fails", id="coset-lengths",
        ),
        pytest.param(rootsys, ("_pq_signature", lambda rs, P, Q, w: w), "classes not left invariant", id="invariance"),
        pytest.param(
            # the left coset W_P w is left- but not right-invariant
            rootsys, ("_pq_signature", lambda rs, P, Q, w: frozenset(p * w for p in wq_subgroup(rs, P))),
            "classes not right invariant", id="right-invariance",
        ),
    ],
)
def test_the_weyl_theorems_reject_a_broken_layer(target, fake, message, monkeypatch):
    rs = _fresh("A2")
    name, value = fake
    if target is None:
        monkeypatch.setattr(rs, name, value(rs))
    else:
        monkeypatch.setattr(target, name, value)
    with pytest.raises(AssertionError, match=message):
        check_weyl_theorems(rs)


def test_failed_build_stores_nothing(monkeypatch):
    """A build that raises, here because the closure of W or of W_Q refuses,
    raises on every call and leaves the cache as it was."""
    rs = _fresh("A2")
    P, Q = ParabolicData(rs, [0]), ParabolicData(rs, [1])
    before = dict(rs._pairs)
    calls = [
        lambda rs, P, Q: [wq_subgroup(rs, Q)],
        lambda rs, P, Q: [min_coset_reps(rs, Q)],
        lambda rs, P, Q: equiv_PQ(rs, P, Q),
        lambda rs, P, Q: double_cosets(rs, P, Q),
        lambda rs, P, Q: [generic_witness(rs, P, Q, [], [0, 0])[:2]],
    ]

    def refuse(gens, ident):
        raise ValueError("group closure did not terminate; invalid input")

    with monkeypatch.context() as m:
        m.setattr(rootsys, "_closure", refuse)
        for call in calls:
            for _ in range(2):
                with pytest.raises(ValueError, match="group closure did not terminate"):
                    call(rs, P, Q)
        assert rs._pairs == before
    new = _fresh("A2")
    for call in calls:
        assert _matrices(call(rs, P, Q)) == _matrices(call(new, ParabolicData(new, [0]), ParabolicData(new, [1])))


def test_subgroups_and_the_identity_build_no_weyl_group():
    systems = [_fresh("A3"), lio.rootsystem_from_json(lio.rootsystem_to_json(builtin_system("G2")))]
    for rs in systems:
        assert rs.identity() == _unit(rs.dim) and rs.identity().length == 0
        for idx in _subsets(rs):
            Q = ParabolicData(rs, idx)
            assert all(w.length is not None for w in wq_subgroup(rs, Q))
        assert rs._weyl is None


def test_parabolic_of_another_system_is_refused():
    rs = builtin_system("A2")
    P, Q = ParabolicData(rs, [0]), ParabolicData(rs, [1])
    before = dict(rs._pairs)
    for other in (_fresh("A2"), builtin_system("B2")):
        foreign = ParabolicData(other, [0])
        S, lam = [(0, 0)], [GQ(0), GQ(0)]
        for call in (
            lambda: wq_subgroup(rs, foreign),
            lambda: min_coset_reps(rs, foreign),
            lambda: equiv_PQ(rs, P, foreign),
            lambda: equiv_PQ(rs, foreign, Q),
            lambda: double_cosets(rs, foreign, Q),
            lambda: generic_witness(rs, foreign, Q, S, lam),
            lambda: exponent_classify(rs, P, foreign, S, lam, [GQ(0)]),
        ):
            with pytest.raises(ValueError, match="parabolic data built for another root system"):
                call()
    assert rs._pairs == before


@pytest.mark.parametrize("index", [2, 5, -1, -2])
def test_positive_index_outside_the_roots_is_refused(index):
    # a negative index does not count from the end
    with pytest.raises(ValueError, match=f"positive root index {index} out of range for 2 roots"):
        RootSystem(1, [(1,), (-1,)], positive=[index])


def test_simple_root_that_is_no_root_is_refused():
    # (-1, 1) spans every positive root of B2 with nonnegative coordinates
    # over (1, 0), but it is no root; its reflection generates no finite group
    gram, positive = rootsys._BUILTINS["B2"]
    roots = positive + [tuple(-x for x in r) for r in positive]
    with pytest.raises(ValueError, match="simple root that is not a positive root"):
        RootSystem(2, roots, ip=gram, positive=range(4), simple=[(1, 0), (-1, 1)])


def test_generic_witness_keeps_one_translate_map_per_class(monkeypatch):
    # a fresh G2, so that its (P, Q) entry is not built yet; one class per element
    rs = _fresh("G2")
    P = Q = ParabolicData(rs, [])
    after, maps = ParabolicData._after, []
    monkeypatch.setattr(ParabolicData, "_after", lambda self, w: maps.append(w) or after(self, w))
    act, acts = WeylElement.act_gq, []
    monkeypatch.setattr(WeylElement, "act_gq", lambda self, v: acts.append(self) or act(self, v))
    coords, solves = Lattice.coords, []
    monkeypatch.setattr(Lattice, "coords", lambda self, v: solves.append(v) or coords(self, v))
    lam = [Fraction(1, 7), Fraction(3, 11)]
    assert generic_witness(rs, P, Q, [(0, 0)], lam) is None
    assert len(maps) == len(set(maps)) == len(equiv_PQ(rs, P, Q)) == 12
    assert (acts, solves) == ([], [])
    # a singular weight: one lattice solve, for the certificate of the pair found
    w = generic_witness(rs, P, Q, [(0, 0)], [0, 0])
    assert w is not None and w[2] == (0, 0, [0, 0])
    assert (len(maps), acts, len(solves)) == (12, [], 1)


def test_lam_of_another_length_is_refused_with_one_class():
    rs = builtin_system("A2")
    P = Q = ParabolicData(rs, [0, 1])
    assert len(equiv_PQ(rs, P, Q)) == 1
    for call in (lambda: generic_witness(rs, P, Q, [], [1]), lambda: exponent_classify(rs, P, Q, [], [1], [])):
        with pytest.raises(ArityError, match="a vector of length 1 in a space of dimension 2"):
            call()


def test_classify_reports_an_ambiguous_weight():
    # xi = 0 lies below the translates of lam = 0 by both classes
    rs = builtin_system("A2")
    P = Q = ParabolicData(rs, [0])
    kind, candidates, classes = exponent_classify(rs, P, Q, [], [0, 0], [0])
    assert (kind, candidates) == ("ambiguous", [0, 1])
    assert classes == equiv_PQ(rs, P, Q)


def _least_words(rs):
    """The lexicographically least reduced word of each element of W in the
    simple-root indices: its first letter is its least left descent."""
    s = [rs.reflection(a) for a in rs.simple]
    length, words = {}, {}
    for w in rs.weyl_group():  # by length, so s_i w comes before w
        length[w] = w.length
        i = min((i for i in range(len(s)) if length.get(s[i] * w, w.length) < w.length), default=None)
        words[w] = () if i is None else (i, *words[s[i] * w])
    return words


def test_class_representatives_are_the_minimal_elements_in_word_order():
    # the fact that the witness order of generic_witness rests on
    for name in BUILTIN_NAMES:
        rs = builtin_system(name)
        words = _least_words(rs)
        for p in _subsets(rs):
            for q in _subsets(rs):
                classes = equiv_PQ(rs, ParabolicData(rs, p), ParabolicData(rs, q))
                for cl in classes:
                    assert [w for w in cl if w.length == min(v.length for v in cl)] == [cl[0]]
                order = [(cl[0].length, words[cl[0]]) for cl in classes]
                assert order == sorted(set(order))


def _outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the result compared
        return type(exc), str(exc)


def test_genericity_queries_match_the_pairwise_reference():
    rng = random.Random(30)

    def number(complex_ok):
        x = GQ(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))))
        return x + GQ(0, Fraction(rng.randint(-2, 2), 2)) if complex_ok and rng.random() < 0.3 else x

    def vector(n, complex_ok=False):
        return [number(complex_ok) for _ in range(n)]

    kinds = set()
    for name in BUILTIN_NAMES:
        rs = builtin_system(name)
        n = rs.dim
        for p in _subsets(rs):
            for q in _subsets(rs):
                P, Q = ParabolicData(rs, p), ParabolicData(rs, q)
                m = len(P.basis)
                for _ in range(6):
                    complex_ok = rng.random() < 0.5
                    lam = rng.choice(([GQ(0)] * n, vector(n), vector(n, complex_ok), vector(n + rng.choice((-1, 1)))))
                    S = [vector(n, complex_ok) for _ in range(rng.randint(0, 3))]
                    if S and rng.random() < 0.1:
                        S[-1] = vector(n + 1)
                    args = (rs, P, Q, S, lam)
                    got = _outcome(generic_witness, *args)
                    assert got == _outcome(pairwise_generic_witness, *args)
                    kinds.add("none" if got is None else "witness" if len(got) == 3 else "refused")
                    # xi below a translate, off every coset, or of another length
                    classes = equiv_PQ(rs, P, Q)
                    try:
                        k, s0 = rng.randrange(len(classes)), rng.choice(S or [[0] * n])
                        top = [a + b for a, b in zip(P.restrict_gq(classes[k][0].act_gq(lam)), P.restrict_gq(s0))]
                    except (ArityError, ValueError):
                        top = vector(m)
                    below = top
                    for d in P.delta_r:
                        c = rng.randint(0, 2)
                        below = [x - c * GQ(y) for x, y in zip(below, d)]
                    for xi in (below, [x + GQ(Fraction(1, 5)) for x in top], vector(m + 1)):
                        got = _outcome(exponent_classify, rs, P, Q, S, lam, xi)
                        assert got == _outcome(pairwise_exponent_classify, rs, P, Q, S, lam, xi)
                        kinds.add(got[0] if isinstance(got[0], str) else got[0].__name__)
    assert kinds >= {"none", "witness", "refused", "class", "ambiguous", "ValueError", "ArityError"}
