"""JSON round-trips and byte-stable serialization."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from laurcalc import (
    GQ,
    Configuration,
    DiffOp,
    ExpPolySeries,
    Germ,
    Hyperplane,
    LaurentFunctional,
    LFSummand,
    Polynomial,
    RationalFn,
    Space,
    builtin_system,
    canonical_normal,
    lf_residue,
    rationalfn_germ_at,
)
from laurcalc import cli
from laurcalc import io as lio

from _support import rand_diffop, rand_gq, rand_poly

rng = random.Random(67)


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def test_poly_roundtrip():
    for _ in range(10):
        p = rand_poly(rng, rng.randint(1, 3), 3)
        assert lio.poly_from_json(json.loads(_dumps(lio.poly_to_json(p)))) == p


def test_diffop_roundtrip():
    u = rand_diffop(rng, 2, 3)
    assert lio.diffop_from_json(lio.diffop_to_json(u)) == u


def test_config_roundtrip():
    sp = Space(2, [[Fraction(2), Fraction(-1)], [Fraction(-1), Fraction(2)]])
    cfg = Configuration(
        sp,
        [(Hyperplane.make((1, -1), GQ(Fraction(1, 2))), 2), (Hyperplane.make((0, 1), GQ(0)), 1)],
        [(Fraction(1), Fraction(0))],
    )
    back = lio.config_from_json(json.loads(_dumps(lio.config_to_json(cfg))))
    assert back.multiplicity == cfg.multiplicity
    assert back.x_set == cfg.x_set
    assert back.space.ip == sp.ip


def test_rationalfn_and_germ_roundtrip():
    sp = Space(2)
    f = RationalFn(
        sp,
        rand_poly(rng, 2, 2),
        {Hyperplane.make((1, 0), GQ(0)): 2, Hyperplane.make((1, 1), GQ(3)): 1},
    )
    assert lio.rationalfn_from_json(lio.rationalfn_to_json(f)) == f
    g = rationalfn_germ_at(f, [GQ(0), GQ(0)], 4)
    back = lio.germ_from_json(json.loads(_dumps(lio.germ_to_json(g))))
    assert back.pole == g.pole and back.jet == g.jet and back.order == g.order
    assert back.base == g.base


def test_functional_roundtrip():
    L = lf_residue(Space(2), [GQ(1), GQ(0)], [(1, 0), (0, 1)], [2, 1])
    back = lio.functional_from_json(json.loads(_dumps(lio.functional_to_json(L))))
    s0, s1 = L.summands[0], back.summands[0]
    assert s1.support == s0.support
    assert s1.x_list == s0.x_list
    assert list(s1.d_max) == list(s0.d_max)
    assert s1.u == s0.u


def test_rootsystem_roundtrip():
    rs = builtin_system("G2")
    back = lio.rootsystem_from_json(json.loads(_dumps(lio.rootsystem_to_json(rs))))
    assert len(back.weyl_group()) == 12
    assert set(back.roots) == set(rs.roots)


def test_series_roundtrip():
    sp = Space(2)
    lam = (GQ(Fraction(5, 2)), GQ(1))
    F = ExpPolySeries(
        sp,
        [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))],
        [lam],
        3,
        1,
        {lam: [rand_poly(rng, 2, 2)]},
    )
    assert lio.series_from_json(json.loads(_dumps(lio.series_to_json(F)))) == F


def test_byte_stability():
    p = rand_poly(rng, 2, 3)
    once = _dumps(lio.poly_to_json(p))
    twice = _dumps(lio.poly_to_json(lio.poly_from_json(json.loads(once))))
    assert once == twice


def test_fraction_strings_decimal_free():
    assert lio.frac_to_str(Fraction(1, 3)) == "1/3"
    assert lio.frac_from_str("-7/2") == Fraction(-7, 2)


CORPUS_FILES = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "files"


def _embedding(d):
    return lio.rows(d, "matrix"), lio.space_from_json(lio.field(d, "space"))


# the reader of each corpus input, by the start of its name; the last three
# are the malformed inputs of the corpus's error entries
CORPUS_READERS = {
    "config": lio.config_from_json,
    "diagonal": lambda d: lio.subspace_from_json(lio.space_from_json(lio.field(d, "space")), d),
    "diffop": lio.diffop_from_json,
    "embedding": _embedding,
    "fn_": lio.rationalfn_from_json,
    "functional_": lio.functional_from_json,
    "germ_": lio.germ_from_json,
    "poly_": lio.poly_from_json,
    "rootsys_": lio.rootsystem_from_json,
    "series_": lio.series_from_json,
    "space_": lio.space_from_json,
    "subspace": lambda d: lio.subspace_from_json(Space(2), d),
    "bad_json": None,
    "poly_bad_re": None,
    "poly_no_terms": None,
}


def test_canonical_numbers_are_read_and_written_without_fraction_strings(monkeypatch):
    """Every corpus input holds canonical "p/q" numbers only, and its reader
    reads them on ints: no Fraction is built from a string.  Writing a
    polynomial builds no GQ view of its coefficients."""
    from_strings = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kw):
        if args and isinstance(args[0], str):
            from_strings.append(args[0])
        return real_new(cls, *args, **kw)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    read = []
    for path in sorted(CORPUS_FILES.glob("*.json")):
        prefix = max((k for k in CORPUS_READERS if path.stem.startswith(k)), key=len)
        if CORPUS_READERS[prefix] is not None:
            read.append(CORPUS_READERS[prefix](json.loads(path.read_text())))
    assert len(read) == 29 and from_strings == []
    polys = [p for p in read if isinstance(p, Polynomial)]
    assert len(polys) == 3
    for p in polys:
        doc = lio.poly_to_json(p)
        assert p._view is None
        assert lio.poly_from_json(doc) == p


def test_malformed_content_is_a_parse_failure():
    assert cli.ParseFailure is lio.ParseFailure
    good = {"dim": 1, "terms": [{"idx": [1], "re": "1/2", "im": "0/1"}]}
    assert lio.poly_from_json(good) == Polynomial(1, {(1,): GQ(Fraction(1, 2))})
    for bad in (
        {"dim": 1},
        {"dim": 1, "terms": [{"re": "1/1"}]},
        {"dim": 1, "terms": [{"idx": [1], "re": "x"}]},
        {"dim": "one", "terms": []},
        {"dim": 1, "terms": [{"idx": ["a"], "re": "1/1"}]},
    ):
        with pytest.raises(lio.ParseFailure):
            lio.poly_from_json(bad)
    with pytest.raises(lio.ParseFailure):
        lio.hyperplane_from_json({"normal": ["1/1"], "offset": "1/0"})
    # a well-formed value that breaks a constructor's precondition is not
    with pytest.raises(ValueError):
        lio.hyperplane_from_json({"normal": ["0/1"], "offset": "1/1"})


@pytest.mark.parametrize(
    "reader, doc, key",
    [
        (lio.poly_from_json, {"dim": 1, "terms": [{"idx": 1}]}, "idx"),
        (lio.space_from_json, {"dim": 2, "inner_product": [["1", "0"], 0]}, "inner_product"),
        (lio.hyperplane_from_json, {"normal": 1, "offset": "0"}, "normal"),
        (lio.config_from_json, {"dim": 1, "hyperplanes": {}}, "hyperplanes"),
        (lio.config_from_json, {"dim": 1, "x_set": [1]}, "x_set"),
        (lio.germ_from_json, {"space": {"dim": 1}, "base": 0}, "base"),
        (lio.functional_from_json, {"space": {"dim": 1}, "summands": 3}, "summands"),
        (lio.rootsystem_from_json, {"dim": 1, "roots": "12", "positive": [0]}, "roots"),
        (lio.series_from_json, {"space": {"dim": 1}, "delta": [["1"]], "leaders": [0]}, "leaders"),
    ],
)
def test_value_that_is_not_a_list_is_a_parse_failure(reader, doc, key):
    with pytest.raises(lio.ParseFailure, match=repr(key)):
        reader(doc)


def _integer_fields():
    """(reader, a valid document, path to one of its integer fields), one per
    integer key the readers take."""
    sp = Space(1)
    h = Hyperplane.make((1,), GQ(0))
    f = RationalFn(sp, Polynomial(1, {(1,): GQ(2)}), {h: 2})
    lam = (GQ(Fraction(1, 2)),)
    F = ExpPolySeries(sp, [(Fraction(1),)], [lam], 2, 1, {lam: [Polynomial.const(1, GQ(1))]})
    poly = {"dim": 1, "terms": [{"idx": [1], "re": "2"}]}
    germ = lio.germ_to_json(rationalfn_germ_at(f, [GQ(0)], 2))
    return [
        (lio.poly_from_json, poly, ("dim",)),
        (lio.poly_from_json, poly, ("terms", 0, "idx", 0)),
        (lio.config_from_json, lio.config_to_json(Configuration(sp, [(h, 2)])), ("hyperplanes", 0, "mult")),
        (lio.rationalfn_from_json, lio.rationalfn_to_json(f), ("denominator", 0, "power")),
        (lio.germ_from_json, germ, ("order",)),
        (lio.germ_from_json, germ, ("pole", 0, "power")),
        (lio.functional_from_json, lio.functional_to_json(lf_residue(sp, [0], [(1,)], [1])), ("summands", 0, "d_max", 0)),
        (lio.rootsystem_from_json, lio.rootsystem_to_json(builtin_system("A2")), ("positive", 0)),
        (lio.series_from_json, lio.series_to_json(F), ("trunc",)),
        (lio.series_from_json, lio.series_to_json(F), ("vdim",)),
    ]


@pytest.mark.parametrize("bad", [[1], {"n": 1}, 1.9, 2.0, True, "one"], ids=repr)
@pytest.mark.parametrize("reader, doc, path", _integer_fields(), ids=lambda x: "-".join(map(str, x)) if isinstance(x, tuple) else None)
def test_integer_field_that_is_not_an_integer_is_a_parse_failure(reader, doc, path, bad):
    reader(doc)  # the document is valid as it stands
    doc = json.loads(json.dumps(doc))
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = bad
    key = next(step for step in reversed(path) if isinstance(step, str))
    with pytest.raises(lio.ParseFailure, match=repr(key)):
        reader(doc)


def test_integer_field_reads_a_string_of_digits():
    assert lio.poly_from_json({"dim": "1", "terms": [{"idx": ["2"], "re": "1"}]}) == Polynomial(1, {(2,): GQ(1)})


def test_inner_product_of_wrong_shape_is_rejected():
    with pytest.raises(ValueError, match="2 x 2"):
        Space(2, [[1]])
    with pytest.raises(ValueError, match="2 x 2"):
        lio.space_from_json({"dim": 2, "inner_product": [["1", "0"], ["0"]]})


# -- hypothesis round trips ------------------------------------------------

few = settings(max_examples=30, deadline=None)
fracs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
gqs = st.builds(GQ, fracs, fracs)
dims = st.integers(1, 3)


def _terms(dim):
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * dim), gqs, max_size=4)


def _vectors(dim):
    return st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).filter(any).map(
        lambda v: tuple(Fraction(x) for x in v)
    )


def _hyperplanes(dim):
    return st.builds(Hyperplane.make, _vectors(dim), gqs)


@st.composite
def spaces(draw, dim):
    # L L^T is positive definite when L is lower triangular with a positive diagonal
    low = [
        [draw(st.integers(1, 3)) if j == i else draw(st.integers(-2, 2)) if j < i else 0 for j in range(dim)]
        for i in range(dim)
    ]
    return Space(dim, [[sum(a * b for a, b in zip(r, c)) for c in low] for r in low])


@st.composite
def polynomials(draw):
    dim = draw(dims)
    return Polynomial(dim, draw(_terms(dim)))


@st.composite
def rational_fns(draw):
    dim = draw(dims)
    den = draw(st.dictionaries(_hyperplanes(dim), st.integers(1, 3), max_size=3))
    return RationalFn(draw(spaces(dim)), Polynomial(dim, draw(_terms(dim))), den)


@st.composite
def series(draw):
    dim = draw(st.integers(1, 2))
    delta = [tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim)]
    lam = tuple(draw(gqs) for _ in range(dim))
    trunc = draw(st.integers(0, 3))
    vdim = draw(st.integers(1, 2))
    # exponents lam - c.delta with nonnegative c of sum at most trunc
    steps = st.lists(st.integers(0, trunc), min_size=dim, max_size=dim).filter(lambda c: sum(c) <= trunc)
    terms = {}
    for c in draw(st.lists(steps, max_size=3)):
        xi = tuple(x - GQ(k) for x, k in zip(lam, c))
        terms[xi] = [Polynomial(dim, draw(_terms(dim))) for _ in range(vdim)]
    return ExpPolySeries(draw(spaces(dim)), delta, [lam], trunc, vdim, terms)


@st.composite
def germs(draw):
    dim = draw(dims)
    pole = {canonical_normal(v)[0]: k for v, k in draw(st.lists(st.tuples(_vectors(dim), st.integers(1, 3)), max_size=2))}
    base = [draw(gqs) for _ in range(dim)]
    return Germ(draw(spaces(dim)), base, pole, Polynomial(dim, draw(_terms(dim))), draw(st.integers(0, 4)))


@st.composite
def functionals(draw):
    dim = draw(dims)
    summands = {}
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, 2))
        x_list = [draw(_vectors(dim)) for _ in range(k)]
        d_max = [draw(st.integers(0, 3)) for _ in range(k)]
        support = tuple(draw(gqs) for _ in range(dim))
        summands[support] = LFSummand(support, x_list, d_max, DiffOp(dim, draw(_terms(dim))))
    return LaurentFunctional(draw(spaces(dim)), list(summands.values()))


@st.composite
def configurations(draw):
    dim = draw(dims)
    hyps = draw(st.dictionaries(_hyperplanes(dim), st.integers(0, 3), max_size=3))
    x_set = draw(st.lists(_vectors(dim), max_size=3))
    return Configuration(draw(spaces(dim)), list(hyps.items()), x_set)


def _through_text(to_json, x):
    """to_json(x) after a trip through JSON text, as the command line reads it."""
    return json.loads(_dumps(to_json(x)))


@few
@given(polynomials())
def test_roundtrip_polynomial(p):
    assert lio.poly_from_json(_through_text(lio.poly_to_json, p)) == p


@few
@given(polynomials().map(DiffOp.from_symbol))
def test_roundtrip_diffop(u):
    assert lio.diffop_from_json(_through_text(lio.diffop_to_json, u)) == u


@few
@given(dims.flatmap(_hyperplanes))
def test_roundtrip_hyperplane(h):
    assert lio.hyperplane_from_json(_through_text(lio.hyperplane_to_json, h)) == h


@few
@given(rational_fns())
def test_roundtrip_rationalfn(f):
    assert lio.rationalfn_from_json(_through_text(lio.rationalfn_to_json, f)) == f


@few
@given(series())
def test_roundtrip_series(F):
    assert lio.series_from_json(_through_text(lio.series_to_json, F)) == F


# Germ, LaurentFunctional and Configuration have no __eq__: writing what
# was read back must give the same document


@few
@given(germs())
def test_roundtrip_germ_document(g):
    doc = _through_text(lio.germ_to_json, g)
    assert lio.germ_to_json(lio.germ_from_json(doc)) == doc


@few
@given(functionals())
def test_roundtrip_functional_document(L):
    doc = _through_text(lio.functional_to_json, L)
    assert lio.functional_to_json(lio.functional_from_json(doc)) == doc


@few
@given(configurations())
def test_roundtrip_config_document(cfg):
    doc = _through_text(lio.config_to_json, cfg)
    assert lio.config_to_json(lio.config_from_json(doc)) == doc
