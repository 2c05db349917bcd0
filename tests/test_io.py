"""JSON round-trips and byte-stable serialization."""

import json
import random
from fractions import Fraction

import pytest

from laurcalc import (
    GQ,
    Configuration,
    DiffOp,
    ExpPolySeries,
    Hyperplane,
    Polynomial,
    RationalFn,
    Space,
    builtin_system,
    lf_residue,
    rationalfn_germ_at,
    weyl_enumerate,
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
    assert len(weyl_enumerate(back)) == 12
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
