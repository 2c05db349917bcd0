"""JSON serialization for every domain type, with decimal-free "p/q"
rational strings.  All writers sort keys and term lists so that identical
objects produce byte-identical output.
"""

from __future__ import annotations

from fractions import Fraction

from .config import Configuration, Hyperplane, XSubspace, subspace_from
from .germs import Germ, RationalFn
from .laurent import LaurentFunctional, LFSummand
from .poly import DiffOp, Polynomial, Space
from .rootsys import BUILTIN_NAMES, RootSystem, builtin_system
from .scalars import GQ, _ratio_str, _triple, gq_from_string, gq_to_string
from .series import ExpPolySeries


class ParseFailure(Exception):
    """Malformed input: unreadable JSON, a missing key, or a string that is
    not a number (exit code 1)."""


def _get(d, key):
    """d[key], or ParseFailure when the key is missing."""
    try:
        return d[key]
    except KeyError:
        raise ParseFailure(f"missing key {key!r}") from None


def _number(convert, x):
    """convert(x) for a number read from JSON, or ParseFailure when x is not
    one; preconditions on the parsed value are left to the constructors."""
    try:
        return convert(x)
    except (ValueError, ZeroDivisionError) as e:
        raise ParseFailure(f"not a number: {x!r}") from e


def frac_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def frac_from_str(s) -> Fraction:
    return _number(Fraction, str(s))


def _gq_from_json(x) -> GQ:
    return _number(gq_from_string, str(x))


# -- polynomials and operators --------------------------------------------


def poly_to_json(p: Polynomial) -> dict:
    terms = []
    for idx, c in sorted(p.terms.items()):
        a, b, d = _triple(c)
        terms.append({"idx": list(idx), "re": _ratio_str(a, d), "im": _ratio_str(b, d)})
    return {"dim": p.dim, "terms": terms}


def poly_from_json(d) -> Polynomial:
    terms = {}
    for t in _get(d, "terms"):
        idx = tuple(_number(int, i) for i in _get(t, "idx"))
        terms[idx] = GQ(frac_from_str(t.get("re", "0/1")), frac_from_str(t.get("im", "0/1")))
    return Polynomial(_number(int, _get(d, "dim")), terms)


def diffop_to_json(u: DiffOp) -> dict:
    return poly_to_json(u.symbol())


def diffop_from_json(d) -> DiffOp:
    return DiffOp.from_symbol(poly_from_json(d))


# -- spaces and configurations --------------------------------------------


def space_to_json(s: Space) -> dict:
    return {
        "dim": s.dim,
        "inner_product": [[frac_to_str(x) for x in row] for row in s.ip],
    }


def space_from_json(d) -> Space:
    ip = d.get("inner_product")
    if ip is not None:
        ip = [[frac_from_str(x) for x in row] for row in ip]
    return Space(_number(int, _get(d, "dim")), ip)


def hyperplane_to_json(h: Hyperplane) -> dict:
    return {
        "normal": [frac_to_str(x) for x in h.normal],
        "offset": gq_to_string(h.offset),
    }


def hyperplane_from_json(d) -> Hyperplane:
    return Hyperplane.make(
        [frac_from_str(x) for x in _get(d, "normal")], _gq_from_json(_get(d, "offset"))
    )


def config_to_json(cfg: Configuration) -> dict:
    hyps = [
        dict(hyperplane_to_json(h), mult=m)
        for h, m in sorted(cfg.multiplicity.items(), key=repr)
    ]
    return {
        "dim": cfg.space.dim,
        "inner_product": [[frac_to_str(x) for x in row] for row in cfg.space.ip],
        "hyperplanes": hyps,
        "x_set": [[frac_to_str(x) for x in v] for v in cfg.x_set],
    }


def config_from_json(d) -> Configuration:
    space = space_from_json(d)
    hyps = [
        (hyperplane_from_json(h), _number(int, h.get("mult", 1)))
        for h in d.get("hyperplanes", [])
    ]
    x_set = [[frac_from_str(x) for x in v] for v in d.get("x_set", [])]
    return Configuration(space, hyps, x_set)


def subspace_from_json(space: Space, d) -> XSubspace:
    hyps = [hyperplane_from_json(h) for h in _get(d, "hyperplanes")]
    return subspace_from(space, hyps)


# -- rational functions and germs -----------------------------------------


def rationalfn_to_json(f: RationalFn) -> dict:
    den = [
        dict(hyperplane_to_json(h), power=k)
        for h, k in sorted(f.denominator.items(), key=repr)
    ]
    return {
        "space": space_to_json(f.space),
        "numerator": poly_to_json(f.numerator),
        "denominator": den,
    }


def rationalfn_from_json(d) -> RationalFn:
    space = space_from_json(_get(d, "space"))
    num = poly_from_json(_get(d, "numerator"))
    den = {}
    for h in d.get("denominator", []):
        hp = hyperplane_from_json(h)
        den[hp] = den.get(hp, 0) + _number(int, h.get("power", 1))
    return RationalFn(space, num, den)


def germ_to_json(g: Germ) -> dict:
    return {
        "space": space_to_json(g.space),
        "base": [gq_to_string(x) for x in g.base],
        "pole": [
            {"direction": [frac_to_str(x) for x in xi], "power": k}
            for xi, k in sorted(g.pole.items())
        ],
        "jet": poly_to_json(g.jet),
        "order": g.order,
    }


def germ_from_json(d) -> Germ:
    space = space_from_json(_get(d, "space"))
    base = [_gq_from_json(x) for x in _get(d, "base")]
    pole = {
        tuple(frac_from_str(x) for x in _get(e, "direction")): _number(int, _get(e, "power"))
        for e in d.get("pole", [])
    }
    return Germ(space, base, pole, poly_from_json(_get(d, "jet")), _number(int, _get(d, "order")))


# -- functionals -----------------------------------------------------------


def functional_to_json(L: LaurentFunctional) -> dict:
    summands = []
    for s in L.summands:
        summands.append(
            {
                "support": [gq_to_string(x) for x in s.support],
                "x_set": [[frac_to_str(c) for c in xi] for xi in s.x_list],
                "d_max": list(s.d_max),
                "u": diffop_to_json(s.u),
            }
        )
    return {"space": space_to_json(L.space), "summands": summands}


def functional_from_json(d) -> LaurentFunctional:
    space = space_from_json(_get(d, "space"))
    summands = []
    for s in _get(d, "summands"):
        summands.append(
            LFSummand(
                [_gq_from_json(x) for x in _get(s, "support")],
                [[frac_from_str(c) for c in xi] for xi in _get(s, "x_set")],
                [_number(int, k) for k in _get(s, "d_max")],
                diffop_from_json(_get(s, "u")),
            )
        )
    return LaurentFunctional(space, summands)


# -- root systems ----------------------------------------------------------


def rootsystem_to_json(rs: RootSystem) -> dict:
    index = {r: i for i, r in enumerate(rs.roots)}
    return {
        "dim": rs.dim,
        "roots": [[frac_to_str(x) for x in r] for r in rs.roots],
        "positive": [index[r] for r in rs.positive],
        "simple": [[frac_to_str(x) for x in s] for s in rs.simple],
        "inner_product": [[frac_to_str(x) for x in row] for row in rs.space.ip],
    }


def rootsystem_from_json(d) -> RootSystem:
    if isinstance(d, str):
        return builtin_system(d)
    ip = d.get("inner_product")
    if ip is not None:
        ip = [[frac_from_str(x) for x in row] for row in ip]
    simple = d.get("simple")
    if simple is not None:
        simple = [[frac_from_str(x) for x in s] for s in simple]
    return RootSystem(
        _number(int, _get(d, "dim")),
        [[frac_from_str(x) for x in r] for r in _get(d, "roots")],
        ip=ip,
        positive=[_number(int, i) for i in _get(d, "positive")],
        simple=simple,
        name=d.get("name"),
    )


def resolve_rootsystem(spec) -> RootSystem:
    """A built-in name, or a JSON object."""
    if isinstance(spec, str) and spec.replace("x", "X").upper().replace("X", "x") in [
        n.replace("X", "x") for n in BUILTIN_NAMES
    ]:
        return builtin_system(spec)
    if isinstance(spec, str):
        raise ValueError(f"unknown root system name {spec!r}")
    return rootsystem_from_json(spec)


# -- series ----------------------------------------------------------------


def series_to_json(F: ExpPolySeries) -> dict:
    terms = []
    for xi, polys in sorted(F.terms.items(), key=repr):
        terms.append(
            {
                "exponent": [gq_to_string(x) for x in xi],
                "coeff_poly": [poly_to_json(p) for p in polys],
            }
        )
    return {
        "space": space_to_json(F.space),
        "delta": [[frac_to_str(x) for x in d] for d in F.delta],
        "leaders": [[gq_to_string(x) for x in l] for l in F.leaders],
        "trunc": F.trunc,
        "vdim": F.vdim,
        "terms": terms,
    }


def series_from_json(d) -> ExpPolySeries:
    space = space_from_json(_get(d, "space"))
    delta = [tuple(frac_from_str(x) for x in v) for v in _get(d, "delta")]
    leaders = [[_gq_from_json(x) for x in l] for l in _get(d, "leaders")]
    terms = {}
    for t in _get(d, "terms"):
        xi = tuple(_gq_from_json(x) for x in _get(t, "exponent"))
        terms[xi] = [poly_from_json(p) for p in _get(t, "coeff_poly")]
    return ExpPolySeries(
        space, delta, leaders, _number(int, _get(d, "trunc")), _number(int, d.get("vdim", 1)), terms
    )
