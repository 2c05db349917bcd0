"""JSON serialization for every domain type, with decimal-free "p/q"
rational strings.  All writers sort keys and term lists so that identical
objects produce byte-identical output.  A reader imports the module of
its type when it is called, so reading one layer's types loads no other.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import GQ, _mk, _ratio_str, _read_ratio, gq_from_string, gq_to_string
from .space import Space


class ParseFailure(Exception):
    """Malformed input: unreadable JSON, a missing key or option, a value
    that should be an object and is not, a string that is not a number, or
    an integer field that holds something else (exit code 1)."""


_REQUIRED = object()


def field(d, key, default=_REQUIRED, what="key"):
    """d[key] for a JSON object d, else ``default``; a missing key without a
    default, or a d that is not an object, is a ParseFailure naming the key.
    The command line reads its options here too, with ``what="option"``."""
    if not isinstance(d, dict):
        raise ParseFailure(f"expected a JSON object with {what} {key!r}, got {type(d).__name__}")
    if key in d:
        return d[key]
    if default is _REQUIRED:
        raise ParseFailure(f"missing {what} {key!r}")
    return default


def _checked_list(x, key):
    if not isinstance(x, list):
        raise ParseFailure(f"expected a JSON list for key {key!r}, got {type(x).__name__}")
    return x


def _items(d, key, default=_REQUIRED):
    """field(d, key, default), which must be a JSON list unless it is the
    default; otherwise a ParseFailure naming the key."""
    x = field(d, key, default)
    return x if x is default else _checked_list(x, key)


def _number(convert, x):
    """convert(x) for a number read from JSON, or ParseFailure when x is not
    one; preconditions on the parsed value are left to the constructors."""
    try:
        return convert(x)
    except (ValueError, ZeroDivisionError) as e:
        raise ParseFailure(f"not a number: {x!r}") from e


def _int(x, key):
    """An integer field read from JSON: an integer, or a string of one.  A
    float, a bool, a list or an object is a ParseFailure naming the key, so
    nothing is truncated or read as 0 or 1."""
    if isinstance(x, str):
        try:
            return int(x)
        except ValueError:
            pass
    elif isinstance(x, int) and not isinstance(x, bool):
        return x
    raise ParseFailure(f"expected an integer for key {key!r}, got {x!r}")


def _int_field(d, key, default=_REQUIRED):
    return _int(field(d, key, default), key)


def frac_to_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _ratio_from_json(x):
    return _number(_read_ratio, str(x))


def frac_from_str(s) -> Fraction:
    return Fraction(*_ratio_from_json(s))


def _gq_from_json(x) -> GQ:
    return _number(gq_from_string, str(x))


def rows(d, key, default=_REQUIRED, convert=frac_from_str):
    """The JSON list of lists d[key] with every entry converted, or the
    default; a value of another shape is a ParseFailure naming the key."""
    x = _items(d, key, default)
    return x if x is default else [[convert(v) for v in _checked_list(row, key)] for row in x]


# -- polynomials and operators --------------------------------------------


def poly_to_json(p: Polynomial) -> dict:
    d = p._d
    terms = [
        {"idx": list(idx), "re": _ratio_str(a, d), "im": _ratio_str(b, d)} for idx, (a, b) in sorted(p._t.items())
    ]
    return {"dim": p.dim, "terms": terms}


def poly_from_json(d) -> Polynomial:
    from .poly import Polynomial
    terms = {}
    for t in _items(d, "terms"):
        idx = tuple(_int(i, "idx") for i in _items(t, "idx"))
        a, q = _ratio_from_json(field(t, "re", "0/1"))
        b, r = _ratio_from_json(field(t, "im", "0/1"))
        terms[idx] = _mk(a * r, b * q, q * r)
    return Polynomial(_int_field(d, "dim"), terms)


def diffop_to_json(u: DiffOp) -> dict:
    return poly_to_json(u.symbol())


def diffop_from_json(d) -> DiffOp:
    from .poly import DiffOp
    return DiffOp.from_symbol(poly_from_json(d))


# -- spaces and configurations --------------------------------------------


def space_to_json(s: Space) -> dict:
    return {
        "dim": s.dim,
        "inner_product": [[frac_to_str(x) for x in row] for row in s.ip],
    }


def space_from_json(d) -> Space:
    ip = rows(d, "inner_product", None)
    return Space(_int_field(d, "dim"), ip)


def hyperplane_to_json(h: Hyperplane) -> dict:
    return {
        "normal": [frac_to_str(x) for x in h.normal],
        "offset": gq_to_string(h.offset),
    }


def hyperplane_from_json(d) -> Hyperplane:
    from .config import Hyperplane
    return Hyperplane.make(
        [frac_from_str(x) for x in _items(d, "normal")], _gq_from_json(field(d, "offset"))
    )


def config_to_json(cfg: Configuration) -> dict:
    hyps = [
        dict(hyperplane_to_json(h), mult=m)
        for h, m in sorted(cfg.multiplicity.items(), key=repr)
    ]
    return dict(space_to_json(cfg.space), hyperplanes=hyps, x_set=[[frac_to_str(x) for x in v] for v in cfg.x_set])


def config_from_json(d) -> Configuration:
    from .config import Configuration
    space = space_from_json(d)
    hyps = [
        (hyperplane_from_json(h), _int_field(h, "mult", 1))
        for h in _items(d, "hyperplanes", [])
    ]
    return Configuration(space, hyps, rows(d, "x_set", []))


def subspace_from_json(space: Space, d) -> XSubspace:
    from .config import subspace_from
    hyps = [hyperplane_from_json(h) for h in _items(d, "hyperplanes")]
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
    from .germs import RationalFn
    space = space_from_json(field(d, "space"))
    num = poly_from_json(field(d, "numerator"))
    den = {}
    for h in _items(d, "denominator", []):
        hp = hyperplane_from_json(h)
        den[hp] = den.get(hp, 0) + _int_field(h, "power", 1)
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
    from .germs import Germ
    space = space_from_json(field(d, "space"))
    base = [_gq_from_json(x) for x in _items(d, "base")]
    pole = {
        tuple(frac_from_str(x) for x in _items(e, "direction")): _int_field(e, "power")
        for e in _items(d, "pole", [])
    }
    return Germ(space, base, pole, poly_from_json(field(d, "jet")), _int_field(d, "order"))


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
    from .laurent import LaurentFunctional, LFSummand
    space = space_from_json(field(d, "space"))
    summands = []
    for s in _items(d, "summands"):
        summands.append(
            LFSummand(
                [_gq_from_json(x) for x in _items(s, "support")],
                rows(s, "x_set"),
                [_int(k, "d_max") for k in _items(s, "d_max")],
                diffop_from_json(field(s, "u")),
            )
        )
    return LaurentFunctional(space, summands)


# -- root systems ----------------------------------------------------------


def rootsystem_to_json(rs: RootSystem) -> dict:
    index = {r: i for i, r in enumerate(rs.roots)}
    return dict(
        space_to_json(rs.space),
        roots=[[frac_to_str(x) for x in r] for r in rs.roots],
        positive=[index[r] for r in rs.positive],
        simple=[[frac_to_str(x) for x in s] for s in rs.simple],
    )


def rootsystem_from_json(d) -> RootSystem:
    from .rootsys import RootSystem, builtin_system
    if isinstance(d, str):
        return builtin_system(d)
    ip = rows(d, "inner_product", None)
    simple = rows(d, "simple", None)
    return RootSystem(
        _int_field(d, "dim"),
        rows(d, "roots"),
        ip=ip,
        positive=[_int(i, "positive") for i in _items(d, "positive")],
        simple=simple,
        name=field(d, "name", None),
    )


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
    from .series import ExpPolySeries
    space = space_from_json(field(d, "space"))
    delta = rows(d, "delta")
    leaders = rows(d, "leaders", convert=_gq_from_json)
    terms = {}
    for t in _items(d, "terms"):
        xi = tuple(_gq_from_json(x) for x in _items(t, "exponent"))
        terms[xi] = [poly_from_json(p) for p in _items(t, "coeff_poly")]
    return ExpPolySeries(
        space, delta, leaders, _int_field(d, "trunc"), _int_field(d, "vdim", 1), terms
    )
