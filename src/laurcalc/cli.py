"""Command-line front end.

One verb per module, subcommands per operation, JSON on standard output.
Exit codes: 0 success, 1 parse failure, 2 precondition failure, 3 an
internal error (any other exception, a bug in laurcalc).  Output is
deterministic: identical inputs give byte-identical output.

The verbs, their options and their ops are data: ``_OPTIONS`` says what
each option holds, ``_VERBS`` maps a verb to the builder of its op table,
and the argparse tree is built from them once per process, on the first
``run``.  A verb's builder imports the verb's layer on its first run, so a
process loads only the layers of the verbs it runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import io as lio
from .io import ParseFailure
from .scalars import GQ, gq_from_string, gq_to_string
from .space import ArityError, Space


class _Options:
    """The parsed options of one command, each read as its verb's entry in
    ``_OPTIONS`` says when a handler asks for it.  An option that was not
    given reads as a parse failure naming it, so each handler can read the
    ones it needs without checking."""

    def __init__(self, ns, readers):
        self._given = {k: v for k, v in vars(ns).items() if v is not None}
        self._readers = readers

    def __getattr__(self, name):
        value = lio.field(self._given, name, what="option")
        read = self._readers.get(name)
        return value if read is None else read(value)


def _load(path):
    try:
        with open(path, "rb") as fh:
            return json.loads(fh.read().decode("utf-8-sig"))  # UTF-8, an optional BOM dropped
    except (OSError, ValueError) as e:  # also a UnicodeDecodeError or an int past the string limit
        raise ParseFailure(str(e))


def _file(reader):
    return lambda path: reader(_load(path))


def _emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _vec(text):
    try:
        return [gq_from_string(part) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as e:
        raise ParseFailure(f"bad vector {text!r}: {e}")


def _fvec(text):
    return [x.rational() for x in _vec(text)]


def _vecs(text, convert=_vec):
    return [convert(part) for part in text.split(";")]


def _ints(text):
    if not text:
        return []
    try:
        return [int(p) for p in text.split(",")]
    except ValueError as e:
        raise ParseFailure(str(e))


def _gq_strings(v):
    return [gq_to_string(x) for x in v]


# -- the verbs -------------------------------------------------------------
#
# A verb's builder imports its layer and returns its op table and prologue:
# what the verb reads before its op is looked up (the configuration or the
# root system), so that an error in it comes before an unknown-op error.  A
# handler takes the options and what the prologue read and returns the JSON
# object to print.  An option is read when the handler asks for it, so input
# errors come in the order of the command's options; where a call takes its
# inputs in another order, the handler passes them by keyword.


def _poly():
    from .poly import leibniz_flatten

    return {
        "eval": lambda o, _: {"value": gq_to_string(o.poly.eval(o.point))},
        "mul": lambda o, _: lio.poly_to_json(o.a * o.b),
        "deriv": lambda o, _: lio.poly_to_json(o.poly.deriv(o.index)),
        "flatten": lambda o, _: lio.diffop_to_json(leibniz_flatten(o.diffop, o.poly, o.point)),
    }, None


def _config():
    from .config import hyperplanes_through, induced_config, pi_omega_d, subspace_from

    def subspace(o, cfg):
        idx, hs = o.hyperplanes, cfg.hyperplanes
        for i in idx:
            if not 0 <= i < len(hs):
                raise ValueError(f"hyperplane index {i} out of range: the configuration has {len(hs)} hyperplanes")
        return subspace_from(cfg.space, [hs[i] for i in idx])

    return {
        "ball-product": lambda o, cfg: lio.poly_to_json(pi_omega_d(cfg, o.center, o.radius2)),
        "induced": lambda o, cfg: lio.config_to_json(induced_config(cfg, subspace(o, cfg))),
        "through": lambda o, cfg: {
            "hyperplanes": [lio.hyperplane_to_json(h) for h in hyperplanes_through(cfg, subspace(o, cfg))]
        },
    }, lambda o: o.config


def _germ():
    from .germs import germ_add, germ_diff, germ_mul, germ_normalize, rationalfn_germ_at, rationalfn_restrict

    def restrict(o, _):
        f = o.fn
        return lio.rationalfn_to_json(rationalfn_restrict(f, lio.subspace_from_json(f.space, o.subspace)))

    return {
        "normalize": lambda o, _: lio.germ_to_json(germ_normalize(o.germ)),
        "mul": lambda o, _: lio.germ_to_json(germ_mul(o.a, o.b)),
        "add": lambda o, _: lio.germ_to_json(germ_add(o.a, o.b)),
        "diff": lambda o, _: lio.germ_to_json(germ_diff(g=o.germ, v=o.vector)),
        "localize": lambda o, _: lio.germ_to_json(rationalfn_germ_at(o.fn, o.point, o.order)),
        "restrict": restrict,
    }, None


def _laurent():
    from .laurent import (
        laurent_operator_apply, lf_annihilator_witness, lf_apply, lf_apply_rational, lf_diagonal_apply,
        lf_diff_action, lf_from_evaluation, lf_mul_action, lf_pushforward,
    )

    def pushforward(o, _):
        L0, data = o.functional, o.matrix
        mat = lio.rows(data, "matrix")
        return lio.functional_to_json(lf_pushforward(mat, L0, lio.space_from_json(lio.field(data, "space"))))

    def operator(o, _):
        L, f = o.functional, o.fn
        return lio.rationalfn_to_json(laurent_operator_apply(L, f, lio.subspace_from_json(f.space, o.subspace)))

    def diagonal(o, _):
        L, f, data = o.functional, o.fn, o.subspace
        Lsub = lio.subspace_from_json(lio.space_from_json(lio.field(data, "space")), data)
        return lio.rationalfn_to_json(lf_diagonal_apply(L, f, Lsub))

    def witness(o, _):
        w = lf_annihilator_witness(o.germ)
        return {"holomorphic": True} if w == "holomorphic" else lio.functional_to_json(w)

    return {
        "apply": lambda o, _: {"value": gq_to_string(lf_apply(o.functional, o.germ))},
        "apply-fn": lambda o, _: {"value": gq_to_string(lf_apply_rational(o.functional, o.fn))},
        "evaluation": lambda o, _: lio.functional_to_json(
            lf_from_evaluation(space=o.space, X=o.x, d_max=o.d, a=o.point)
        ),
        "pushforward": pushforward,
        "mul-action": lambda o, _: lio.functional_to_json(lf_mul_action(L=o.functional, psi=o.fn)),
        "diff-action": lambda o, _: lio.functional_to_json(lf_diff_action(L=o.functional, v=o.vector)),
        "operator": operator,
        "diagonal": diagonal,
        "witness": witness,
    }, None


def _rootsys():
    from .lattice import Lattice
    from .rootsys import (
        ParabolicData, builtin_system, equiv_PQ, exponent_classify, generic_witness, min_coset_reps, wq_subgroup,
    )

    def weyl(o, rs):
        W = rs.weyl_group()
        lengths = {}
        for w in W:
            lengths[w.length] = lengths.get(w.length, 0) + 1
        return {"order": len(W), "by_length": {str(k): v for k, v in sorted(lengths.items())}}

    def cosets(o, rs):
        Q = ParabolicData(rs, o.deltaQ)
        reps = min_coset_reps(rs, Q)
        sub = wq_subgroup(rs, Q)
        return {"W^Q": len(reps), "W_Q": len(sub), "W": len(rs.weyl_group()), "lengths": sorted(w.length for w in reps)}

    def parabolics(o, rs):
        return ParabolicData(rs, o.deltaP), ParabolicData(rs, o.deltaQ)

    def equiv(o, rs):
        classes = equiv_PQ(rs, *parabolics(o, rs))
        return {"classes": len(classes), "sizes": sorted(len(c) for c in classes)}

    def generic(o, rs):
        w = generic_witness(rs, *parabolics(o, rs), o.weights, o.lam)
        if w is None:
            return {"generic": True}
        s1, s2, cert = w
        return {
            "generic": False,
            "pair": [[[str(x) for x in row] for row in s.matrix] for s in (s1, s2)],
            "certificate": {"sigma1": cert[0], "sigma2": cert[1], "lattice": [str(c) for c in cert[2]]},
        }

    def classify(o, rs):
        kind, payload, _classes = exponent_classify(rs, *parabolics(o, rs), o.weights, o.lam, o.xi)
        return {"result": kind, "classes": payload if kind == "ambiguous" else [payload]}

    def system(o):
        return lio.rootsystem_from_json(_load(o.system_file)) if o.system_file else builtin_system(o.system)

    return {
        "weyl": weyl,
        "cosets": cosets,
        "equiv": equiv,
        "generic": generic,
        "classify": classify,
        "preceq": lambda o, _: {"preceq": Lattice(o.delta).preceq(o.a, o.b)},
        "lub": lambda o, _: {"lub": _gq_strings(Lattice(o.delta).lub(o.omega))},
    }, system


def _series():
    from .series import series_diffop, series_exponents, series_mul, series_restrict, series_split

    def exponents(o, _):
        exps, leading = series_exponents(o.series)
        return {"exponents": [_gq_strings(e) for e in exps], "leading": [_gq_strings(e) for e in leading]}

    def restrict(o, _):
        R = series_restrict(o.series, o.wall)
        groups = []
        for eta in R.outer_exponents():
            inner = [
                {
                    "exponent": _gq_strings(R.inner_exponent(xi)),
                    "coeff_poly": [lio.poly_to_json(p) for p in R.shifted_coeff(xi)],
                }
                for xi in R.groups[eta]
            ]
            groups.append({"outer": _gq_strings(eta), "inner": inner})
        return {"groups": groups}

    return {
        "exponents": exponents,
        "diff": lambda o, _: lio.series_to_json(series_diffop(F=o.series, u=o.diffop)),
        "mul": lambda o, _: lio.series_to_json(series_mul(o.a, o.b)),
        "split": lambda o, _: {
            ",".join(_gq_strings(s)): lio.series_to_json(v) for s, v in series_split(o.series, o.leaders).items()
        },
        "restrict": restrict,
    }, None


# -- verify ----------------------------------------------------------------


def _verify_checks():
    """Small deterministic self-checks, one per module cluster; each check
    imports its own layer when it runs."""
    import random

    rng = random.Random(20240)

    def c_scalars():
        a = GQ(Fraction(3, 7), Fraction(-2, 5))
        return a * (GQ(1) / a) == GQ(1) and gq_from_string(gq_to_string(a)) == a

    def c_jcocycle():
        from .poly import DiffOp, j_map
        sp = Space(2)
        X0 = [(1, 0), (0, 1)]
        for _ in range(20):
            u = DiffOp(2, {(rng.randint(0, 2), rng.randint(0, 2)): GQ(rng.randint(-3, 3)) for _ in range(3)})
            d = [rng.randint(1, 3), rng.randint(1, 3)]
            dm = [rng.randint(0, d[0]), rng.randint(0, d[1])]
            dl = [rng.randint(0, dm[0]), rng.randint(0, dm[1])]
            a = [GQ(rng.randint(-2, 2)), GQ(rng.randint(-2, 2))]
            lhs = j_map(sp, j_map(sp, u, d, dm, X0, a), dm, dl, X0, a)
            if lhs != j_map(sp, u, d, dl, X0, a):
                return False
        return True

    def c_residue():
        from .config import Hyperplane
        from .germs import RationalFn
        from .laurent import lf_apply_rational, lf_residue
        from .poly import Polynomial
        sp = Space(1)
        L = lf_residue(sp, [0], [(1,)], [1])
        f = RationalFn(sp, Polynomial(1, {(0,): GQ(1), (1,): GQ(2)}), {Hyperplane.make((1,), 0): 1})
        return lf_apply_rational(L, f) == GQ(1)

    def c_operator():
        from .config import Hyperplane, subspace_from
        from .germs import RationalFn
        from .laurent import laurent_operator_apply, lf_residue, transverse_space
        from .poly import Polynomial
        sp = Space(2)
        Lsub = subspace_from(sp, [Hyperplane.make((0, 1), 0)])
        tsp = transverse_space(Lsub)
        L = lf_residue(tsp, [0], [(1,)], [1])
        f = RationalFn(sp, Polynomial.const(2, GQ(1)), {Hyperplane.make((0, 1), 0): 1, Hyperplane.make((1, -1), 0): 1})
        out = laurent_operator_apply(L, f, Lsub)
        return out.eval([GQ(2)]) == GQ(Fraction(1, 2))

    def c_weyl():
        from .rootsys import builtin_system
        want = {"A1": 2, "A1xA1": 4, "A2": 6, "B2": 8, "G2": 12, "A3": 24}
        for name, k in want.items():
            if len(builtin_system(name).weyl_group()) != k:
                return False
        return True

    def c_series():
        from .poly import DiffOp, Polynomial
        from .series import ExpPolySeries, series_diffop
        sp = Space(2)
        delta = [(1, 0), (0, 1)]
        lam = (GQ(Fraction(5, 2)), GQ(1))
        F0 = ExpPolySeries(sp, delta, [lam], 3, 1, {lam: [Polynomial.const(2, GQ(1))]})
        F = lio.series_from_json(lio.series_to_json(series_diffop(DiffOp.partial(2, 0), F0)))
        return F.terms[lam][0] == Polynomial.const(2, GQ(Fraction(5, 2)))

    return [
        ("scalars-field-roundtrip", c_scalars),
        ("j-map-cocycle", c_jcocycle),
        ("residue-extraction", c_residue),
        ("laurent-operator", c_operator),
        ("weyl-orders", c_weyl),
        ("series-roundtrip", c_series),
    ]


def _verify(o, _):
    """Print one PASS or FAIL line per check and return the exit code."""
    checks = _verify_checks()
    if o.suite != "all":
        names = o.suite.split(",")
        known = [name for name, _ in checks]
        for name in names:
            if name not in known:
                raise ParseFailure(f"unknown verify check {name!r}; expected 'all' or a comma list of {known}")
        checks = [(name, fn) for name, fn in checks if name in names]
    ok = True
    for name, fn in checks:
        reason = ""
        try:
            passed = fn()
        except Exception as e:
            # a check that raises is reported, and the remaining checks still run
            passed = False
            reason = f": {type(e).__name__}: {e}"
        ok = ok and passed
        sys.stdout.write(f"{'PASS' if passed else 'FAIL'} {name}{reason}\n")
    return 0 if ok else 2


# -- the tables ------------------------------------------------------------

_VERBS = {
    "poly": _poly, "config": _config, "germ": _germ, "laurent": _laurent, "rootsys": _rootsys, "series": _series,
    "verify": lambda: ({None: _verify}, None),
}


@functools.cache
def _verb(verb):
    """The op table and the prologue of a verb, built on the verb's first
    run in a process and shared by every later one."""
    return _VERBS[verb]()


_POLY, _DIFFOP, _GERM = _file(lio.poly_from_json), _file(lio.diffop_from_json), _file(lio.germ_from_json)
_FN, _SERIES = _file(lio.rationalfn_from_json), _file(lio.series_from_json)

# the options of each verb (``--name``, and ``system_file`` is
# ``--system-file``) with what a handler reads each one as; None is the text
_OPTIONS = {
    "poly": {"poly": _POLY, "a": _POLY, "b": _POLY, "diffop": _DIFFOP, "point": _vec, "index": None},
    "config": {"config": _file(lio.config_from_json), "center": _vec, "radius2": lio.frac_from_str, "hyperplanes": _ints},
    "germ": {
        "germ": _GERM, "a": _GERM, "b": _GERM, "vector": _vec, "fn": _FN, "point": _vec, "order": None,
        "subspace": _load,
    },
    "laurent": {
        "functional": _file(lio.functional_from_json), "germ": _GERM, "fn": _FN, "space": _file(lio.space_from_json),
        "point": _vec, "x": lambda t: _vecs(t, _fvec) if t else [], "d": _ints, "matrix": _load, "vector": _vec,
        "subspace": _load,
    },
    "rootsys": {
        "system": None, "system_file": None, "deltaQ": _ints, "deltaP": _ints,
        "weights": lambda t: _vecs(t) if t else [], "lam": _vec, "xi": _vec,
        "delta": lambda t: _vecs(t, lambda v: tuple(_fvec(v))), "omega": _vecs, "a": _vec, "b": _vec,
    },
    "series": {
        "series": _SERIES, "a": _SERIES, "b": _SERIES, "diffop": _DIFFOP, "leaders": _vecs,
        "wall": lambda t: _vecs(t, _fvec),
    },
    "verify": {"suite": None},
}

# argparse keywords of the options that are not strings defaulting to None
_KEYWORDS = {
    "index": {"type": int}, "order": {"type": int, "default": 6}, "config": {"required": True},
    "system": {"default": "A2"}, "suite": {"default": "all"},
    **dict.fromkeys(["hyperplanes", "x", "d", "system_file", "deltaQ", "deltaP", "weights"], {"default": ""}),
}


@functools.cache
def _parser():
    """The argparse tree, built on the first call and shared by every later
    one; parsing leaves no state in it."""
    ap = argparse.ArgumentParser(prog="laurcalc")
    sub = ap.add_subparsers(dest="verb", required=True)
    for verb, options in _OPTIONS.items():
        p = sub.add_parser(verb)
        if verb != "verify":
            p.add_argument("op")
        for name in options:
            p.add_argument("--" + name.replace("_", "-"), **_KEYWORDS.get(name, {}))
    return ap


def run(argv) -> int:
    try:
        ns = _parser().parse_args(argv)
        args = _Options(ns, _OPTIONS[ns.verb])
        ops, prologue = _verb(ns.verb)
        before = prologue(args) if prologue else None
        op = getattr(ns, "op", None)
        handler = ops.get(op)
        if handler is None:
            raise ParseFailure(f"unknown {ns.verb} op {op!r}")
        out = handler(args, before)
        if isinstance(out, int):  # verify has printed its lines and returns its exit code
            return out
        _emit(out)
        return 0
    except SystemExit:
        return 1
    except ParseFailure as e:
        _emit({"error": "parse", "detail": str(e)})
        return 1
    except (ArityError, ValueError, ZeroDivisionError) as e:
        _emit({"error": "precondition", "detail": str(e)})
        return 2
    except Exception as e:
        _emit({"error": "internal", "detail": f"{type(e).__name__}: {e}"})
        return 3


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
