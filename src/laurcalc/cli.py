"""Command-line front end.

One verb per module, subcommands per operation, JSON on standard output.
Exit codes: 0 success, 1 parse failure, 2 precondition failure.  Output
is deterministic: identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import io as lio
from .config import Hyperplane, hyperplanes_through, induced_config, pi_omega_d, subspace_from
from .germs import (
    RationalFn,
    germ_add,
    germ_diff,
    germ_mul,
    germ_normalize,
    rationalfn_germ_at,
    rationalfn_restrict,
)
from .io import ParseFailure
from .laurent import (
    LaurentOrderError,
    laurent_operator_apply,
    lf_annihilator_witness,
    lf_apply,
    lf_apply_rational,
    lf_diagonal_apply,
    lf_diff_action,
    lf_from_evaluation,
    lf_mul_action,
    lf_pushforward,
    lf_residue,
    transverse_space,
)
from .poly import ArityError, DiffOp, Polynomial, Space, j_map, leibniz_flatten
from .rootsys import (
    ParabolicData,
    builtin_system,
    class_lub,
    equiv_PQ,
    exponent_classify,
    generic_witness,
    min_coset_reps,
    preceq_delta,
    wq_subgroup,
)
from .scalars import GQ, gq_from_string, gq_to_string
from .series import ExpPolySeries, series_diffop, series_exponents, series_mul, series_restrict, series_split


class _Options:
    """The parsed options of one command.  An option that was not given
    reads as a parse failure naming it, so each handler can read the ones
    it needs without checking."""

    def __init__(self, ns):
        self._given = {k: v for k, v in vars(ns).items() if v is not None}

    def __getattr__(self, name):
        return lio.field(self._given, name, what="option")


def _load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ParseFailure(str(e))


def _emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _vec(text):
    try:
        return [gq_from_string(part) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as e:
        raise ParseFailure(f"bad vector {text!r}: {e}")


def _fvec(text):
    return [x.rational() for x in _vec(text)]


def _ints(text):
    if not text:
        return []
    try:
        return [int(p) for p in text.split(",")]
    except ValueError as e:
        raise ParseFailure(str(e))


# -- verb handlers ---------------------------------------------------------


def _cmd_poly(args):
    if args.op == "eval":
        p = lio.poly_from_json(_load(args.poly))
        _emit({"value": gq_to_string(p.eval(_vec(args.point)))})
    elif args.op == "mul":
        a = lio.poly_from_json(_load(args.a))
        b = lio.poly_from_json(_load(args.b))
        _emit(lio.poly_to_json(a * b))
    elif args.op == "deriv":
        p = lio.poly_from_json(_load(args.poly))
        _emit(lio.poly_to_json(p.deriv(args.index)))
    elif args.op == "flatten":
        u = lio.diffop_from_json(_load(args.diffop))
        p = lio.poly_from_json(_load(args.poly))
        _emit(lio.diffop_to_json(leibniz_flatten(u, p, _vec(args.point))))
    else:
        raise ParseFailure(f"unknown poly op {args.op!r}")


def _cmd_config(args):
    cfg = lio.config_from_json(_load(args.config))
    if args.op == "ball-product":
        p = pi_omega_d(cfg, _vec(args.center), Fraction(args.radius2))
        _emit(lio.poly_to_json(p))
    elif args.op in ("induced", "through"):
        idx, hs = _ints(args.hyperplanes), cfg.hyperplanes
        for i in idx:
            if not 0 <= i < len(hs):
                raise ValueError(f"hyperplane index {i} out of range: the configuration has {len(hs)} hyperplanes")
        L = subspace_from(cfg.space, [hs[i] for i in idx])
        if args.op == "induced":
            _emit(lio.config_to_json(induced_config(cfg, L)))
        else:
            _emit({"hyperplanes": [lio.hyperplane_to_json(h) for h in hyperplanes_through(cfg, L)]})
    else:
        raise ParseFailure(f"unknown config op {args.op!r}")


def _cmd_germ(args):
    if args.op == "normalize":
        g = lio.germ_from_json(_load(args.germ))
        _emit(lio.germ_to_json(germ_normalize(g)))
    elif args.op == "mul":
        a = lio.germ_from_json(_load(args.a))
        b = lio.germ_from_json(_load(args.b))
        _emit(lio.germ_to_json(germ_mul(a, b)))
    elif args.op == "add":
        a = lio.germ_from_json(_load(args.a))
        b = lio.germ_from_json(_load(args.b))
        _emit(lio.germ_to_json(germ_add(a, b)))
    elif args.op == "diff":
        g = lio.germ_from_json(_load(args.germ))
        _emit(lio.germ_to_json(germ_diff(_vec(args.vector), g)))
    elif args.op == "localize":
        f = lio.rationalfn_from_json(_load(args.fn))
        g = rationalfn_germ_at(f, _vec(args.point), args.order)
        _emit(lio.germ_to_json(g))
    elif args.op == "restrict":
        f = lio.rationalfn_from_json(_load(args.fn))
        L = lio.subspace_from_json(f.space, _load(args.subspace))
        _emit(lio.rationalfn_to_json(rationalfn_restrict(f, L)))
    else:
        raise ParseFailure(f"unknown germ op {args.op!r}")


def _cmd_laurent(args):
    if args.op == "apply":
        L = lio.functional_from_json(_load(args.functional))
        g = lio.germ_from_json(_load(args.germ))
        _emit({"value": gq_to_string(lf_apply(L, g))})
    elif args.op == "apply-fn":
        L = lio.functional_from_json(_load(args.functional))
        f = lio.rationalfn_from_json(_load(args.fn))
        _emit({"value": gq_to_string(lf_apply_rational(L, f))})
    elif args.op == "evaluation":
        space = lio.space_from_json(_load(args.space))
        X = [
            _fvec(part) for part in args.x.split(";")
        ] if args.x else []
        d = _ints(args.d)
        L = lf_from_evaluation(space, _vec(args.point), X, d)
        _emit(lio.functional_to_json(L))
    elif args.op == "pushforward":
        L0 = lio.functional_from_json(_load(args.functional))
        data = _load(args.matrix)
        mat = lio.rows(data, "matrix")
        space = lio.space_from_json(lio.field(data, "space"))
        _emit(lio.functional_to_json(lf_pushforward(mat, L0, space)))
    elif args.op == "mul-action":
        L = lio.functional_from_json(_load(args.functional))
        f = lio.rationalfn_from_json(_load(args.fn))
        _emit(lio.functional_to_json(lf_mul_action(f, L)))
    elif args.op == "diff-action":
        L = lio.functional_from_json(_load(args.functional))
        _emit(lio.functional_to_json(lf_diff_action(_vec(args.vector), L)))
    elif args.op == "operator":
        L = lio.functional_from_json(_load(args.functional))
        f = lio.rationalfn_from_json(_load(args.fn))
        Lsub = lio.subspace_from_json(f.space, _load(args.subspace))
        _emit(lio.rationalfn_to_json(laurent_operator_apply(L, f, Lsub)))
    elif args.op == "diagonal":
        L = lio.functional_from_json(_load(args.functional))
        f = lio.rationalfn_from_json(_load(args.fn))
        data = _load(args.subspace)
        Lsub = lio.subspace_from_json(lio.space_from_json(lio.field(data, "space")), data)
        _emit(lio.rationalfn_to_json(lf_diagonal_apply(L, f, Lsub)))
    elif args.op == "witness":
        g = lio.germ_from_json(_load(args.germ))
        w = lf_annihilator_witness(g)
        if w == "holomorphic":
            _emit({"holomorphic": True})
        else:
            _emit(lio.functional_to_json(w))
    else:
        raise ParseFailure(f"unknown laurent op {args.op!r}")


def _system(args):
    if args.system_file:
        return lio.rootsystem_from_json(_load(args.system_file))
    return builtin_system(args.system)


def _cmd_rootsys(args):
    rs = _system(args)
    if args.op == "weyl":
        W = rs.weyl_group()
        lengths = {}
        for w in W:
            lengths[w.length] = lengths.get(w.length, 0) + 1
        _emit({"order": len(W), "by_length": {str(k): v for k, v in sorted(lengths.items())}})
    elif args.op == "cosets":
        Q = ParabolicData(rs, _ints(args.deltaQ))
        reps = min_coset_reps(rs, Q)
        sub = wq_subgroup(rs, Q)
        _emit(
            {
                "W^Q": len(reps),
                "W_Q": len(sub),
                "W": len(rs.weyl_group()),
                "lengths": sorted(w.length for w in reps),
            }
        )
    elif args.op == "equiv":
        P = ParabolicData(rs, _ints(args.deltaP))
        Q = ParabolicData(rs, _ints(args.deltaQ))
        classes = equiv_PQ(rs, P, Q)
        _emit({"classes": len(classes), "sizes": sorted(len(c) for c in classes)})
    elif args.op == "generic":
        P = ParabolicData(rs, _ints(args.deltaP))
        Q = ParabolicData(rs, _ints(args.deltaQ))
        S = [_vec(part) for part in args.weights.split(";")] if args.weights else []
        lam = _vec(args.lam)
        w = generic_witness(rs, P, Q, S, lam)
        if w is None:
            _emit({"generic": True})
        else:
            s1, s2, cert = w
            _emit(
                {
                    "generic": False,
                    "pair": [
                        [[str(x) for x in row] for row in s1.matrix],
                        [[str(x) for x in row] for row in s2.matrix],
                    ],
                    "certificate": {
                        "sigma1": cert[0],
                        "sigma2": cert[1],
                        "lattice": [str(c) for c in cert[2]],
                    },
                }
            )
    elif args.op == "classify":
        P = ParabolicData(rs, _ints(args.deltaP))
        Q = ParabolicData(rs, _ints(args.deltaQ))
        S = [_vec(part) for part in args.weights.split(";")] if args.weights else []
        lam = _vec(args.lam)
        xi = _vec(args.xi)
        kind, payload, _classes = exponent_classify(rs, P, Q, S, lam, xi)
        _emit({"result": kind, "classes": payload if kind == "ambiguous" else [payload]})
    elif args.op == "preceq":
        delta = [tuple(x) for x in ( _fvec(part) for part in args.delta.split(";") )]
        _emit({"preceq": preceq_delta(delta, _vec(args.a), _vec(args.b))})
    elif args.op == "lub":
        delta = [tuple(x) for x in ( _fvec(part) for part in args.delta.split(";") )]
        omega = [_vec(part) for part in args.omega.split(";")]
        _emit({"lub": [gq_to_string(x) for x in class_lub(delta, omega)]})
    else:
        raise ParseFailure(f"unknown rootsys op {args.op!r}")


def _cmd_series(args):
    if args.op == "exponents":
        F = lio.series_from_json(_load(args.series))
        exps, leading = series_exponents(F)
        _emit(
            {
                "exponents": [[gq_to_string(x) for x in e] for e in exps],
                "leading": [[gq_to_string(x) for x in e] for e in leading],
            }
        )
    elif args.op == "diff":
        F = lio.series_from_json(_load(args.series))
        u = lio.diffop_from_json(_load(args.diffop))
        _emit(lio.series_to_json(series_diffop(u, F)))
    elif args.op == "mul":
        A = lio.series_from_json(_load(args.a))
        B = lio.series_from_json(_load(args.b))
        _emit(lio.series_to_json(series_mul(A, B)))
    elif args.op == "split":
        F = lio.series_from_json(_load(args.series))
        leaders = [_vec(part) for part in args.leaders.split(";")]
        parts = series_split(F, leaders)
        _emit(
            {
                ",".join(gq_to_string(x) for x in s): lio.series_to_json(v)
                for s, v in parts.items()
            }
        )
    elif args.op == "restrict":
        F = lio.series_from_json(_load(args.series))
        wall = [_fvec(part) for part in args.wall.split(";")]
        R = series_restrict(F, wall)
        groups = []
        for eta in R.outer_exponents():
            groups.append(
                {
                    "outer": [gq_to_string(x) for x in eta],
                    "inner": [
                        {
                            "exponent": [gq_to_string(x) for x in R.inner_exponent(xi)],
                            "coeff_poly": [lio.poly_to_json(p) for p in R.shifted_coeff(xi)],
                        }
                        for xi in R.groups[eta]
                    ],
                }
            )
        _emit({"groups": groups})
    else:
        raise ParseFailure(f"unknown series op {args.op!r}")


# -- verify ----------------------------------------------------------------


def _verify_checks():
    """Small deterministic self-checks, one per module cluster."""
    import random

    rng = random.Random(20240)
    checks = []

    def check(name, fn):
        checks.append((name, fn))

    def c_scalars():
        a = GQ(Fraction(3, 7), Fraction(-2, 5))
        return a * (GQ(1) / a) == GQ(1) and gq_from_string(gq_to_string(a)) == a

    check("scalars-field-roundtrip", c_scalars)

    def c_jcocycle():
        sp = Space(2)
        X0 = [(1, 0), (0, 1)]
        for _ in range(20):
            u = DiffOp(
                2,
                {
                    (rng.randint(0, 2), rng.randint(0, 2)): GQ(rng.randint(-3, 3))
                    for _ in range(3)
                },
            )
            d = [rng.randint(1, 3), rng.randint(1, 3)]
            dm = [rng.randint(0, d[0]), rng.randint(0, d[1])]
            dl = [rng.randint(0, dm[0]), rng.randint(0, dm[1])]
            a = [GQ(rng.randint(-2, 2)), GQ(rng.randint(-2, 2))]
            lhs = j_map(sp, j_map(sp, u, d, dm, X0, a), dm, dl, X0, a)
            if lhs != j_map(sp, u, d, dl, X0, a):
                return False
        return True

    check("j-map-cocycle", c_jcocycle)

    def c_residue():
        sp = Space(1)
        L = lf_residue(sp, [0], [(1,)], [1])
        f = RationalFn(
            sp,
            Polynomial(1, {(0,): GQ(1), (1,): GQ(2)}),
            {Hyperplane.make((1,), 0): 1},
        )
        return lf_apply_rational(L, f) == GQ(1)

    check("residue-extraction", c_residue)

    def c_operator():
        sp = Space(2)
        Lsub = subspace_from(sp, [Hyperplane.make((0, 1), 0)])
        tsp = transverse_space(Lsub)
        L = lf_residue(tsp, [0], [(1,)], [1])
        f = RationalFn(
            sp,
            Polynomial.const(2, GQ(1)),
            {Hyperplane.make((0, 1), 0): 1, Hyperplane.make((1, -1), 0): 1},
        )
        out = laurent_operator_apply(L, f, Lsub)
        return out.eval([GQ(2)]) == GQ(Fraction(1, 2))

    check("laurent-operator", c_operator)

    def c_weyl():
        want = {"A1": 2, "A1xA1": 4, "A2": 6, "B2": 8, "G2": 12, "A3": 24}
        for name, k in want.items():
            if len(builtin_system(name).weyl_group()) != k:
                return False
        return True

    check("weyl-orders", c_weyl)

    def c_series():
        sp = Space(2)
        delta = [(1, 0), (0, 1)]
        lam = (GQ(Fraction(5, 2)), GQ(1))
        F0 = ExpPolySeries(sp, delta, [lam], 3, 1, {lam: [Polynomial.const(2, GQ(1))]})
        F = lio.series_from_json(lio.series_to_json(series_diffop(DiffOp.partial(2, 0), F0)))
        return F.terms[lam][0] == Polynomial.const(2, GQ(Fraction(5, 2)))

    check("series-roundtrip", c_series)

    return checks


def _cmd_verify(args):
    checks = _verify_checks()
    if args.suite != "all":
        names = args.suite.split(",")
        known = [name for name, _ in checks]
        for name in names:
            if name not in known:
                raise ParseFailure(
                    f"unknown verify check {name!r}; expected 'all' or a comma list of {known}"
                )
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


# -- dispatch --------------------------------------------------------------


def _build_parser():
    ap = argparse.ArgumentParser(prog="laurcalc")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("poly")
    p.add_argument("op")
    p.add_argument("--poly")
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--diffop")
    p.add_argument("--point")
    p.add_argument("--index", type=int)

    p = sub.add_parser("config")
    p.add_argument("op")
    p.add_argument("--config", required=True)
    p.add_argument("--center")
    p.add_argument("--radius2")
    p.add_argument("--hyperplanes", default="")

    p = sub.add_parser("germ")
    p.add_argument("op")
    p.add_argument("--germ")
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--vector")
    p.add_argument("--fn")
    p.add_argument("--point")
    p.add_argument("--order", type=int, default=6)
    p.add_argument("--subspace")

    p = sub.add_parser("laurent")
    p.add_argument("op")
    p.add_argument("--functional")
    p.add_argument("--germ")
    p.add_argument("--fn")
    p.add_argument("--space")
    p.add_argument("--point")
    p.add_argument("--x", default="")
    p.add_argument("--d", default="")
    p.add_argument("--matrix")
    p.add_argument("--vector")
    p.add_argument("--subspace")

    p = sub.add_parser("rootsys")
    p.add_argument("op")
    p.add_argument("--system", default="A2")
    p.add_argument("--system-file", default="")
    p.add_argument("--deltaQ", default="")
    p.add_argument("--deltaP", default="")
    p.add_argument("--weights", default="")
    p.add_argument("--lam")
    p.add_argument("--xi")
    p.add_argument("--delta")
    p.add_argument("--omega")
    p.add_argument("--a")
    p.add_argument("--b")

    p = sub.add_parser("series")
    p.add_argument("op")
    p.add_argument("--series")
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--diffop")
    p.add_argument("--leaders")
    p.add_argument("--wall")

    p = sub.add_parser("verify")
    p.add_argument("--suite", default="all")

    return ap


def run(argv) -> int:
    ap = _build_parser()
    try:
        args = _Options(ap.parse_args(argv))
    except SystemExit:
        return 1
    try:
        if args.verb == "poly":
            _cmd_poly(args)
        elif args.verb == "config":
            _cmd_config(args)
        elif args.verb == "germ":
            _cmd_germ(args)
        elif args.verb == "laurent":
            _cmd_laurent(args)
        elif args.verb == "rootsys":
            _cmd_rootsys(args)
        elif args.verb == "series":
            _cmd_series(args)
        elif args.verb == "verify":
            return _cmd_verify(args)
        return 0
    except ParseFailure as e:
        _emit({"error": "parse", "detail": str(e)})
        return 1
    except (LaurentOrderError, ArityError, ValueError, ZeroDivisionError, KeyError, TypeError) as e:
        _emit({"error": "precondition", "detail": str(e)})
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
