"""Command-line interface: exit codes, machine-readable errors and
byte-stable output."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from laurcalc import (
    GQ,
    Configuration,
    Hyperplane,
    Polynomial,
    RationalFn,
    Space,
    lf_residue,
)
from laurcalc import cli
from laurcalc import io as lio
from laurcalc.cli import run

from _support import over_two_inner_products


@pytest.fixture
def files(tmp_path):
    sp = Space(1)
    paths = {}

    def put(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
        return paths[name]

    put("p.json", lio.poly_to_json(Polynomial(2, {(1, 0): GQ(2), (0, 0): GQ(1)})))
    put("L.json", lio.functional_to_json(lf_residue(sp, [0], [(1,)], [1])))
    put(
        "f.json",
        lio.rationalfn_to_json(
            RationalFn(
                sp,
                Polynomial(1, {(0,): GQ(1), (1,): GQ(2)}),
                {Hyperplane.make((1,), GQ(0)): 1},
            )
        ),
    )
    return paths


def _run(argv, capsys):
    code = run(argv)
    return code, capsys.readouterr().out


def test_poly_eval(files, capsys):
    code, out = _run(["poly", "eval", "--poly", files["p.json"], "--point", "3,0"], capsys)
    assert code == 0
    assert json.loads(out) == {"value": "7/1"}


def test_laurent_apply(files, capsys):
    code, out = _run(
        ["laurent", "apply-fn", "--functional", files["L.json"], "--fn", files["f.json"]],
        capsys,
    )
    assert code == 0
    assert json.loads(out) == {"value": "1/1"}


def test_rootsys_weyl(capsys):
    code, out = _run(["rootsys", "weyl", "--system", "G2"], capsys)
    assert code == 0
    assert json.loads(out)["order"] == 12


def test_parse_error_exit_1(capsys):
    code, out = _run(["poly", "eval", "--poly", "missing.json", "--point", "1"], capsys)
    assert code == 1
    assert json.loads(out)["error"] == "parse"


def test_precondition_error_exit_2(files, capsys, tmp_path):
    # double pole exceeds the functional's order
    sp = Space(1)
    f2 = RationalFn(
        sp, Polynomial.const(1, GQ(1)), {Hyperplane.make((1,), GQ(0)): 2}
    )
    p = tmp_path / "f2.json"
    p.write_text(json.dumps(lio.rationalfn_to_json(f2)))
    code, out = _run(
        ["laurent", "apply-fn", "--functional", files["L.json"], "--fn", str(p)], capsys
    )
    assert code == 2
    assert json.loads(out)["error"] == "precondition"


_LINE = {"dim": 1, "inner_product": [["1"]]}
_ORIGIN = {"normal": ["1"], "offset": "0"}


@pytest.mark.parametrize(
    "doc, argv, field",
    [
        pytest.param(
            {"space": _LINE, "numerator": {"dim": 1, "terms": [{"idx": [0], "re": "1"}]},
             "denominator": [dict(_ORIGIN, power=-1)]},
            ["germ", "localize", "--fn", "{}", "--point", "1", "--order", "2"], "power", id="power",
        ),
        pytest.param(
            dict(_LINE, hyperplanes=[dict(_ORIGIN, mult=-2)], x_set=[["1"]]),
            ["config", "induced", "--config", "{}", "--hyperplanes", "0"], "mult", id="mult-induced",
        ),
        pytest.param(
            dict(_LINE, hyperplanes=[dict(_ORIGIN, mult=-2)]),
            ["config", "ball-product", "--config", "{}", "--center", "0", "--radius2", "1"], "mult", id="mult-ball",
        ),
        pytest.param(
            {"space": _LINE, "base": ["0"], "pole": [{"direction": ["1"], "power": -1}],
             "jet": {"dim": 1, "terms": [{"idx": [0], "re": "1"}]}, "order": 2},
            ["germ", "normalize", "--germ", "{}"], "pole", id="pole",
        ),
        pytest.param(
            {"space": _LINE, "summands": [{"support": ["0"], "x_set": [["1"]], "d_max": [-1],
                                           "u": {"dim": 1, "terms": [{"idx": [0], "re": "1"}]}}]},
            ["laurent", "apply", "--functional", "{}", "--germ", "{}"], "d_max", id="d_max",
        ),
    ],
)
def test_negative_orders_exit_2_naming_the_field(doc, argv, field, tmp_path, capsys):
    """A negative multiplicity, denominator power, pole order or d_max is a
    precondition failure that names its field, where it used to be read as
    given (a power of -1 localized as if the factor were absent)."""
    p = tmp_path / "in.json"
    p.write_text(json.dumps(doc))
    code, out = _run([str(p) if a == "{}" else a for a in argv], capsys)
    err = json.loads(out)
    assert (code, err["error"]) == (2, "precondition")
    assert field in err["detail"] and "nonnegative" in err["detail"]


@pytest.mark.parametrize("index", ["-1", "5"])
def test_deriv_index_out_of_range_exit_2(index, files, capsys):
    """--index -1 used to differentiate in the last variable (exit 0) and 5
    ended in an IndexError (exit 3)."""
    code, out = _run(["poly", "deriv", "--poly", files["p.json"], f"--index={index}"], capsys)
    err = json.loads(out)
    assert (code, err["error"]) == (2, "precondition")
    assert f"index {index} out of range" in err["detail"]


def test_localize_negative_order_exit_2(files, capsys):
    """--order -1 used to print a germ of order -1 with an empty jet."""
    code, out = _run(["germ", "localize", "--fn", files["f.json"], "--point", "1", "--order=-1"], capsys)
    err = json.loads(out)
    assert (code, err["error"]) == (2, "precondition")
    assert "order must be nonnegative, got -1" in err["detail"]


def test_germ_file_with_negative_order_exit_2(capsys, tmp_path):
    """A germ of order -2 used to normalize to a zero jet, which the witness
    then called holomorphic."""
    doc = {"space": _LINE, "base": ["0"], "pole": [{"direction": ["1"], "power": 1}],
           "jet": {"dim": 1, "terms": [{"idx": [0], "re": "1"}]}, "order": -2}
    p = tmp_path / "g.json"
    p.write_text(json.dumps(doc))
    code, out = _run(["laurent", "witness", "--germ", str(p)], capsys)
    err = json.loads(out)
    assert (code, err["error"]) == (2, "precondition")
    assert "order must be nonnegative, got -2" in err["detail"]


_BAD_U = {"space": _LINE, "summands": [{"support": ["0"], "x_set": [["1"]], "d_max": [1],
                                        "u": {"dim": 2, "terms": [{"idx": [0, 0], "re": "1"}]}}]}
_HOLO = {"space": _LINE, "base": ["0"], "pole": [], "jet": {"dim": 1, "terms": [{"idx": [0], "re": "1"}]}, "order": 2}


@pytest.mark.parametrize("argv", [["apply", "--germ", "g.json"], ["apply-fn", "--fn", "f.json"]], ids=lambda a: a[0])
def test_functional_operator_of_another_dimension_exit_2(argv, files, tmp_path, capsys):
    """A summand operator in 2 variables on a line is an arity mismatch,
    not the value 0."""
    (tmp_path / "bad.json").write_text(json.dumps(_BAD_U))
    (tmp_path / "g.json").write_text(json.dumps(_HOLO))
    args = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    code, out = _run(["laurent", argv[0], "--functional", str(tmp_path / "bad.json"), *args[1:]], capsys)
    err = json.loads(out)
    assert (code, err["error"]) == (2, "precondition")
    assert "arity mismatch" in err["detail"]


@pytest.mark.parametrize(
    "argv",
    [
        ["laurent", "apply-fn", "--functional", "L.json", "--fn", "f4.json"],
        ["laurent", "apply", "--functional", "L.json", "--germ", "a.json"],
        ["laurent", "mul-action", "--functional", "L.json", "--fn", "f4.json"],
        ["germ", "mul", "--a", "a.json", "--b", "b.json"],
        ["germ", "add", "--a", "a.json", "--b", "b.json"],
    ],
    ids=lambda a: " ".join(a[:2]),
)
def test_two_inner_products_exit_2(argv, tmp_path, capsys):
    """Files over the standard line and over <z, w> = 4zw do not combine:
    read in one space they gave a wrong value with exit 0."""
    f4, _, a, b = over_two_inner_products()
    docs = {
        "L.json": lio.functional_to_json(lf_residue(Space(1), [0], [(1,)], [1])),
        "f4.json": lio.rationalfn_to_json(f4),
        "a.json": lio.germ_to_json(a),
        "b.json": lio.germ_to_json(b),
    }
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    code, out = _run([str(tmp_path / x) if x in docs else x for x in argv], capsys)
    err = json.loads(out)
    assert (code, err["error"]) == (2, "precondition")
    assert "different inner products" in err["detail"]


def test_germ_diff_orders_round_trip(tmp_path, capsys):
    """Differentiating an order-1 germ gives an order-0 germ that the other
    germ commands read back; an order-0 germ cannot be differentiated."""
    p = tmp_path / "g.json"
    p.write_text(json.dumps(dict(_HOLO, jet={"dim": 1, "terms": [{"idx": [1], "re": "3"}]}, order=1)))
    code, out = _run(["germ", "diff", "--germ", str(p), "--vector", "1"], capsys)
    assert code == 0 and json.loads(out)["order"] == 0
    p.write_text(out)
    code, out = _run(["germ", "normalize", "--germ", str(p)], capsys)
    assert code == 0 and json.loads(out)["jet"]["terms"] == [{"idx": [0], "im": "0/1", "re": "3/1"}]
    code, out = _run(["germ", "diff", "--germ", str(p), "--vector", "1"], capsys)
    err = json.loads(out)
    assert (code, err["error"]) == (2, "precondition")
    assert "jet order must be at least 1" in err["detail"]


def test_cli_import_leaves_out_dataclasses():
    """A cold start does not pay for importing dataclasses."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = "import sys, laurcalc.cli; print('dataclasses' in sys.modules)"
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_byte_stable_output(files, capsys):
    _, out1 = _run(["poly", "deriv", "--poly", files["p.json"], "--index", "0"], capsys)
    _, out2 = _run(["poly", "deriv", "--poly", files["p.json"], "--index", "0"], capsys)
    assert out1 == out2


def test_verify_passes(capsys):
    code, out = _run(["verify"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert lines and all(l.startswith("PASS ") for l in lines)


def test_bad_parabolic_index_exit_2(capsys):
    for flag, bad in (("--deltaQ=5", "5"), ("--deltaQ=-1", "-1")):
        code, out = _run(["rootsys", "cosets", "--system", "A2", flag], capsys)
        assert code == 2
        err = json.loads(out)
        assert err["error"] == "precondition"
        assert f"simple root index {bad} out of range" in err["detail"]


def test_verify_reports_a_raising_check(monkeypatch, capsys):
    table = cli._verify_checks

    def boom():
        raise RuntimeError("no luck")

    monkeypatch.setattr(cli, "_verify_checks", lambda: table() + [("boom", boom)])
    code, out = _run(["verify"], capsys)
    assert code == 2
    lines = out.splitlines()
    assert lines[-1] == "FAIL boom: RuntimeError: no luck"
    assert len(lines) == len(table()) + 1
    assert all(l.startswith("PASS ") for l in lines[:-1])


@pytest.mark.parametrize(
    "check, target, fake",
    [
        ("j-map-cocycle", "laurcalc.poly.j_map", lambda *args: object()),
        ("weyl-orders", "laurcalc.rootsys.RootSystem.weyl_group", lambda self: []),
    ],
)
def test_verify_reports_a_failing_check(check, target, fake, monkeypatch, capsys):
    # a check that returns False, rather than raising, is a FAIL with no reason
    monkeypatch.setattr(target, fake)
    code, out = _run(["verify", "--suite", f"scalars-field-roundtrip,{check}"], capsys)
    assert code == 2
    assert out == f"PASS scalars-field-roundtrip\nFAIL {check}\n"


def test_verify_suite(capsys):
    code, out = _run(["verify", "--suite", "weyl-orders"], capsys)
    assert code == 0
    assert out == "PASS weyl-orders\n"
    code, out = _run(["verify", "--suite", "scalars-field-roundtrip,weyl-orders"], capsys)
    assert code == 0
    assert out == "PASS scalars-field-roundtrip\nPASS weyl-orders\n"


def test_verify_unknown_suite_exit_1(capsys):
    code, out = _run(["verify", "--suite", "weyl-orders,no-such-check"], capsys)
    assert code == 1
    err = json.loads(out)
    assert err["error"] == "parse"
    assert "no-such-check" in err["detail"]


def test_bad_delta_exit_2(capsys, tmp_path):
    series = tmp_path / "short_delta.json"
    series.write_text(json.dumps({
        "space": {"dim": 2},
        "delta": [["1"]],
        "leaders": [["0", "0"]],
        "trunc": 1,
        "terms": [{"exponent": ["0", "0"], "coeff_poly": [lio.poly_to_json(Polynomial.const(2, GQ(1)))]}],
    }))
    for argv in (
        ["rootsys", "preceq", "--delta", "1,0", "--a", "0,0", "--b", "1"],
        ["rootsys", "lub", "--delta", "1,0", "--omega", "0,0;1"],
        ["rootsys", "preceq", "--delta", "1,0;2,0", "--a", "0,0", "--b", "1,0"],
        ["series", "exponents", "--series", str(series)],
    ):
        code, out = _run(argv, capsys)
        assert code == 2
        err = json.loads(out)
        assert err["error"] == "precondition"
        assert "delta" in err["detail"]


@pytest.mark.parametrize(
    "argv, named",
    [
        pytest.param(["rootsys", "preceq", "--a", "0", "--b", "1"], "delta", id="preceq-without-delta"),
        pytest.param(["rootsys", "generic", "--system", "A2"], "lam", id="generic-without-lam"),
        pytest.param(["config", "through", "--config", "{list}"], "inner_product", id="config-is-a-list"),
        pytest.param(["poly", "eval", "--point", "1"], "poly", id="eval-without-poly"),
        pytest.param(["poly", "eval", "--poly", "{list}", "--point", "1"], "terms", id="poly-is-a-list"),
        pytest.param(
            ["laurent", "pushforward", "--functional", "{L}", "--matrix", "{empty}"], "matrix", id="pushforward-without-matrix"
        ),
        pytest.param(
            ["laurent", "diagonal", "--functional", "{L}", "--fn", "{f}", "--subspace", "{empty}"],
            "space",
            id="diagonal-without-space",
        ),
    ],
)
def test_missing_option_or_key_exit_1(argv, named, files, capsys, tmp_path):
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "empty.json").write_text("{}")
    paths = dict(L=files["L.json"], f=files["f.json"], list=str(tmp_path / "list.json"), empty=str(tmp_path / "empty.json"))
    code, out = _run([a.format_map(paths) for a in argv], capsys)
    assert code == 1
    err = json.loads(out)
    assert err["error"] == "parse"
    assert repr(named) in err["detail"]


def test_indefinite_inner_product_exit_2(capsys, tmp_path):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"dim": 1, "inner_product": [["-1"]]}))
    code, out = _run(["laurent", "evaluation", "--space", str(space), "--point", "0"], capsys)
    assert code == 2
    err = json.loads(out)
    assert err["error"] == "precondition"
    assert "positive definite" in err["detail"]


@pytest.mark.parametrize("op", ["induced", "through"])
@pytest.mark.parametrize("index", ["9", "-1"])
def test_hyperplane_index_out_of_range_exit_2(op, index, capsys, tmp_path):
    sp = Space(2)
    cfg = Configuration(sp, [(Hyperplane.make((1, 0), GQ(0)), 1), (Hyperplane.make((0, 1), GQ(1)), 2)])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(lio.config_to_json(cfg)))
    code, out = _run(["config", op, "--config", str(path), f"--hyperplanes=0,{index}"], capsys)
    assert code == 2
    err = json.loads(out)
    assert err["error"] == "precondition"
    assert f"hyperplane index {index} out of range" in err["detail"]
    assert "2 hyperplanes" in err["detail"]


@pytest.mark.parametrize(
    "argv, doc, named",
    [
        pytest.param(["poly", "eval", "--point", "1", "--poly"], {"dim": 1, "terms": 5}, "terms", id="poly-terms"),
        pytest.param(
            ["laurent", "evaluation", "--point", "0", "--space"], {"dim": 1, "inner_product": 5}, "inner_product", id="space-rows"
        ),
        pytest.param(
            ["laurent", "evaluation", "--point", "0", "--space"], {"dim": 1, "inner_product": [5]}, "inner_product", id="space-row"
        ),
    ],
)
def test_number_where_a_list_is_expected_exit_1(argv, doc, named, capsys, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out = _run(argv + [str(path)], capsys)
    assert code == 1
    err = json.loads(out)
    assert err["error"] == "parse"
    assert repr(named) in err["detail"]


def test_gram_matrix_of_wrong_shape_exit_2(capsys, tmp_path):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"dim": 2, "inner_product": [["1"]]}))
    code, out = _run(["laurent", "evaluation", "--space", str(space), "--point", "0,0"], capsys)
    assert code == 2
    err = json.loads(out)
    assert err["error"] == "precondition"
    assert "2 x 2" in err["detail"]


@pytest.mark.parametrize(
    "doc, named",
    [
        pytest.param({"dim": [1], "terms": []}, "dim", id="dim-list"),
        pytest.param({"dim": 1.9, "terms": [{"idx": [1], "re": "2"}]}, "dim", id="dim-float"),
        pytest.param({"dim": 1, "terms": [{"idx": [True], "re": "2"}]}, "idx", id="idx-bool"),
    ],
)
def test_integer_field_that_is_not_an_integer_exit_1(doc, named, capsys, tmp_path):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(doc))
    code, out = _run(["poly", "eval", "--poly", str(path), "--point", "3"], capsys)
    assert code == 1
    err = json.loads(out)
    assert err["error"] == "parse"
    assert repr(named) in err["detail"]


ROOT = Path(__file__).resolve().parents[1]
CORPUS = "perfbench/corpus/files/"


def test_runs_in_one_process_match_runs_alone(capsys, monkeypatch):
    """One process, one parser, several verbs in a row: each run prints what
    the same command prints in a fresh interpreter."""
    monkeypatch.chdir(ROOT)
    sequence = [
        ["rootsys", "weyl", "--system", "B2"],
        ["poly"],
        ["poly", "eval", "--poly", CORPUS + "poly_a.json", "--point", "1/2,3+i"],
        ["config", "through", "--config", CORPUS + "config.json", "--hyperplanes", "0,2"],
        ["series", "exponents", "--series", CORPUS + "series_a.json"],
        ["germ", "localize", "--fn", CORPUS + "fn_plane.json", "--point", "0,0", "--order", "4"],
        ["laurent", "apply-fn", "--functional", CORPUS + "functional_residue.json", "--fn", CORPUS + "fn_simple_pole.json"],
        ["verify", "--suite", "weyl-orders"],
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv in sequence:
        alone = subprocess.run([sys.executable, "-m", "laurcalc.cli", *argv], cwd=ROOT, env=env, capture_output=True)
        assert _run(argv, capsys) == (alone.returncode, alone.stdout.decode()), argv
    assert [_run(argv, capsys)[0] for argv in sequence] == [0, 1, 0, 0, 0, 0, 0, 0]


def test_parser_is_built_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    _run(["rootsys", "weyl", "--system", "A2"], capsys)
    first = len(built)
    _run(["poly", "deriv", "--poly", str(ROOT / CORPUS / "poly_a.json"), "--index", "0"], capsys)
    assert first > 0
    assert len(built) == first


@pytest.mark.parametrize(
    "argv, prefixed",
    [
        pytest.param(
            ["rootsys", "generic", "--system", "B2", "--deltaP", "0", "--weights", "1,0;0,1", "--lam", "3/7,-2/11"],
            "--wei",
            id="wei",
        ),
        pytest.param(
            ["germ", "localize", "--fn", CORPUS + "fn_plane.json", "--point", "0,0", "--order", "4"], "--ord", id="ord"
        ),
    ],
)
def test_unambiguous_option_prefix(argv, prefixed, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    full = _run(argv, capsys)
    assert full[0] == 0
    short = [prefixed if a.startswith(prefixed) else a for a in argv]
    assert short != argv
    assert _run(short, capsys) == full


def test_ambiguous_option_prefix_exit_1(capsys):
    # --sys could be --system or --system-file
    assert _run(["rootsys", "weyl", "--sys", "A2"], capsys) == (1, "")


@pytest.mark.parametrize(
    "argv, code, detail",
    [
        pytest.param(["config", "explode", "--config", "nope.json"], 1, "No such file or directory", id="config-file-first"),
        pytest.param(["rootsys", "fold", "--system", "E8"], 2, "unknown root system name 'E8'", id="system-first"),
    ],
)
def test_verb_input_is_read_before_the_op_is_checked(argv, code, detail, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got, out = _run(argv, capsys)
    assert got == code
    assert detail in json.loads(out)["detail"]


@pytest.mark.parametrize("radius2", ["x", "1/0"])
def test_radius2_not_a_number_exit_1(radius2, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    argv = ["config", "ball-product", "--config", CORPUS + "config.json", "--center", "0,0", "--radius2", radius2]
    code, out = _run(argv, capsys)
    assert code == 1
    assert json.loads(out) == {"error": "parse", "detail": f"not a number: {radius2!r}"}


@pytest.mark.parametrize("exc", [KeyError("boom"), TypeError("boom")])
def test_internal_error_exit_3(exc, capsys, monkeypatch):
    """An exception that is neither a parse nor a precondition failure is a
    bug in laurcalc, reported as one with its type."""

    def handler(o, rs):
        raise exc

    monkeypatch.setitem(cli._verb("rootsys")[0], "weyl", handler)
    code, out = _run(["rootsys", "weyl", "--system", "A2"], capsys)
    assert code == 3
    assert json.loads(out) == {"error": "internal", "detail": f"{type(exc).__name__}: {exc}"}


_EVALUATION = ["laurent", "evaluation", "--space", CORPUS + "space_plane.json", "--point"]
_GENERIC = ["rootsys", "generic", "--system", "A2", "--deltaP", "0"]
_FLATTEN = ["poly", "flatten", "--poly", CORPUS + "poly_a.json", "--diffop", CORPUS + "diffop.json", "--point"]
_BALL = ["config", "ball-product", "--config", CORPUS + "config.json", "--radius2", "1", "--center"]


@pytest.mark.parametrize(
    "argv, n",
    [
        pytest.param(_EVALUATION + ["0"], 1, id="evaluation-point-1"),
        pytest.param(_EVALUATION + ["0,0,7"], 3, id="evaluation-point-3"),
        pytest.param(_EVALUATION + ["0,0", "--x", "1", "--d", "1"], 1, id="evaluation-x-1"),
        pytest.param(_EVALUATION + ["0,0", "--x", "1,0,0", "--d", "1"], 3, id="evaluation-x-3"),
        pytest.param(_EVALUATION + ["0,0", "--x", "1,0,0", "--d", "0"], 3, id="evaluation-x-3-d-0"),
        pytest.param(
            ["laurent", "diff-action", "--functional", CORPUS + "functional_plane.json", "--vector", "1"], 1,
            id="diff-action-vector-1",
        ),
        pytest.param(
            ["laurent", "diff-action", "--functional", CORPUS + "functional_residue.json", "--vector", "1,2,3"], 3,
            id="diff-action-vector-3",
        ),
        pytest.param(["germ", "diff", "--germ", CORPUS + "germ_axes.json", "--vector", "1"], 1, id="germ-diff-vector-1"),
        pytest.param(["germ", "diff", "--germ", CORPUS + "germ_axes.json", "--vector", "1,2,3"], 3, id="germ-diff-vector-3"),
        pytest.param(["germ", "localize", "--fn", CORPUS + "fn_plane.json", "--point", "1"], 1, id="localize-point-1"),
        pytest.param(["germ", "localize", "--fn", CORPUS + "fn_plane.json", "--point", "1,2,3"], 3, id="localize-point-3"),
        pytest.param(_FLATTEN + ["0"], 1, id="flatten-point-1"),
        pytest.param(_FLATTEN + ["0,0,5"], 3, id="flatten-point-3"),
        pytest.param(_BALL + ["0"], 1, id="ball-product-center-1"),
        pytest.param(_BALL + ["0,0,0"], 3, id="ball-product-center-3"),
        pytest.param(_GENERIC + ["--deltaQ", "1", "--lam", "1"], 1, id="generic-lam-1"),
        pytest.param(_GENERIC + ["--deltaQ", "1", "--lam", "1,2,3"], 3, id="generic-lam-3"),
        pytest.param(_GENERIC + ["--lam", "1,2", "--weights", "1"], 1, id="generic-weights-1"),
        pytest.param(_GENERIC + ["--lam", "1,2", "--weights", "1,2,3"], 3, id="generic-weights-3"),
    ],
)
def test_vector_of_the_wrong_length_exit_2(argv, n, capsys, monkeypatch):
    # a point, direction, root or weight whose length is not the dimension
    # is a precondition failure: never an IndexError (exit 3), never cut to
    # length
    monkeypatch.chdir(ROOT)
    code, out = _run(argv, capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "precondition"
    assert doc["detail"].startswith(f"a vector of length {n} in ")


@pytest.mark.parametrize("x, d", [("1,0;0,1", "1"), ("1,0", "1,2")])
def test_evaluation_pole_index_not_parallel_to_the_roots_exit_2(x, d, capsys, monkeypatch):
    # refused by pi_product, with LFSummand's text
    monkeypatch.chdir(ROOT)
    code, out = _run(_EVALUATION + ["0,0", "--x", x, "--d", d], capsys)
    assert code == 2
    assert json.loads(out) == {"error": "precondition", "detail": "pole index must be parallel to the root list"}


def _corpus_doc(name):
    return json.loads((ROOT / CORPUS / name).read_text())


@pytest.mark.parametrize("op", ["normalize", "diff", "add"])
def test_germ_pole_direction_of_another_length_exit_2(op, capsys, tmp_path):
    germ = _corpus_doc("germ_double.json")
    germ["pole"][0]["direction"] = ["1/1"]
    path = str(tmp_path / "g.json")
    Path(path).write_text(json.dumps(germ))
    argv = {"normalize": ["--germ", path], "diff": ["--germ", path, "--vector", "1,0"], "add": ["--a", path, "--b", path]}
    code, out = _run(["germ", op, *argv[op]], capsys)
    assert code == 2
    assert json.loads(out) == {"error": "precondition", "detail": "a vector of length 1 in a space of dimension 2"}


def test_pushforward_matrix_of_another_shape_exit_2(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    embedding = _corpus_doc("embedding_skew.json")
    embedding["matrix"] = [["3/5", "3/5"]]
    path = str(tmp_path / "m.json")
    Path(path).write_text(json.dumps(embedding))
    code, out = _run(["laurent", "pushforward", "--functional", CORPUS + "functional_residue.json", "--matrix", path], capsys)
    assert code == 2
    assert json.loads(out)["detail"] == "embedding matrix must be 2 x 1, the target by the source dimension"


_POINT = {"hyperplanes": [{"normal": ["1", "0"], "offset": "0"}, {"normal": ["0", "1"], "offset": "0"}]}
_XY = [{"normal": ["1", "0"], "offset": "0", "power": 1}, {"normal": ["0", "1"], "offset": "0", "power": 1}]


@pytest.mark.parametrize(
    "argv",
    [
        ["apply", "--germ", CORPUS + "germ_axes.json"],
        ["apply-fn", "--fn", "f.json"],
        ["operator", "--fn", "f.json", "--subspace", "point.json"],
    ],
    ids=lambda a: a[0],
)
def test_functional_operator_in_fewer_variables_than_its_space_exit_2(argv, capsys, tmp_path, monkeypatch):
    """d/dz in one variable in a functional on the plane is refused when the
    functional is read; it must not be applied to the jet's last variable.
    With its own operator the functional reads 1 on 1/(xy) in each verb."""
    monkeypatch.chdir(ROOT)
    functional = _corpus_doc("functional_plane.json")
    one = {"dim": 2, "terms": [{"idx": [0, 0], "re": "1"}]}
    one_over_xy = {"space": functional["space"], "numerator": one, "denominator": _XY}
    functional["summands"][0]["u"] = {"dim": 1, "terms": [{"idx": [1], "re": "1"}]}
    docs = {"L.json": functional, "f.json": one_over_xy, "point.json": _POINT}
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    args = [str(tmp_path / a) if a in docs else a for a in argv[1:]]
    code, out = _run(["laurent", argv[0], "--functional", str(tmp_path / "L.json"), *args], capsys)
    assert (code, json.loads(out)) == (2, {"error": "precondition", "detail": "operator/space arity mismatch"})


@pytest.mark.parametrize("index", [8, -1])
def test_positive_root_index_out_of_range_exit_2(index, capsys, tmp_path):
    system = _corpus_doc("rootsys_b2.json")
    system["positive"][0] = index
    path = tmp_path / "rs.json"
    path.write_text(json.dumps(system))
    code, out = _run(["rootsys", "weyl", "--system-file", str(path)], capsys)
    assert code == 2
    assert json.loads(out)["detail"] == f"positive root index {index} out of range for 8 roots"


@pytest.mark.parametrize("op", ["generic", "classify"])
def test_lam_of_another_length_exit_2_with_one_class(op, capsys):
    # with P = Q = all simple roots there is one class and no pair of classes
    argv = ["rootsys", op, "--system", "A2", "--deltaP", "0,1", "--deltaQ", "0,1", "--lam", "1"]
    code, out = _run(argv + (["--xi", "0"] if op == "classify" else []), capsys)
    assert code == 2
    assert json.loads(out)["detail"] == "a vector of length 1 in a space of dimension 2"


def test_diagonal_with_a_denominator_containing_the_shifted_subspace_exit_2(capsys, tmp_path):
    line = Hyperplane.make((0, 1), GQ(0))
    docs = {
        "L": lio.functional_to_json(lf_residue(Space(1), [0], [(1,)], [1])),
        "f": lio.rationalfn_to_json(
            RationalFn(Space(4), Polynomial.const(4, GQ(1)), {Hyperplane.make((0, 1, 0, -1), GQ(0)): 1})
        ),
        "sub": {"space": lio.space_to_json(Space(2)), "hyperplanes": [lio.hyperplane_to_json(line)]},
    }
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = ["laurent", "diagonal", "--functional", "L", "--fn", "f", "--subspace", "sub"]
    code, out = _run([str(tmp_path / f"{a}.json") if a in docs else a for a in argv], capsys)
    assert code == 2
    err = json.loads(out)
    assert err["error"] == "precondition"
    assert err["detail"] == "denominator hyperplane contains the shifted subspace"


@pytest.mark.parametrize(
    "content, detail",
    [
        pytest.param(b'\xff\xfe{"dim": 1, "terms": []}', "codec can't decode byte 0xff", id="not-utf-8"),
        pytest.param(
            b'{"dim": 1, "terms": [{"idx": [' + b"9" * 5000 + b'], "re": "1", "im": "0"}]}',
            "integer string conversion",
            id="5000-digit-int",
        ),
    ],
)
def test_unreadable_input_file_exit_1(content, detail, capsys, tmp_path):
    # a file that does not decode, or holds an int too long to read, is a parse failure
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out = _run(["poly", "eval", "--poly", str(path), "--point", "1"], capsys)
    assert code == 1
    err = json.loads(out)
    assert err["error"] == "parse"
    assert detail in err["detail"]


def test_utf8_bom_input_files_read_like_the_files_without_it(capsys, tmp_path, monkeypatch):
    # input files are UTF-8; a leading byte-order mark is dropped, whatever the locale
    root = Path(__file__).resolve().parents[1]
    monkeypatch.chdir(root)
    entries = json.loads((root / "perfbench" / "corpus" / "entries.json").read_text())
    entry = next(e for e in entries if e["name"] == "laurent_operator")
    argv = []
    for arg in entry["argv"]:
        if arg.endswith(".json"):
            copy = tmp_path / Path(arg).name
            copy.write_bytes(b"\xef\xbb\xbf" + Path(arg).read_bytes())
            arg = str(copy)
        argv.append(arg)
    assert argv != entry["argv"]
    assert _run(argv, capsys) == _run(entry["argv"], capsys) == (0, entry["stdout"])


@pytest.mark.parametrize(
    "point, field",
    [
        pytest.param("1e99999999", "1/1", id="option"),
        pytest.param("1", "1e999999999", id="file-field"),
        pytest.param("-1E-99999999", "1/1", id="negative-exponent"),
    ],
)
def test_number_with_a_huge_exponent_exit_1_without_expanding_it(point, field, tmp_path):
    # Fraction would build 10**exponent digit by digit; a subprocess with a
    # timeout keeps a regression from hanging the suite
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"dim": 1, "terms": [{"idx": [1], "re": field, "im": "0"}]}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "laurcalc.cli", "poly", "eval", "--poly", str(path), f"--point={point}"],
        env=env, capture_output=True, text=True, timeout=20,
    )
    assert done.returncode == 1
    err = json.loads(done.stdout)
    assert err["error"] == "parse"
