"""Lazy loading: the package exports resolve on first access, and a command
loads only the layers of its verb."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import laurcalc

ROOT = Path(__file__).resolve().parents[1]
CORPUS = "perfbench/corpus/files/"

# the exports of the package as they were when every module was imported
# eagerly, by the module that defined each name then
EXPORTS = {
    "scalars": ["GQ", "gq_from_string", "gq_to_string"],
    "space": ["ArityError", "Space"],
    "poly": ["DiffOp", "Polynomial", "j_map", "leibniz_flatten", "pi_product", "quotient_rule"],
    "config": [
        "Configuration", "Hyperplane", "XSubspace", "canonical_normal", "hyperplanes_through", "induced_config",
        "pi_omega_d", "subspace_from",
    ],
    "germs": [
        "Germ", "RationalFn", "germ_add", "germ_constant", "germ_diff", "germ_mul", "germ_normalize",
        "rationalfn_germ_at", "rationalfn_restrict",
    ],
    "laurent": [
        "LFSummand", "LaurentFunctional", "LaurentOrderError", "laurent_operator_apply", "lf_annihilator_witness",
        "lf_apply", "lf_apply_rational", "lf_diagonal_apply", "lf_diff_action", "lf_from_evaluation",
        "lf_mul_action", "lf_pullback_fn", "lf_pushforward", "lf_residue", "transverse_space",
    ],
    "rootsys": [
        "BUILTIN_NAMES", "Lattice", "ParabolicData", "RootSystem", "WeylElement", "builtin_system", "class_lub",
        "double_cosets", "equiv_PQ", "equiv_delta", "exponent_classify", "generic_witness",
        "min_coset_reps", "preceq_delta", "wq_subgroup",
    ],
    "series": [
        "ExpPolySeries", "RestrictedSeries", "series_diffop", "series_exponents", "series_mul", "series_restrict",
        "series_split",
    ],
}
LAYERS = {"config", "germs", "laurent", "lattice", "rootsys", "series"}


def test_exports_are_unchanged():
    names = [name for names in EXPORTS.values() for name in names]
    assert len(names) == len(set(names)) == 65
    assert sorted(laurcalc.__all__) == sorted(names)
    for module, names in EXPORTS.items():
        mod = importlib.import_module(f"laurcalc.{module}")
        for name in names:
            assert getattr(laurcalc, name) is getattr(mod, name), name
    star = {}
    exec("from laurcalc import *", star)
    assert all(star[name] is getattr(laurcalc, name) for name in names)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        laurcalc.no_such_name
    from laurcalc import cli, io, linalg  # submodules, not exports

    assert (cli.__name__, io.__name__, linalg.__name__) == ("laurcalc.cli", "laurcalc.io", "laurcalc.linalg")


def _loaded(probe):
    """The laurcalc modules, without the package prefix, that a fresh
    interpreter (no site) holds after running the probe."""
    probe += "\nimport sys; print(' '.join(sorted(m[9:] for m in sys.modules if m.startswith('laurcalc.'))))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-S", "-c", probe], cwd=ROOT, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def _after_run(argv):
    return _loaded(
        "import contextlib, io, laurcalc.cli\n"
        f"with contextlib.redirect_stdout(io.StringIO()): assert laurcalc.cli.run({argv!r}) == 0"
    )


def test_package_and_one_name_load_only_their_module():
    assert _loaded("import laurcalc") == set()
    assert _loaded("import laurcalc; laurcalc.Lattice") == {"lattice", "linalg", "scalars"}


def test_cli_import_loads_no_layer():
    assert not _loaded("import laurcalc.cli") & LAYERS


@pytest.mark.parametrize(
    "argv, absent",
    [
        pytest.param(
            ["rootsys", "weyl", "--system", "A3"], {"poly", "config", "germs", "laurent", "series"}, id="rootsys"
        ),
        pytest.param(
            ["rootsys", "cosets", "--system-file", CORPUS + "rootsys_b2.json", "--deltaQ", "0"],
            {"poly", "config", "germs", "laurent", "series"},
            id="rootsys-file",
        ),
        pytest.param(
            ["series", "mul", "--a", CORPUS + "series_a.json", "--b", CORPUS + "series_b.json"],
            {"config", "germs", "laurent", "rootsys"},
            id="series",
        ),
    ],
)
def test_verb_loads_only_its_layer(argv, absent):
    loaded = _after_run(argv)
    assert argv[0] in loaded and not loaded & absent


def test_verify_check_loads_only_its_layer():
    loaded = _after_run(["verify", "--suite", "weyl-orders"])
    assert {"rootsys", "lattice"} <= loaded and not loaded & {"poly", "config", "germs", "laurent", "series"}


def test_poly_verb_loads_no_layer_above_poly():
    argv = ["poly", "mul", "--a", CORPUS + "poly_a.json", "--b", CORPUS + "poly_b.json"]
    assert _after_run(argv) == {"scalars", "linalg", "space", "poly", "io", "cli"}


def test_rootsys_verb_loads_no_polynomial_code():
    assert _after_run(["rootsys", "weyl", "--system", "A3"]) == {
        "scalars", "linalg", "space", "io", "cli", "lattice", "rootsys",
    }
