"""No dead public names: every public module-level function and class of
the library is read somewhere outside its own definition, in the library
(``__init__.py``, which only re-exports, excluded), the tests or the
benchmark scripts, and every defaulted parameter of a public module-level
function is passed by some call there.  No library function only forwards
its parameters to another name, apart from the listed ones.  Also, the
package version matches pyproject.toml."""

import ast
from pathlib import Path

import pytest

import laurcalc

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted(p for p in (ROOT / "src" / "laurcalc").glob("*.py") if p.name != "__init__.py")
READERS = LIBRARY + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _reads(node):
    """The names a statement reads, as plain names or attributes; an import
    alone is not a read."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def test_every_public_name_is_read():
    statements = []  # (path, top-level statement, names it reads)
    for path in READERS:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            statements.append((path, node, set(_reads(node))))
    dead = [
        f"{path.relative_to(ROOT)}: {node.name}"
        for path, node, _ in statements
        if path in LIBRARY
        and isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not any(node.name in reads for _, other, reads in statements if other is not node)
    ]
    assert not dead, f"public names nothing reads: {dead}"


def _calls(tree):
    """(callee name, positional arguments, keywords) for every call in tree.
    A function passed as an argument, as to a tracer's call(name, fn, *args),
    is credited with the arguments after it."""
    def name(node):
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    for n in ast.walk(tree):
        if isinstance(n, ast.Call):
            yield name(n.func), n.args, n.keywords
            for i, a in enumerate(n.args):
                if name(a):
                    yield name(a), n.args[i + 1 :], n.keywords


def _passes(args, keywords, param, index):
    """Whether a call with these arguments may set the parameter: by keyword,
    through ``**``, by position (index None for keyword-only) or through ``*``."""
    if any(k.arg in (param, None) for k in keywords):
        return True
    if index is None:
        return False
    return len(args) > index or any(isinstance(a, ast.Starred) for a in args[: index + 1])


def test_every_defaulted_parameter_is_passed():
    calls = [c for path in READERS for c in _calls(ast.parse(path.read_text(), filename=str(path)))]
    dead = []
    for path in LIBRARY:
        for fn in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            a = fn.args
            positional = a.posonlyargs + a.args
            defaulted = [(p.arg, positional.index(p)) for p in positional[len(positional) - len(a.defaults) :]]
            defaulted += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            for param, index in defaulted:
                if not any(callee == fn.name and _passes(args, kws, param, index) for callee, args, kws in calls):
                    dead.append(f"{fn.name}({param})")
    assert not dead, f"defaulted parameters no call passes: {dead}"


# forwarding wrappers kept on purpose, each with its reason
FORWARDERS = {
    "series_restrict": "perfbench/wl_series.py imports it; the benchmark PR (ROADMAP item 7) retires it",
}


def _forwards(fn):
    """Whether the whole body of fn, after a docstring, returns a call of a
    plain or dotted name with exactly fn's positional parameters, in order."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    if len(body) != 1 or not isinstance(body[0], ast.Return) or not isinstance(body[0].value, ast.Call):
        return False
    call = body[0].value
    callee = call.func
    while isinstance(callee, ast.Attribute):
        callee = callee.value
    params = [p.arg for p in fn.args.posonlyargs + fn.args.args]
    return (
        isinstance(callee, ast.Name)
        and not call.keywords
        and [getattr(a, "id", None) for a in call.args] == params
    )


def test_no_function_only_forwards_a_call():
    """Aim 2: no wrapper that only passes its parameters on to another name."""
    found = [
        f"{path.relative_to(ROOT)}: {fn.name}"
        for path in LIBRARY
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(fn, ast.FunctionDef) and fn.name not in FORWARDERS and _forwards(fn)
    ]
    assert not found, f"functions that only forward a call: {found}"


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert laurcalc.__version__ == meta["project"]["version"]
