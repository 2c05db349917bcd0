"""No dead public names: every public module-level function and class of
the library is read somewhere outside its own definition, in the library
(``__init__.py``, which only re-exports, excluded), the tests or the
benchmark scripts.  Also, the package version matches pyproject.toml."""

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


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert laurcalc.__version__ == meta["project"]["version"]
