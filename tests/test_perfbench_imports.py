"""Every name the benchmark scripts import from laurcalc still resolves,
so a refactor that drops one fails here rather than in the benchmark."""

import ast
import importlib
import importlib.util
from pathlib import Path

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))


def _imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "laurcalc":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "laurcalc":
                    yield alias.name, None


def test_benchmark_imports_resolve():
    found = [(path.name, module, name) for path in SCRIPTS for module, name in _imports(path)]
    assert found, "no laurcalc import found under perfbench/"
    for script, module, name in found:
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name) or importlib.util.find_spec(f"{module}.{name}") is not None, (
                f"perfbench/{script} imports {name} from {module}, which no longer has it"
            )
