"""tools/import_cost.py: the COLD entries of the four workloads are found,
and one cold start lists the laurcalc modules of its verb's layer with
their import times, source lines and compile times."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("import_cost", ROOT / "tools" / "import_cost.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_cold_entries_of_every_workload():
    entries = _tool().cold_entries()
    assert {w for w, _ in entries} == {"cli", "residue", "series", "weyl"}
    assert ("weyl", "rootsys_weyl_A3") in entries and ("series", "series_mul") in entries


def test_one_rootsys_entry(capsys):
    assert _tool().main(["--entry", "rootsys_weyl_A3"]) == 0
    out = capsys.readouterr().out
    head, *rows = out.splitlines()
    assert re.fullmatch(r"weyl rootsys_weyl_A3: exit 0, laurcalc [0-9.]+ ms of [0-9.]+ ms of imports", head)
    row = re.compile(r"  (\S+) +([0-9.]+ ms|__main__) +(\d+) lines +([0-9.]+) ms compile")
    *imported, main = [row.fullmatch(line) for line in rows]
    assert all(imported) and all(m.group(2) != "__main__" for m in imported)
    modules = [m.group(1) for m in imported]
    assert {"laurcalc.space", "laurcalc.lattice", "laurcalc.rootsys"} <= set(modules)
    assert not {"laurcalc.poly", "laurcalc.germs", "laurcalc.laurent", "laurcalc.series"} & set(modules)
    # each module's lines are those of its source file, and cli, run as __main__, closes the list
    assert main.group(1, 2) == ("laurcalc.cli", "__main__")
    for m in imported + [main]:
        path = ROOT / "src" / m.group(1).replace(".", "/")
        path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
        assert int(m.group(3)) == path.read_text().count("\n") and float(m.group(4)) > 0


def test_no_matching_entry(capsys):
    assert _tool().main(["--entry", "no_such_entry"]) == 1
