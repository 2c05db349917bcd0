"""tools/import_cost.py: the COLD entries of the four workloads are found,
and one cold start lists the laurcalc modules of its verb's layer with
their import times."""

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
    modules = [re.fullmatch(r"  (\S+) +([0-9.]+) ms", row).group(1) for row in rows]
    assert {"laurcalc.poly", "laurcalc.lattice", "laurcalc.rootsys"} <= set(modules)
    assert not {"laurcalc.germs", "laurcalc.laurent", "laurcalc.series"} & set(modules)


def test_no_matching_entry(capsys):
    assert _tool().main(["--entry", "no_such_entry"]) == 1
