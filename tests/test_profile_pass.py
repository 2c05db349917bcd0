"""tools/profile_pass.py: one warm residue round and one cli round under cProfile report a
library share, library functions by self time and the calls of a named
function, without importing perfbench/run.py (which pins the CPU)."""

import ast
import importlib.util
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("profile_pass", ROOT / "tools" / "profile_pass.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_rounds_match_the_benchmark():
    """The tool's copy of the rounds per pass equals PASS_ROUNDS in
    perfbench/run.py, read from its source without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    node = next(
        n for n in tree.body
        if isinstance(n, ast.Assign) and any(getattr(t, "id", None) == "PASS_ROUNDS" for t in n.targets)
    )
    assert _tool().ROUNDS == ast.literal_eval(node.value)


def test_one_residue_round(capsys, monkeypatch):
    tool = _tool()
    monkeypatch.setitem(tool.ROUNDS, "residue", 1)
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    argv = ["--workload", "residue", "--seed", "1", "--passes", "1", "--top", "5",
            "--count", "config._canonical", "--count", "Space.inner", "--count", "Polynomial.linear"]
    code = tool.main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    share = float(re.search(r"share ([0-9.]+)%", out).group(1))
    assert 0 < share <= 100
    top = out.split("by self time:\n")[1].split("calls of")[0].splitlines()[1:]
    assert len(top) == 5 and all(" laurcalc/" in line for line in top)
    assert re.search(r"calls of config\._canonical: \d+", out)
    inner = int(re.search(r"calls of Space\.inner: (\d+)", out).group(1))
    assert inner > 0 and "laurcalc/space.py" in out.split("calls of Space.inner")[1]
    # a static method is found by its qualified name
    assert int(re.search(r"calls of Polynomial\.linear: (\d+)", out).group(1)) > 0
    assert not any(str(getattr(m, "__file__", "")).endswith(os.path.join("perfbench", "run.py")) for m in list(sys.modules.values()))
    if cpus is not None:
        assert os.sched_getaffinity(0) == cpus


def test_one_cli_round(capsys, monkeypatch):
    tool = _tool()
    monkeypatch.setitem(tool.ROUNDS, "cli", 1)
    argv = ["--workload", "cli", "--seed", "1", "--passes", "1", "--top", "5",
            "--count", "io.poly_from_json", "--count", "gq_from_string"]
    code = tool.main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    share = float(re.search(r"share ([0-9.]+)%", out).group(1))
    assert 0 < share <= 100
    top = out.split("by self time:\n")[1].split("calls of")[0].splitlines()[1:]
    assert len(top) == 5 and all(" laurcalc/" in line for line in top)
    # the corpus documents are read by the io readers, and the options by gq_from_string
    assert int(re.search(r"calls of io\.poly_from_json: (\d+)", out).group(1)) > 0
    assert "laurcalc/io.py" in out.split("calls of io.poly_from_json")[1]
    assert int(re.search(r"calls of gq_from_string: (\d+)", out).group(1)) > 0
