"""The golden CLI corpus: every entry of perfbench/corpus/entries.json,
replayed through cli.run, gives its recorded exit code and either its
recorded stdout bytes or its recorded error kind."""

import json
from pathlib import Path

import pytest

from laurcalc.cli import run

ROOT = Path(__file__).resolve().parent.parent
ENTRIES = json.loads((ROOT / "perfbench" / "corpus" / "entries.json").read_text())


@pytest.mark.parametrize("entry", [pytest.param(e, id=e["name"]) for e in ENTRIES])
def test_corpus_entry(entry, monkeypatch, capsys):
    # the file arguments are relative to the repository root
    monkeypatch.chdir(ROOT)
    code = run(list(entry["argv"]))
    out = capsys.readouterr().out
    assert code == entry["exit"]
    if "stdout" in entry:
        assert out == entry["stdout"]
    else:
        assert json.loads(out)["error"] == entry["error"]
