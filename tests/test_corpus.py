"""The golden CLI corpus: every entry of perfbench/corpus/entries.json,
replayed through cli.run, gives its recorded exit code and either its
recorded stdout bytes or its recorded error kind, in this process and in
fresh interpreters under fixed hash seeds."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from laurcalc.cli import run

ROOT = Path(__file__).resolve().parent.parent
ENTRIES = json.loads((ROOT / "perfbench" / "corpus" / "entries.json").read_text())

# replays the entries read from stdin and prints [exit code, stdout] for each
REPLAY = """
import contextlib, io, json, sys
from laurcalc.cli import run
results = []
for entry in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(list(entry["argv"]))
    results.append([code, out.getvalue()])
json.dump(results, sys.stdout)
"""


def _check(entry, code, out):
    assert code == entry["exit"], entry["name"]
    if "stdout" in entry:
        assert out == entry["stdout"], entry["name"]
    else:
        assert json.loads(out)["error"] == entry["error"], entry["name"]


@pytest.mark.parametrize("entry", [pytest.param(e, id=e["name"]) for e in ENTRIES])
def test_corpus_entry(entry, monkeypatch, capsys):
    # the file arguments are relative to the repository root
    monkeypatch.chdir(ROOT)
    code = run(list(entry["argv"]))
    _check(entry, code, capsys.readouterr().out)


@pytest.mark.parametrize("seed", ["0", "12345"])
def test_corpus_under_a_hash_seed(seed):
    """The output does not hang on the order of a set or a dict of strings:
    every entry gives the same bytes under another PYTHONHASHSEED."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=seed, PYTHONIOENCODING="utf-8")
    done = subprocess.run(
        [sys.executable, "-c", REPLAY], cwd=ROOT, env=env, input=json.dumps(ENTRIES),
        capture_output=True, text=True, encoding="utf-8", check=True, timeout=120,
    )
    results = json.loads(done.stdout)
    assert len(results) == len(ENTRIES)
    for entry, (code, out) in zip(ENTRIES, results):
        _check(entry, code, out)
