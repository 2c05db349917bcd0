"""tools/line_trace.py: one traced pytest run in a subprocess lists a line
that the selected test does not reach and leaves out one that it runs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _line(path, text):
    """The number of the one line of the file that contains text."""
    (number,) = [i for i, line in enumerate(path.read_text().splitlines(), 1) if text in line]
    return number


def test_line_trace_lists_unrun_lines_only():
    laurent = ROOT / "src" / "laurcalc" / "laurent.py"
    unrun = _line(laurent, 'raise ValueError("embedding is not injective")')
    ran = _line(laurent, "out = out + _evaluate(L.space, s, rationalfn_germ_at(")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    p = subprocess.run(
        [sys.executable, "tools/line_trace.py", "tests/test_laurent.py", "-k", "test_residue_simple_pole"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode == 0, p.stdout + p.stderr
    (row,) = [r for r in p.stdout.splitlines() if r.startswith("src/laurcalc/laurent.py: ")]
    listed = {int(x) for x in row.split("not run:")[1].split()}
    assert unrun in listed and ran not in listed
