"""The laurcalc modules that each cold start of the benchmark loads, with
the time each one takes to import.

For every ``COLD`` entry of ``perfbench/wl_*.py`` (the corpus commands
that ``perfbench/run.py`` times as fresh ``python -m laurcalc.cli``
processes), the command runs once under ``python -X importtime -m
laurcalc.cli`` from the root of the checkout.  Printed per entry: its exit
status, the laurcalc modules it loaded in import order with the self time
of each import, their sum, and the self time of every import of the
process.  Next to each module stand the lines of its source file and the
time of one ``compile()`` of that source in this process.
``laurcalc.cli`` itself runs as ``__main__`` and is not an import, so it
has no import time, but it is compiled on every cold start too: its lines
and compile time close the list.  One run per entry, so each time is that
of a single cold start.

With ``PYTHONDONTWRITEBYTECODE=1`` and no ``__pycache__`` in the
checkout, every cold start compiles each module it imports from source,
so the self time of an import is mostly its compile time; the compile
column shows how much.

Example, from the root of a checkout:

    python3 tools/import_cost.py
    python3 tools/import_cost.py --entry rootsys_weyl_A3 --entry series_mul

The ``COLD`` lists are read from the workload sources with ``ast``, so the
tool imports nothing of laurcalc or perfbench.  Only the standard library
is used.
"""

from __future__ import annotations

import argparse
import ast
import glob
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PERFBENCH = os.path.join(ROOT, "perfbench")
CORPUS = os.path.join(PERFBENCH, "corpus", "entries.json")


def cold_entries():
    """(workload, entry name) for each ``COLD`` name of perfbench/wl_*.py."""
    out = []
    for path in sorted(glob.glob(os.path.join(PERFBENCH, "wl_*.py"))):
        workload = os.path.basename(path)[len("wl_") : -len(".py")]
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "COLD" for t in node.targets):
                out += [(workload, name) for name in ast.literal_eval(node.value)]
    return out


def import_times(argv):
    """(exit status, [(module, self ms)] in import order) of one cold start
    of ``python -m laurcalc.cli`` with argv."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, "-X", "importtime", "-m", "laurcalc.cli", *argv]
    p = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    rows = []
    for line in p.stderr.splitlines():
        if line.startswith("import time:") and "self [us]" not in line:
            self_us, _, name = line[len("import time:") :].split("|")
            rows.append((name.strip(), int(self_us) / 1e3))
    return p.returncode, rows


def source_cost(module):
    """(lines, ms of one ``compile()``) of the source file of a laurcalc
    module, read from the checkout without importing it."""
    path = os.path.join(SRC, *module.split("."))
    path = os.path.join(path, "__init__.py") if os.path.isdir(path) else path + ".py"
    with open(path) as fh:
        source = fh.read()
    start = time.perf_counter()
    compile(source, path, "exec")
    return source.count("\n"), (time.perf_counter() - start) * 1e3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--entry", action="append", help="only this corpus entry (repeatable)")
    args = ap.parse_args(argv)
    with open(CORPUS) as fh:
        commands = {e["name"]: e["argv"] for e in json.load(fh)}
    entries = [(workload, name) for workload, name in cold_entries() if not args.entry or name in args.entry]
    if not entries:
        print("import_cost: no COLD entry matches", file=sys.stderr)
        return 1
    for workload, name in entries:
        code, rows = import_times(commands[name])
        ours = [(module, ms) for module, ms in rows if module.split(".")[0] == "laurcalc"]
        print(f"{workload} {name}: exit {code}, laurcalc {sum(ms for _, ms in ours):.1f} ms "
              f"of {sum(ms for _, ms in rows):.1f} ms of imports")
        for module, ms in ours + [("laurcalc.cli", None)]:
            lines, compile_ms = source_cost(module)
            imported = "__main__" if ms is None else f"{ms:7.2f} ms"
            print(f"  {module:<20} {imported:>10} {lines:5d} lines {compile_ms:6.2f} ms compile")
    return 0


if __name__ == "__main__":
    sys.exit(main())
