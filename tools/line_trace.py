"""The lines of laurcalc that a test run never executes.

Runs pytest in this process under ``sys.settrace`` (and
``threading.settrace``), traces only the frames of files in
``src/laurcalc``, and prints, per module, the executable lines that no
test ran.  A line is executable when the compiler gives it a line number
in the module's code objects; a module no test imported counts all of
them.

From the root of a checkout:

    python3 tools/line_trace.py                     # tier-1: the whole suite
    python3 tools/line_trace.py tests/test_laurent.py -k operator

The arguments are passed to pytest as they are.  Subprocesses that a test
starts (the cold CLI runs) are not traced, so what only they run is
listed.  The tool changes no file: bytecode is not written and pytest's
cache is off.  The whole suite takes about twice as long traced.
Only the standard library and pytest are used; the exit status is
pytest's.
"""

from __future__ import annotations

import os
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "laurcalc")


def executable_lines(path):
    """The line numbers of every code object compiled from the file."""
    with open(path) as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        # a module's code starts at line 0, which is no line of the file
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def run_traced(pytest_args):
    """(pytest's exit status, {absolute path: lines run}) for one pytest
    run in this process."""
    import pytest

    ran, inside = {}, {}
    prefix = PACKAGE + os.sep

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        keep = inside.get(name)
        if keep is None:
            keep = inside[name] = os.path.abspath(name).startswith(prefix)
            if keep:
                ran[name] = set()
        return local if keep else None

    sys.dont_write_bytecode = True
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    out = {}
    for name, lines in ran.items():
        out.setdefault(os.path.abspath(name), set()).update(lines)
    return status, out


def report(ran):
    """One line per module of the package: its unrun executable lines."""
    rows = []
    for file in sorted(os.listdir(PACKAGE)):
        if not file.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, file)
        lines = executable_lines(path)
        unrun = sorted(lines - ran.get(path, set()))
        shown = " ".join(map(str, unrun))
        rows.append(f"src/laurcalc/{file}: {len(unrun)} of {len(lines)} lines not run: {shown}".rstrip())
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    status, ran = run_traced(argv)
    print("lines no test ran, per module:")
    for row in report(ran):
        print(row)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
