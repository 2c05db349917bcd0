"""Record every call one benchmark workload makes into ``laurcalc``, with
its result, as JSON lines, so that two checkouts can be compared byte for
byte.

For each seed, the task list is the one ``tools/profile_pass.py`` builds
(``generate(seed, rounds)`` of the workload module), and one pass runs
over it with no timing.  The tracer's ``call`` writes one line per call:
the seed, the task's index in the list, the span name, and either the
result or the type and message of what it raised.  A result is written
with the ``common.IO_TYPES`` writer of its type, a ``GQ`` with
``gq_to_string``, an int, string or None as itself, a list, tuple or
dict item by item, an object without its own ``repr`` as its type and
public fields, and anything else with ``repr``.  After each task, one
line with the span ``task`` holds the task's canonical output string,
as the benchmark digests it.

Example, from the root of each checkout:

    python3 tools/record_calls.py --workload residue --seeds 1-10 --out calls.jsonl

and then ``cmp`` the two files.  Only the standard library is used, and
nothing is written but the output file.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

sys.path[:0] = [os.path.dirname(os.path.abspath(__file__))]
from profile_pass import PERFBENCH, ROOT, ROUNDS  # noqa: E402

sys.path[:0] = [os.path.join(ROOT, "src"), PERFBENCH]
from common import IO_TYPES, NullTracer  # noqa: E402

from laurcalc import gq_to_string  # noqa: E402

# the IO_TYPES writers by the class name their argument is annotated with
WRITERS = {}
for _, _writer in IO_TYPES.values():
    _ann = next(iter(_writer.__annotations__.values()))
    WRITERS[getattr(_ann, "__name__", _ann)] = _writer


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    ap.add_argument("--seeds", required=True, help="one seed (3) or an inclusive range (1-10)")
    ap.add_argument("--out", required=True, help="the JSON lines file to write")
    return ap.parse_args(argv)


def _seeds(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def _text(x):
    """A JSON value for the result x; see the module docstring."""
    name = type(x).__name__
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if name in WRITERS:
        return WRITERS[name](x)
    if name == "GQ":
        return gq_to_string(x)
    if isinstance(x, (list, tuple)):
        return [_text(v) for v in x]
    if isinstance(x, dict):
        return [[_text(k), _text(v)] for k, v in x.items()]
    if type(x).__repr__ is object.__repr__:
        fields = getattr(x, "__dict__", None) or {s: getattr(x, s) for s in getattr(type(x), "__slots__", ())}
        return {"type": name, **{k: _text(v) for k, v in fields.items() if not k.startswith("_")}}
    return repr(x)


class Recorder(NullTracer):
    """Writes a line for each call, under the seed and task it is given."""

    def __init__(self, fh):
        self.fh, self.seed, self.task = fh, None, None

    def write(self, span, key, value):
        line = {"seed": self.seed, "task": self.task, "span": span, key: value}
        self.fh.write(json.dumps(line) + "\n")

    def call(self, name, fn, *args, **kw):
        try:
            result = fn(*args, **kw)
        except Exception as e:
            self.write(name, "raised", f"{type(e).__name__}: {e}")
            raise
        self.write(name, "result", _text(result))
        return result


def record(workload, seeds, out):
    """Write the lines of ``workload`` over ``seeds`` to the file out;
    returns the number of tasks that failed."""
    wl = importlib.import_module(f"wl_{workload}")
    failed = 0
    with open(out, "w", encoding="utf-8") as fh:
        tr = Recorder(fh)
        for seed in seeds:
            tr.seed = seed
            tasks = [t for rnd in wl.generate(seed, ROUNDS[workload]) for t in rnd]
            for index, task in enumerate(tasks):
                tr.task = index
                try:
                    tr.write("task", "result", wl.run(tr, task, wl.new_stats()))
                except Exception as e:  # noqa: BLE001 - a failed task is recorded, not fatal
                    failed += 1
                    tr.write("task", "raised", f"{type(e).__name__}: {e}")
    return failed


def main(argv=None):
    args = parse_args(argv)
    failed = record(args.workload, _seeds(args.seeds), args.out)
    print(f"{args.workload} seeds {args.seeds}: written to {args.out}; {failed} tasks failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
