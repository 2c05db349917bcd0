"""cProfile over warm passes of one benchmark workload, without the
benchmark's timing loop.

The task list is the one ``perfbench/run.py`` times: ``generate(seed,
rounds)`` of the workload module.  One warm-up pass over the first round
runs unprofiled, then ``--passes`` passes over the whole list run under
cProfile, each task through an untraced ``common.NullTracer`` and its
exact checks.  The speed calibration of ``perfbench/speed.py`` is not
run, so it does not appear in the profile.

Printed: the library share (cumulative time under ``NullTracer.call``,
the wrapper of every call the benchmark makes into ``laurcalc``, over
the time of the passes), the top library functions by self time, and for
each ``--count`` name the calls of every function of that name with
their callers.  A name is a function name (``inner``) or a qualified one
(``Space.inner``, ``space.Space.inner``, ``config._canonical``).

Example, from the root of a checkout:

    python3 tools/profile_pass.py --workload residue --seed 1 --passes 2 \\
        --count canonical_normal --count _canonical --count _over_lcm

It imports ``perfbench/common.py`` and the ``wl_*.py`` module but not
``perfbench/run.py``, which pins the process to one CPU when imported.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import os
import pstats
import sys
import time
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
LIBRARY = os.path.join(ROOT, "src", "laurcalc") + os.sep
# rounds in one pass, as PASS_ROUNDS in perfbench/run.py (a test keeps the two equal)
ROUNDS = {"residue": 120, "weyl": 24, "series": 100, "cli": 2}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=2)
    ap.add_argument("--top", type=int, default=25, help="library functions listed by self time")
    ap.add_argument("--count", action="append", default=[], metavar="NAME", help="report the calls of functions of this name")
    return ap.parse_args(argv)


def _label(func):
    """'module:line(name)' for a pstats key, the module relative to src/."""
    path, line, name = func
    if path.startswith(LIBRARY):
        path = "laurcalc/" + path[len(LIBRARY):]
    else:
        path = os.path.basename(path)
    return f"{path}:{line}({name})"


def _matches(func, name, qualnames):
    """Whether the pstats key func is a function called ``name``; a dotted
    name also matches on the module and the enclosing class."""
    path, _, fname = func
    *outer, last = name.split(".")
    if fname != last:
        return False
    if not outer:
        return True
    qual = qualnames.get(func, fname)
    module = os.path.splitext(os.path.basename(path))[0]
    return f".{module}.{qual}".endswith("." + name)


def _qualnames():
    """pstats keys to qualified names, for the functions and methods
    (static and class methods and property getters too) of every loaded
    module."""
    out = {}
    for mod in list(sys.modules.values()):
        for obj in list(vars(mod).values()):
            members = list(vars(obj).values()) if isinstance(obj, type) else [obj]
            for fn in members:
                fn = fn.fget if isinstance(fn, property) else fn
                fn = fn.__func__ if isinstance(fn, (staticmethod, classmethod)) else fn
                if isinstance(fn, types.FunctionType):
                    code = fn.__code__
                    out[(code.co_filename, code.co_firstlineno, code.co_name)] = fn.__qualname__
    return out


def profile(workload, seed, passes):
    """(pstats.Stats, seconds of the profiled passes, tasks, failures)."""
    for path in (os.path.join(ROOT, "src"), PERFBENCH):
        if path not in sys.path:
            sys.path.insert(0, path)
    wl = importlib.import_module(f"wl_{workload}")
    from common import NullTracer

    rnds = wl.generate(seed, ROUNDS[workload])
    tasks = [t for rnd in rnds for t in rnd]
    failures = []

    def run(task_list):
        for task in task_list:
            try:
                wl.run(NullTracer(), task, wl.new_stats())
            except Exception as e:  # noqa: BLE001 - a failed task is reported, not fatal
                failures.append(f"{task['family']}: {type(e).__name__}: {e}")

    run(rnds[0])
    failures.clear()
    prof = cProfile.Profile()
    t0 = time.perf_counter()
    prof.enable()
    for _ in range(passes):
        run(tasks)
    prof.disable()
    return pstats.Stats(prof), time.perf_counter() - t0, len(tasks), failures


def report(stats, seconds, counts, top):
    raw = stats.stats  # key -> (primitive calls, calls, self time, cumulative time, callers)
    pass_s = sum(raw[k][2] for k in raw)
    lib_s = sum(v[3] for k, v in raw.items() if k[2] == "call" and k[0].endswith(os.sep + "common.py"))
    print(f"profiled time {pass_s:.3f} s (wall {seconds:.3f} s); library {lib_s:.3f} s, share {lib_s / pass_s:.1%}")
    lib = sorted((k for k in raw if k[0].startswith(LIBRARY)), key=lambda k: -raw[k][2])
    print(f"top {top} library functions by self time:")
    print(f"  {'self_s':>8} {'cum_s':>8} {'calls':>9}  function")
    for k in lib[:top]:
        _, calls, tt, ct, _ = raw[k]
        print(f"  {tt:8.3f} {ct:8.3f} {calls:9d}  {_label(k)}")
    qualnames = _qualnames() if any("." in n for n in counts) else {}
    for name in counts:
        found = [k for k in raw if _matches(k, name, qualnames)]
        total = sum(raw[k][1] for k in found)
        print(f"calls of {name}: {total}")
        for k in found:
            print(f"  {raw[k][1]:9d}  {_label(k)}")
            callers = raw[k][4]
            for c in sorted(callers, key=lambda c: -callers[c][1]):
                print(f"  {callers[c][1]:9d}    from {_label(c)}")


def main(argv=None):
    args = parse_args(argv)
    stats, seconds, ntasks, failures = profile(args.workload, args.seed, args.passes)
    print(f"{args.workload} seed {args.seed}: {args.passes} warm passes over {ntasks} tasks under cProfile")
    report(stats, seconds, args.count, args.top)
    for f in failures[:10]:
        print(f"FAILURE {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
