"""``cli`` workload: the committed golden corpus replayed in-process
through ``laurcalc.cli.run``, stdout captured and compared byte for byte.

The corpus (``corpus/entries.json``) holds one entry per verb and op of
``cli.py`` plus the error paths, each with its expected exit code and
stdout bytes.  Entries marked ``known_defect`` expect the documented exit
code, which the program does not give yet; they are left out of the timed
passes and checked once per run by ``known_defects``.  Entries
marked ``io`` also have their output read back with the matching
``laurcalc.io`` reader and written again, which must give the same bytes.
This is the only workload that pays for argparse, JSON parse and emit,
and a fresh root system on every call.  The seed sets the order in which
each pass visits the corpus.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

from laurcalc import cli

from common import IO_TYPES, check

NAME = "cli"
CORPUS = os.path.join("perfbench", "corpus", "entries.json")
# cold subprocesses: polynomial, Laurent and root-system verbs, all expected to succeed
COLD = ["poly_mul", "laurent_operator", "rootsys_cosets"]

def load_corpus():
    with open(CORPUS) as fh:
        return json.load(fh)


def generate(seed, rounds):
    """Rounds that are whole passes over the corpus entries that are not
    known defects, each in its own seeded order."""
    entries = [dict(e, family="entry") for e in load_corpus() if not e.get("known_defect")]
    rng = random.Random(f"{NAME}:{seed}")
    return [rng.sample(entries, len(entries)) for _ in range(rounds)]


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def check_output(entry, code, out):
    """Exit code and stdout bytes against the corpus entry."""
    check(code == entry["exit"], f"{entry['name']}: exit {code}, expected {entry['exit']}")
    if "stdout" in entry:
        check(out == entry["stdout"], f"{entry['name']}: stdout differs from the corpus")
    else:
        check(json.loads(out).get("error") == entry["error"], f"{entry['name']}: expected a {entry['error']} error")


def run(tr, t, stats):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tr.call("cli.run", cli.run, list(t["argv"]))
    text = out.getvalue()
    check_output(t, code, text)
    if "io" in t:
        read, write = IO_TYPES[t["io"]]
        obj = tr.call(f"io.{read.__name__}", read, json.loads(text))
        again = tr.call(f"io.{write.__name__}", write, obj)
        check(dumps(again) == text, f"{t['name']}: io read-back does not reproduce stdout")
    return f"{t['name']}:{code}:{text}"


def known_defects(tr):
    """(name, None if the entry now gives its documented output, else the
    mismatch) for each ``known_defect`` entry, run once through ``run``."""
    results = []
    for entry in load_corpus():
        if entry.get("known_defect"):
            try:
                run(tr, entry, None)
                results.append((entry["name"], None))
            except Exception as e:  # noqa: BLE001 - reported by name, not fatal
                results.append((entry["name"], f"{type(e).__name__}: {e}"))
    return results


def new_stats():
    return {}


# corpus input files are named after the io type they hold
FILE_TYPES = {"poly_": "poly", "diffop": "diffop", "config": "config", "germ_": "germ", "fn_": "rationalfn", "functional_": "functional", "series_": "series"}


def _polys(kind, obj):
    if kind == "poly":
        return [obj]
    if kind == "diffop":
        return [obj.symbol()]
    if kind == "rationalfn":
        return [obj.numerator]
    if kind == "germ":
        return [obj.jet]
    if kind == "functional":
        return [s.u.symbol() for s in obj.summands]
    if kind == "series":
        return [p for ps in obj.terms.values() for p in ps]
    return []


def operands(tasks):
    """Scalars, matrices, polynomials, delta sets and io objects read with
    the io readers from the input files of the corpus entries that succeed."""
    files = sorted({a for t in tasks if t["exit"] == 0 for a in t["argv"] if a.endswith(".json")})
    io_objs = []
    for path in files:
        kind = next((k for prefix, k in FILE_TYPES.items() if os.path.basename(path).startswith(prefix)), None)
        if kind is not None:
            with open(path) as fh:
                io_objs.append((kind, IO_TYPES[kind][0](json.load(fh))))
    scalars, matrices, polys, deltas = [], [], [], []
    for kind, obj in io_objs:
        for p in _polys(kind, obj):
            scalars += list(p.terms.values())
    for kind, obj in io_objs:
        for p in _polys(kind, obj):
            point = scalars[: p.dim]
            polys.append((p, point, ([1] + [0] * (p.dim - 1), point[0])))
        space = getattr(obj, "space", None)
        if space is not None:
            matrices.append(([list(r) for r in space.ip], scalars[: space.dim]))
        if kind == "series":
            lead = list(obj.leaders[0])
            deltas += [(obj.delta, [a - b for a, b in zip(lead, xi)]) for xi in obj.terms]
    return dict(scalars=scalars, matrices=matrices, polys=polys, io=io_objs, deltas=deltas)
