"""Benchmark of laurcalc: seeded workloads against its public API, every
output checked exactly.

Run from the root of a checkout:

    python3 perfbench/run.py --workload residue --seed 1 --seconds 15 --trace 0

Workloads: residue, weyl, series, cli (see the ``wl_*.py`` modules and
``BENCHMARK.json``).  One process is one client in a closed loop: the
next task starts when the previous one returns; cold-start subprocesses
run one at a time.  The library is imported from ``src/`` of the
checkout and receives only the generated inputs.

Both kinds of run make passes over one seeded list of at least 100
tasks until ``--seconds`` have gone.  ``--trace 0`` measures the
end-to-end metrics from at least three untraced passes, then the cold
starts and the set-up probes.  ``--trace 1`` gives the per-layer
metrics: untraced and traced passes in turn, with one span around each
call the benchmark makes into a module of ``laurcalc``, then the kernel
replay rows; it writes the spans and the full per-layer table to
``perfbench/out/``.  Timings are stated at a reference machine speed
(``speed.py``).

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os
import time

from speed import at_reference_speed, calibration_s, subprocess_at_reference, timed

# One CPU for the run and its subprocesses, so that each timing and the
# calibration loops next to it run in the same speed state.
try:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
except (AttributeError, OSError):
    pass
CAL_AT_START = calibration_s()
T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
ENV = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")

WORKLOADS = ("residue", "weyl", "series", "cli")
# rounds in one pass over the task list: at least 100 tasks, so that ten
# latencies lie beyond the 90th percentile
PASS_ROUNDS = {"residue": 120, "weyl": 24, "series": 100, "cli": 2}
MIN_PASSES = 3
COLD_REPEATS = 7
SETUP_PROBES = 2
IMPORT_PROBES = 5
# layers the benchmark calls into; scalars and linalg are measured by replay only
LAYERS = ("poly", "config", "germs", "laurent", "rootsys", "series", "io", "cli")
# per-layer rows read from span durations: metric -> (span name, unit scale)
SPAN_ROWS = {
    "poly.j_map_ms": ("poly.j_map", 1e3),
    "germs.germ_at_ms": ("germs.rationalfn_germ_at", 1e3),
    "laurent.apply_rational_ms": ("laurent.lf_apply_rational", 1e3),
    "laurent.operator_ms": ("laurent.laurent_operator_apply", 1e3),
    "rootsys.builtin_system_ms": ("rootsys.builtin_system", 1e3),
    "rootsys.weyl_group_ms": ("rootsys.RootSystem.weyl_group", 1e3),
    "rootsys.min_coset_reps_ms": ("rootsys.min_coset_reps", 1e3),
    "rootsys.equiv_PQ_ms": ("rootsys.equiv_PQ", 1e3),
    "rootsys.generic_witness_ms": ("rootsys.generic_witness", 1e3),
    "series.mul_ms": ("series.series_mul", 1e3),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="print the set-up time and exit (used by set-up probes)")
    return ap.parse_args(argv)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"]}, {m["name"]: m for m in spec["per_layer"]}


# -- running tasks ---------------------------------------------------------------


class Run:
    """Tasks run and their outcomes; a failed task is counted and the run goes on."""

    def __init__(self, wl):
        self.wl = wl
        self.latencies = []  # seconds at reference speed (see speed.py)
        self.outputs = []
        self.failures = []
        self._cal = None

    def task(self, tr, task, task_id, stats):
        before = self._cal or calibration_s()
        tr.begin_task(task_id, task["family"])
        t0 = time.perf_counter()
        try:
            out = self.wl.run(tr, task, stats)
        except Exception as e:  # noqa: BLE001 - a failed task is recorded, not fatal
            self.failures.append((task.get("name", task["family"]), f"{type(e).__name__}: {e}"))
            out = f"FAILED {type(e).__name__}"
        finally:
            tr.end_task()
        dt = time.perf_counter() - t0
        self._cal = calibration_s()
        self.latencies.append(at_reference_speed(dt, before, self._cal))
        self.outputs.append(out)


def digest(outputs):
    return hashlib.sha256("\n".join(outputs).encode()).hexdigest()


def run_pass(wl, tasks, tr, stats, tag):
    r = Run(wl)
    for i, task in enumerate(tasks):
        r.task(tr, task, f"{tag}-{i}", stats)
    return r


def subprocess_ms(argv):
    """(milliseconds at reference speed, completed process) of one subprocess."""
    p, seconds = timed(subprocess.run, argv, cwd=ROOT, env=ENV, capture_output=True, timeout=120)
    return seconds * 1e3, p


def cold_starts(names, repeats):
    """Times of fresh ``python -m laurcalc.cli`` runs of corpus entries, by
    entry, each output checked against the corpus.  Each time is stated
    at the reference speed of a bare interpreter's start-up
    (``speed.subprocess_at_reference``), which tracks the speed of
    process start-up better than the in-process calibration loop does."""
    import wl_cli

    entries = {e["name"]: e for e in wl_cli.load_corpus()}
    times, failures = {name: [] for name in names}, []
    for _ in range(repeats):
        for name in names:
            argv = [sys.executable, "-m", "laurcalc.cli", *entries[name]["argv"]]
            p, seconds = subprocess_at_reference(argv, cwd=ROOT, env=ENV, capture_output=True, timeout=120)
            times[name].append(seconds * 1e3)
            try:
                wl_cli.check_output(entries[name], p.returncode, p.stdout.decode())
            except AssertionError as e:
                failures.append((name, f"cold start: {e}"))
    return times, failures


def setup_probes(args):
    out = []
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
        _, p = subprocess_ms(argv)
        if p.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {p.stderr.decode()[-2000:]}")
        out.append(float(p.stdout.decode().split()[-1]))
    return out


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- the two kinds of run -----------------------------------------------------------


def untraced(wl, args, tasks, setup_s):
    """Passes over the task list until ``--seconds`` have gone (at least
    MIN_PASSES).  A task's latency is its median over the passes, at
    reference speed."""
    from common import NullTracer

    runs = []
    start = time.perf_counter()
    while len(runs) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        runs.append(run_pass(wl, tasks, NullTracer(), wl.new_stats(), f"pass{len(runs)}"))
    elapsed = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    best = [statistics.median(times) for times in zip(*(r.latencies for r in runs))]
    cold, cold_failures = cold_starts(wl.COLD, COLD_REPEATS)
    setups = [setup_s] + setup_probes(args)
    metrics = {
        "tasks_per_s": len(best) / sum(best),
        "task_p50_ms": statistics.median(best) * 1e3,
        "task_p90_ms": percentile(best, 90) * 1e3,
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setups),
        "cold_start_ms": statistics.median(ms for entry in cold.values() for ms in entry),
    }
    failures = [f for r in runs for f in r.failures] + cold_failures
    attempted = len(best) * len(runs) + sum(len(ms) for ms in cold.values())
    print(f"{args.workload} seed {args.seed}: {len(runs)} passes over {len(best)} tasks in {elapsed:.3f} s")
    print(
        f"  samples: {len(best)} task latencies (each the median of {len(runs)}), "
        f"{len(cold) * COLD_REPEATS} cold starts ({COLD_REPEATS} of each of {len(cold)} entries), {len(setups)} set-ups"
    )
    print(f"  fail_ratio {len(failures) / attempted:.6f} ratio ({len(failures)} of {attempted})")
    return metrics, runs[0].outputs, failures, attempted


def traced(wl, args, tasks):
    from common import NullTracer, Tracer, self_times
    import replay

    passes, plain_times, traced_times = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        plain_times.append(sum(run_pass(wl, tasks, NullTracer(), wl.new_stats(), "untraced").latencies))
        tr, stats = Tracer(), wl.new_stats()
        r = run_pass(wl, tasks, tr, stats, f"pass{len(passes)}")
        traced_times.append(sum(r.latencies))
        passes.append((tr.spans, r, stats))
    spans, first, stats = passes[0]
    rows = {"tracing_overhead": 1 - statistics.median(plain_times) / statistics.median(traced_times)}
    for layer in LAYERS:
        rows[f"{layer}.calls"] = sum(1 for s in spans if s[0].split(".")[0] == layer)
        total = 0.0
        for sp, _, _ in passes:
            total += sum(t for s, t in zip(sp, self_times(sp)) if s[0].split(".")[0] == layer)
        rows[f"{layer}.self_s"] = total / len(passes)
    for metric, (name, scale) in SPAN_ROWS.items():
        durations = [s[2] - s[1] for sp, _, _ in passes for s in sp if s[0] == name]
        rows[metric] = statistics.median(durations) * scale if durations else None
    attempts = stats.get("laurent_attempts", 0)
    rows["laurent.refusal_ratio"] = stats["laurent_refused"] / attempts if attempts else 0.0
    rows["series.kept_ratio"] = stats["kept"] / stats["pairs"] if stats.get("pairs") else 0.0
    rows["rootsys.repeat_share"] = wl.repeat_share(tasks) if hasattr(wl, "repeat_share") else 0.0
    rows["rootsys.weyl_order_sum"] = stats.get("orders", 0)
    rows.update(replay.replay(wl.operands(tasks), random.Random(f"replay:{args.workload}:{args.seed}")))
    rows["cli.import_ms"] = import_ms()
    rows["src.loc"] = src_loc()

    os.makedirs(OUT, exist_ok=True)
    base = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    with open(base + "-spans.json", "w") as fh:
        json.dump(
            [
                dict(name=s[0], layer=s[0].split(".")[0], start=s[1] - T_START, end=s[2] - T_START, parent=s[3], task=s[4])
                for sp, _, _ in passes
                for s in sp
            ],
            fh,
        )
    with open(base + "-trace.json", "w") as fh:
        json.dump(dict(workload=args.workload, seed=args.seed, passes=len(passes), tasks_per_pass=len(tasks), rows=rows), fh, indent=1, sort_keys=True)
    print(f"{args.workload} seed {args.seed}: traced {len(passes)} passes of {len(tasks)} tasks, untraced {len(plain_times)} passes")
    base = os.path.relpath(base, ROOT)
    print(f"  spans: {base}-spans.json ({sum(len(sp) for sp, _, _ in passes)} spans); table: {base}-trace.json")
    failures = [f for _, r, _ in passes for f in r.failures]
    attempted = sum(len(r.latencies) for _, r, _ in passes)
    return rows, first.outputs, failures, attempted


def import_ms():
    """``import laurcalc.cli`` in a fresh interpreter, minus a bare interpreter."""
    bare, full = [], []
    for _ in range(IMPORT_PROBES):
        bare.append(subprocess_ms([sys.executable, "-c", "pass"])[0])
        full.append(subprocess_ms([sys.executable, "-c", "import laurcalc.cli"])[0])
    return statistics.median(full) - statistics.median(bare)


def src_loc():
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "laurcalc", "__init__.py")):
        print(f"perfbench: no laurcalc sources at {SRC}; run from the root of a laurcalc checkout", file=sys.stderr)
        return 2
    end_to_end, per_layer = load_spec()
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    wl = importlib.import_module(f"wl_{args.workload}")
    from common import NullTracer

    rounds = wl.generate(args.seed, PASS_ROUNDS[args.workload])
    tasks = [t for rnd in rounds for t in rnd]
    run_pass(wl, rounds[0], NullTracer(), wl.new_stats(), "warm-up")
    setup_s = at_reference_speed(time.perf_counter() - T_START, CAL_AT_START, calibration_s())
    if args.setup_only:
        print(setup_s)
        return 0

    if args.trace:
        values, outputs, failures, attempted = traced(wl, args, tasks)
        wanted = per_layer
    else:
        values, outputs, failures, attempted = untraced(wl, args, tasks, setup_s)
        wanted = end_to_end
    for name, value in sorted(values.items()):
        unit = wanted[name]["unit"] if name in wanted else ("s" if name.endswith("_s") else "ms")
        shown = "n/a (no such call in this workload)" if value is None else f"{value:.6g} {unit}".rstrip()
        print(f"  {name} {shown}")
    print(f"  digest sha256:{digest(outputs)} over the {len(outputs)} tasks of the list")
    print(f"  exact checks: {attempted - len(failures)} of {attempted} tasks passed")
    for name, why in failures[:10]:
        print(f"  FAILURE {name}: {why}")
    if hasattr(wl, "known_defects"):
        # checked once, outside the timed passes and the counts above
        for name, why in wl.known_defects(NullTracer()):
            print(f"  known defect (ROADMAP item 5) {name}: {'now gives its documented output' if why is None else 'still fails: ' + why}")
    metrics = {name: {"value": values[name], "unit": m["unit"]} for name, m in wanted.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
