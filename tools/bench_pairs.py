"""Run perfbench/run.py from two checkouts in alternating pairs and write a
BENCH_<n>.json.

Each pair runs one workload and seed once from the parent checkout and
once from the change checkout, odd seeds parent first and even seeds
change first, so a drift of the machine's speed over time falls on
both sides alike.  Every run's result line is kept.  Per workload and
end-to-end metric the file gives the medians and quartiles of both sides,
how many pairs the change won, the ratio of the medians and how much
worse the change's median is relative to the parent's, next to the
metric's bound from BENCHMARK.json.  Traced runs (``--trace 1``, one per
side) are kept with their per-layer rows.

Example, from the root of the change checkout:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --pairs residue:1-10 --held-out residue:11-13 --pairs weyl:1-3 \\
        --traced residue:1 --claim "residue tasks_per_s ..." --out BENCH_13.json

The file is rewritten after every pair, so an interrupted run keeps
the pairs it finished.  The summary gives per workload whether all
digests agreed and the failed tasks per side; after the file is
written, the exit status is 1 if any pair's digests differ, any run
failed a task or any run was not correct.  Only the standard library is
used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

QUARTILES = "statistics.quantiles(values, n=4, method='inclusive')"


def parse_seeds(spec):
    """'residue:1-10' or 'cli:1,3,5' -> ('residue', [1, ..., 10])."""
    workload, _, seeds = spec.partition(":")
    out = []
    for part in seeds.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return workload, out


def run_once(checkout, workload, seed, seconds, trace):
    """The result line of one perfbench run, with the digest it printed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    digest = next((w for line in lines for w in line.split() if w.startswith("sha256:")), None)
    return result, digest


def run_pair(args, workload, seed, trace=0):
    order = ("parent", "change") if seed % 2 else ("change", "parent")
    entry = {"seed": seed, "first": order[0]}
    for side in order:
        checkout = args.parent if side == "parent" else args.change
        entry[side], entry[f"digest_{side}"] = run_once(checkout, workload, seed, args.seconds, trace)
        print(f"  {workload} seed {seed} {side}: tasks_per_s "
              f"{entry[side]['metrics'].get('tasks_per_s', {}).get('value')}", file=sys.stderr, flush=True)
    return {key: entry[key] for key in ("seed", "first", "parent", "change", "digest_parent", "digest_change")}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else (values[0],) * 3
    return {"median": round(statistics.median(values), 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def faults(entry):
    """What is wrong with one pair: differing digests, failed tasks or a
    run that reported incorrect output."""
    out = [] if entry["digest_parent"] == entry["digest_change"] else ["digests differ"]
    for side in ("parent", "change"):
        if entry[side]["failed"]:
            out.append(f"{entry[side]['failed']} failed on the {side} side")
        if entry[side]["correct"] is not True:
            out.append(f"the {side} side is not correct")
    return out


def summarize(runs, spec):
    """Per end-to-end metric: both sides' spread, wins and the median ratio;
    whether every pair's digests agree and the failed tasks per side."""
    out = {
        "digests_equal": all(r["digest_parent"] == r["digest_change"] for r in runs),
        "failed": {side: sum(r[side]["failed"] for r in runs) for side in ("parent", "change")},
    }
    for metric in spec["end_to_end"]:
        name, better = metric["name"], metric["better"]
        pairs = [(r["parent"]["metrics"][name]["value"], r["change"]["metrics"][name]["value"]) for r in runs]
        parent = statistics.median(p for p, _ in pairs)
        change = statistics.median(c for _, c in pairs)
        wins = sum((c > p) if better == "higher" else (c < p) for p, c in pairs)
        worse = (parent - change) / parent if better == "higher" else (change - parent) / parent
        out[name] = {
            "unit": metric["unit"],
            "better": better,
            "parent": spread([p for p, _ in pairs]),
            "change": spread([c for _, c in pairs]),
            "change_wins": f"{wins} of {len(pairs)} pairs",
            "change_over_parent": round(change / parent, 3),
            "median_worse_by": round(worse, 4),
            "bound": metric["bound"],
        }
    return out


def git_head(checkout):
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="root of the parent checkout")
    ap.add_argument("--change", required=True, help="root of the change checkout")
    ap.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD:SEEDS",
                    help="pairs that the summary covers, e.g. residue:1-10 (repeatable)")
    ap.add_argument("--held-out", action="append", default=[], metavar="WORKLOAD:SEEDS",
                    help="pairs summarized apart from the others (repeatable)")
    ap.add_argument("--traced", action="append", default=[], metavar="WORKLOAD:SEED",
                    help="one --trace 1 run per side (repeatable)")
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--parent-commit", help="default: git HEAD of the parent checkout")
    ap.add_argument("--what", default="", help="what was measured, for the file")
    ap.add_argument("--claim", default="", help="the claim the pairs test, for the file")
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    args = ap.parse_args(argv)
    args.parent, args.change = os.path.abspath(args.parent), os.path.abspath(args.change)
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        spec = json.load(f)

    doc = {
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> --seconds {args.seconds} --trace 0",
        "parent_commit": args.parent_commit or git_head(args.parent),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "quartiles": QUARTILES,
        "claim": args.claim,
        "summary": {},
        "held_out": {},
        "traced": {},
        "runs": {},
    }

    def write():
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")

    checked = []  # (label, pair) of every pair run
    for key, specs in (("runs", args.pairs), ("held_out", args.held_out)):
        for item in specs:
            workload, seeds = parse_seeds(item)
            runs = doc["runs"].setdefault(workload, []) if key == "runs" else doc["held_out"].setdefault("runs", [])
            for seed in seeds:
                entry = run_pair(args, workload, seed)
                checked.append((f"{workload} seed {seed}", entry))
                if key == "held_out":
                    entry = {"workload": workload, **entry}
                runs.append(entry)
                target = doc["summary"] if key == "runs" else doc["held_out"]
                target[workload] = summarize(
                    [r for r in runs if r.get("workload", workload) == workload], spec
                )
                write()
    for item in args.traced:
        workload, (seed,) = parse_seeds(item)
        entry = run_pair(args, workload, seed, trace=1)
        checked.append((f"{workload} traced seed {seed}", entry))
        doc["traced"][workload] = {
            "seed": seed,
            "first": entry["first"],
            "parent": {k: v["value"] for k, v in entry["parent"]["metrics"].items()},
            "change": {k: v["value"] for k, v in entry["change"]["metrics"].items()},
            "digest_parent": entry["digest_parent"],
            "digest_change": entry["digest_change"],
        }
        write()
    write()
    bad = [f"{label}: {fault}" for label, entry in checked for fault in faults(entry)]
    for line in bad:
        print(f"bench_pairs: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
