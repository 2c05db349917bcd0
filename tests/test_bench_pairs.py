"""tools/bench_pairs.py: the summary records whether the digests agree and
how many tasks failed, and the exit status is 1 when any pair disagrees,
failed a task or was not correct.  run_once is stubbed, so no benchmark
runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _stub(bad):
    """A run_once whose runs are all fine except where bad[(side, seed)]
    overrides fields of the result ("digest" the printed digest)."""
    parent_dir = "/parent"

    def run_once(checkout, workload, seed, seconds, trace):
        side = "parent" if checkout == parent_dir else "change"
        result = {"correct": True, "attempted": 100, "failed": 0,
                  "metrics": {m: {"value": 10.0 + seed, "unit": "x"} for m in METRICS}}
        result.update(bad.get((side, seed), {}))
        return result, result.pop("digest", f"sha256:{workload}{seed}")

    return parent_dir, run_once


@pytest.mark.parametrize(
    "bad, code",
    [
        ({}, 0),
        ({("change", 2): {"digest": "sha256:other"}}, 1),
        ({("parent", 3): {"failed": 4}}, 1),
        ({("change", 1): {"correct": False}}, 1),
        ({("change", 12): {"digest": "sha256:other"}}, 1),
    ],
)
def test_exit_status_and_summary(bench_pairs, monkeypatch, tmp_path, capsys, bad, code):
    parent, run_once = _stub(bad)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", parent, "--change", str(ROOT), "--parent-commit", "abc", "--out", str(out),
            "--pairs", "series:1-3", "--held-out", "series:11-12", "--traced", "series:1"]
    assert bench_pairs.main(argv) == code
    doc = json.loads(out.read_text())
    summary, held_out = doc["summary"]["series"], doc["held_out"]["series"]
    assert summary["digests_equal"] == (("change", 2) not in bad)
    assert held_out["digests_equal"] == (("change", 12) not in bad)
    assert summary["failed"] == {"parent": 4 if ("parent", 3) in bad else 0, "change": 0}
    assert summary["tasks_per_s"]["change_wins"] == "0 of 3 pairs"
    stderr = capsys.readouterr().err
    assert ("bench_pairs:" in stderr) == bool(code)
