"""tools/record_calls.py: two runs over one residue seed write the same
bytes, with a line for every operator call."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_two_runs_write_the_same_lines(tmp_path):
    outs = []
    for k in range(2):
        out = tmp_path / f"calls{k}.jsonl"
        argv = [sys.executable, str(ROOT / "tools" / "record_calls.py"), "--workload", "residue", "--seeds", "1", "--out", str(out)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stdout + done.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    lines = [json.loads(line) for line in outs[0].decode().splitlines()]
    assert {line["seed"] for line in lines} == {1}
    operator = [line for line in lines if line["span"] == "laurent.laurent_operator_apply"]
    assert operator and all("numerator" in line["result"] for line in operator if "result" in line)
    tasks = [line for line in lines if line["span"] == "task"]
    assert [line["task"] for line in tasks] == list(range(len(tasks)))
