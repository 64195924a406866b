"""Smoke test of the benchmark itself: every workload at a tiny size, untraced
and traced.

    python3 -m pytest perfbench/test_smoke.py

Asserts that every metric BENCHMARK.json names is printed with its unit, that
no op failed its oracle (or its fingerprint / traced-event reproduction), and
that in every traced round the layer spans' self times sum to no more than the
round's wall time.
"""

import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 1


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), [ln for ln in lines if ln.startswith("FAILED")]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload(workload, trace):
    result, failures = run_bench(workload, trace)
    assert result["correct"] and result["failed"] == 0, failures
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for metric in expected:
        printed = result["metrics"].get(metric["name"])
        assert printed is not None, f"{metric['name']} not printed"
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    assert set(result["metrics"]) == {m["name"] for m in expected}
    if trace:
        check_self_times(workload)


def check_self_times(workload):
    stem = f"{workload}-seed{SEED}-trace1"
    out = ROOT / "perfbench" / "out"
    walls = json.loads((out / f"result-{stem}.json").read_text())["facts"]["raw_round_walls_s"]
    spans = [json.loads(line) for line in (out / f"spans-{stem}.jsonl").read_text().splitlines()]
    child = defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    self_by_round = defaultdict(float)
    for s in spans:
        round_index = int(s["op"].split(".")[0][1:])
        self_by_round[round_index] += (s["end"] - s["start"]) - child[s["id"]]
    assert self_by_round, "traced run recorded no spans"
    for r, total in self_by_round.items():
        assert total <= walls[r], f"round {r}: self times {total} > wall {walls[r]}"
