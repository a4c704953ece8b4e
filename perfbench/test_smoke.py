"""Smoke tests for the benchmark: every workload at the toy shape.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# counts the program makes; they must repeat exactly for one seed
EXACT = ("autodiff.nodes", "kernels.unfold_calls", "memory.write_calls",
         "retrieval.retrieve_calls", "retrieval.scored_cells")


def run(workload, trace, seed=3, cwd=ROOT):
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
                        "--smoke"], cwd=cwd, capture_output=True, text=True, timeout=300)
    return p


def result(p):
    assert p.returncode == 0, p.stderr
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, p.stdout
    return res


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(workload, trace):
    res = result(run(workload, trace))
    want = BENCH["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in want}
    values = {name: m["value"] for name, m in res["metrics"].items()}
    if trace:
        # stages tile the forward; only loop glue between blocks is left over
        assert 0.0 <= values["stage.residual_share"] < 0.05
    else:
        assert all(v > 0 for v in values.values()), values


def test_exact_counts_repeat():
    first = result(run("train_epoch", 1))["metrics"]
    again = result(run("train_epoch", 1))["metrics"]
    counts = {k: first[k]["value"] for k in EXACT}
    assert counts == {k: again[k]["value"] for k in EXACT}
    assert all(v > 0 for v in counts.values()), counts


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = run("eval_frozen", 0, cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout == ""
