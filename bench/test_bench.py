"""Self-test of the benchmark.  Runs each workload for one CPU second, traced
and untraced, and checks the result line against BENCHMARK.json.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    out = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    table = [line.split() for line in lines[:-1]]
    for name, unit in spec.items():
        assert any(row[:1] == [name] and row[-1] == unit for row in table), name
    if not trace:
        assert ["fail_ratio", "0", "failed/attempted"] in [row[:3] for row in table]
        for name in spec:
            assert result["metrics"][name]["value"] > 0, name


def test_without_sources_fails_and_prints_no_result():
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(HERE, "out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        out = _bench(bare, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                     "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_oracle_decides_ep():
    from epkit import MatrixQ, is_ep
    from gate import oracle_is_ep

    cases = [
        [[1, 0], [0, 0]],            # orthogonal projection: EP
        [[0, 1], [0, 0]],            # nilpotent: range != range of adjoint
        [[1, 1], [0, 0]],            # idempotent, not hermitian: not EP
        [["1+1i", 0], [0, "2i"]],    # invertible: EP
        [["1i", "1"], ["-1", "1i"]],  # singular, complex
        [[0, 0], [0, 0]],
    ]
    for rows in cases:
        a = MatrixQ.from_rows(rows)
        assert oracle_is_ep(a) == is_ep(a), rows
