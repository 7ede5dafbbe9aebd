"""Self-test of the benchmark at toy sizes.

    python3 -m pytest perfbench/test_perfbench.py -q

Every workload runs traced and untraced, emits exactly the metrics that
BENCHMARK.json names with their units, and passes its checks, which include
that traced and untraced calls of one run write the same CSV bytes.  A
fresh traced run and a fresh untraced run also print the same CSV hashes.
Without the program's sources the benchmark fails without printing a result.
Each test runs in its own copy of the checkout, so no stored record of an
earlier run takes part.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def checkout(dest: Path, with_src: bool = True) -> Path:
    """Copy BENCHMARK.json, perfbench/ and (optionally) src/ to ``dest``."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    dirs = ("perfbench", "src") if with_src else ("perfbench",)
    for d in dirs:
        shutil.copytree(ROOT / d, dest / d, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def run(root: Path, workload: str, trace: int, seed: int = 5) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_emits_every_metric(workload, tmp_path):
    root = checkout(tmp_path)
    digests = []
    for trace, listed in ((1, BENCH["per_layer"]), (0, BENCH["end_to_end"])):
        # no stored record: each run's hashes come from its own calls only
        shutil.rmtree(root / ".perfbench_out", ignore_errors=True)
        proc = run(root, workload, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in listed}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        assert any(line.startswith("failed_frac 0 ratio") for line in lines)
        digests.append(sorted(line for line in lines if line.startswith("sha256 ")))
    assert digests[0] and digests[0] == digests[1]


def test_fails_without_program_sources(tmp_path):
    proc = run(checkout(tmp_path, with_src=False), BENCH["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
