"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload <name> [--seed0 1]

Runs ``run.py`` for ``run_seconds`` from BENCHMARK.json once per seed, for
ten seeds (seed0, seed0+1, ...).  Then it prints, for every end-to-end
metric, the median of the per-run values and the distance between their
first and third quartiles as a share of that median, next to the metric's
bound from BENCHMARK.json.  A benchmark is steady when every spread
(``setup_s`` aside) stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed0", type=int, default=1)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in range(args.seed0, args.seed0 + RUNS):
        cmd = [sys.executable, *bench["command"][1:], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        line = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct {result['correct']} failed {result['failed']}/"
              f"{result['attempted']} " + " ".join(f"{k}={v:.6g}" for k, v in line.items()),
              flush=True)
        for k, v in line.items():
            values.setdefault(k, []).append(v)
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{metric['name']}: median {med:.6g} {metric['unit']}, spread "
              f"{(q3 - q1) / med:.4f} (bound {metric['bound']}, a third {metric['bound'] / 3:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
