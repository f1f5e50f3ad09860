#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload norm_ladder --seeds 1-10

Runs ``run.py`` once per seed (one process at a time, waiting for each),
then prints, per metric, the median over the seeds and the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as
a share of the median, next to the metric's bound in ``BENCHMARK.json``.
Every run measures for ``run_seconds`` of ``BENCHMARK.json``.  A spread
above a third of its bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def spread(values: list[float]) -> float:
    """Interquartile distance over the median, as the acceptance rule takes it."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = []
    for seed in parse_seeds(args.seeds):
        command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        last = json.loads(lines[-1]) if lines else {}
        results.append({"seed": seed, "exit": proc.returncode, **last})
        values = {k: round(v["value"], 4) for k, v in last.get("metrics", {}).items()}
        print(f"seed {seed}: exit {proc.returncode} correct {last.get('correct')} {values}", flush=True)
    ok = all(r["exit"] == 0 and r.get("correct") for r in results)
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results if name in r.get("metrics", {})]
        if len(values) < 2:
            continue
        share = spread(values)
        flag = "" if share <= bound / 3 else "  <-- above bound/3"
        print(f"{name:14s} median {statistics.median(values):12.6g}  spread {share:.4f}  "
              f"bound {bound}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
