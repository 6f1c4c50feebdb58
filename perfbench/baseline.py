"""Run the benchmark over several seeds and summarise the spread of each metric.

    python3 perfbench/baseline.py --seeds 1-10 [--out FILE]

Runs `perfbench/run.py --trace 0` once per seed on every workload of
BENCHMARK.json, for its run_seconds, one run at a time, and prints (or writes to FILE as JSON) each end-to-end metric's
median, quartiles and spread, where spread is the distance between the first
and third quartile (`statistics.quantiles(values, n=4)`) over the median.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,5,9")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"python": platform.python_version(), "machine": platform.machine(),
               "seconds": bench["run_seconds"], "seeds": parse_seeds(args.seeds), "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, seed, bench["run_seconds"]) for seed in summary["seeds"]]
        metrics = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   for name in bounds}
        summary["workloads"][workload] = {
            "correct": [r["correct"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": metrics,
        }
        for name, s in metrics.items():
            flag = "" if s["spread"] <= bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload:18} {name:15} median {s['median']:<12.6g} spread {s['spread']:.4f}"
                  f" (bound {bounds[name]}){flag}", flush=True)
        print(f"{workload:18} correct {summary['workloads'][workload]['correct']} "
              f"failed {summary['workloads'][workload]['failed']}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
