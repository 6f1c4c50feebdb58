"""nmsflow benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it are a human-readable report.  With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.
Workloads and metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("classify_stream", "enumerate_sweep", "expr_mix", "selfcheck_battery")
LAYERS = ("cli", "classifier", "manifolds", "seifert", "homology", "expressions",
          "selfcheck", "surgery")
IMPORT_SPAWNS = 5
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    """The environment of every child: the checkout's sources first on the
    path, and bytecode caching on, as for an installed package."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_seconds(env) -> dict:
    """Per-layer import cost from `python -X importtime`, median over spawns.

    `cli.import_s` is the cumulative cost of `import nmsflow.cli` (the
    package imports every module); `<layer>.import_self_s` excludes nested
    imports.
    """
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORT_SPAWNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import nmsflow.cli"],
                              env=env, check=True, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)$", line)
            if not m or not m.group(3).startswith("nmsflow"):
                continue
            self_us, cumulative_us, module = int(m.group(1)), int(m.group(2)), m.group(3)
            if module == "nmsflow":
                samples.setdefault("cli.import_s", []).append(cumulative_us / 1e6)
            elif module.split(".")[1] in LAYERS:
                name = f"{module.split('.')[1]}.import_self_s"
                samples.setdefault(name, []).append(self_us / 1e6)
    # `import nmsflow.cli` costs the package import plus cli itself.
    out = {name: (statistics.median(v), "s") for name, v in samples.items()}
    out["cli.import_s"] = (out["cli.import_s"][0] + out["cli.import_self_s"][0], "s")
    return out


def run_worker(args, env) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(args, result) -> None:
    print(f"nmsflow benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    samples = result.get("samples", {})
    print(f"  operations: {result['attempted']} attempted, {result['failed']} failed, "
          f"{samples.get('rounds')} rounds timed; latency percentiles over "
          f"{samples.get('latency_kept')} of {samples.get('latency_ops')} successful operations")
    if samples.get("host_factor") is not None:
        print(f"  times scaled by host speed, round by round; the host factor over the "
              f"run is {samples['host_factor']:.4f}, from {samples['probe_samples']} "
              f"probe samples (perfbench/hostspeed.py)")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for line in result.get("failures", []):
        print(f"  failure: {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "nmsflow" / "cli.py").is_file():
        print(f"error: no nmsflow sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    env = child_env()
    result = run_worker(args, env)
    if args.trace:
        metrics = import_seconds(env)
        result["metrics"] = {**result["metrics"],
                             **{k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    report(args, result)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
