"""Run one workload in this process and print its result as one JSON line.

Started by run.py in a fresh interpreter with the checkout's `src` on
PYTHONPATH, so that peak RSS is the workload's own.  Usage:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the loop runs for S seconds untraced, and fresh interpreters
spawned between its rounds time the set-up.  With --trace 1 each
round runs untraced and then traced, for about half of S; the difference in
timed wall time between the two passes is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import subprocess
import sys
from array import array
from statistics import median
from time import perf_counter

from deadline import DeadlineExceeded, deadline, install_alarm_handler
from hostspeed import HostSpeed
from tracing import Tracer
from workloads import WORKLOADS

RESERVOIR = 50_000   # latency samples kept; memory does not grow with the run
MAX_LISTED = 20      # failing inputs listed in the result
SETUP_SPAWNS = 40    # set-up samples in a --trace 0 run
# Set-up of every command: import nmsflow.cli and build its parser.  The
# interpreter runs with -S, so site-packages start-up, which is not the
# program's, does not dilute the figure.
SETUP_CMD = [sys.executable, "-S", "-c", "import nmsflow.cli as cli; cli._build_parser()"]
PROBE = HostSpeed()  # started in untraced runs only


class Reservoir:
    """A uniform sample of at most `size` latencies (Vitter's algorithm R)."""

    def __init__(self, size: int, seed: int):
        self.size = size
        self.seen = 0
        self.samples = array("d")
        self.rng = random.Random(seed)

    def add(self, value: float) -> None:
        self.seen += 1
        if len(self.samples) < self.size:
            self.samples.append(value)
        else:
            j = self.rng.randrange(self.seen)
            if j < self.size:
                self.samples[j] = value

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile of the sample; p in (0, 100]."""
        ordered = sorted(self.samples)
        return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


class Run:
    """Outcome counters of one pass over a workload."""

    def __init__(self, seed: int):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.busy_s = 0.0  # raw time in operations
        # Per round: time in operations, scaled by host speed (see
        # run_round), and successful operations.
        self.rounds: list[tuple[float, int]] = []
        self.latency = Reservoir(RESERVOIR, seed)
        self.failures: list[str] = []  # wrong answers first, then the rest
        self.listed_wrong = 0

    def fail(self, text: str, wrong: bool = False) -> None:
        self.failed += 1
        if wrong:
            self.wrong += 1
            self.failures.insert(self.listed_wrong, text)
            self.listed_wrong += 1
            del self.failures[MAX_LISTED:]
        elif len(self.failures) < MAX_LISTED:
            self.failures.append(text)


def run_round(workload, batch, run: Run, tracer: Tracer | None = None) -> None:
    """Serve one round's requests in a closed loop, checking each answer.

    Only the operations are timed; the check after each one runs outside
    the timed region (and with tracing paused), so the caller's own work
    neither counts nor piles up garbage across a round.  Host-speed samples
    that interrupt an operation are taken out of its time.  While the probe
    runs, the round's times are scaled by the host factor of the samples
    taken during the round (see hostspeed.py); a missed deadline costs its
    wall time at any host speed and is not scaled.
    """
    scaled = fixed = 0.0
    ok = 0
    latencies = []
    first_sample = len(PROBE.samples)
    for request in batch:
        limit = workload.deadline_s(request)
        if tracer is not None:
            tracer.active = True
        spent = PROBE.spent
        start = perf_counter()
        try:
            with deadline(limit):
                value = workload.call(request)
            status = "ok"
        except DeadlineExceeded:
            status = "deadline"
        except Exception as exc:
            status, value = "error", f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        latency = elapsed - (PROBE.spent - spent)
        if tracer is not None:
            tracer.active = False
            tracer.stack.clear()  # a deadline can fire mid-bookkeeping
        run.attempted += 1
        if status == "deadline":
            fixed += elapsed
            run.fail(f"deadline {limit} s: {request!r}"[:400])
            continue
        scaled += latency
        if status == "error":
            run.fail(f"{value}: {request!r}"[:400])
        elif (wrong := workload.check(request, value)) is not None:
            run.fail(f"wrong: {wrong}"[:400], wrong=True)
        else:
            ok += 1
            latencies.append(latency)
    factor = PROBE.factor(first_sample) if PROBE.samples else 1.0
    for latency in latencies:
        run.latency.add(latency * factor)
    run.busy_s += scaled + fixed
    run.rounds.append((scaled * factor + fixed, ok))


def spawn_setup() -> float:
    """Wall time of one fresh interpreter importing and building the CLI,
    scaled by the host factor of the latest probe samples.

    No timeout is passed: with one, subprocess polls the child in steps of
    up to 50 ms, which would quantize the figure.
    """
    start = perf_counter()
    subprocess.run(SETUP_CMD, check=True)
    return (perf_counter() - start) * PROBE.factor(len(PROBE.samples))


def timed_rounds(workload, seed: int, seconds: float, run: Run) -> list[float]:
    """Run rounds until `seconds` of wall time have passed; return set-up times.

    Between rounds, set-up spawns keep pace with the elapsed share of the
    run, so that they sample the host over the whole run, as the rounds
    do, and not at one moment.  One spawn comes first, untimed, so that
    bytecode caches exist as they would for a user who has run the command
    before.
    """
    spawn_setup()
    setup: list[float] = []
    started = perf_counter()
    for batch in workload.rounds(seed):
        run_round(workload, batch, run)
        elapsed = perf_counter() - started
        while len(setup) < SETUP_SPAWNS * min(1.0, elapsed / seconds):
            setup.append(spawn_setup())
        if elapsed >= seconds:
            return setup


def end_to_end(run: Run, setup: list[float]) -> dict:
    """The end-to-end metrics of an untraced pass.

    A round's time is the time spent in its operations.  Times are scaled
    by host speed as they are measured, which damps the host's speed
    changes between runs and within one, and are medians over rounds or
    spawns, which damps what is left.  Latency percentiles are over
    successful operations.
    """
    ok = run.attempted - run.failed
    lat = run.latency

    def percentile_ms(p):
        # With no successful operation, every one missed any latency limit.
        return (lat.percentile(p) if lat.samples else run.busy_s) * 1e3

    return {
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ops_per_s": (median(n / t for t, n in run.rounds), "1/s"),
        "latency_p50_ms": (percentile_ms(50), "ms"),
        "latency_p99_ms": (percentile_ms(99), "ms"),
        "wall_s": (median(t for t, _ in run.rounds), "s"),
        "ok_frac": (ok / run.attempted, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    install_alarm_handler()
    untraced = Run(args.seed)
    if not args.trace:
        PROBE.start()
        setup = timed_rounds(workload, args.seed, args.seconds, untraced)
        PROBE.stop()
        metrics = end_to_end(untraced, setup)
        runs = [untraced]
    else:
        # Each round runs untraced, then again traced, so that the host's
        # speed changes hit both sides of the overhead alike.
        tracer = Tracer()
        traced = Run(args.seed)
        started = perf_counter()
        for batch in workload.rounds(args.seed):
            run_round(workload, batch, untraced)
            tracer.install()
            run_round(workload, batch, traced, tracer)
            tracer.uninstall()
            if perf_counter() - started >= args.seconds / 2:
                break
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = (traced.busy_s - untraced.busy_s, "s")
        runs = [untraced, traced]

    result = {
        "correct": all(r.wrong == 0 for r in runs),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": {"rounds": len(untraced.rounds),
                    "probe_samples": len(PROBE.samples),
                    "host_factor": PROBE.factor() if PROBE.samples else None,
                    "latency_ops": untraced.latency.seen,
                    "latency_kept": len(untraced.latency.samples)},
        "failures": [f for r in runs for f in r.failures][:MAX_LISTED],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
