"""Measure the two known defects that expr_mix keeps out of its requests.

    python3 perfbench/defects.py --seed N

Run from the root of a checkout.  No operation of `expr_mix` fails at the
commit that added it, because two kinds of input are left out of it.  This
script builds those inputs with the workload's own generator and reports
how often each fails:

- Smith normal form stalls: h1 requests whose large Seifert summand has
  from ExprMix.H1_MAX_FIBERS + 1 to ExprMix.MAX_FIBERS fibers, PER_K of
  each count, run under a deadline of DEADLINE_S;
- wrong homeo verdicts from the lens conversion of summands with two
  exceptional fibers (ROADMAP item 3): PAIRS false pairs, each perturbed
  on such a summand.

Prints the counts and up to LISTED failing inputs of each kind.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from deadline import DeadlineExceeded, deadline, install_alarm_handler  # noqa: E402
from workloads import ExprMix  # noqa: E402

PER_K = 10
DEADLINE_S = 1.0
PAIRS = 2000
LISTED = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    install_alarm_handler()
    w = ExprMix()
    rng = random.Random(args.seed)

    ks = range(w.H1_MAX_FIBERS + 1, w.MAX_FIBERS + 1)
    stalled, slowest = [], 0.0
    for k in ks:
        for n in w._sizes(rng, PER_K):
            request = w.h1_request(rng, k, n)
            start = perf_counter()
            try:
                with deadline(DEADLINE_S):
                    w.call(request)
            except DeadlineExceeded:
                stalled.append(request[1])
                continue
            slowest = max(slowest, perf_counter() - start)
    print(f"h1 with {ks[0]}..{ks[-1]} fibers: {len(stalled)} of {PER_K * len(ks)} "
          f"passed {DEADLINE_S} s; the slowest success took {slowest:.3f} s")
    for text in stalled[:LISTED]:
        print(f"  stalled: h1 {text!r}"[:300])

    wrong = []
    for n in w._sizes(rng, PAIRS):
        request = w.homeo_request(rng, 2, n, same=False, two_fiber=True)
        if w.check(request, w.call(request)) is not None:
            wrong.append(request)
    print(f"false homeo pairs perturbed on a two-fiber summand: {len(wrong)} of "
          f"{PAIRS} answered true")
    for request in wrong[:LISTED]:
        print(f"  wrong: homeo {request[1]!r} {request[2]!r}"[:300])
    return 0


if __name__ == "__main__":
    sys.exit(main())
