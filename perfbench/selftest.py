"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that inputs are reproducible from the seed, that every reference
check rejects a deliberately wrong answer, that expr_mix false pairs keep
off two-fiber summands, that the deadline stops a known Smith normal form
stall, that host-speed samples are taken during work and
kept out of its time, that tracing replaces every binding of a traced
function, and that every metric and workload name the benchmark prints is
declared in BENCHMARK.json.  Takes about a minute.
"""

from __future__ import annotations

import json
import random
import re
import statistics
import subprocess
import sys
import unittest
from itertools import islice
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from nmsflow import expressions, homology  # noqa: E402
from nmsflow.homology import AbelianGroup  # noqa: E402

import refs  # noqa: E402
from deadline import DeadlineExceeded, deadline, install_alarm_handler  # noqa: E402
from hostspeed import REFERENCE_S, WINDOW, HostSpeed  # noqa: E402
from tracing import TRACED, Tracer  # noqa: E402
from workloads import (ClassifyStream, EnumerateSweep, ExprMix,  # noqa: E402
                       SelfcheckBattery, WORKLOADS)

# h1 of this 8-fiber expression did not finish in 98 s: the Smith normal
# form's entries grow past 10^100.
STALL_8 = "SFS(S2; (8,5),(5,-1),(8,19),(10,7),(11,13),(9,-7),(12,-17),(10,-7))"


def setUpModule():
    install_alarm_handler()


def first_rounds(workload, seed, n=2):
    return repr(list(islice(workload.rounds(seed), n))).encode()


class SeedTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for cls in (ClassifyStream, ExprMix):
            self.assertEqual(first_rounds(cls(), 7), first_rounds(cls(), 7))
            self.assertNotEqual(first_rounds(cls(), 7), first_rounds(cls(), 8))

    def test_stream_covers_every_case(self):
        cases = {refs.case_of(q[0], q[2]) for q, _ in next(ClassifyStream().rounds(3))}
        self.assertEqual(cases, set(range(1, 8)))


class CheckTest(unittest.TestCase):
    def test_classify_checks(self):
        w = ClassifyStream()
        request = ((3, 1, 5, 2), None)
        rc, text = w.call(request)
        self.assertIsNone(w.check(request, (rc, text)))
        out = json.loads(text)

        def tampered(**changes):
            return rc, json.dumps({**out, **changes})

        self.assertIn("case", w.check(request, tampered(case=6)))
        self.assertIn("h1", w.check(request, tampered(h1={"free_rank": 0, "torsion": [41]})))
        self.assertIn("parse back", w.check(request, tampered(canonical="L(43,1) # S3")))
        self.assertIn("exited", w.check(request, (2, "")))
        golden = ((3, 1, 5, 2), (7, "SFS(S2; (2,1),(3,2),(5,3))"))
        self.assertIn("golden", w.check(golden, (rc, text)))

    def test_classify_h1_torsion_checked(self):
        w = ClassifyStream()
        request = ((0, 1, 4, 1), None)  # L(4,1) # RP3: Z/2 + Z/4, not Z/8
        rc, text = w.call(request)
        self.assertIsNone(w.check(request, (rc, text)))
        out = json.loads(text)
        bad = json.dumps({**out, "h1": {"free_rank": 0, "torsion": [8]}})
        self.assertIn("h1", w.check(request, (rc, bad)))

    def test_expr_checks(self):
        w = ExprMix()
        order = refs.expression_order([("L", 5, 2), ("SFS", [(2, 1), (3, 1), (5, 2)])])
        request = ("h1", "L(5,2) # SFS(S2; (2,1),(3,1),(5,2))", order)
        m, text, group = w.call(request)
        self.assertIsNone(w.check(request, (m, text, group)))
        self.assertIn("order", w.check(request, (m, text, AbelianGroup(0, (5,)))))
        self.assertIn("parse back", w.check(request, (m, "L(5,2)", group)))
        homeo = ("homeo", "L(7,2)", "L(7,-2)", True)
        self.assertIsNone(w.check(homeo, w.call(homeo)))
        self.assertIsNotNone(w.check(homeo, False))
        self.assertIsNotNone(w.check(("homeo", "L(7,2)", "L(5,2)", False), True))

    def test_expr_pairs_by_construction(self):
        w = ExprMix()
        rng = random.Random(5)
        for k in range(1, w.MAX_FIBERS + 1):
            left = w._expression(rng, k, rng.randint(1, w.MAX_SUMMANDS))
            order = refs.expression_order(left)
            self.assertEqual(refs.expression_order(w._moved(rng, left)), order)
            other = w._perturbed(rng, left)
            if other is not None:
                self.assertNotEqual(refs.expression_order(other), order)
        # The library agrees on pairs it can decide in time (h1 may stall).
        for request in next(w.rounds(11)):
            if request[0] != "homeo":
                continue
            try:
                with deadline(1.0):
                    orders = [homology.h1(expressions.parse_manifold(text)).order()
                              for text in request[1:3]]
            except DeadlineExceeded:
                continue
            self.assertEqual(orders[0] == orders[1], request[3], request)

    def test_false_pairs_avoid_two_fiber_summands(self):
        w = ExprMix()
        rng = random.Random(3)
        two = [("SFS", [(3, 1), (1, 2), (5, 2)]), ("L", 7, 2)]
        self.assertIsNone(w._perturbed(rng, two))
        self.assertIsNotNone(w._perturbed(rng, two, two_fiber=True))
        truths = [r[3] for r in next(w.rounds(4)) if r[0] == "homeo"]
        self.assertEqual((truths.count(True), truths.count(False)),
                         (w.MAX_FIBERS, w.MAX_FIBERS))

    def test_enumerate_checks(self):
        w = EnumerateSweep()
        total = refs.admissible_count(10)
        self.assertIn("members", w.check(10, (0, f"S3  h1=0  count={total - 1}  e.g. x\n")))
        self.assertIn("digest", w.check(10, (0, f"S3  h1=0  count={total}  e.g. x\n")))
        self.assertIn("exited", w.check(10, (1, "")))

    def test_selfcheck_checks(self):
        w = SelfcheckBattery()
        self.assertIsNone(w.check(6, (0, "selfcheck: all 9 hard checks passed\n")))
        self.assertIn("exited 3", w.check(6, (3, "selfcheck: 1 hard failure(s)\n")))

    def test_references(self):
        self.assertEqual(refs.admissible_count(6), 9312)
        self.assertEqual(refs.admissible_count(10), 65792)
        self.assertEqual(refs.fiber_order([(2, 1), (3, 1), (5, 3)]), 43)
        for (quad, case, _) in ClassifyStream().golden:
            self.assertEqual(refs.case_of(quad[0], quad[2]), case)


class DeadlineTest(unittest.TestCase):
    def test_deadline_stops_stalled_snf(self):
        m = expressions.parse_manifold(STALL_8)
        start = perf_counter()
        with self.assertRaises(DeadlineExceeded):
            with deadline(0.5):
                homology.h1(m)
        self.assertLess(perf_counter() - start, 5.0)


class HostSpeedTest(unittest.TestCase):
    def test_samples_during_work(self):
        speed = HostSpeed()
        speed.start()
        start = perf_counter()
        while perf_counter() - start < 0.5:
            sum(range(10_000))
        speed.stop()
        self.assertGreater(len(speed.samples), WINDOW + 5)
        self.assertGreaterEqual(speed.spent, sum(speed.samples))
        self.assertEqual(speed.factor(), REFERENCE_S / statistics.median(speed.samples))
        recent = speed.samples[-WINDOW:]
        self.assertEqual(speed.factor(len(speed.samples) - 1),
                         REFERENCE_S / statistics.median(recent))

    def test_worker_takes_samples_out_of_operations(self):
        import worker
        run = worker.Run(1)
        worker.PROBE.start()
        try:
            worker.run_round(_Busy(), [0.3], run)
        finally:
            worker.PROBE.stop()
        self.assertGreater(len(worker.PROBE.samples), WINDOW + 5)
        self.assertEqual(run.rounds[0][1], 1)
        self.assertLess(run.busy_s, 0.3 - worker.PROBE.spent + 0.01)


class _Busy:
    """A workload whose one request spins for its own value in seconds."""

    def deadline_s(self, request):
        return 5.0

    def call(self, request):
        start = perf_counter()
        while perf_counter() - start < request:
            sum(range(1000))

    def check(self, request, value):
        return None


class TraceTest(unittest.TestCase):
    def test_every_binding_wrapped(self):
        tracer = Tracer()
        originals = {(m, f): getattr(sys.modules[f"nmsflow.{m}"], f) for m, f in TRACED}
        tracer.install()
        for name, module in sys.modules.items():
            if name == "nmsflow" or name.startswith("nmsflow."):
                for attr, value in vars(module).items():
                    self.assertNotIn(value, originals.values(), f"{name}.{attr}")
        tracer.active = True
        ClassifyStream().call(((3, 1, 5, 2), None))
        tracer.active = False
        stats = tracer.stats
        self.assertEqual(stats["classifier.classify"].calls, 1)
        self.assertEqual(stats["homology.h1"].calls, 1)
        self.assertEqual(stats["homology.smith_normal_form"].cells, 16)


class NamesTest(unittest.TestCase):
    """Run every workload briefly, traced and untraced, and compare names."""

    def test_printed_names_declared(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = {0: {m["name"] for m in bench["end_to_end"]},
                    1: {m["name"] for m in bench["per_layer"]}}
        self.assertEqual({w["name"] for w in bench["workloads"]}, set(WORKLOADS))
        for workload in WORKLOADS:
            for trace in (0, 1):
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                    cwd=ROOT, capture_output=True, text=True, check=True, timeout=180)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertEqual(set(result["metrics"]), declared[trace], (workload, trace))
                printed = {m.group(1) for line in lines[:-1]
                           if (m := re.match(r"  (\S+) = ", line))}
                self.assertLessEqual(printed, declared[trace], (workload, trace))
                self.assertIn(f"workload {workload},", lines[0])


if __name__ == "__main__":
    unittest.main()
