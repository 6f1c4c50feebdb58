"""run_selfcheck's single pass over the admissible quadruples."""

import itertools
import math
import tracemalloc

from nmsflow import classifier, cli, selfcheck
from nmsflow.classifier import classify, valid_invariants


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_selfcheck_keeps_no_result_per_quadruple():
    # The battery keeps one entry per distinct value, not one result per
    # quadruple: its peak stays well below that of the list of results.
    listed = _traced_peak(
        lambda: [classify(inv) for inv in valid_invariants(6)])
    streamed = _traced_peak(
        lambda: selfcheck.run_selfcheck(6, write=lambda line: None))
    assert streamed * 3 < listed, (streamed, listed)


def test_h1_formula_fault_fails_the_battery(monkeypatch):
    lines = []
    assert selfcheck.run_selfcheck(3, write=lines.append) == 0
    monkeypatch.setattr(selfcheck, "_fiber_order", lambda fibers: 0)
    lines.clear()
    assert selfcheck.run_selfcheck(3, write=lines.append) == 3
    case7 = [inv.quadruple() for inv in valid_invariants(3)
             if classify(inv).case == 7]
    assert len(case7) > 3
    fails = [line for line in lines if line.startswith("FAIL")]
    assert fails == [f"FAIL {'h1-case-formulas':<26} mismatch at {case7[:3]}"]
    assert lines[-1] == "selfcheck: 1 hard failure(s)"


BATTERY_6 = """\
selfcheck: bound 6, 9312 admissible quadruples
PASS case-partition             9312 quadruples, exactly one case each
PASS h1-case-formulas           h1 matches the case formulas on 9312 results
PASS h1-on-homeo-classes        h1 constant on 94 classes
PASS case7-obstructions         66 fibered outputs prime and distinct from 21 lens-type classes
PASS framing-involution         double inversion fixes 1600 framings; saddle inverts to (1,2)
PASS seifert-normal-forms       200 random fiber lists: normalize/euler/h1/key consistent
PASS render-parse-roundtrip     98 distinct values round-trip
selfcheck: all 7 hard checks passed
"""


def test_battery_report_at_bound_6(capsys):
    # Every count of the default battery, line for line: the checks'
    # per-instance memos must not move any of them.
    assert cli.main(["selfcheck", "--bound", "6"]) == 0
    assert capsys.readouterr().out == BATTERY_6


def test_case_table_fault_fails_the_battery(monkeypatch):
    # Send the role pair |l1| = 1, |l2| >= 2 (case 4) to case 7.  The
    # case-partition check memoizes the predicates per (l1, l2) but must
    # still count every quadruple of that role pair, here counted from the
    # admissibility rules alone.
    bound = 3
    rng = range(-bound, bound + 1)
    hit = sum(1 for l1, m1, l2, m2 in itertools.product(rng, repeat=4)
              if abs(l1) == 1 and abs(l2) >= 2 and math.gcd(l2, m2) == 1)
    assert hit == 224
    table = [list(row) for row in classifier._ROLE_CASES]
    assert table[1][2] == 4
    table[1][2] = 7
    monkeypatch.setattr(classifier, "_ROLE_CASES", tuple(map(tuple, table)))
    lines = []
    assert selfcheck.run_selfcheck(bound, write=lines.append) == 3
    assert f"FAIL {'case-partition':<26} {hit} quadruples hit != 1 case" in lines
