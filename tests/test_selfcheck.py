"""selfcheck's tallies and battery, against per-quadruple reference loops."""

import difflib
import itertools
import math
import tracemalloc
from pathlib import Path

import pytest

from nmsflow import classifier, cli, selfcheck
from nmsflow.classifier import case_predicates, classify
from nmsflow.homology import AbelianGroup, h1
from nmsflow.manifolds import Sphere, lens_canonical
from oracles import tally_by_classify, valid_invariants
from timelimit import deadline

BOUNDS_0_TO_8 = Path(__file__).parent / "data" / "selfcheck_bounds.txt"


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
    # Every count of the default battery, line for line: counting by key
    # in the tallies must not move any of them.
    assert cli.main(["selfcheck", "--bound", "6"]) == 0
    assert capsys.readouterr().out == BATTERY_6


def test_battery_reports_at_bounds_0_to_8_match_table(capsys):
    # The table is the stdout of `selfcheck --bound 0` to `--bound 8`, one
    # battery after the other; every count in it must hold under any
    # rewrite of how the checks count.  The diff names the lines that moved.
    with deadline(60.0):
        for bound in range(9):
            assert cli.main(["selfcheck", "--bound", str(bound)]) == 0
    out = capsys.readouterr().out
    table = BOUNDS_0_TO_8.read_text()
    diff = difflib.unified_diff(table.splitlines(), out.splitlines(), "table",
                                "selfcheck --bound 0..8", n=0, lineterm="")
    assert out == table, "lines that differ:\n" + "\n".join(diff)


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


def test_case_partition_fault_counts_every_quadruple(monkeypatch):
    # Send l1 = 1, |l2| >= 2 to case 7 but leave l1 = -1 in case 4: the
    # fault splits a role pair.  The reference loop compares each
    # quadruple with the predicates, with no memo.
    case_of = classifier._case_of
    monkeypatch.setattr(classifier, "_case_of", lambda l1, l2: (
        7 if l1 == 1 and abs(l2) >= 2 else case_of(l1, l2)))
    hit = 0
    for inv in valid_invariants(4):
        hits = case_predicates(inv.l1, inv.l2)
        if sum(hits) != 1 or hits.index(True) + 1 != classify(inv).case:
            hit += 1
    assert hit > 0
    lines = []
    assert selfcheck.run_selfcheck(4, write=lines.append) == 3
    assert f"FAIL {'case-partition':<26} {hit} quadruples hit != 1 case" in lines


def test_h1_sum_formula_fault_names_the_first_three_quadruples(monkeypatch):
    # Make the expected group of cases 1 to 3 wrong for l = 3 alone.  The
    # reference loop recomputes h1 per quadruple, with no memo, and keeps
    # every mismatch in input order.
    expected = selfcheck._expected_sum_group
    monkeypatch.setattr(selfcheck, "_expected_sum_group", lambda l: (
        AbelianGroup(0, (5,)) if l == 3 else expected(l)))
    bad = []
    for inv in valid_invariants(4):
        r = classify(inv)
        if r.case <= 3:
            l = inv.l2 if r.case == 1 else inv.l1 if r.case == 2 else 0
            if h1(r.manifold) != selfcheck._expected_sum_group(l):
                bad.append(inv.quadruple())
    assert len(bad) > 3
    lines = []
    assert selfcheck.run_selfcheck(4, write=lines.append) == 3
    fails = [line for line in lines if line.startswith("FAIL")]
    assert fails == [f"FAIL {'h1-case-formulas':<26} mismatch at {bad[:3]}"]


@pytest.mark.parametrize("bound", range(11))
def test_tally_equals_the_per_quadruple_oracle(bound):
    # The factored tally against one classify per quadruple: the same
    # cells, and per key the same count and the same first three
    # invariants.
    cases, values = selfcheck.tally(bound)
    oracle_cases, oracle_values = tally_by_classify(bound)
    assert cases == oracle_cases
    assert values.keys() == oracle_values.keys()
    for key, record in oracle_values.items():
        assert values[key] == record, key


def test_classify_fault_on_a_recorded_quadruple_fails_the_battery(monkeypatch):
    # classify gives another manifold for the first quadruple of one
    # case-7 key, and for no other: the battery's classify pass over the
    # recorded quadruples must name it, and nothing else may fail.
    bound = 4
    _, values = selfcheck.tally(bound)
    key, (_, inv, *_) = next((key, record) for key, record in values.items()
                             if key[0] == 7)
    assert key[1] != Sphere()
    classify = selfcheck.classify

    def faulty(i):
        r = classify(i)
        if i != inv:
            return r
        return classifier.ClassificationResult(i, r.case, Sphere(),
                                               r.intermediate_seifert)

    monkeypatch.setattr(selfcheck, "classify", faulty)
    lines = []
    assert selfcheck.run_selfcheck(bound, write=lines.append) == 3
    fails = [line for line in lines if line.startswith("FAIL")]
    assert fails == [f"FAIL {'h1-case-formulas':<26} mismatch at {[inv.quadruple()]}"]


def test_battery_classifies_only_recorded_quadruples(monkeypatch):
    # The tally evaluates case formulas per product of side buckets;
    # classify runs once per recorded quadruple, at most three per key,
    # not once per quadruple.
    _, values = selfcheck.tally(6)
    recorded = sum(min(n, 3) for n, *_ in values.values())
    assert recorded == 534
    calls = 0
    classify = selfcheck.classify

    def counted(inv):
        nonlocal calls
        calls += 1
        return classify(inv)

    monkeypatch.setattr(selfcheck, "classify", counted)
    assert selfcheck.run_selfcheck(6, write=lambda line: None) == 0
    assert calls == recorded


@pytest.mark.parametrize("edit", ["formula", "read"])
def test_case_formula_fault_fails_the_battery(monkeypatch, edit):
    # Make case 4 give a lens space whose order is not the case's closed
    # form: its formula gives one more than the order, or its side-2 read
    # is the side's own lens L(l2, m2), not L(2*m2 - l2, m2).  The tally
    # must read the same table as classify, at the time it is called: it
    # still equals the per-quadruple oracle, and h1 fails on every case-4
    # quadruple.
    bound = 3
    read1, read2, formula = classifier._CASES[3]
    table = list(classifier._CASES)
    if edit == "formula":
        table[3] = (read1, read2,
                    lambda _, lens: lens_canonical(h1(lens).order() + 1, 1))
    else:
        table[3] = (read1, classifier._lens, formula)
    monkeypatch.setattr(classifier, "_CASES", tuple(table))
    assert selfcheck.tally(bound) == tally_by_classify(bound)
    case4 = [inv.quadruple() for inv in valid_invariants(bound)
             if classify(inv).case == 4]
    assert len(case4) > 3
    lines = []
    assert selfcheck.run_selfcheck(bound, write=lines.append) == 3
    fails = [line for line in lines if line.startswith("FAIL")]
    assert fails == [f"FAIL {'h1-case-formulas':<26} mismatch at {case4[:3]}"]


def test_one_formula_evaluation_per_product_of_side_buckets(monkeypatch):
    # The tally and enumerate fold over one walk, which evaluates a case
    # formula once per product of a bucket per side within a role pair,
    # and once per unordered pair on the symmetric rows.  A walk per
    # (l1, l2) cell would repeat the formulas of cells that differ only
    # in the signs of l1 and l2: 789 evaluations at bound 6, 22,365 at 15.
    evaluations = 0

    def counted(formula):
        def evaluate(s1, s2):
            nonlocal evaluations
            evaluations += 1
            return formula(s1, s2)
        return evaluate

    monkeypatch.setattr(classifier, "_CASES", tuple(
        (read1, read2, counted(formula))
        for read1, read2, formula in classifier._CASES))
    for run, bound, expected in ((selfcheck.tally, 6, 178),
                                 (selfcheck.tally, 15, 3240),
                                 (classifier.enumerate_invariants, 10, 648)):
        evaluations = 0
        run(bound)
        assert evaluations == expected, (run.__name__, bound)


def test_tally_keeps_both_orders_of_a_symmetric_product(monkeypatch):
    # On the rows of _CASES every case-7 bucket holds at least four pairs,
    # so a product's least three quadruples come from its first order.
    # Let case 7 read each side as its own pair, under the symmetric
    # formula {a, b}: each bucket is one pair, so an off-diagonal product
    # holds a quadruple and its swap, and keeps the swap only through the
    # second order of its first pairs.
    def own_pair(l, m):
        return (l, m)

    table = list(classifier._CASES)
    table[6] = (own_pair, own_pair, lambda a, b: frozenset((a, b)))
    monkeypatch.setattr(classifier, "_CASES", tuple(table))
    assert selfcheck.tally(3) == tally_by_classify(3)
