"""run_selfcheck's single pass over the admissible quadruples."""

import tracemalloc

from nmsflow import selfcheck
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
