import ast
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from nmsflow import classifier
from nmsflow.classifier import (
    FlowInvariant,
    InvalidFlowInvariant,
    InvariantKind,
    case_predicates,
    classify,
    classify_quadruple,
    enumerate_invariants,
    validate_invariant,
)
from nmsflow.homology import h1
from nmsflow.manifolds import (
    Lens,
    S2xS1,
    SeifertOverS2,
    Sphere,
    homeomorphic,
    homeomorphism_key,
)
from nmsflow.seifert import euler_number
from nmsflow.selfcheck import check_case_partition, tally
from oracles import (
    case7_count,
    case7_read,
    enumerate_bruteforce,
    filling_h1,
    filling_read,
    sign_read,
    valid_invariants,
)
from timelimit import deadline


def test_kind_of():
    assert validate_invariant(0, 2, 5, 2).kind is InvariantKind.INESSENTIAL
    assert validate_invariant(0, 1, 5, 2).kind is InvariantKind.ESSENTIAL
    assert validate_invariant(3, 5, -1, 0).kind is InvariantKind.ESSENTIAL
    for quad, rule in (((0, 3, 5, 2), "malformed-inessential-marker"),
                       ((2, 4, 5, 2), "non-coprime-pair"),
                       ((0, 2, 4, 2), "non-coprime-pair")):
        with pytest.raises(InvalidFlowInvariant) as err:
            validate_invariant(*quad)
        assert err.value.rule == rule, quad


def test_validate_invariant_rules():
    inv = validate_invariant(0, 2, 5, 2)
    assert inv.kind is InvariantKind.INESSENTIAL
    assert inv.quadruple() == (0, 2, 5, 2)
    assert validate_invariant(1, 0, 1, 1).kind is InvariantKind.ESSENTIAL

    for quad, rule in (((2, 4, 1, 0), "non-coprime-pair"),
                       ((0, 3, 1, 0), "malformed-inessential-marker"),
                       ((0, 2, 2, 4), "non-coprime-pair"),
                       ((0, -2, 1, 0), "malformed-inessential-marker")):
        with pytest.raises(InvalidFlowInvariant) as err:
            validate_invariant(*quad)
        assert err.value.rule == rule, quad


def test_invalid_flow_invariant_documents_exactly_the_rules_raised():
    # the rule strings of every InvalidFlowInvariant(...) in the package,
    # read with ast, against the quoted names in the class docstring
    raised = set()
    for path in Path(classifier.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "InvalidFlowInvariant"):
                rule = (node.args[1:] + [k.value for k in node.keywords])[0]
                raised.add(ast.literal_eval(rule))
    documented = set(re.findall(r'"([^"]+)"', InvalidFlowInvariant.__doc__))
    assert documented == raised == {"non-coprime-pair", "malformed-inessential-marker"}


def test_case_predicates_partition_exhaustively():
    for l1 in range(-12, 13):
        for l2 in range(-12, 13):
            hits = case_predicates(l1, l2)
            assert sum(hits) == 1, (l1, l2)
            assert classifier._case_of(l1, l2) == hits.index(True) + 1, (l1, l2)


def test_classify_worked_examples():
    expected = [
        ((0, 1, 5, 2), 1, "L(5,2) # RP3"),
        ((1, 0, 5, 2), 4, "S3"),
        ((2, 1, 3, 2), 7, "SFS(S2; (2,1),(2,1),(3,2))"),
        ((0, 2, 5, 2), 1, "L(5,2) # RP3"),
        ((1, 0, 1, 1), 6, "S3"),
    ]
    for quad, case, rendered in expected:
        res = classify_quadruple(*quad)
        assert res.case == case
        assert str(res.manifold) == rendered


def test_classify_case_structure():
    res = classify_quadruple(0, 1, 5, 2)
    assert res.intermediate_seifert is None

    res = classify_quadruple(5, 2, 0, 1)
    assert res.case == 2

    res = classify_quadruple(0, 2, 0, -1)
    assert res.case == 3
    assert str(res.manifold) == "S2xS1 # RP3"

    res = classify_quadruple(1, 0, 2, 1)
    assert res.case == 4 and res.manifold == S2xS1()

    res = classify_quadruple(10, 3, -1, 2)
    assert res.case == 5 and res.manifold == Lens(4, 1)

    res = classify_quadruple(-1, 0, 1, 0)
    assert res.case == 6 and res.manifold == Sphere()

    res = classify_quadruple(2, -1, 3, -2)
    assert res.case == 7
    assert res.manifold == SeifertOverS2(((2, 1), (2, 1), (3, 1)))


def test_intermediate_seifert_frozen():
    # classify keeps the triple in case 7 only, where it fibers the value;
    # test_filling_model_pins_both_reads pins the formal triple of 1 0 5 2.
    assert classify_quadruple(1, 0, 5, 2).intermediate_seifert is None
    assert (classify_quadruple(2, 1, 3, 2).intermediate_seifert
            == ((2, 1), (2, 1), (3, 2)))
    assert (classify_quadruple(3, 1, 5, 2).intermediate_seifert
            == ((2, 1), (3, 1), (5, 3)))
    assert (classify_quadruple(7, 3, -4, 1).intermediate_seifert
            == ((2, 1), (7, 5), (4, 1)))


def test_intermediate_beta_representatives():
    # beta_i is m_i^-1 in (0, |l_i|); the filling model reads (1, 0) at |l| = 1
    for l, m in [(5, 2), (5, -2), (-5, 2), (7, 3), (9, -4), (2, 1)]:
        alpha, beta = classify_quadruple(l, m, 3, 1).intermediate_seifert[1]
        assert alpha == abs(l)
        assert 0 < beta < alpha
        assert (beta * m - 1) % alpha == 0
    assert filling_read(1, 4, case7_read) == (1, 0)


def test_classify_requires_validated_invariant():
    with pytest.raises(InvalidFlowInvariant):
        classify_quadruple(4, 2, 1, 1)


def test_valid_invariants_bound_two():
    invs = list(valid_invariants(2))
    assert len(invs) == 272
    assert invs[0].quadruple() == (-2, -1, -2, -1)
    markers = [i for i in invs if i.kind is InvariantKind.INESSENTIAL]
    assert all(i.quadruple()[:2] == (0, 2) for i in markers)
    assert len(markers) == 16
    for inv in invs:
        assert math.gcd(inv.l2, inv.m2) == 1
        assert math.gcd(inv.l1, inv.m1) == 1 or (inv.l1, inv.m1) == (0, 2)


def test_enumerate_invariants_bound_two_frozen():
    groups = enumerate_invariants(2)
    table = [(str(c.representative), c.count) for c in groups]
    assert table == [
        ("S3", 100),
        ("S2xS1", 40),
        ("L(4,1)", 40),
        ("SFS(S2; (2,1),(2,1),(2,1))", 16),
        ("RP3", 50),
        ("S2xS1 # RP3", 6),
        ("RP3 # RP3", 20),
    ]
    assert sum(n for _, n in table) == 272
    for c in groups:
        for value in c.values:
            assert homeomorphic(value, c.representative)


@pytest.mark.parametrize("bound", range(9))
def test_enumerate_invariants_matches_bruteforce(bound):
    factored = [(c.representative, c.count, c.example, c.values)
                for c in enumerate_invariants(bound)]
    brute = [(rep, len(members), members[0].invariant.quadruple(),
              {r.manifold for r in members})
             for rep, members in enumerate_bruteforce(bound)]
    assert factored == brute


def test_enumerate_invariants_keys_each_value_once(monkeypatch):
    calls = []

    def counted(m):
        calls.append(m)
        return homeomorphism_key(m)

    monkeypatch.setattr(classifier, "homeomorphism_key", counted)
    groups = enumerate_invariants(6)
    values = set().union(*(c.values for c in groups))
    assert len(values) == 94
    assert len(calls) == len(values)
    assert set(calls) == values


def test_enumerate_invariants_classifies_once_per_side_class_pair(monkeypatch):
    # enumerate evaluates the formulas of _CASES on bucket reads, without
    # classify(); count the formula evaluations, by the role pair that
    # _case_of was last asked for.
    role_pairs = []
    returned: dict[tuple[int, int], list] = {}
    case_of = classifier._case_of

    def recorded(role1, role2):
        role_pairs.append((role1, role2))
        return case_of(role1, role2)

    def counted(formula):
        def evaluate(s1, s2):
            value = formula(s1, s2)
            returned.setdefault(role_pairs[-1], []).append(value)
            return value
        return evaluate

    monkeypatch.setattr(classifier, "_case_of", recorded)
    monkeypatch.setattr(classifier, "_CASES", tuple(
        (read1, read2, counted(formula))
        for read1, read2, formula in classifier._CASES))
    groups = enumerate_invariants(6)
    assert sum(c.count for c in groups) == 9312
    assert sum(map(len, returned.values())) == 124
    # One evaluation per distinct value within each role pair.
    for pair, values in returned.items():
        assert len(set(values)) == len(values), pair


def test_rows_that_read_both_sides_alike_have_symmetric_formulas():
    # classifier._products, the walk of enumerate_invariants and the
    # selfcheck tally, takes unordered bucket pairs on such rows; case 7
    # is the one whose reads vary, (|l|, m^-1 mod |l|).
    sides = classifier._sides(6)[1]
    alike = []
    for case, (read1, read2, formula) in enumerate(classifier._CASES, 1):
        if read1 is read2:
            alike.append(case)
            reads = {read1(*pair) for pair in sides
                     if classifier._case_of(pair[0], pair[0]) == case}
            for r1 in reads:
                for r2 in reads:
                    assert formula(r1, r2) == formula(r2, r1), (case, r1, r2)
    assert alike == [3, 6, 7]


def _admissible_side_count(bound, marker):
    rng = range(-bound, bound + 1)
    return sum(1 for l in rng for m in rng
               if math.gcd(l, m) == 1 or (marker and (l, m) == (0, 2)))


def test_enumerate_invariants_bound_fifteen_counts():
    expected = (_admissible_side_count(15, True)
                * _admissible_side_count(15, False))
    assert expected == 332352
    with deadline(10.0):
        groups = enumerate_invariants(15)
    assert sum(c.count for c in groups) == expected


_BIG = 10**6


@st.composite
def _side(draw, role, marker, big=_BIG):
    """An admissible pair whose l has the role min(|l|, 2), |entries| <= big."""
    if role == 0:
        return draw(st.sampled_from([(0, -1), (0, 1)] + [(0, 2)] * marker))
    if role == 1:
        return (draw(st.sampled_from([-1, 1])), draw(st.integers(-big, big)))
    l = draw(st.integers(2, big)) * draw(st.sampled_from([-1, 1]))
    m = draw(st.integers(-big, big))
    assume(math.gcd(l, m) == 1)
    return (l, m)


@given(st.data())
def test_classify_reads_only_the_side_classes(data):
    roles = data.draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
    side1 = data.draw(_side(roles[0], True))
    side2 = data.draw(_side(roles[1], False))
    result = classify_quadruple(*side1, *side2)
    # Case 7 reads each side's fiber (|l|, m^-1 mod |l|).  Otherwise the
    # formula reads side 2 in cases 1 and 4, side 1 in cases 2 and 5, and
    # neither side in cases 3 and 6; an unread side may be any pair of its role.
    read = {1: (False, True), 2: (True, False), 4: (False, True),
            5: (True, False)}.get(result.case, (False, False))
    moved = []
    for i, (l, m) in enumerate((side1, side2)):
        if result.case == 7:
            t = data.draw(st.integers(-_BIG, _BIG))
            moved.append((data.draw(st.sampled_from([-l, l])), m + t * abs(l)))
        elif read[i]:
            moved.append((l, m))
        else:
            moved.append(data.draw(_side(roles[i], i == 0)))
    assert classify_quadruple(*moved[0], *moved[1]).manifold == result.manifold


def _assert_case7_family(manifold):
    # SFS(S2; (2,1),(a,x),(c,y)) with 0 < x < a, 0 < y < c, so 1/2 < e < 5/2,
    # and |H1| = 2ac * e = a*c + 2*(x*c + y*a) >= 12, with equality only at
    # a = c = 2: no case-7 value is an integral homology sphere.
    fibers = list(manifold.fibers)
    fibers.remove((2, 1))
    (a, x), (c, y) = fibers
    assert 0 < x < a and 0 < y < c, manifold
    assert Fraction(1, 2) < euler_number(manifold.fibers) < Fraction(5, 2), manifold
    group = h1(manifold)
    order = a * c + 2 * (x * c + y * a)
    assert group.free_rank == 0 and group.order() == order, manifold
    assert order >= 12, manifold
    assert (order == 12) == (manifold.fibers == ((2, 1),) * 3), manifold


def test_case7_family_bound_ten():
    first, second = classifier._sides(10)
    values = {classify_quadruple(*side1, *side2).manifold
              for side1 in first if abs(side1[0]) > 1
              for side2 in second if abs(side2[0]) > 1}
    assert len(values) == 496
    for manifold in values:
        _assert_case7_family(manifold)


@given(_side(2, True, 10**12), _side(2, False, 10**12))
def test_case7_family_twelve_digit_entries(side1, side2):
    result = classify_quadruple(*side1, *side2)
    assert result.case == 7
    _assert_case7_family(result.manifold)


def test_classify_consistent_with_predicates_small_grid():
    for inv in valid_invariants(3):
        res = classify(inv)
        hits = case_predicates(inv.l1, inv.l2)
        assert hits.index(True) + 1 == res.case
        revalidated = validate_invariant(*inv.quadruple())
        assert revalidated == inv


@given(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12))
def test_case_of_role_table_matches_predicates(l1, l2):
    assert classifier._case_of(l1, l2) == case_predicates(l1, l2).index(True) + 1


def _partition_verdict():
    cases, _ = tally(3)
    return check_case_partition(cases)


def test_check_partition_catches_a_wrong_role_table(monkeypatch):
    assert _partition_verdict()[0]
    table = [list(row) for row in classifier._ROLE_CASES]
    table[2][2] = 5  # |l1|, |l2| >= 2 is case 7, not 5
    monkeypatch.setattr(classifier, "_ROLE_CASES", tuple(map(tuple, table)))
    ok, detail = _partition_verdict()
    assert not ok
    assert detail.endswith("quadruples hit != 1 case")


def test_classify_intermediate_seifert_is_the_shared_read():
    for inv in valid_invariants(6):
        res = classify(inv)
        inter = res.intermediate_seifert
        if res.case == 7:
            assert inter == ((2, 1), case7_read(inv.l1, inv.m1),
                             case7_read(inv.l2, inv.m2)), inv
        else:
            assert inter is None, inv


def test_filling_model_pins_both_reads():
    # ROADMAP item 8's question, pinned: with one Dehn-filling model for
    # all seven cases, case 7's read fits cases 1, 2, 3, 6 and 7, the sign
    # read fits cases 1-6, and they part only on sides with |l| >= 2.  An
    # edit to a case formula or a read shows up in these counts.
    totals, matches = {}, {case7_read: {}, sign_read: {}}
    for inv in valid_invariants(6):
        res = classify(inv)
        group = h1(res.manifold)
        totals[res.case] = totals.get(res.case, 0) + 1
        for read, hits in matches.items():
            if filling_h1(*inv.quadruple(), read) == group:
                hits[res.case] = hits.get(res.case, 0) + 1
    assert totals == {1: 282, 2: 188, 3: 6, 4: 1768, 5: 1768, 6: 676, 7: 4624}
    assert matches[case7_read] == {**totals, 4: 468, 5: 468}
    assert matches[sign_read] == {**totals, 7: 546}
    # case 4's 1 0 5 2 is S3; case 7's read makes it (2,1),(1,0),(5,3), Z/11
    assert classify_quadruple(1, 0, 5, 2).manifold == Sphere()
    assert filling_read(5, 2, case7_read) == (5, 3)
    assert str(filling_h1(1, 0, 5, 2, case7_read)) == "Z/11"
    assert str(filling_h1(1, 0, 5, 2, sign_read)) == "0"


def test_case7_counts_match_the_residue_progressions_at_bound_twenty():
    # every class of case-7 values counts the quadruples of its values
    classes = [c for c in enumerate_invariants(20)
               if isinstance(c.representative, SeifertOverS2)]
    assert len(classes) == 8128
    for c in classes:
        assert c.count == sum(case7_count(v, 20) for v in c.values), c


def test_flow_invariant_is_frozen():
    inv = validate_invariant(2, 1, 3, 2)
    assert inv == FlowInvariant(2, 1, 3, 2)
    with pytest.raises(AttributeError):
        inv.l1 = 5
    # the kind is read off side 1, not stored
    marker = FlowInvariant(0, 2, 5, 2)
    assert marker.kind is InvariantKind.INESSENTIAL
    assert "kind" not in FlowInvariant.__slots__
    with pytest.raises(AttributeError):
        marker.kind = InvariantKind.ESSENTIAL


def test_classifier_module_exports():
    assert classifier.classify_quadruple is classify_quadruple
