"""Internal consistency battery behind the `selfcheck` command.

Hard checks cross-validate independent routes to the same answers (case
partition, homology against the case formulas and across homeomorphism
classes, the case-7 obstructions, framing involution, Seifert normal
forms with homology kept by them and by the homeomorphism key,
render/parse round trips).  Each is one entry in the ordered registry
CHECKS, with its sizes and seed as keyword arguments; run_selfcheck runs
them at their defaults, and the acceptance tests call the same checks at
larger sizes.  Each is a plain function that returns (ok, detail).  Any
hard failure makes the run return 3.  The three per-quadruple checks
read the two tallies of tally(), which count the admissible quadruples
by (l1, l2, case) and by (case, manifold, x), x being the rest of what
the case's h1 formula reads, and keep the first three quadruples of each
key.  Like enumerate_invariants, the tally is a fold over the walk
classifier._products, one case formula per product of side buckets;
classify runs only on the kept quadruples, in the h1 check, and the tests
hold the tallies equal to an oracle that classifies every quadruple.
Each check's verdict is a function of a key: the case predicates of
(l1, l2), or h1 of the value, computed once per value, against x.  A
failing key fails all its quadruples, so the checks count every
quadruple while their work grows with the number of distinct keys, not
of quadruples.  The checks over homeomorphism classes read the tally's
distinct values grouped by homeomorphism_key, so the battery walks the
quadruples once.
"""

from __future__ import annotations

import math

from . import classifier, seifert
from .classifier import FlowInvariant, case_predicates, classify
from .expressions import parse_manifold
from .homology import AbelianGroup, h1, h1_seifert_presentation
from .manifolds import (
    Lens,
    RP3,
    S2xS1,
    Sphere,
    homeomorphism_key,
    is_prime,
    seifert_over_s2,
)
from .surgery import Framing, framing_equivalent, invert_framing, saddle_framing

_SEED = 0x3A7D


def _no_x(l: int, m: int) -> int:
    return 0


def _l_x(l: int, m: int) -> int:
    return l


def _shifted_x(l: int, m: int) -> int:
    return 2 * m - l


# What each side supplies of x, per case in case order: x is
# x1(l1, m1) + x2(l2, m2), the rest of what the case's h1 formula reads.
_X_READS = ((_no_x, _l_x), (_l_x, _no_x), (_no_x, _no_x), (_no_x, _shifted_x),
            (_shifted_x, _no_x), (_no_x, _no_x), (_no_x, _no_x))


def tally(bound: int) -> tuple[dict, dict]:
    """Count the admissible quadruples with |entries| <= bound into two
    tallies, (cases, values), without classifying them one at a time.

    `cases` maps (l1, l2, case) to its number of quadruples, the product
    of the numbers of pairs with l1 and with l2 in classifier._sides.
    `values` maps (case, manifold, x) to one list, [count, *first], where
    first holds the key's first three invariants in lexicographic order,
    its least, and x is what the case's h1 formula reads besides the
    manifold: l2 in case 1, l1 in case 2, 2*m2 - l2 in case 4,
    2*m1 - l1 in case 5 and 0 in cases 3, 6 and 7.

    `values` is a fold over classifier._products.  A side's read in case
    k is the pair of its read in row k of classifier._CASES, the table
    classify evaluates, and the part of x it supplies (_X_READS); both
    tables are read at each call.  The row's formula gives the manifold of
    each product, whose least quadruples merge into the key's three.  A
    FlowInvariant is built only for the quadruples kept, and
    check_h1_case_formulas sends each of them through classify.  The
    tests hold the tallies equal to tests/oracles.py's tally_by_classify,
    which classifies every quadruple, at bounds 0 to 10.
    """
    from collections import Counter  # here, so that the CLI start-up skips it

    sides = classifier._sides(bound)
    per_l1, per_l2 = (Counter(l for l, _ in side) for side in sides)
    cases = {(l1, l2, classifier._case_of(l1, l2)): n1 * n2
             for l1, n1 in per_l1.items() for l2, n2 in per_l2.items()}
    table = classifier._CASES
    reads = []
    for (read1, read2, _), (x1, x2) in zip(table, _X_READS):
        side1 = _with_x(read1, x1)
        reads.append((side1, side1 if (read1, x1) == (read2, x2)
                      else _with_x(read2, x2)))
    values = {}  # (case, manifold, x) -> [count, least three quadruples]
    for case, (s1, x1), (s2, x2), count, firsts in classifier._products(
            sides, reads):
        record = values.setdefault(
            (case, table[case - 1][2](s1, s2), x1 + x2), [0, []])
        record[0] += count
        record[1] = sorted(record[1] + [a + b for first1, first2 in firsts
                                        for a in first1 for b in first2])[:3]
    for record in values.values():
        record[1:] = [FlowInvariant(*q) for q in record[1]]
    return cases, values


def _with_x(read, x_read):
    # One side's read in the tally: the case's read and the side's part of x.
    return lambda l, m: (read(l, m), x_read(l, m))


def check_case_partition(cases):
    """Each quadruple hits exactly one case predicate, the case reported.

    classify reads its case from the role table behind
    classifier._case_of, so this compares that table with the paper's
    case_predicates, once per (l1, l2, case) of the tally; a failing key
    counts all its quadruples."""
    count = bad = 0
    for (l1, l2, case), n in cases.items():
        count += n
        hits = case_predicates(l1, l2)
        if sum(hits) != 1 or hits.index(True) + 1 != case:
            bad += n
    return (bad == 0,
            f"{count} quadruples, exactly one case each"
            if bad == 0 else f"{bad} quadruples hit != 1 case")


def _expected_sum_group(l: int) -> AbelianGroup:
    # Z/|l| + Z/2 in invariant-factor form; Z + Z/2 at l = 0.
    if l == 0:
        return AbelianGroup(1, (2,))
    a = abs(l)
    g = math.gcd(a, 2)
    return AbelianGroup(0, tuple(d for d in (g, a * 2 // g) if d >= 2))


def _fiber_order(fibers) -> int:
    total = 0
    for i in range(len(fibers)):
        prod = 1
        for j, (alpha, _) in enumerate(fibers):
            if j != i:
                prod *= alpha
        total += fibers[i][1] * prod
    return abs(total)


def check_h1_case_formulas(values):
    """h1 of each classifier output against the per-case closed form.

    The verdict is a function of the key (case, manifold, x) of the tally,
    with h1 computed once per distinct value: cases 1 to 3 expect
    _expected_sum_group(x), cases 4 and 5 order |x|, case 6 the trivial
    group and case 7 the _fiber_order of its fibers.  Every quadruple of
    a failing key fails, so the first three failing quadruples, in input
    order, are among the first three of their keys.  Each of a passing
    key's first quadruples also goes through classify, which must give
    the key's case and manifold; one that does not fails alone."""
    h1_of = {}
    count = 0
    bad = []
    for (case, m, x), (n, *first) in values.items():
        count += n
        group = h1_of.get(m)
        if group is None:
            group = h1_of[m] = h1(m)
        if case <= 3:
            ok = group == _expected_sum_group(x)
        elif case <= 5:
            ok = group.order() == abs(x)
        elif case == 6:
            ok = group == AbelianGroup(0)
        else:
            ok = group.order() == _fiber_order(m.fibers)
        for inv in first:
            if not ok or not _classifies_as(inv, case, m):
                bad.append(inv.quadruple())
    bad = sorted(bad)[:3]
    return (not bad,
            f"h1 matches the case formulas on {count} results"
            if not bad else f"mismatch at {bad}")


def _classifies_as(inv, case, manifold) -> bool:
    r = classify(inv)
    return r.case == case and r.manifold == manifold


def check_h1_classes(classes):
    """h1 is constant on each homeomorphism class: on its key and on the
    values of `classes`, which maps each key to its values."""
    bad = sum(1 for key, members in classes.items()
              if len({h1(m) for m in {key, *members}}) != 1)
    return (bad == 0,
            f"h1 constant on {len(classes)} classes"
            if bad == 0 else f"{bad} classes with mixed h1")


def check_case7_obstructions(values, lens_like):
    """Case-7 outputs pass the three-fiber obstruction, are prime, and are
    homeomorphic to none of the lens-type values `lens_like`.  Each
    distinct case-7 value of the tally is checked once."""
    outputs = [m for case, m, _ in values if case == 7]
    lens_keys = {homeomorphism_key(m) for m in lens_like}
    bad = sum(1 for m in outputs
              if not seifert.not_lens_obstruction(m.fibers)
              or not is_prime(m)
              or homeomorphism_key(m) in lens_keys)
    return (bad == 0,
            f"{len(outputs)} fibered outputs prime and distinct from "
            f"{len(lens_like)} lens-type classes"
            if bad == 0 else f"{bad} fibered outputs failed")


def check_framing_involution(*, limit=25):
    """Inverting a framing twice gives an equivalent framing, for every
    coprime (beta, alpha) in [-limit, limit]^2; the saddle inverts to (1,2)."""
    count = 0
    bad = 0
    for beta in range(-limit, limit + 1):
        for alpha in range(-limit, limit + 1):
            if math.gcd(beta, alpha) != 1:
                continue
            f = Framing(beta, alpha)
            count += 1
            if not framing_equivalent(invert_framing(invert_framing(f)), f):
                bad += 1
    if not framing_equivalent(invert_framing(saddle_framing()), Framing(1, 2)):
        bad += 1
    return (bad == 0,
            f"double inversion fixes {count} framings; saddle inverts to (1,2)"
            if bad == 0 else f"{bad} violations")


def random_fibers(rng, max_len=4, alpha_max=9, beta_max=9):
    """Up to max_len valid fiber pairs, alpha in [1, alpha_max] and beta in
    [-beta_max, beta_max]."""
    fibers = []
    for _ in range(rng.randint(0, max_len)):
        alpha = rng.randint(1, alpha_max)
        while True:
            beta = rng.randint(-beta_max, beta_max)
            if alpha == 1 or math.gcd(alpha, beta) == 1:
                break
        fibers.append((alpha, beta))
    return tuple(fibers)


def check_seifert_forms(*, count=200, max_len=4, seed=_SEED + 1):
    """normalize is idempotent and keeps the Euler number and h1, and the
    homeomorphism key keeps h1: h1's closed form on the normal form and on
    the key both equal h1 of the relation matrix of the raw data, computed
    once per list.  The isomorphism key ignores order and ordinary (1, 0)
    fibers."""
    from random import Random  # here, so that the CLI start-up skips it

    rng = Random(seed)
    bad = 0
    for _ in range(count):
        s = random_fibers(rng, max_len)
        n = seifert.normalize(s)
        if seifert.normalize(n) != n:
            bad += 1
        if seifert.euler_number(n) != seifert.euler_number(s):
            bad += 1
        presented = h1_seifert_presentation(s)
        value = seifert_over_s2(s)  # fibers n, or S2xS1 if n is empty
        if h1(value) != presented:
            bad += 1
        if h1(homeomorphism_key(value)) != presented:
            bad += 1
        shuffled = list(s)
        rng.shuffle(shuffled)
        shuffled.append((1, 0))
        if seifert.isomorphism_key(s) != seifert.isomorphism_key(shuffled):
            bad += 1
    return (bad == 0,
            f"{count} random fiber lists: normalize/euler/h1/key consistent"
            if bad == 0 else f"{bad} violations")


def check_roundtrip(classes):
    """Every key and value of `classes` survives render then parse."""
    values = set(classes).union(*classes.values())
    bad = [m for m in values if parse_manifold(str(m)) != m]
    return (not bad,
            f"{len(values)} distinct values round-trip"
            if not bad else f"{len(bad)} values failed, e.g. {bad[0]}")


# Registry of hard checks in report order: name, check, and the inputs
# that run_selfcheck derives from its bound and passes positionally.
CHECKS = (
    ("case-partition", check_case_partition, ("cases",)),
    ("h1-case-formulas", check_h1_case_formulas, ("values",)),
    ("h1-on-homeo-classes", check_h1_classes, ("classes",)),
    ("case7-obstructions", check_case7_obstructions, ("values", "lens_like")),
    ("framing-involution", check_framing_involution, ()),
    ("seifert-normal-forms", check_seifert_forms, ()),
    ("render-parse-roundtrip", check_roundtrip, ("classes",)),
)


def run_selfcheck(bound: int, write=print) -> int:
    """Run every registered check at its defaults and the given bound.

    `cases` and `values` are the two tallies of tally(bound), one fold
    over the walk classifier._products that keeps no result per
    quadruple, so memory grows with the number of distinct keys, not of
    quadruples.  `classes` maps each homeomorphism key to the distinct
    values of the tally with that key, and `lens_like` holds the
    lens-type keys.  tally and enumerate_invariants evaluate the same
    case formulas over the same quadruples, so these are the classes of
    enumerate_invariants without a second walk.  Returns 0 when all hard
    checks pass, 3 otherwise.
    """
    cases, values = tally(bound)
    classes = {}
    for m in {m for _, m, _ in values}:
        classes.setdefault(homeomorphism_key(m), set()).add(m)
    inputs = {
        "cases": cases,
        "values": values,
        "classes": classes,
        "lens_like": [key for key in classes
                      if isinstance(key, (Sphere, S2xS1, RP3, Lens))],
    }
    write(f"selfcheck: bound {bound}, {sum(cases.values())} admissible quadruples")
    failures = 0
    for name, check, needs in CHECKS:
        ok, detail = check(*(inputs[k] for k in needs))
        if not ok:
            failures += 1
        write(f"{'PASS' if ok else 'FAIL'} {name:<26} {detail}")
    if failures:
        write(f"selfcheck: {failures} hard failure(s)")
        return 3
    write(f"selfcheck: all {len(CHECKS)} hard checks passed")
    return 0
