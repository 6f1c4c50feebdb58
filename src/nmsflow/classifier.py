"""The seven-case topological classification of admissible flow invariants.

A flow with exactly one twisted saddle orbit is pinned down by a quadruple
(l1, m1, l2, m2): the pair (l1, m1) describes the repelling side, (l2, m2)
the attracting side.  Both pairs are coprime for essential invariants; the
marker (l1, m1) = (0, 2) is the single admissible inessential shape.  The
ambient manifold depends only on the quadruple through the case formulas
of the table _CASES; classify() evaluates them verbatim over exact
integers.
"""

from __future__ import annotations

import math

from . import seifert
from .manifolds import (
    Manifold,
    RP3,
    S2xS1,
    Sphere,
    Value,
    _seifert,
    _slot_setters,
    homeomorphism_key,
    lens_canonical,
    sort_key,
    sum_normalize,
)


class InvalidFlowInvariant(ValueError):
    """A quadruple violates the admissibility rules.

    The attribute `rule` names the violated rule of validate_invariant:
    "non-coprime-pair" or "malformed-inessential-marker".
    """

    def __init__(self, message: str, rule: str):
        super().__init__(f"{rule}: {message}")
        self.rule = rule


class InvariantKind:
    """The kinds of a FlowInvariant, as classify --json writes them."""
    ESSENTIAL = "essential"
    INESSENTIAL = "inessential"


class FlowInvariant(Value):
    """A validated quadruple; build through validate_invariant().

    The quadruple is all it stores: its kind is read off side 1.
    """
    __slots__ = ("l1", "m1", "l2", "m2")

    def __init__(self, l1: int, m1: int, l2: int, m2: int) -> None:
        _set_l1(self, l1)
        _set_m1(self, m1)
        _set_l2(self, l2)
        _set_m2(self, m2)

    @property
    def kind(self) -> str:
        return (InvariantKind.INESSENTIAL if (self.l1, self.m1) == _MARKER
                else InvariantKind.ESSENTIAL)

    def quadruple(self) -> tuple[int, int, int, int]:
        return (self.l1, self.m1, self.l2, self.m2)


_set_l1, _set_m1, _set_l2, _set_m2 = _slot_setters(FlowInvariant)


_MARKER = (0, 2)


def _admissible(l: int, m: int, side: int) -> bool:
    """The side rule: (l, m) is coprime, or the marker (0, 2) on side 1."""
    return math.gcd(l, m) == 1 or (side == 1 and (l, m) == _MARKER)


def validate_invariant(l1: int, m1: int, l2: int, m2: int) -> FlowInvariant:
    """Check admissibility and build the invariant.

    Essential: gcd(l1, m1) = 1 and gcd(l2, m2) = 1.  Inessential: (l1, m1)
    is exactly the marker (0, 2) and gcd(l2, m2) = 1.  Anything else raises
    InvalidFlowInvariant naming the violated rule, side 2's first.
    """
    if not _admissible(l2, m2, 2):
        raise InvalidFlowInvariant(
            f"(l2, m2) = ({l2}, {m2}) is not coprime", "non-coprime-pair")
    if _admissible(l1, m1, 1):
        return FlowInvariant(l1, m1, l2, m2)
    if l1 == 0:
        raise InvalidFlowInvariant(
            f"(l1, m1) = (0, {m1}) is neither coprime nor the marker (0, 2)",
            "malformed-inessential-marker")
    raise InvalidFlowInvariant(
        f"(l1, m1) = ({l1}, {m1}) is not coprime", "non-coprime-pair")


def case_predicates(l1: int, l2: int) -> tuple[bool, ...]:
    """The seven case conditions, exactly as stated; they partition."""
    return (
        l1 == 0 and l2 != 0,
        l1 != 0 and l2 == 0,
        l1 == 0 and l2 == 0,
        abs(l1) == 1 and abs(l2) > 1,
        abs(l2) == 1 and abs(l1) > 1,
        abs(l1 * l2) == 1,
        abs(l1) > 1 and abs(l2) > 1,
    )


# The role table: _ROLE_CASES[r1][r2] is the case number for side roles
# r_i = min(|l_i|, 2), that is l = 0, |l| = 1 or |l| >= 2.  case_predicates
# tests nothing but those roles, so the table is the predicates evaluated
# at the role values; selfcheck's case-partition check compares the two
# on every (l1, l2) cell of its tally.
_ROLE_CASES = tuple(tuple(case_predicates(r1, r2).index(True) + 1
                          for r2 in range(3)) for r1 in range(3))


def _case_of(l1: int, l2: int) -> int:
    # The number of the one case predicate that holds, from the role table.
    return _ROLE_CASES[min(abs(l1), 2)][min(abs(l2), 2)]


class ClassificationResult(Value):
    """Outcome of the case analysis for one invariant.

    `intermediate_seifert` is the unreduced fiber data (2,1), (|l1|, beta1),
    (|l2|, beta2), beta_i = m_i^-1 (mod |l_i|) in (0, |l_i|), that fibers
    `manifold` in case 7; it is None in every other case.  The input
    invariant is retained, so sign provenance survives the |l|
    multiplicities in the output, and the raw parameters of the lens
    summand in cases 1 to 3 are read off it.
    """
    __slots__ = ("invariant", "case", "manifold", "intermediate_seifert")

    def __init__(self, invariant: FlowInvariant, case: int, manifold: Manifold,
                 intermediate_seifert: seifert.SeifertData | None) -> None:
        _set_invariant(self, invariant)
        _set_case(self, case)
        _set_manifold(self, manifold)
        _set_intermediate_seifert(self, intermediate_seifert)


_set_invariant, _set_case, _set_manifold, _set_intermediate_seifert = (
    _slot_setters(ClassificationResult))


def _unread(l: int, m: int) -> None:
    return None


def _lens(l: int, m: int) -> Manifold:
    # The side's own lens space L(l, m), canonical.  A function of its own,
    # like _shifted_lens, so that each read goes through the module's
    # binding of lens_canonical, which the benchmark's tracer rebinds.
    return lens_canonical(l, m)


def _shifted_lens(l: int, m: int) -> Manifold:
    # L(2m - l, m), canonical.
    return lens_canonical(2 * m - l, m)


def _fiber(l: int, m: int) -> tuple[int, int]:
    # The intermediate fiber of one side: (|l|, m^-1 mod |l|), in (0, |l|)
    # for |l| >= 2.  seifert.nu_of without its checks: validate_invariant
    # has checked gcd(l, m) = 1.
    n = abs(l)
    return (n, pow(m, -1, n))


# The seven cases, in case order.  Row k is (read1, read2, formula): read_i
# maps side i's pair (l, m) to what case k reads of it, and the manifold is
# formula(read1(l1, m1), read2(l2, m2)).  The formula sees nothing else, so
# two quadruples of one case whose sides read equal give the same manifold;
# _products, the walk that enumerate_invariants and selfcheck.tally fold
# over, factors over that.  The lens cases read their lens value itself,
# so sides that read equal are sides with one manifold, and enumerate
# evaluates a formula once per distinct value in each role pair.
# A row that reads both sides alike has a symmetric formula, formula(a, b)
# == formula(b, a): on such rows _products walks unordered bucket pairs.
_CASES = (
    # 1. l1 = 0, l2 != 0:     L(l2, m2) # RP3
    (_unread, _lens, lambda _, lens: sum_normalize([lens, RP3()])),
    # 2. l1 != 0, l2 = 0:     L(l1, m1) # RP3
    (_lens, _unread, lambda lens, _: sum_normalize([lens, RP3()])),
    # 3. l1 = 0, l2 = 0:      S2xS1 # RP3
    (_unread, _unread, lambda _, __: sum_normalize([S2xS1(), RP3()])),
    # 4. |l1| = 1, |l2| > 1:  L(2*m2 - l2, m2)
    (_unread, _shifted_lens, lambda _, lens: lens),
    # 5. |l2| = 1, |l1| > 1:  L(2*m1 - l1, m1)
    (_shifted_lens, _unread, lambda lens, _: lens),
    # 6. |l1 * l2| = 1:       S3
    (_unread, _unread, lambda _, __: Sphere()),
    # 7. |l1| > 1, |l2| > 1:  SFS(S2; (2,1), (|l1|, beta1), (|l2|, beta2))
    # Sorted, the three fibers are their own normal form: each beta is in
    # (0, alpha), so there is no integer term.  Every read (a, b) has
    # a >= 2 and 0 < b < a, so (2,1) sorts first and only the two reads
    # need ordering.
    (_fiber, _fiber,
     lambda f1, f2: _seifert(((2, 1), f1, f2) if f1 <= f2 else ((2, 1), f2, f1))),
)


def classify(inv: FlowInvariant) -> ClassificationResult:
    """Evaluate the case formula of _CASES on a validated invariant.

    Lens parameters are canonicalized immediately, so degenerate parameters
    collapse to their atoms.
    """
    l1, m1, l2, m2 = inv.l1, inv.m1, inv.l2, inv.m2
    case = _case_of(l1, l2)
    read1, read2, formula = _CASES[case - 1]
    s1, s2 = read1(l1, m1), read2(l2, m2)
    # Case 7's formula read both fibers already.
    inter = ((2, 1), s1, s2) if case == 7 else None
    return ClassificationResult(inv, case, formula(s1, s2), inter)


def classify_quadruple(l1: int, m1: int, l2: int, m2: int) -> ClassificationResult:
    """Validate and classify in one step."""
    return classify(validate_invariant(l1, m1, l2, m2))


def _sides(bound: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The admissible (l1, m1) and (l2, m2) pairs with |entries| <= bound,
    lexicographically."""
    rng = range(-bound, bound + 1)
    pairs = [(l, m) for l in rng for m in rng]
    return ([p for p in pairs if _admissible(*p, 1)],
            [p for p in pairs if _admissible(*p, 2)])


class EnumeratedClass(Value):
    """One homeomorphism class of enumerate_invariants.

    `representative` is the class's homeomorphism key, `count` the number
    of admissible quadruples in it, `example` the lexicographically least
    of them, and `values` the distinct manifolds classify() gives them.
    """
    __slots__ = ("representative", "count", "example", "values")

    def __init__(self, representative: Manifold, count: int,
                 example: tuple[int, int, int, int],
                 values: frozenset[Manifold]) -> None:
        _set_representative(self, representative)
        _set_count(self, count)
        _set_example(self, example)
        _set_values(self, values)


_set_representative, _set_count, _set_example, _set_values = _slot_setters(
    EnumeratedClass)


def _by_role(side: list[tuple[int, int]]) -> list[tuple[int, list[tuple[int, int]]]]:
    # Role min(|l|, 2): 0 for l = 0, 1 for |l| = 1, 2 for |l| >= 2.
    roles: dict[int, list[tuple[int, int]]] = {}
    for pair in side:
        roles.setdefault(min(abs(pair[0]), 2), []).append(pair)
    return sorted(roles.items())


def _buckets(pairs: list[tuple[int, int]],
             read) -> list[tuple[object, list[tuple[int, int]], int]]:
    # (read, first pairs, size) of each bucket of equal reads, in first-pair
    # order; the first pairs are the bucket's first three, in input order.
    buckets: dict[object, list] = {}
    for pair in pairs:
        bucket = buckets.get(r := read(*pair))
        if bucket is None:
            buckets[r] = [[pair], 1]
        else:
            bucket[1] += 1
            if bucket[1] <= 3:
                bucket[0].append(pair)
    return [(r, first, n) for r, (first, n) in buckets.items()]


def _products(sides: tuple[list[tuple[int, int]], list[tuple[int, int]]],
              reads):
    """The admissible quadruples of `sides`, walked as products of one
    bucket per side: yields (case, read1, read2, count, firsts) per product.

    `sides` is what _sides gives, and reads[case - 1] begins with the two
    reads of a case, (read1, read2), as a row of _CASES does.  Each side's
    pairs are split by role: l = 0, |l| = 1 or |l| >= 2.  The two roles
    alone decide the case, since case_predicates tests nothing else.
    Within a role pair, each side's pairs are bucketed by that case's read
    of the side, and each product of one bucket per side is yielded once,
    with the two bucket reads: anything that is a function of the case and
    the two reads, as the case formula's value is, holds for every
    quadruple of the product.  `count` is the product of the two bucket
    sizes.  `firsts` holds (first1, first2), each bucket's first three
    pairs; the sides are lexicographic, so the product's least quadruples
    are the first concatenations a + b, a in first1 and b in first2, and
    the least of all is first1[0] + first2[0] of firsts[0].

    A row whose two reads are one function, on a role pair with the same
    pairs on both sides (case 6, and case 7 in _CASES), has the same
    buckets on both sides.  There the walk takes unordered bucket pairs,
    so the function of the reads must be symmetric: an off-diagonal pair
    stands for both orders, counts twice, and carries both orders in
    firsts, the earlier bucket's first pairs first.
    """
    first, second = sides
    roles2 = _by_role(second)
    for role1, pairs1 in _by_role(first):
        for role2, pairs2 in roles2:
            case = _case_of(role1, role2)
            read1, read2 = reads[case - 1][:2]
            buckets1 = _buckets(pairs1, read1)
            if read1 is not read2 or pairs1 != pairs2:
                buckets2 = _buckets(pairs2, read2)
                for s1, first1, n1 in buckets1:
                    for s2, first2, n2 in buckets2:
                        yield case, s1, s2, n1 * n2, ((first1, first2),)
                continue
            for i, (s1, first1, n1) in enumerate(buckets1):
                yield case, s1, s1, n1 * n1, ((first1, first1),)
                for s2, first2, n2 in buckets1[i + 1:]:
                    yield (case, s1, s2, 2 * n1 * n2,
                           ((first1, first2), (first2, first1)))


def enumerate_invariants(bound: int) -> list[EnumeratedClass]:
    """Group the admissible quadruples with |entries| <= bound by
    homeomorphism class.

    A fold over _products with the reads of _CASES: the case formula is
    evaluated once per product, on its two bucket reads, and gives the
    value classify() gives every quadruple of the product.  A class sums
    the counts of its products and takes the least of their least
    quadruples as its example.  So the formula runs once per distinct
    value in each role pair: at bound 10, 648 evaluations for 571 distinct
    values and 65,792 quadruples.

    Each distinct value is keyed once, in a memo that lives for one call
    only and maps the value straight to its class's record [count,
    example, values].  Classes are ordered by the fixed total order on
    representatives, so the output is deterministic.
    """
    table = _CASES
    records: dict[Manifold, list] = {}  # value -> the record of its class
    classes: dict[Manifold, list] = {}  # key -> [count, example, values]
    for case, s1, s2, count, firsts in _products(_sides(bound), table):
        manifold = table[case - 1][2](s1, s2)
        first1, first2 = firsts[0]
        example = first1[0] + first2[0]
        record = records.get(manifold)
        if record is None:
            key = homeomorphism_key(manifold)
            record = classes.get(key)
            if record is None:
                record = classes[key] = [0, example, []]
            record[2].append(manifold)
            records[manifold] = record
        record[0] += count
        if example < record[1]:
            record[1] = example
    return [EnumeratedClass(key, count, example, frozenset(values))
            for key, (count, example, values) in sorted(
                classes.items(), key=lambda item: sort_key(item[0]))]
