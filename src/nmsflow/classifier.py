"""The seven-case topological classification of admissible flow invariants.

A flow with exactly one twisted saddle orbit is pinned down by a quadruple
(l1, m1, l2, m2): the pair (l1, m1) describes the repelling side, (l2, m2)
the attracting side.  Both pairs are coprime for essential invariants; the
marker (l1, m1) = (0, 2) is the single admissible inessential shape.  The
ambient manifold depends only on the quadruple through the case formulas
below; classify() evaluates them verbatim over exact integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import seifert
from .manifolds import (
    LensParams,
    Manifold,
    RP3,
    S2xS1,
    Sphere,
    homeomorphism_key,
    lens_canonical,
    seifert_over_s2,
    sort_key,
    sum_normalize,
)


class InvalidFlowInvariant(ValueError):
    """A quadruple violates the admissibility rules.

    The attribute `rule` names the violated rule: "non-coprime-pair" or
    "malformed-inessential-marker".
    """

    def __init__(self, message: str, rule: str):
        super().__init__(f"{rule}: {message}")
        self.rule = rule


class InvariantKind(Enum):
    ESSENTIAL = "essential"
    INESSENTIAL = "inessential"


@dataclass(frozen=True, slots=True)
class FlowInvariant:
    """A validated quadruple; build through validate_invariant()."""
    l1: int
    m1: int
    l2: int
    m2: int
    kind: InvariantKind

    def quadruple(self) -> tuple[int, int, int, int]:
        return (self.l1, self.m1, self.l2, self.m2)


def kind_of(l1: int, m1: int, l2: int, m2: int) -> InvariantKind | None:
    """The kind of a quadruple, or None when it is not admissible."""
    if math.gcd(l2, m2) != 1:
        return None
    if (l1, m1) == (0, 2):
        return InvariantKind.INESSENTIAL
    if math.gcd(l1, m1) == 1:
        return InvariantKind.ESSENTIAL
    return None


def validate_invariant(l1: int, m1: int, l2: int, m2: int) -> FlowInvariant:
    """Check admissibility and classify the invariant's kind.

    Essential: gcd(l1, m1) = 1 and gcd(l2, m2) = 1.  Inessential: (l1, m1)
    is exactly the marker (0, 2) and gcd(l2, m2) = 1.  Anything else raises
    InvalidFlowInvariant naming the violated rule.
    """
    if math.gcd(l2, m2) != 1:
        raise InvalidFlowInvariant(
            f"(l2, m2) = ({l2}, {m2}) is not coprime", "non-coprime-pair")
    kind = kind_of(l1, m1, l2, m2)
    if kind is not None:
        return FlowInvariant(l1, m1, l2, m2, kind)
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


@dataclass(frozen=True, slots=True)
class ClassificationResult:
    """Outcome of the case analysis for one invariant.

    `intermediate_seifert` is the unreduced three-fiber data (present iff
    l1 * l2 != 0).  In case 7 it fibers `manifold`.  In cases 4 and 5 it is
    the formal triple only, in general not a fibration of `manifold`: their
    H1 differ on 2,600 of the 3,536 case 4 and 5 results with entries up
    to 6.  `lens_before_rp3_sum` keeps the raw lens parameters of the
    non-RP3 summand in cases 1 to 3.  The input invariant is retained, so
    sign provenance survives the |l| multiplicities in the output.
    """
    invariant: FlowInvariant
    case: int
    manifold: Manifold
    intermediate_seifert: seifert.SeifertData | None
    lens_before_rp3_sum: LensParams | None


def intermediate_seifert(inv: FlowInvariant) -> seifert.SeifertData:
    """Unreduced fiber data (2,1), (|l1|, beta1), (|l2|, beta2).

    beta_i = seifert.nu_of(|l_i|, m_i), the representative of m_i^-1 (mod
    |l_i|) in (0, |l_i|), with 0 at multiplicity 1.  Defined only when
    l1 * l2 != 0; ordinary fibers are kept, nothing is sorted or absorbed.
    """
    if inv.l1 * inv.l2 == 0:
        raise InvalidFlowInvariant(
            f"intermediate fiber data needs l1 * l2 != 0, "
            f"got {inv.quadruple()}", "undefined-intermediate")
    return ((2, 1),
            (abs(inv.l1), seifert.nu_of(abs(inv.l1), inv.m1)),
            (abs(inv.l2), seifert.nu_of(abs(inv.l2), inv.m2)))


def classify(inv: FlowInvariant) -> ClassificationResult:
    """Evaluate the case formulas on a validated invariant.

    1. l1 = 0, l2 != 0:     L(l2, m2) # RP3
    2. l1 != 0, l2 = 0:     L(l1, m1) # RP3
    3. l1 = 0, l2 = 0:      S2xS1 # RP3
    4. |l1| = 1, |l2| > 1:  L(2*m2 - l2, m2)
    5. |l2| = 1, |l1| > 1:  L(2*m1 - l1, m1)
    6. |l1 * l2| = 1:       S3
    7. |l1| > 1, |l2| > 1:  SFS(S2; (2,1), (|l1|, beta1), (|l2|, beta2))

    with beta_i = m_i^-1 in (0, |l_i|).  Lens parameters are canonicalized
    immediately, so degenerate parameters collapse to their atoms.
    """
    l1, m1, l2, m2 = inv.quadruple()
    hits = case_predicates(l1, l2)
    case = hits.index(True) + 1
    inter = intermediate_seifert(inv) if l1 * l2 != 0 else None
    lens_params = None
    if case == 1:
        lens_params = LensParams(l2, m2)
        manifold = sum_normalize([lens_canonical(l2, m2), RP3()])
    elif case == 2:
        lens_params = LensParams(l1, m1)
        manifold = sum_normalize([lens_canonical(l1, m1), RP3()])
    elif case == 3:
        lens_params = LensParams(l2, m2)  # the formal (0, +/-1) summand
        manifold = sum_normalize([S2xS1(), RP3()])
    elif case == 4:
        manifold = lens_canonical(2 * m2 - l2, m2)
    elif case == 5:
        manifold = lens_canonical(2 * m1 - l1, m1)
    elif case == 6:
        manifold = Sphere()
    else:
        manifold = seifert_over_s2(inter)
    return ClassificationResult(inv, case, manifold, inter, lens_params)


def classify_quadruple(l1: int, m1: int, l2: int, m2: int) -> ClassificationResult:
    """Validate and classify in one step."""
    return classify(validate_invariant(l1, m1, l2, m2))


def valid_invariants(bound: int):
    """All admissible quadruples with |entries| <= bound, lexicographically.

    Distinct quadruples are distinct entries even when symmetries of the
    underlying flows identify them.
    """
    rng = range(-bound, bound + 1)
    first = [(l, m) for l in rng for m in rng
             if math.gcd(l, m) == 1 or (l, m) == (0, 2)]
    second = [(l, m) for l in rng for m in rng if math.gcd(l, m) == 1]
    for l1, m1 in first:
        for l2, m2 in second:
            kind = (InvariantKind.INESSENTIAL if (l1, m1) == (0, 2)
                    else InvariantKind.ESSENTIAL)
            yield FlowInvariant(l1, m1, l2, m2, kind)


def enumerate_invariants(bound: int) -> list[tuple[Manifold, list[ClassificationResult]]]:
    """Classify every admissible quadruple with |entries| <= bound.

    Returns (class representative, members) pairs where the representative
    is the shared homeomorphism key.  Groups are ordered by the fixed total
    order on representatives, members in lexicographic input order, so the
    output is deterministic.

    Every quadruple is classified, but the key is computed once per
    distinct classified value: far fewer values than quadruples occur (571
    against 65,792 at bound 10), and the key dominates the cost.  The memo
    lives for one call only.
    """
    keys: dict[Manifold, Manifold] = {}
    groups: dict[Manifold, list[ClassificationResult]] = {}
    for inv in valid_invariants(bound):
        result = classify(inv)
        key = keys.get(result.manifold)
        if key is None:
            key = keys[result.manifold] = homeomorphism_key(result.manifold)
        groups.setdefault(key, []).append(result)
    return sorted(groups.items(), key=lambda kv: sort_key(kv[0]))
