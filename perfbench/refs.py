"""Independent references for the benchmark's correctness checks.

Nothing here imports nmsflow: every expected answer comes from the paper's
case table and closed forms evaluated directly over Python ints, so a layer
under test never checks itself.
"""

from __future__ import annotations

import math


def case_of(l1: int, l2: int) -> int:
    """The case number from the paper's table (conditions on l1, l2 only)."""
    if l1 == 0:
        return 3 if l2 == 0 else 1
    if l2 == 0:
        return 2
    a1, a2 = abs(l1), abs(l2)
    if a1 == 1 and a2 == 1:
        return 6
    if a1 == 1:
        return 4
    if a2 == 1:
        return 5
    return 7


def fiber_order(fibers) -> int:
    """|sum_i beta_i prod_{j != i} alpha_j|: the H1 order of SFS(S2; fibers).

    0 stands for infinite H1; ordinary fibers (1, b) take part like any other.
    """
    total = 0
    for i, (_, beta) in enumerate(fibers):
        term = beta
        for j, (alpha, _) in enumerate(fibers):
            if j != i:
                term *= alpha
        total += term
    return abs(total)


def _cyclic(n: int) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion) of Z/n, with Z/0 = Z."""
    n = abs(n)
    if n == 0:
        return 1, ()
    return 0, (n,) if n >= 2 else ()


def _plus_z2(l: int) -> tuple[int, tuple[int, ...]]:
    """(free rank, invariant factors) of Z/|l| + Z/2."""
    if l == 0:
        return 1, (2,)
    a = abs(l)
    g = math.gcd(a, 2)
    return 0, tuple(d for d in (g, 2 * a // g) if d >= 2)


def classify_h1(l1: int, m1: int, l2: int, m2: int):
    """Expected H1 of an admissible quadruple from the per-case closed forms.

    Returns (free_rank, order, torsion) where order is 0 for infinite H1 and
    torsion is the invariant-factor tuple, or None where the closed form fixes
    only the order (case 7).
    """
    case = case_of(l1, l2)
    if case in (1, 2, 3):
        free, torsion = _plus_z2(l2 if case == 1 else l1 if case == 2 else 0)
    elif case == 4:
        free, torsion = _cyclic(2 * m2 - l2)
    elif case == 5:
        free, torsion = _cyclic(2 * m1 - l1)
    elif case == 6:
        free, torsion = 0, ()
    else:
        fibers = ((2, 1), (abs(l1), pow(m1, -1, abs(l1))),
                  (abs(l2), pow(m2, -1, abs(l2))))
        return 0, fiber_order(fibers), None
    return free, 0 if free else math.prod(torsion), torsion


def summand_order(summand) -> int:
    """H1 order (0 = infinite) of one summand of an expression structure."""
    kind = summand[0]
    if kind == "S3":
        return 1
    if kind == "S2xS1":
        return 0
    if kind == "RP3":
        return 2
    if kind == "L":
        return abs(summand[1])
    return fiber_order(summand[1])


def expression_order(summands) -> int:
    """H1 order of a connected sum: the product of the summand orders."""
    return math.prod(summand_order(s) for s in summands)


def admissible_count(bound: int) -> int:
    """Number of admissible quadruples with |entries| <= bound.

    A side pair is admissible when gcd(l, m) = 1; the first pair may also be
    the inessential marker (0, 2).
    """
    rng = range(-bound, bound + 1)
    coprime = sum(1 for l in rng for m in rng if math.gcd(l, m) == 1)
    marker = 1 if bound >= 2 else 0
    return (coprime + marker) * coprime
