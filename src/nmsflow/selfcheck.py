"""Internal consistency battery behind the `selfcheck` command.

Hard checks cross-validate independent routes to the same answers (case
partition, homology against the case formulas and across homeomorphism
classes, the case-7 obstructions, framing involution, Seifert normal
forms with homology kept by them and by the homeomorphism key,
render/parse round trips).  Each is one entry in the ordered registry
CHECKS, with its sizes and seed as keyword arguments; run_selfcheck runs
them at their defaults, and the acceptance tests call the same checks at
larger sizes.  Each yields (ok, detail).  Any hard failure makes the run
return 3.  The three per-quadruple checks are classes: add takes one
classification result and verdict gives (ok, detail).  run_selfcheck
feeds all three in one pass that classifies every admissible quadruple
once and keeps no result, so its memory grows with the number of
distinct manifold values, not of quadruples.  Their add compares and
counts every result, but memoizes, per instance and so per run, what is
a pure function of the result's fields: the case predicates per
(l1, l2), h1 and its order per value, the expected group per l.  The
checks over homeomorphism classes read the factored classes of
enumerate_invariants.
"""

from __future__ import annotations

import math

from . import seifert
from .classifier import (
    case_predicates,
    classify,
    enumerate_invariants,
    valid_invariants,
)
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


class CasePartition:
    """Each quadruple hits exactly one case predicate, the case reported.

    classify reads its case from the role table behind
    classifier._case_of, so this compares that table with the paper's
    case_predicates.  The predicates read (l1, l2) alone, so they are
    evaluated once per distinct pair; every quadruple is still compared
    and counted."""

    def __init__(self):
        self.count = 0
        self.bad = 0
        self._case = {}  # (l1, l2) -> the one case that holds, or 0

    def add(self, r):
        self.count += 1
        inv = r.invariant
        pair = (inv.l1, inv.l2)
        case = self._case.get(pair)
        if case is None:
            hits = case_predicates(*pair)
            case = self._case[pair] = (hits.index(True) + 1 if sum(hits) == 1
                                       else 0)
        if case != r.case:
            self.bad += 1

    def verdict(self):
        return (self.bad == 0,
                f"{self.count} quadruples, exactly one case each"
                if self.bad == 0 else f"{self.bad} quadruples hit != 1 case")


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


class H1CaseFormulas:
    """h1 of each classifier output against the per-case closed form.

    h1 with its order and the case-7 fiber order are computed once per
    distinct value, and the expected group of cases 1 to 3 once per l;
    every quadruple is still compared, and the first three mismatching
    quadruples are kept, in input order."""

    def __init__(self):
        self.count = 0
        self.bad = []
        self._h1 = {}  # value -> (h1, its order)
        self._order = {}  # case-7 value -> _fiber_order of its fibers
        self._sum_group = {}  # l -> _expected_sum_group(l)
        self._trivial = AbelianGroup(0)

    def add(self, r):
        self.count += 1
        m = r.manifold
        known = self._h1.get(m)
        if known is None:
            group = h1(m)
            known = self._h1[m] = (group, group.order())
        group, order = known
        inv = r.invariant
        case = r.case
        if case <= 3:
            l = inv.l2 if case == 1 else inv.l1 if case == 2 else 0
            expected = self._sum_group.get(l)
            if expected is None:
                expected = self._sum_group[l] = _expected_sum_group(l)
            ok = group == expected
        elif case == 4:
            ok = order == abs(2 * inv.m2 - inv.l2)
        elif case == 5:
            ok = order == abs(2 * inv.m1 - inv.l1)
        elif case == 6:
            ok = group == self._trivial
        else:
            fiber_order = self._order.get(m)
            if fiber_order is None:
                fiber_order = self._order[m] = _fiber_order(m.fibers)
            ok = order == fiber_order
        if not ok and len(self.bad) < 3:
            self.bad.append(inv.quadruple())

    def verdict(self):
        return (not self.bad,
                f"h1 matches the case formulas on {self.count} results"
                if not self.bad else f"mismatch at {self.bad}")


def _values(groups):
    """The distinct representatives and member values of the classes."""
    values = {c.representative for c in groups}
    for c in groups:
        values.update(c.values)
    return values


def check_h1_classes(groups):
    """h1 is constant on each homeomorphism class of enumerate_invariants."""
    h1_of = {m: h1(m) for m in _values(groups)}
    bad = 0
    for c in groups:
        seen = {h1_of[c.representative]}
        seen.update(h1_of[m] for m in c.values)
        if len(seen) != 1:
            bad += 1
    return (bad == 0,
            f"h1 constant on {len(groups)} classes"
            if bad == 0 else f"{bad} classes with mixed h1")


class Case7Obstructions:
    """Case-7 outputs pass the three-fiber obstruction, are prime, and are
    homeomorphic to none of the lens-type values `lens_like`.  Only the
    distinct case-7 values are kept and checked."""

    def __init__(self, lens_like):
        self.lens_like = lens_like
        self.outputs = set()

    def add(self, r):
        if r.case == 7:
            self.outputs.add(r.manifold)

    def verdict(self):
        lens_keys = {homeomorphism_key(m) for m in self.lens_like}
        bad = sum(1 for m in self.outputs
                  if not seifert.not_lens_obstruction(m.fibers)
                  or not is_prime(m)
                  or homeomorphism_key(m) in lens_keys)
        return (bad == 0,
                f"{len(self.outputs)} fibered outputs prime and distinct from "
                f"{len(self.lens_like)} lens-type classes"
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


def check_roundtrip(groups):
    """Every representative and member value survives render then parse."""
    values = _values(groups)
    bad = [m for m in values if parse_manifold(str(m)) != m]
    return (not bad,
            f"{len(values)} distinct values round-trip"
            if not bad else f"{len(bad)} values failed, e.g. {bad[0]}")


# Registry of hard checks in report order: name, check, and the inputs
# that run_selfcheck derives from its bound and passes positionally.  A
# check whose inputs start with "results" is a class: run_selfcheck builds
# it from the other inputs, adds each classification result to it in its
# one pass over the admissible quadruples, and reports its verdict.
CHECKS = (
    ("case-partition", CasePartition, ("results",)),
    ("h1-case-formulas", H1CaseFormulas, ("results",)),
    ("h1-on-homeo-classes", check_h1_classes, ("groups",)),
    ("case7-obstructions", Case7Obstructions, ("results", "lens_like")),
    ("framing-involution", check_framing_involution, ()),
    ("seifert-normal-forms", check_seifert_forms, ()),
    ("render-parse-roundtrip", check_roundtrip, ("groups",)),
)


def run_selfcheck(bound: int, write=print) -> int:
    """Run every registered check at its defaults and the given bound.

    One pass over valid_invariants(bound) classifies each admissible
    quadruple once and adds the result to every per-quadruple check, so
    no result outlives its step: memory grows with the number of distinct
    manifold values, not of quadruples.  `groups` holds the factored
    homeomorphism classes of enumerate_invariants, which evaluates a
    case formula once per distinct value, and `lens_like` the lens-type
    class representatives.  Returns 0 when all hard checks pass, 3
    otherwise.
    """
    groups = enumerate_invariants(bound)
    inputs = {
        "groups": groups,
        "lens_like": [c.representative for c in groups
                      if isinstance(c.representative, (Sphere, S2xS1, RP3, Lens))],
    }
    fed = {name: check(*(inputs[k] for k in needs[1:]))
           for name, check, needs in CHECKS if needs[:1] == ("results",)}
    adds = tuple(check.add for check in fed.values())
    count = 0
    for inv in valid_invariants(bound):
        r = classify(inv)
        count += 1
        for add in adds:
            add(r)
    write(f"selfcheck: bound {bound}, {count} admissible quadruples")
    failures = 0
    for name, check, needs in CHECKS:
        ok, detail = (fed[name].verdict() if name in fed
                      else check(*(inputs[k] for k in needs)))
        if not ok:
            failures += 1
        write(f"{'PASS' if ok else 'FAIL'} {name:<26} {detail}")
    if failures:
        write(f"selfcheck: {failures} hard failure(s)")
        return 3
    write(f"selfcheck: all {len(CHECKS)} hard checks passed")
    return 0
