"""Internal consistency battery behind the `selfcheck` command.

Hard checks cross-validate independent routes to the same answers (case
partition, homology against the case formulas and across homeomorphism
classes, the case-7 obstructions, framing involution, Smith normal form
against cofactor arithmetic, Seifert normal forms, homology kept by the
homeomorphism key, render/parse round trips).  Each is one function in
the ordered registry CHECKS, with its sizes and seed as keyword arguments;
run_selfcheck runs them at their defaults, and the acceptance tests call
the same functions at larger sizes.  Each returns (ok, detail).  Any hard
failure makes the run return 3.
"""

from __future__ import annotations

import itertools
import math
import random

from . import seifert
from .classifier import case_predicates, enumerate_invariants
from .expressions import parse_manifold
from .homology import AbelianGroup, h1, h1_seifert_presentation, smith_normal_form
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


def check_partition(results):
    """Each quadruple hits exactly one case predicate, the case reported."""
    bad = 0
    for r in results:
        hits = case_predicates(r.invariant.l1, r.invariant.l2)
        if sum(hits) != 1 or hits.index(True) + 1 != r.case:
            bad += 1
    return (bad == 0,
            f"{len(results)} quadruples, exactly one case each"
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


def check_h1_formulas(results):
    """h1 of each classifier output against the per-case closed form."""
    bad = []
    for r in results:
        l1, m1, l2, m2 = r.invariant.quadruple()
        group = h1(r.manifold)
        if r.case == 1:
            ok = group == _expected_sum_group(l2)
        elif r.case == 2:
            ok = group == _expected_sum_group(l1)
        elif r.case == 3:
            ok = group == _expected_sum_group(0)
        elif r.case == 4:
            ok = group.order() == abs(2 * m2 - l2)
        elif r.case == 5:
            ok = group.order() == abs(2 * m1 - l1)
        elif r.case == 6:
            ok = group == AbelianGroup(0)
        else:
            ok = group.order() == _fiber_order(r.manifold.fibers)
        if not ok:
            bad.append(r.invariant.quadruple())
    return (not bad,
            f"h1 matches the case formulas on {len(results)} results"
            if not bad else f"mismatch at {bad[:3]}")


def check_h1_classes(groups):
    """h1 is constant on each homeomorphism class of enumerate_invariants."""
    bad = 0
    for rep, members in groups:
        seen = {h1(rep)}
        seen.update(h1(r.manifold) for r in members)
        if len(seen) != 1:
            bad += 1
    return (bad == 0,
            f"h1 constant on {len(groups)} classes"
            if bad == 0 else f"{bad} classes with mixed h1")


def check_case7(results, lens_like):
    """Case-7 outputs pass the three-fiber obstruction, are prime, and are
    homeomorphic to none of the lens-type values `lens_like`."""
    lens_keys = {homeomorphism_key(m) for m in lens_like}
    outputs = {r.manifold for r in results if r.case == 7}
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


def _det(m) -> int:
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def _adjugate(m):
    n = len(m)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1:]
                     for k, row in enumerate(m) if k != i]
            adj[j][i] = (-1) ** (i + j) * (_det(minor) if minor else 1)
    return adj


def _coker_order_box(m, det: int) -> int:
    # v ~ w in Z^n / rowspan iff v*adj == w*adj (mod det); count the keys
    # over the box [0, |det|)^n, which surjects onto the quotient.
    n = len(m)
    adj = _adjugate(m)
    d = abs(det)
    seen = set()
    for v in itertools.product(range(d), repeat=n):
        seen.add(tuple(sum(v[i] * adj[i][j] for i in range(n)) % d
                       for j in range(n)))
    return len(seen)


def _chain_ok(diag) -> bool:
    for i in range(1, len(diag)):
        if diag[i - 1] == 0:
            if diag[i] != 0:
                return False
        elif diag[i] % diag[i - 1] != 0:
            return False
    return all(d >= 0 for d in diag)


_BOX_CAPS = {1: 30, 2: 30, 3: 30}


def check_snf(*, count=300, max_size=4, seed=_SEED, box_caps=_BOX_CAPS):
    """Smith normal form of `count` random matrices with up to `max_size`
    rows and columns and entries in [-9, 9]: min(rows, cols) diagonal
    entries forming a divisor chain, product |det| for square matrices by
    cofactor expansion, and, for an n x n matrix with 0 < |det| <=
    box_caps[n], |det| residue classes counted in the lattice quotient."""
    rng = random.Random(seed)
    bad = 0
    boxed = 0
    for _ in range(count):
        n = rng.randint(1, max_size)
        cols = rng.randint(1, max_size)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(n)]
        diag = smith_normal_form(m)
        if len(diag) != min(n, cols) or not _chain_ok(diag):
            bad += 1
            continue
        if n == cols:
            det = _det(m)
            if math.prod(diag) != abs(det):
                bad += 1
                continue
            if 0 < abs(det) <= box_caps.get(n, 0):
                boxed += 1
                if _coker_order_box(m, det) != abs(det):
                    bad += 1
    return (bad == 0,
            f"{count} random matrices: chains ok, |det| preserved, "
            f"{boxed} lattice quotients counted"
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


def check_seifert_forms(*, count=200, seed=_SEED + 1):
    """normalize is idempotent and keeps the Euler number and h1; the
    isomorphism key ignores order and ordinary (1, 0) fibers."""
    rng = random.Random(seed)
    bad = 0
    for _ in range(count):
        s = random_fibers(rng)
        n = seifert.normalize(s)
        if seifert.normalize(n) != n:
            bad += 1
        if seifert.euler_number(n) != seifert.euler_number(s):
            bad += 1
        if h1_seifert_presentation(s) != h1_seifert_presentation(n):
            bad += 1
        shuffled = list(s)
        rng.shuffle(shuffled)
        shuffled.append((1, 0))
        if seifert.isomorphism_key(s) != seifert.isomorphism_key(shuffled):
            bad += 1
    return (bad == 0,
            f"{count} random fiber lists: normalize/euler/h1/key consistent"
            if bad == 0 else f"{bad} violations")


def check_key_h1(*, count=200, max_len=4, seed=_SEED + 2):
    """h1 of the homeomorphism key of random Seifert data equals h1 of the
    data's relation-matrix presentation: the lens conversion and the
    isomorphism key keep H1."""
    rng = random.Random(seed)
    bad = []
    for _ in range(count):
        s = random_fibers(rng, max_len)
        if h1(homeomorphism_key(seifert_over_s2(s))) != h1_seifert_presentation(s):
            bad.append(s)
    return (not bad,
            f"{count} random fiber lists keep h1 through the key"
            if not bad else f"{len(bad)} violations, e.g. {bad[0]}")


def check_roundtrip(groups):
    """Every representative and member value survives render then parse."""
    values = {rep for rep, _ in groups}
    for _, members in groups:
        values.update(r.manifold for r in members)
    bad = [m for m in values if parse_manifold(str(m)) != m]
    return (not bad,
            f"{len(values)} distinct values round-trip"
            if not bad else f"{len(bad)} values failed, e.g. {bad[0]}")


# Registry of hard checks in report order: name, check, and the inputs
# that run_selfcheck derives from its bound and passes positionally.
CHECKS = (
    ("case-partition", check_partition, ("results",)),
    ("h1-case-formulas", check_h1_formulas, ("results",)),
    ("h1-on-homeo-classes", check_h1_classes, ("groups",)),
    ("case7-obstructions", check_case7, ("results", "lens_like")),
    ("framing-involution", check_framing_involution, ()),
    ("snf-vs-cofactors", check_snf, ()),
    ("seifert-normal-forms", check_seifert_forms, ()),
    ("key-preserves-h1", check_key_h1, ()),
    ("render-parse-roundtrip", check_roundtrip, ("groups",)),
)


def run_selfcheck(bound: int, write=print) -> int:
    """Run every registered check at its defaults and the given bound.

    Each admissible quadruple is classified once, by enumerate_invariants;
    `results` lists them in input order, `groups` by homeomorphism class,
    and `lens_like` holds the lens-type class representatives.  Returns 0
    when all hard checks pass, 3 otherwise.
    """
    groups = enumerate_invariants(bound)
    results = sorted((r for _, members in groups for r in members),
                     key=lambda r: r.invariant.quadruple())
    inputs = {
        "results": results,
        "groups": groups,
        "lens_like": [rep for rep, _ in groups
                      if isinstance(rep, (Sphere, S2xS1, RP3, Lens))],
    }
    write(f"selfcheck: bound {bound}, {len(results)} admissible quadruples")
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

