"""Acceptance criteria, one test per criterion.

Each test prints a single "PASS criterion N (...)" or "FAIL criterion N
(...)" line with the measured counts and runtime, then asserts.  Run with
pytest -s (or read captured output) to see the lines.
"""

import math
import random
import time
from pathlib import Path

from nmsflow import seifert
from nmsflow.classifier import classify, classify_quadruple
from nmsflow.manifolds import (
    ConnectedSum,
    Lens,
    RP3,
    S2xS1,
    Sphere,
    homeomorphism_key,
    lens_canonical,
    seifert_over_s2,
    sum_normalize,
)
from nmsflow.selfcheck import (
    CHECKS,
    check_case7_obstructions,
    check_case_partition,
    check_framing_involution,
    check_h1_case_formulas,
    check_seifert_forms,
    random_fibers,
    run_selfcheck,
    tally,
)
from oracles import (
    check_snf,
    lens_equivalent_bruteforce,
    seifert_isomorphic_bruteforce,
    valid_invariants,
)
from timelimit import deadline

GOLDEN = Path(__file__).parent / "data" / "golden_classify.tsv"


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num} ({name}): {detail}"
    print(line)
    assert ok, line


def test_criterion_1_golden_case_table():
    t0 = time.monotonic()
    rows = []
    for line in GOLDEN.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        quad_s, case_s, expr = line.split("\t")
        rows.append((tuple(int(v) for v in quad_s.split()), int(case_s), expr))
    bad = []
    for quad, case, expr in rows:
        res = classify_quadruple(*quad)
        if res.case != case or str(res.manifold) != expr:
            bad.append((quad, res.case, str(res.manifold)))
    cases = {case for _, case, _ in rows}
    elapsed = time.monotonic() - t0
    ok = len(rows) >= 40 and cases == set(range(1, 8)) and not bad and elapsed < 1.0
    _report(1, "golden case table", ok,
            f"{len(rows)} rows over cases {sorted(cases)}, "
            f"{len(bad)} mismatches, {elapsed:.2f}s (budget 1s)")


def test_criterion_2_case_partition():
    t0 = time.monotonic()
    cases, _ = tally(10)
    ok, detail = check_case_partition(cases)
    elapsed = time.monotonic() - t0
    _report(2, "case partition", ok and elapsed < 5.0,
            f"bound 10: {detail}, {elapsed:.2f}s (budget 5s)")


def test_criterion_3_homology_cross_validation():
    t0 = time.monotonic()
    _, values = tally(8)
    ok, detail = check_h1_case_formulas(values)
    elapsed = time.monotonic() - t0
    _report(3, "homology cross-validation", ok and elapsed < 30.0,
            f"bound 8: {detail}, {elapsed:.1f}s (budget 30s)")


def test_criterion_4_surjectivity():
    t0 = time.monotonic()
    bound = 20
    missed = []
    lens_targets = 0
    for p in range(3, 9):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            lens_targets += 1
            target = lens_canonical(p, q)
            qc = target.q
            l, m = 2 * qc + p, qc + p
            assert max(l, m) <= bound
            res4 = classify_quadruple(1, 0, l, m)
            if res4.case != 4 or res4.manifold != target:
                missed.append(("case4", p, q))
            res5 = classify_quadruple(l, m, 1, 0)
            if res5.case != 5 or res5.manifold != target:
                missed.append(("case5", p, q))
            sum_target = sum_normalize([target, RP3()])
            res1 = classify_quadruple(0, 1, p, q)
            if res1.case != 1 or res1.manifold != sum_target:
                missed.append(("case1", p, q))
            res2 = classify_quadruple(p, q, 0, 1)
            if res2.case != 2 or res2.manifold != sum_target:
                missed.append(("case2", p, q))
    sfs_targets = 0
    for a1 in range(2, 6):
        for b1 in range(1, a1):
            if math.gcd(a1, b1) != 1:
                continue
            for a2 in range(2, 6):
                for b2 in range(1, a2):
                    if math.gcd(a2, b2) != 1:
                        continue
                    sfs_targets += 1
                    target = seifert_over_s2([(2, 1), (a1, b1), (a2, b2)])
                    m1, m2 = pow(b1, -1, a1), pow(b2, -1, a2)
                    assert max(a1, a2, m1, m2) <= bound
                    res = classify_quadruple(a1, m1, a2, m2)
                    if res.case != 7 or res.manifold != target:
                        missed.append(("case7", (a1, b1), (a2, b2)))
    elapsed = time.monotonic() - t0
    ok = not missed and elapsed < 60.0
    _report(4, "surjectivity at desk scale", ok,
            f"{lens_targets} lens targets hit by cases 4/5 and (with RP3) "
            f"by cases 1/2, {sfs_targets} three-fiber targets hit by case 7, "
            f"{len(missed)} misses, {elapsed:.2f}s (budget 60s)")


def test_criterion_5_framing_involution():
    t0 = time.monotonic()
    ok, detail = check_framing_involution(limit=50)
    elapsed = time.monotonic() - t0
    _report(5, "framing involution", ok,
            f"|beta|, |alpha| <= 50: {detail}, {elapsed:.1f}s")


def test_criterion_6_snf_oracle():
    t0 = time.monotonic()
    with deadline(60.0):
        ok, detail = check_snf(count=10_000, max_size=6, seed=0xC0FFEE,
                               box_caps={2: 50, 3: 20})
    elapsed = time.monotonic() - t0
    _report(6, "snf oracle", ok,
            f"up to 6x6: {detail}, {elapsed:.1f}s (budget 60s)")


def _isomorphic_variant(rng, s):
    # shift betas by multiples of alpha, repair the Euler number with a
    # compensating ordinary fiber, and shuffle: always isomorphic to s
    out = []
    total = 0
    for alpha, beta in s:
        k = rng.randint(-2, 2)
        out.append((alpha, beta + k * alpha))
        total += k
    out.append((1, -total))
    rng.shuffle(out)
    return tuple(out)


def test_criterion_7_equivalence_laws():
    t0 = time.monotonic()
    # lens classification is lens_canonical equality: exhaustive |p|, |q|
    # <= 30 against the quantifier-search oracle, grouped by |p| (the
    # oracle relates no pairs across groups), and no canonical form is
    # shared by two groups
    params = [(p, q) for p in range(-30, 31) for q in range(-30, 31)
              if (p == 0 and q in (1, -1)) or (p != 0 and math.gcd(p, q) == 1)]
    by_abs_p: dict[int, list] = {}
    for pq in params:
        by_abs_p.setdefault(abs(pq[0]), []).append(pq)
    lens_bad = 0
    lens_pairs = 0
    groups_of_form: dict = {}
    for n, group in by_abs_p.items():
        canon = [lens_canonical(*pq) for pq in group]
        for form in canon:
            groups_of_form.setdefault(form, set()).add(n)
        for i, a in enumerate(group):
            for j, b in enumerate(group):
                lens_pairs += 1
                if (canon[i] == canon[j]) != lens_equivalent_bruteforce(*a, *b):
                    lens_bad += 1
    lens_bad += sum(1 for ns in groups_of_form.values() if len(ns) > 1)

    # Seifert isomorphy is isomorphism-key equality: 10^4 random pairs with
    # alpha <= 9, each verdict checked against the matching-search oracle,
    # and the oracle's own laws
    rng2 = random.Random(9157)
    seif_bad = 0
    seif_triples = 0
    for _ in range(10_000):
        a = random_fibers(rng2)
        if rng2.random() < 0.5:
            b = random_fibers(rng2)
        else:
            b = _isomorphic_variant(rng2, a)
        c = _isomorphic_variant(rng2, b)
        ka, kb, kc = (seifert.isomorphism_key(x) for x in (a, b, c))
        ab = seifert_isomorphic_bruteforce(a, b)
        if not seifert_isomorphic_bruteforce(a, a):
            seif_bad += 1
        if ab != seifert_isomorphic_bruteforce(b, a) or (ka == kb) != ab:
            seif_bad += 1
        if kb != kc or not seifert_isomorphic_bruteforce(b, c):
            seif_bad += 1
        if ab:
            seif_triples += 1
            if ka != kc or not seifert_isomorphic_bruteforce(a, c):
                seif_bad += 1

    # homeomorphic is key equality: one key per distinct classifier output
    # at bound <= 8, the laws on the key-equality matrix, and idempotence
    values = list(dict.fromkeys(classify(inv).manifold
                                for inv in valid_invariants(8)))
    keys = [homeomorphism_key(m) for m in values]
    n = len(values)
    matrix = [[ka == kb for kb in keys] for ka in keys]
    homeo_bad = sum(1 for k in keys if homeomorphism_key(k) != k)
    for i in range(n):
        if not matrix[i][i]:
            homeo_bad += 1
        for j in range(n):
            if matrix[i][j] != matrix[j][i]:
                homeo_bad += 1
    for i in range(n):
        related = {j for j in range(n) if matrix[i][j]}
        for j in related:
            if {k for k in range(n) if matrix[j][k]} != related:
                homeo_bad += 1
    elapsed = time.monotonic() - t0
    ok = lens_bad == 0 and seif_bad == 0 and homeo_bad == 0 and elapsed < 10.0
    _report(7, "equivalence laws", ok,
            f"lens: {len(params)} params, {lens_pairs} pairs and "
            f"{len(groups_of_form)} canonical forms, {lens_bad} bad; "
            f"seifert: 10000 pairs ({seif_triples} transitive premises), "
            f"{seif_bad} bad; homeomorphic: {n} distinct bound-8 outputs, "
            f"{homeo_bad} bad; {elapsed:.1f}s (budget 10s)")


def test_criterion_8_case7_obstructions():
    t0 = time.monotonic()
    _, values = tally(8)
    lens_like = set()
    for _, m, _ in values:
        pieces = m.summands if isinstance(m, ConnectedSum) else (m,)
        for piece in pieces:
            if isinstance(piece, (Sphere, S2xS1, RP3, Lens)):
                lens_like.add(piece)
    lens_grid = {lens_canonical(p, q)
                 for p in range(31) for q in range(1, 31)
                 if math.gcd(p, q) == 1} | {lens_canonical(0, 1)}
    ok, detail = check_case7_obstructions(values, lens_like | lens_grid)
    elapsed = time.monotonic() - t0
    _report(8, "case-7 obstructions", ok,
            f"bound 8: {detail}: the {len(lens_like)} lens-type summands "
            f"at bound 8 and the {len(lens_grid)} values of the p, q <= 30 "
            f"grid, {elapsed:.1f}s")


def test_criterion_9_selfcheck():
    t0 = time.monotonic()
    lines = []
    rc = run_selfcheck(6, write=lines.append)
    elapsed = time.monotonic() - t0
    fails = [ln for ln in lines if ln.startswith("FAIL")]
    passed = [ln for ln in lines if ln.startswith("PASS")]
    ok = (rc == 0 and not fails and len(passed) == len(CHECKS)
          and elapsed < 60.0)
    _report(9, "selfcheck", ok,
            f"rc={rc}, {len(passed)} passed, {len(fails)} hard failures, "
            f"{elapsed:.1f}s (budget 60s)")


def test_criterion_10_key_preserves_h1():
    t0 = time.monotonic()
    ok, detail = check_seifert_forms(count=3000, max_len=6)
    elapsed = time.monotonic() - t0
    _report(10, "key preserves h1", ok and elapsed < 10.0,
            f"up to 6 fibers: {detail}, {elapsed:.1f}s (budget 10s)")
