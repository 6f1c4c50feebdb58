"""Independent oracles used to cross-check the library.

Everything here is deliberately written from scratch with different
algorithms than the package: lens equivalence by quantifier search
instead of canonical forms, the torsion of a connected sum by the Smith
normal form of a diagonal matrix instead of pairwise gcd and lcm,
Seifert isomorphy by a search over fiber matchings instead of the
isomorphism key, the isomorphism key's flip search by a Fraction sum per
subset instead of integers in Gray-code order, the lens space of
Seifert data with two exceptional fibers from a linear plumbing chain
instead of the closed formula, enumeration by keying every classified
result instead of each distinct value once, selfcheck's tallies by
classifying every quadruple instead of evaluating a case formula once
per side-bucket pair, the order of a lattice quotient by counting
residues over a box instead of growing a subgroup, and the command line
by argparse, one subparser per command, instead of the CLI's own reader.
valid_invariants, the admissible quadruples in lexicographic order that
these per-quadruple oracles walk, tests the side rule by gcd over the
whole box and builds each invariant through validate_invariant.
Tests compare the two routes.  invariant_factors_of_pair uses the
package's own gcd and lcm rule, so only sum_torsion_by_snf checks h1 of
a sum independently.  check_snf tests Smith normal form against
cofactor arithmetic and a lattice quotient counted by subgroup closure.
"""

from __future__ import annotations

import argparse
import itertools
import math
import random
from fractions import Fraction

from nmsflow import cli
from nmsflow.classifier import classify, validate_invariant
from nmsflow.homology import cokernel, smith_normal_form
from nmsflow.manifolds import homeomorphism_key, sort_key
from nmsflow.seifert import normalize


def lens_equivalent_bruteforce(pa, qa, pb, qb) -> bool:
    """Search s in {1,-1}, k in a sufficient window for qb = s*qa + k*|pa|."""
    if abs(pa) != abs(pb):
        return False
    n = abs(pa)
    if n == 0:
        # modulus 0 keeps the sign quantifier but no shift
        return qa == qb or qa == -qb
    window = (abs(qa) + abs(qb)) // n + 2
    for s in (1, -1):
        for k in range(-window, window + 1):
            if qb == s * qa + k * n:
                return True
    return False


def invariant_factors_of_pair(a: int, b: int):
    """Invariant factors of Z/a + Z/b (a, b >= 1)."""
    g = math.gcd(a, b)
    l = a * b // g if g else 0
    return tuple(d for d in (g, l) if d >= 2)


def sum_torsion_by_snf(factors):
    """Invariant factors of Z/d_1 + ... + Z/d_k (every d_i >= 2): the
    torsion of the cokernel of the diagonal matrix diag(d_1, ..., d_k)."""
    n = len(factors)
    if not n:
        return ()
    return cokernel([[d if j == i else 0 for j in range(n)]
                     for i, d in enumerate(factors)]).torsion


def seifert_isomorphic_bruteforce(a, b) -> bool:
    """Fiber-preserving isomorphism of Seifert data over the sphere.

    Holds iff the Euler numbers sum(beta / alpha) agree exactly and some
    bijection of the exceptional fibers (alpha >= 2) matches each
    (alpha, beta) with an (alpha, beta') where beta' = +/-beta (mod alpha),
    the sign chosen per fiber.  Searches all matchings.
    """
    if sum(Fraction(y, x) for x, y in a) != sum(Fraction(y, x) for x, y in b):
        return False
    ea = [(x, y) for x, y in a if x >= 2]
    eb = [(x, y) for x, y in b if x >= 2]
    if len(ea) != len(eb):
        return False
    return any(all(x == x2 and ((y - y2) % x == 0 or (y + y2) % x == 0)
                   for (x, y), (x2, y2) in zip(ea, perm))
               for perm in itertools.permutations(eb))


def isomorphism_key_by_fraction_masks(fibers):
    """seifert.isomorphism_key by its definition: for every mask of the
    exceptional fibers, flip beta -> alpha - beta on the mask, sum the
    Fractions (alpha - 2 beta) / alpha and keep the mask when the sum is an
    integer.  The least normal form over the kept masks."""
    base = normalize(fibers)
    b = sum(beta for alpha, beta in base if alpha == 1)
    exc = [f for f in base if f[0] >= 2]
    best = base
    for mask in range(1, 1 << len(exc)):
        delta = Fraction(0)
        flipped = []
        for i, (alpha, beta) in enumerate(exc):
            if mask >> i & 1:
                delta += Fraction(alpha - 2 * beta, alpha)
                flipped.append((alpha, alpha - beta))
            else:
                flipped.append((alpha, beta))
        if delta.denominator != 1:
            continue
        nb = b - int(delta)
        flipped.sort()
        if nb != 0:
            flipped.insert(0, (1, nb))
        candidate = tuple(flipped)
        if candidate < best:
            best = candidate
    return best


def _continued_fraction(a: int, b: int) -> list[int]:
    # integers x_1, ..., x_k with a / b = x_1 - 1/(x_2 - 1/(... - 1/x_k))
    out = []
    while b:
        x = -(-a // b)
        out.append(x)
        a, b = b, x * b - a
    return out


def _chain_det(weights) -> int:
    # determinant of the linear plumbing matrix: weights on the diagonal,
    # 1 beside it (the sign of the off-diagonal entries does not matter)
    prev, cur = 0, 1
    for w in weights:
        prev, cur = cur, w * cur - prev
    return cur


def lens_of_plumbing_chain(fibers):
    """(p, q) with the Seifert data homeomorphic to L(p, q), at most two
    exceptional fibers.

    Surgery on a 0-framed unknot U along meridians with coefficients
    alpha / beta.  A slam dunk moves each ordinary fiber (1, b) into U's
    framing as -b, and each exceptional meridian unfolds into a chain of
    integer unknots by a continued fraction.  The result is a linear
    chain, whose boundary is L(det, det of the chain without its first
    vertex), up to orientation and reading the chain from the other end.
    """
    exc = [(x, y) for x, y in fibers if x >= 2]
    if len(exc) > 2:
        raise ValueError("more than two exceptional fibers")
    arms = [_continued_fraction(x, y) for x, y in exc] + [[], []]
    chain = arms[0][::-1] + [-sum(y for x, y in fibers if x == 1)] + arms[1]
    return _chain_det(chain), _chain_det(chain[1:])


def valid_invariants(bound):
    """All admissible quadruples with |entries| <= bound, lexicographically:
    gcd(l2, m2) = 1, and gcd(l1, m1) = 1 or (l1, m1) = (0, 2)."""
    rng = range(-bound, bound + 1)
    for l1, m1, l2, m2 in itertools.product(rng, repeat=4):
        if math.gcd(l2, m2) == 1 and (math.gcd(l1, m1) == 1 or (l1, m1) == (0, 2)):
            yield validate_invariant(l1, m1, l2, m2)


def tally_by_classify(bound):
    """selfcheck.tally(bound) by classifying every admissible quadruple
    once and counting its result, in lexicographic order, so the first
    three invariants kept per key are its least."""
    cases = {}
    values = {}
    for inv in valid_invariants(bound):
        r = classify(inv)
        case = r.case
        l1, l2 = inv.l1, inv.l2
        cell = (l1, l2, case)
        cases[cell] = cases.get(cell, 0) + 1
        x = (0 if case >= 6 or case == 3 else l2 if case == 1
             else l1 if case == 2 else 2 * inv.m2 - l2 if case == 4
             else 2 * inv.m1 - l1)
        record = values.get(key := (case, r.manifold, x))
        if record is None:
            values[key] = [1, inv]
        else:
            record[0] += 1
            if record[0] <= 3:
                record.append(inv)
    return cases, values


def enumerate_bruteforce(bound):
    """Every admissible quadruple up to `bound`, grouped by homeomorphism
    key and sorted by representative: each classified result is keyed on
    its own, with no memo."""
    groups = {}
    for inv in valid_invariants(bound):
        result = classify(inv)
        groups.setdefault(homeomorphism_key(result.manifold), []).append(result)
    return sorted(groups.items(), key=lambda kv: sort_key(kv[0]))


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
    # v ~ w in Z^n / rowspan iff v*adj == w*adj (mod det), so the quotient
    # is the subgroup of (Z/|det|)^n that the rows of adj generate: grow it
    # breadth-first from 0, adding each row, and count it.
    d = abs(det)
    rows = [tuple(x % d for x in row) for row in _adjugate(m)]
    seen = {(0,) * len(m)}
    frontier = list(seen)
    while frontier:
        grown = []
        for v in frontier:
            for row in rows:
                w = tuple((a + b) % d for a, b in zip(v, row))
                if w not in seen:
                    seen.add(w)
                    grown.append(w)
        frontier = grown
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


def check_snf(*, count=300, max_size=4, seed=0x3A7D, box_caps=_BOX_CAPS):
    """Smith normal form of `count` random matrices with up to `max_size`
    rows and columns and entries in [-9, 9]: min(rows, cols) diagonal
    entries forming a divisor chain, product |det| for square matrices by
    cofactor expansion, and, for an n x n matrix with 0 < |det| <=
    box_caps[n], |det| elements in the lattice quotient Z^n / rowspan.
    The quotient is counted by closure, without Smith normal form: it is
    the subgroup of (Z/|det|)^n generated by the adjugate's rows, grown
    from 0."""
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


def coker_order_by_box(m, det):
    """The order of Z^n / rowspan(m) for a square m with det(m) = det != 0.

    v ~ w in the quotient iff v*adj == w*adj (mod det); count the distinct
    keys over the box [0, |det|)^n, which surjects onto the quotient.  The
    key of v sums the multiples v_i * adj_i, listed per row first."""
    d = abs(det)
    multiples = [[tuple(k * x % d for x in row) for k in range(d)]
                 for row in _adjugate(m)]
    seen = set()
    for parts in itertools.product(*multiples):
        seen.add(tuple(sum(column) % d for column in zip(*parts)))
    return len(seen)


def _argparse_type(kind):
    """`kind`, raising the argparse error for a value that it rejects."""
    def convert(text):
        try:
            return kind(text)
        except cli._UsageError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def argparse_command_line() -> argparse.ArgumentParser:
    """The commands of cli._COMMANDS as an argparse parser, one subparser
    per command, as the CLI read them before it had its own reader; help
    is laid out 80 columns wide."""
    def formatter(prog):
        return argparse.HelpFormatter(prog, width=78)

    parser = argparse.ArgumentParser(prog="nmsflow", description=cli._DESCRIPTION,
                                     formatter_class=formatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, operands, options, _) in cli._COMMANDS.items():
        p = sub.add_parser(command, help=text, formatter_class=formatter)
        for name, kind in operands:
            p.add_argument(name, type=_argparse_type(kind))
        for name, kind, default, text in options:
            if kind is None:
                p.add_argument(name, action="store_true", help=text)
            else:
                p.add_argument(name, type=_argparse_type(kind), default=default, help=text)
    return parser
