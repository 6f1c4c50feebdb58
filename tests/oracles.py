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
result instead of each distinct value once, and the order of a lattice
quotient by counting residues over a box instead of growing a subgroup.
Tests compare the two routes.  invariant_factors_of_pair uses the
package's own gcd and lcm rule, so only sum_torsion_by_snf checks h1 of
a sum independently.  The cofactor and lattice-count oracle for Smith
normal form lives in `nmsflow.selfcheck`, whose shipped battery needs it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from nmsflow.classifier import classify, valid_invariants
from nmsflow.homology import cokernel
from nmsflow.manifolds import homeomorphism_key, sort_key
from nmsflow.seifert import normalize
from nmsflow.selfcheck import _adjugate


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


def enumerate_bruteforce(bound):
    """Every admissible quadruple up to `bound`, grouped by homeomorphism
    key and sorted by representative: each classified result is keyed on
    its own, with no memo."""
    groups = {}
    for inv in valid_invariants(bound):
        result = classify(inv)
        groups.setdefault(homeomorphism_key(result.manifold), []).append(result)
    return sorted(groups.items(), key=lambda kv: sort_key(kv[0]))


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
