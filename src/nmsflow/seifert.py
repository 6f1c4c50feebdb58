"""Seifert fibration calculus over the base sphere.

Seifert data is an ordered tuple of fiber pairs (alpha, beta).  A pair with
alpha >= 2 is an exceptional fiber and must satisfy gcd(alpha, beta) = 1; a
pair (1, b) is an ordinary fiber carrying the integer term b of the
fibration.  All arithmetic is exact: Euler numbers are Fraction values and
everything else is plain int, so results stay reliable at any size.

Sign convention.  Fibers (alpha_i, beta_i), i = 1..r, denote surgery on a
0-framed unknot along r of its meridians with coefficients alpha_i / beta_i.
So H1 has generators x_1, ..., x_r, h and relations
alpha_i * x_i + beta_i * h = 0 and x_1 + ... + x_r = 0, the Euler number is
e = sum beta_i / alpha_i, and the H1 order of a rational homology sphere is
|e| * prod alpha_i.  Reversing the orientation negates every beta.
lens_parameters, homology.h1_seifert_presentation and the closed form of
homology.h1 all use this convention.

Validation.  Fiber data is checked once, where it enters: check_fibers
runs in the public functions of this module that take raw fiber pairs
(normalize, euler_number, not_lens_obstruction, isomorphism_key,
lens_parameters) and in homology.h1_seifert_presentation.  The
SeifertOverS2 constructor stores normalize(fibers), so the fibers of a
value are a validated normal form, and its readers (the homeomorphism key,
homology.h1) call the unvalidated cores _not_lens, _isomorphism_key,
_lens_parameters and homology._h1_seifert on them.  Three producers of a
normal form store it through manifolds._seifert, without the constructor's
normalize and check_fibers: case 7 of classifier._CASES, whose three
fibers, sorted, are a normal form because each beta lies in (0, alpha),
manifolds.homeomorphism_key, whose key _isomorphism_key builds from a
normal form, and manifolds.seifert_over_s2, which has just normalized.

This module is deliberately free of manifold types; it only manipulates
fiber data.  The bridge to canonical manifold values (seifert_over_s2 and
homeomorphism_key) lives in manifolds.py.
"""

from __future__ import annotations

import math
from itertools import product

SeifertData = tuple[tuple[int, int], ...]
# Fiber data as the functions below take it: (alpha, beta) pairs in a list
# or a tuple.  Builtin types only, so that the annotations import nothing.
Fibers = list[tuple[int, int]] | tuple[tuple[int, int], ...]


class InvalidFiber(ValueError):
    """A fiber pair violates alpha >= 1 or gcd(alpha, beta) = 1."""


class NotALens(ValueError):
    """Raised for Seifert data that cannot fiber a lens space."""


class _TooManyFlips(ValueError):
    """The isomorphism key would search past its cap of 2^32 flip vectors."""


def check_fibers(fibers: Fibers) -> SeifertData:
    """Validate fiber data and return it as a tuple of int pairs.

    Rules: every alpha >= 1, and every exceptional fiber (alpha >= 2) has
    gcd(alpha, beta) = 1.  Ordinary fibers (1, b) take any integer b.
    """
    out = []
    for pair in fibers:
        try:
            alpha, beta = pair
        except (TypeError, ValueError):
            raise InvalidFiber(f"fiber {pair!r} is not an (alpha, beta) pair") from None
        if not isinstance(alpha, int) or not isinstance(beta, int):
            raise InvalidFiber(f"fiber {pair!r} must hold plain ints")
        if alpha < 1:
            raise InvalidFiber(f"fiber ({alpha}, {beta}): multiplicity must be >= 1")
        if alpha >= 2 and math.gcd(alpha, beta) != 1:
            raise InvalidFiber(f"fiber ({alpha}, {beta}): gcd(alpha, beta) must be 1")
        out.append((alpha, beta))
    return tuple(out)


def normalize(fibers: Fibers) -> SeifertData:
    """Return the normal form of Seifert data.

    Each exceptional beta is reduced into (0, alpha), the excess and all
    ordinary fibers are merged into a single integer term (1, b) which is
    dropped when b = 0, and the pairs are sorted lexicographically (the
    (1, b) term sorts first).  The Euler number is unchanged.
    """
    b = 0
    reduced = []
    for alpha, beta in check_fibers(fibers):
        if alpha == 1:
            b += beta
        else:
            r = beta % alpha  # in (0, alpha): gcd(alpha, beta) = 1 forbids 0
            b += (beta - r) // alpha
            reduced.append((alpha, r))
    reduced.sort()
    if b != 0:
        reduced.insert(0, (1, b))
    return tuple(reduced)


def euler_number(fibers: Fibers):
    """Exact Euler number sum(beta_i / alpha_i) of the fibration, a
    fractions.Fraction, summed in integers over the lcm of the alphas and
    reduced once."""
    from fractions import Fraction  # here, so that the CLI start-up skips it

    data = check_fibers(fibers)
    den = math.lcm(*[alpha for alpha, _ in data])
    return Fraction(sum(beta * (den // alpha) for alpha, beta in data), den)


def not_lens_obstruction(fibers: Fibers) -> bool:
    """True when the data has >= 3 exceptional fibers.

    Such a fibration is never a lens space.  This is the one statement of
    that rule: lens_parameters and manifolds.homeomorphism_key both ask its
    core _not_lens.
    The fibers with alpha >= 2 are counted on the validated data as given;
    normalize keeps every one of them, so the count needs no normal form.
    """
    return _not_lens(check_fibers(fibers))


def _not_lens(data: SeifertData) -> bool:
    """not_lens_obstruction on data that check_fibers has already accepted."""
    return sum(1 for alpha, _ in data if alpha >= 2) >= 3


def isomorphism_key(fibers: Fibers) -> SeifertData:
    """The lexicographically least normal form over a family of flips.

    The family: a sign flip beta -> alpha - beta on a subset S of
    exceptional fibers such that sum_{i in S} (alpha_i - 2 beta_i) /
    alpha_i is an integer, the correction landing in the (1, b) term so
    that the Euler number stays fixed.  Key equality is not isomorphy
    (ROADMAP.md, item 1).  Some of these flips change the manifold, so
    (3,1),(4,1),(4,1) and (1,-1),(3,1),(4,3),(4,3) share a key although
    their Casson-Walker invariants differ.  And no flip reverses the
    orientation, which negates every beta and e, so (2,1),(3,1),(5,1) and
    (2,-1),(3,-1),(5,-1) get different keys.

    The search runs over orbit classes, not over the 2^k subsets of the k
    exceptional fibers.  In a normal form a flip only moves a fiber
    inside its class {(alpha, s), (alpha, alpha - s)}, s < alpha / 2; an
    alpha = 2 fiber is always (2, 1) and a flip leaves it fixed.  So a
    candidate depends only on the vector l, where l_g counts the fibers
    of class g that show alpha - s, and each such fiber adds
    w_g = (alpha - 2 s) / alpha to the sum above.  The search counts in
    integers over L, the lcm of the alphas: S(l) is L * sum_g w_g l_g, l
    is admissible when S(l) = S(l0) (mod L), l0 the vector of the given
    data, and the new integer term is nb = (T - S(l)) / L with
    T = b L + S(l0).  Ordering lemma: two sorted fiber lists of equal
    length compare at the least value whose multiplicities differ, and
    the list with more of it is the lesser.  That value is the low
    member (alpha, s) of the first class, in (alpha, s) order, where the
    vectors differ, so the lists compare as their vectors l do, and the
    key is the candidate that minimises (nb == 0, nb, l): the admissible
    l of largest S(l) other than T, the least on ties, or, when every
    admissible S(l) is T, the least l.

    It meets in the middle (Horowitz and Sahni, J. ACM 21, 1974).  The
    left half is the first prefix of the classes whose product P of the
    (n_g + 1), n_g the size of class g, passes sqrt(N), N the whole
    product, or the prefix before it if that makes P + 3 N / P less.
    The sums of the right half are listed once, keeping for each residue
    mod L the two largest distinct sums, each with its least vector.
    Then each sum of the left half looks up the residue that makes it
    admissible.  Two sums of one residue differ by a multiple of L, so
    at most one of them completes a left sum to T; the second is taken
    only when the first does.  The search thus takes about 2 sqrt(N)
    steps, and its memory grows like its time; a class of many fibers,
    which lies whole in one half, can take more.  Twenty
    fibers of class (3, 1) and ten each of (5, 1) and (5, 2) have
    21 * 11 * 11 = 2,541 vectors, which the halves cover in
    231 + 11 steps; 23 fibers in classes of their own have 2^23, in
    2^12 + 2^11.  Raises a ValueError, before any search, when N is past
    2^32 (ROADMAP.md, item 13).
    """
    return _isomorphism_key(normalize(fibers))


def _isomorphism_key(base: SeifertData) -> SeifertData:
    """isomorphism_key on data that is already a normal form; returns base
    itself, not a copy, when base is its own key.

    A vector l stands as its mixed-radix index, the first class most
    significant, which orders vectors as l does.
    """
    b = 0
    tagged = []  # ((alpha, s), 1 if the fiber shows alpha - s else 0)
    alphas = []
    for alpha, beta in base:
        if alpha > 2:
            s = alpha - beta
            if beta < s:
                tagged.append(((alpha, beta), 0))
            else:
                tagged.append(((alpha, s), 1))
            alphas.append(alpha)
        elif alpha == 1:
            b = beta
    if not tagged:
        return base
    tagged.sort()
    lcm = math.lcm(*alphas)
    target = b * lcm  # T
    classes = []  # the (alpha, s) of each class, in increasing order
    steps = []  # [0, w_g, 2 w_g, ..., n_g w_g], w_g counted over L
    own = []  # l_g of base
    for c, shows_high in tagged:
        if classes and classes[-1] == c:
            d = steps[-1]
            d.append(d[-1] + d[1])
            own[-1] += shows_high
        else:
            alpha, s = c
            classes.append(c)
            d = [0, (alpha - 2 * s) * (lcm // alpha)]
            steps.append(d)
            own.append(shows_high)
        if shows_high:
            target += d[1]
    mine, total = 0, 1
    for d, l in zip(steps, own):
        mine = mine * len(d) + l
        total *= len(d)
    if total > 1 << 32:
        raise _TooManyFlips("the isomorphism key searches at most 2^32 flip vectors, "
                            "the product of (n + 1) over its classes of n fibers, "
                            "and these fibers have more")
    cut, size = 0, 1
    while size * size <= total:
        size *= len(steps[cut])
        cut += 1
    # One class back, to a product Q, if Q + 3 total / Q < size + 3 total
    # / size, that is Q * size > 3 total.  A right sum counts as three left
    # ones: it takes about the time of one and four times the memory.
    if size * size > 3 * total * len(steps[cut - 1]):
        cut -= 1
    # S of every vector of each half, in index order.
    left = list(map(sum, product(*steps[:cut])))
    right = list(map(sum, product(*steps[cut:])))
    top = {}  # S mod L -> (largest S, its index, runner-up or -1, its index)
    for j, t in enumerate(right):
        r = t % lcm
        e = top.get(r)
        if e is None:
            top[r] = (t, j, -1, 0)
        elif t > e[0]:
            top[r] = (t, j, e[0], e[1])
        elif e[2] < t < e[0]:
            top[r] = (e[0], e[1], t, j)
    # The best S(l) so far, or -1 for S(l) = T, which ranks below every
    # other S since all are >= 0; the first index wins a tie.
    best = where = -2
    width = len(right)
    for i, t in enumerate(left):
        e = top.get((target - t) % lcm)
        if e is not None:
            first, j, second, k = e
            s = t + first
            if s == target:
                if second >= 0:
                    s, j = t + second, k
                else:
                    s = -1
            if s > best:
                best, where = s, i * width + j
    if where == mine:
        return base
    fibers = [f for f in base if f[0] == 2]
    for (alpha, s), d in zip(reversed(classes), reversed(steps)):
        where, l = divmod(where, len(d))
        fibers += [(alpha, s)] * (len(d) - 1 - l) + [(alpha, alpha - s)] * l
    fibers.sort()
    if best >= 0:
        fibers.insert(0, (1, (target - best) // lcm))
    return tuple(fibers)


def nu_of(alpha: int, beta: int) -> int:
    """The representative of beta^-1 (mod alpha) in [0, alpha).

    For alpha >= 2 this lands in (0, alpha); for alpha = 1 it is 0.
    """
    if alpha < 1:
        raise InvalidFiber(f"multiplicity {alpha} must be >= 1")
    if math.gcd(alpha, beta) != 1:
        raise InvalidFiber(f"{beta} is not invertible mod {alpha}")
    return pow(beta, -1, alpha)


def lens_parameters(fibers: Fibers) -> tuple[int, int]:
    """Raw lens parameters (p, q) of data with at most 2 exceptional fibers.

    The integer term (1, b) is first folded into the first exceptional fiber
    as beta1 -> beta1 + b * alpha1; with no exceptional fiber it stands alone
    as (1, b), i.e. the parameters (b, 1) (b = 0 gives (0, 1), the product
    fibration).  With two exceptional fibers, in the convention of the
    module docstring, the parameters are

        p = beta1 * alpha2 + alpha1 * beta2
        q = beta1 * nu2 + alpha1 * xi2,

    where nu2 is the (0, alpha2) representative of (-beta2)^-1 and
    alpha2 * xi2 - nu2 * beta2 = 1, so |p| is the order of H1.  Raises
    NotALens on >= 3 exceptional fibers.
    """
    return _lens_parameters(normalize(fibers))


def _lens_parameters(norm: SeifertData) -> tuple[int, int]:
    """lens_parameters on data that is already a normal form."""
    if _not_lens(norm):
        raise NotALens(
            f"{norm}: >= 3 exceptional fibers, the fibration is not a lens space")
    b = sum(beta for alpha, beta in norm if alpha == 1)
    exc = [f for f in norm if f[0] >= 2]
    if not exc:
        return (b, 1)
    (a1, b1), *rest = exc
    b1 += b * a1
    if not rest:
        return (b1, a1)
    a2, b2 = rest[0]
    nu2 = nu_of(a2, -b2)
    xi2 = (1 + nu2 * b2) // a2  # exact: alpha2 | 1 + nu2*beta2
    return (b1 * a2 + a1 * b2, b1 * nu2 + a1 * xi2)
