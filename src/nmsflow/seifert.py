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
lens_parameters and homology.h1_seifert_presentation both use this
convention.

This module is deliberately free of manifold types; it only manipulates
fiber data.  The bridge to canonical manifold values (seifert_to_lens and
friends) lives in manifolds.py.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

SeifertData = tuple[tuple[int, int], ...]


class InvalidFiber(ValueError):
    """A fiber pair violates alpha >= 1 or gcd(alpha, beta) = 1."""


class NotALens(ValueError):
    """Raised for Seifert data that cannot fiber a lens space."""


def check_fibers(fibers: Iterable[Sequence[int]]) -> SeifertData:
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


def normalize(fibers: Iterable[Sequence[int]]) -> SeifertData:
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


def euler_number(fibers: Iterable[Sequence[int]]) -> Fraction:
    """Exact Euler number sum(beta_i / alpha_i) of the fibration."""
    return sum((Fraction(beta, alpha) for alpha, beta in check_fibers(fibers)),
               Fraction(0))


def not_lens_obstruction(fibers: Iterable[Sequence[int]]) -> bool:
    """True when the data has >= 3 exceptional fibers.

    Such a fibration is never a lens space.  This is the one statement of
    that rule: lens_parameters and manifolds.homeomorphism_key both ask it.
    The fibers with alpha >= 2 are counted on the validated data as given;
    normalize keeps every one of them, so the count needs no normal form.
    """
    return sum(1 for alpha, _ in check_fibers(fibers) if alpha >= 2) >= 3


def isomorphism_key(fibers: Iterable[Sequence[int]]) -> SeifertData:
    """Canonical representative of the isomorphism class of the data.

    A sign flip beta -> alpha - beta on a subset S of exceptional fibers is
    realizable over the closed base iff sum_{i in S} (alpha_i - 2 beta_i) /
    alpha_i is an integer (the correction lands in the (1, b) term and keeps
    the Euler number fixed).  The key is the lexicographically least normal
    form over all realizable flips, so key equality is exactly isomorphy.
    """
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


def nu_of(alpha: int, beta: int) -> int:
    """The representative of beta^-1 (mod alpha) in [0, alpha).

    For alpha >= 2 this lands in (0, alpha); for alpha = 1 it is 0.
    """
    if alpha < 1:
        raise InvalidFiber(f"multiplicity {alpha} must be >= 1")
    if math.gcd(alpha, beta) != 1:
        raise InvalidFiber(f"{beta} is not invertible mod {alpha}")
    return pow(beta, -1, alpha)


def lens_parameters(fibers: Iterable[Sequence[int]]) -> tuple[int, int]:
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
    norm = normalize(fibers)
    if not_lens_obstruction(norm):
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
