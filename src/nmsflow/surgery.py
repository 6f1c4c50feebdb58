"""Dehn surgery framings.

A framing (beta, alpha) records the image of a meridian on the boundary
torus.  Everything is exact integer arithmetic in SL(2, Z).
"""

from __future__ import annotations

import math

from . import seifert
from .manifolds import Value, _slot_setters


class InvalidFraming(ValueError):
    """A framing (beta, alpha) that is not coprime."""


class Framing(Value):
    """Surgery framing (beta, alpha) on a torus boundary; coprime."""
    __slots__ = ("beta", "alpha")

    def __init__(self, beta: int, alpha: int) -> None:
        if math.gcd(beta, alpha) != 1:
            raise InvalidFraming(f"framing ({beta}, {alpha}) is not coprime")
        _set_beta(self, beta)
        _set_alpha(self, alpha)


_set_beta, _set_alpha = _slot_setters(Framing)


def framing_equivalent(a: Framing, b: Framing) -> bool:
    """Whether two framings produce the same filling.

    True iff beta = beta' and alpha = alpha' (mod beta), where mod 0 means
    exact equality (and mod +/-1 is always satisfied).
    """
    if a.beta != b.beta:
        return False
    if a.beta == 0:
        return a.alpha == b.alpha
    return (a.alpha - b.alpha) % abs(a.beta) == 0


def invert_framing(f: Framing) -> Framing:
    """The framing seen from the complementary solid torus.

    (beta, alpha) maps to (-beta, xi) where xi * alpha + nu * beta = 1, with
    xi = alpha^-1 (mod |beta|) in [0, |beta|), as seifert.nu_of gives it.
    For beta = 0 coprimality forces alpha = +/-1 and the solution is
    xi = alpha.  Applying the map twice returns a framing equivalent to the
    original.
    """
    if f.beta == 0:
        return Framing(0, f.alpha)
    return Framing(-f.beta, seifert.nu_of(abs(f.beta), f.alpha))


def saddle_framing() -> Framing:
    """Framing forced on a twisted saddle orbit's neighborhood.

    The longitude maps to (2, 1).  Completing that row to a determinant-1
    matrix in SL(2, Z) with rows (2, 1), (beta, alpha) means solving
    2 * alpha - beta = 1; the canonical normalization takes alpha as the
    least nonnegative representative of 2^-1 mod 1, which is 0, so
    (beta, alpha) = (-1, 0).
    """
    return Framing(-1, 0)
