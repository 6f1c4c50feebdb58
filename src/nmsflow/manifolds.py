"""Canonical values for the closed orientable 3-manifolds of this library.

A canonical manifold is one of the atoms Sphere, S2xS1, RP3, a lens space
Lens(p, q) with p >= 3, 0 < 2q < p and gcd(p, q) = 1, a Seifert fibration
SeifertOverS2 with normalized fiber data, or a ConnectedSum of those sorted
by a fixed total order.  Values produced by this module's
factories (lens_canonical, seifert_over_s2, sum_normalize) always satisfy
the canonical-form invariants; stray hand-built values with merely valid
parameters are re-canonicalized by every operation that cares.

The total order on summands is Sphere < S2xS1 < Lens (by p, then q) <
SeifertOverS2 (lexicographic on fibers) < RP3.  RP3 deliberately sorts last
so that rendered sums read the way the classification states them, e.g.
"L(5,2) # RP3".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import seifert


class InvalidLensParameters(ValueError):
    """Lens parameters violate gcd(|p|, q) = 1 (or q != +/-1 when p = 0)."""


@dataclass(frozen=True, slots=True)
class LensParams:
    """Raw, unnormalized lens parameters (p, q).

    Valid iff gcd(|p|, q) = 1; for p = 0 that forces q = +/-1.
    """
    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p == 0:
            if self.q not in (1, -1):
                raise InvalidLensParameters(
                    f"invalid-lens-parameters: (0, {self.q}) needs q = +/-1")
        elif math.gcd(self.p, self.q) != 1:
            raise InvalidLensParameters(
                f"invalid-lens-parameters: ({self.p}, {self.q}) is not coprime")


class Manifold:
    """Base marker for canonical manifold values."""
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Sphere(Manifold):
    def __str__(self) -> str:
        return "S3"


@dataclass(frozen=True, slots=True)
class S2xS1(Manifold):
    def __str__(self) -> str:
        return "S2xS1"


@dataclass(frozen=True, slots=True)
class RP3(Manifold):
    def __str__(self) -> str:
        return "RP3"


@dataclass(frozen=True, slots=True)
class Lens(Manifold):
    """Lens space L(p, q).  Canonical values have p >= 3, 0 < q, 2q < p."""
    p: int
    q: int

    def __post_init__(self) -> None:
        LensParams(self.p, self.q)

    def __str__(self) -> str:
        return f"L({self.p},{self.q})"


@dataclass(frozen=True, slots=True)
class SeifertOverS2(Manifold):
    """Seifert fibration over the sphere; canonical fibers are normalized."""
    fibers: seifert.SeifertData

    def __post_init__(self) -> None:
        object.__setattr__(self, "fibers", seifert.check_fibers(self.fibers))
        if not self.fibers:
            raise seifert.InvalidFiber(
                "empty fiber data denotes S2xS1; use the atom")

    def __str__(self) -> str:
        body = ",".join(f"({a},{b})" for a, b in self.fibers)
        return f"SFS(S2; {body})"


@dataclass(frozen=True, slots=True)
class ConnectedSum(Manifold):
    """Connected sum; canonical values are flat, Sphere-free, and sorted."""
    summands: tuple[Manifold, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "summands", tuple(self.summands))
        if len(self.summands) < 2:
            raise ValueError("a connected sum needs at least 2 summands")
        for s in self.summands:
            if not isinstance(s, Manifold):
                raise TypeError(f"not a manifold value: {s!r}")

    def __str__(self) -> str:
        return " # ".join(str(s) for s in self.summands)


_ATOM_RANK = {Sphere: 0, S2xS1: 1, RP3: 4}


def sort_key(m: Manifold):
    """Key for the fixed total order on canonical values."""
    if isinstance(m, Lens):
        return (2, (m.p, m.q))
    if isinstance(m, SeifertOverS2):
        return (3, m.fibers)
    if isinstance(m, ConnectedSum):
        return (5, tuple(sort_key(s) for s in m.summands))
    return (_ATOM_RANK[type(m)], ())


def lens_canonical(p: int, q: int) -> Manifold:
    """Canonical manifold of the lens parameters (p, q).

    The sign of p is dropped, q is replaced by min(q mod p, (p - q) mod p),
    and p in {0, 1, 2} collapses to the atoms S2xS1, Sphere, RP3.  Raises
    InvalidLensParameters on non-coprime input.

    Equality of canonical forms is the orientation-preserving lens
    classification used throughout: L(p, q) = L(p', q') iff p = +/-p' and
    q = +/-q' (mod |p|), where mod 0 means exact equality of the q values.
    """
    params = LensParams(p, q)
    p = abs(params.p)
    if p == 0:
        return S2xS1()
    if p == 1:
        return Sphere()
    if p == 2:
        return RP3()
    q = params.q % p
    return Lens(p, min(q, p - q))


def seifert_over_s2(fibers: Iterable[Sequence[int]]) -> Manifold:
    """Canonical manifold of Seifert data over the sphere.

    The fibers are normalized; data whose normal form is empty collapses to
    the S2xS1 atom (a fibration without exceptional fibers and without an
    integer term), keeping every canonical value renderable.
    """
    norm = seifert.normalize(fibers)
    if not norm:
        return S2xS1()
    return SeifertOverS2(norm)


def seifert_to_lens(fibers: Iterable[Sequence[int]]) -> Manifold:
    """The lens-space form of data with at most 2 exceptional fibers.

    Raises seifert.NotALens when >= 3 exceptional fibers are present.
    """
    p, q = seifert.lens_parameters(fibers)
    return lens_canonical(p, q)


def canonicalize(m: Manifold) -> Manifold:
    """Idempotent re-canonicalization; identity on canonical values."""
    if isinstance(m, Lens):
        return lens_canonical(m.p, m.q)
    if isinstance(m, SeifertOverS2):
        return seifert_over_s2(m.fibers)
    if isinstance(m, ConnectedSum):
        return sum_normalize(m.summands)
    if isinstance(m, Manifold):
        return m
    raise TypeError(f"not a manifold value: {m!r}")


def sum_normalize(summands: Iterable[Manifold]) -> Manifold:
    """Canonical connected sum of the given summands.

    Summands are re-canonicalized, nested sums are flattened, Sphere
    summands are dropped, and the rest is sorted by the fixed total order.
    No summands at all gives Sphere; a single summand is returned bare.
    """
    flat: list[Manifold] = []
    for s in summands:
        s = canonicalize(s)
        if isinstance(s, ConnectedSum):
            flat.extend(s.summands)
        elif isinstance(s, Sphere):
            continue
        else:
            flat.append(s)
    flat.sort(key=sort_key)
    if not flat:
        return Sphere()
    if len(flat) == 1:
        return flat[0]
    return ConnectedSum(tuple(flat))


def homeomorphism_key(m: Manifold) -> Manifold:
    """A homeomorphism invariant: equal keys mean homeomorphic values.

    Seifert values with <= 2 exceptional fibers resolve to their lens form;
    those with >= 3 keep their fibration but reduce the fibers to the
    canonical isomorphism-class representative (a fibration with >= 3
    exceptional fibers is never a lens space, and over the closed base its
    isomorphism class determines the manifold).  Sums resolve summand-wise.
    The key is not complete: lens_canonical keeps L(p, q) and L(p, q')
    with q * q' = +/-1 (mod p) apart, although they are homeomorphic.
    """
    m = canonicalize(m)
    if isinstance(m, SeifertOverS2):
        if not seifert.not_lens_obstruction(m.fibers):
            return seifert_to_lens(m.fibers)
        return SeifertOverS2(seifert.isomorphism_key(m.fibers))
    if isinstance(m, ConnectedSum):
        return sum_normalize(homeomorphism_key(s) for s in m.summands)
    return m


def homeomorphic(a: Manifold, b: Manifold) -> bool:
    """Whether two canonical values denote the same manifold."""
    return homeomorphism_key(a) == homeomorphism_key(b)


def is_prime(m: Manifold) -> bool:
    """Primeness of a canonical value: every value but a sum is prime."""
    return not isinstance(canonicalize(m), ConnectedSum)
