"""Canonical values for the closed orientable 3-manifolds of this library.

A canonical manifold is one of the atoms Sphere, S2xS1, RP3, a lens space
Lens(p, q) with p >= 3, 0 < 2q < p and gcd(p, q) = 1, a Seifert fibration
SeifertOverS2 with normalized fiber data, or a ConnectedSum of those sorted
by a fixed total order.  Every value is canonical by construction: each
constructor stores the canonical form of its own type and raises when that
form is of another type.  Lens(2, 1) is RP3, fibers with an empty normal
form are S2xS1, and a ConnectedSum takes at least two summands, none of
them S3 or a sum.  The factories lens_canonical, seifert_over_s2 and
sum_normalize take those inputs, so operations compare values by == and
never repair them.

The total order on summands is Sphere < S2xS1 < Lens (by p, then q) <
SeifertOverS2 (lexicographic on fibers) < RP3.  RP3 deliberately sorts last
so that rendered sums read the way the classification states them, e.g.
"L(5,2) # RP3".

How values are built.  Every value class of the library (the manifolds
here, homology.AbelianGroup, surgery.Framing and the classifier's
FlowInvariant, ClassificationResult and EnumeratedClass) is a
hand-written slotted subclass of Value, not a dataclass.  Its __init__
validates its arguments and stores the canonical form once, with no later
repair step, so a value is canonical by construction.  Value states what
the classes share.
"""

from __future__ import annotations

import math

from . import seifert


def _slot_setters(cls) -> tuple:
    """The __set__ of each slot of cls, in __slots__ order.

    This is how an __init__ stores a field past Value.__setattr__: each
    value class binds its setters to module globals once, right after its
    class body (`_set_p, _set_q = _slot_setters(Lens)`), and a call to the
    slot descriptor's own __set__ costs less than object.__setattr__,
    which looks the descriptor up by name on every store.
    """
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


class Value:
    """Base of the library's immutable value classes.

    A subclass names its fields in __slots__, in the order of its
    constructor's parameters, and its __init__ checks them and stores them
    once through the slot setters that _slot_setters binds after the class
    body.  The rule of every value is stated here once, on the field tuple
    that _fields reads: equal iff of the same class with equal fields
    (else NotImplemented), hashed as that tuple, repr
    `Name(field=value, ...)`, and copied and pickled by rebuilding through
    the constructor, of which every value is a fixed point.  Fields are
    read-only.  The five busy classes write the rule out field by field,
    two to five times as fast; one `selfcheck --bound 6` hashes and
    compares SeifertOverS2 928 and 268 times, Lens 1,056 and 693, the
    _Atom classes 474 and 591, ConnectedSum 133 and 144, and
    AbelianGroup 188 and 434.  The only values stored without
    the constructors' checks are the normal forms that _seifert stores and
    the sorted summands that sum_normalize stores, through the same
    setters on object.__new__.
    """
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return (type(self), self._fields())


class InvalidLensParameters(ValueError):
    """Lens parameters violate gcd(|p|, q) = 1 (or q != +/-1 when p = 0)."""


def _check_coprime(p: int, q: int) -> None:
    """Raise InvalidLensParameters unless gcd(|p|, q) = 1; for p = 0 that
    forces q = +/-1."""
    if p == 0:
        if q not in (1, -1):
            raise InvalidLensParameters(
                f"invalid-lens-parameters: (0, {q}) needs q = +/-1")
    elif math.gcd(p, q) != 1:
        raise InvalidLensParameters(
            f"invalid-lens-parameters: ({p}, {q}) is not coprime")


class Manifold(Value):
    """Base marker for canonical manifold values."""
    __slots__ = ()


class _Atom(Manifold):
    """A manifold without fields; all values of one atom class are equal."""
    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return True
        return NotImplemented

    def __hash__(self):
        return hash(())


class Sphere(_Atom):
    __slots__ = ()

    def __str__(self) -> str:
        return "S3"


class S2xS1(_Atom):
    __slots__ = ()

    def __str__(self) -> str:
        return "S2xS1"


class RP3(_Atom):
    __slots__ = ()

    def __str__(self) -> str:
        return "RP3"


class Lens(Manifold):
    """Lens space L(p, q), stored as |p| >= 3 and min(q mod p, -q mod p)."""
    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        _check_coprime(p, q)
        n = abs(p)
        if n <= 2:
            raise InvalidLensParameters(
                f"L({p},{q}) is an atom; use lens_canonical")
        q %= n
        _set_p(self, n)
        _set_q(self, min(q, n - q))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.p == other.p and self.q == other.q
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.q))

    def __str__(self) -> str:
        return f"L({self.p},{self.q})"


_set_p, _set_q = _slot_setters(Lens)


class SeifertOverS2(Manifold):
    """Seifert fibration over the sphere, stored as seifert.normalize(fibers)."""
    __slots__ = ("fibers",)

    def __init__(self, fibers: seifert.Fibers) -> None:
        fibers = seifert.normalize(fibers)
        if not fibers:
            raise seifert.InvalidFiber(
                "an empty normal form denotes S2xS1; use seifert_over_s2")
        _set_fibers(self, fibers)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.fibers == other.fibers
        return NotImplemented

    def __hash__(self):
        return hash((self.fibers,))

    def __str__(self) -> str:
        body = ",".join(f"({a},{b})" for a, b in self.fibers)
        return f"SFS(S2; {body})"


_set_fibers, = _slot_setters(SeifertOverS2)


def _seifert(fibers: seifert.SeifertData) -> SeifertOverS2:
    """The SeifertOverS2 of fibers that the caller has just made a nonempty
    normal form, stored unchecked: classifier's case 7,
    homeomorphism_key and seifert_over_s2."""
    m = object.__new__(SeifertOverS2)
    _set_fibers(m, fibers)
    return m


class ConnectedSum(Manifold):
    """Connected sum of >= 2 summands, none S3 or a sum, stored sorted."""
    __slots__ = ("summands",)

    def __init__(self,
                 summands: list[Manifold] | tuple[Manifold, ...]) -> None:
        summands = tuple(summands)
        if len(summands) < 2:
            raise ValueError("a connected sum needs at least 2 summands")
        for s in summands:
            if not isinstance(s, Manifold):
                raise TypeError(f"not a manifold value: {s!r}")
            if isinstance(s, (Sphere, ConnectedSum)):
                raise ValueError(f"summand {s} is S3 or a sum; use sum_normalize")
        _set_summands(self, tuple(sorted(summands, key=sort_key)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.summands == other.summands
        return NotImplemented

    def __hash__(self):
        return hash((self.summands,))

    def __str__(self) -> str:
        return " # ".join(str(s) for s in self.summands)


_set_summands, = _slot_setters(ConnectedSum)


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
    if abs(p) > 2:
        return Lens(p, q)
    _check_coprime(p, q)
    return (S2xS1, Sphere, RP3)[abs(p)]()


def seifert_over_s2(fibers: seifert.Fibers) -> Manifold:
    """Canonical manifold of Seifert data over the sphere.

    The fibers are normalized; data whose normal form is empty collapses to
    the S2xS1 atom (a fibration without exceptional fibers and without an
    integer term), keeping every canonical value renderable.
    """
    fibers = seifert.normalize(fibers)
    return _seifert(fibers) if fibers else S2xS1()


def sum_normalize(
        summands: list[Manifold] | tuple[Manifold, ...]) -> Manifold:
    """Canonical connected sum of the given summands.

    Nested sums are flattened and Sphere summands are dropped, and the
    rest are sorted.  No summands at all gives Sphere; a single summand is
    returned bare.  Raises TypeError on a summand that is not a Manifold.
    What is left meets the ConnectedSum constructor's rules, so it is
    stored without checking them again.
    """
    flat: list[Manifold] = []
    for s in summands:
        if isinstance(s, ConnectedSum):
            flat.extend(s.summands)
        elif isinstance(s, Sphere):
            continue
        elif isinstance(s, Manifold):
            flat.append(s)
        else:
            raise TypeError(f"not a manifold value: {s!r}")
    if not flat:
        return Sphere()
    if len(flat) == 1:
        return flat[0]
    m = object.__new__(ConnectedSum)
    _set_summands(m, tuple(sorted(flat, key=sort_key)))
    return m


def homeomorphism_key(m: Manifold) -> Manifold:
    """The key behind homeomorphic and enumerate: a value per class.

    Seifert values with <= 2 exceptional fibers resolve to their lens form,
    read off the stored normal form by the unvalidated core
    seifert._lens_parameters; those with >= 3 keep their fibration but reduce the fibers to
    seifert.isomorphism_key (a fibration with >= 3 exceptional fibers is
    never a lens space).  Sums resolve summand-wise.  A Seifert value whose
    fibers are already their key is returned itself; any other key is a
    normal form, which _seifert stores without re-running normalize and
    check_fibers.  Raises TypeError on anything but a Manifold.

    Equal keys do not always mean homeomorphic values, nor different keys
    different manifolds (ROADMAP.md, item 1):

    - False positives: seifert.isomorphism_key also equates fibrations
      that no homeomorphism relates, e.g. SFS(S2; (3,1),(4,1),(4,1)) and
      SFS(S2; (1,-1),(3,1),(4,3),(4,3)), whose Casson-Walker invariants
      are -9/16 and -1/16.
    - False negatives: orientation is never reversed, so
      SFS(S2; (2,1),(3,1),(5,1)) and SFS(S2; (2,-1),(3,-1),(5,-1)) get
      different keys; and lens_canonical keeps L(p, q) and L(p, q') with
      q * q' = +/-1 (mod p) apart, e.g. L(11,3) and L(11,4).
    """
    if isinstance(m, SeifertOverS2):
        if not seifert._not_lens(m.fibers):
            return lens_canonical(*seifert._lens_parameters(m.fibers))
        key = seifert._isomorphism_key(m.fibers)
        return m if key is m.fibers else _seifert(key)
    if isinstance(m, ConnectedSum):
        return sum_normalize([homeomorphism_key(s) for s in m.summands])
    if isinstance(m, Manifold):
        return m
    raise TypeError(f"not a manifold value: {m!r}")


def homeomorphic(a: Manifold, b: Manifold) -> bool:
    """Whether two values have equal homeomorphism keys; see
    homeomorphism_key for the pairs where that is not homeomorphy."""
    return homeomorphism_key(a) == homeomorphism_key(b)


def is_prime(m: Manifold) -> bool:
    """Primeness of a value: every value but a sum is prime."""
    if not isinstance(m, Manifold):
        raise TypeError(f"not a manifold value: {m!r}")
    return not isinstance(m, ConnectedSum)
