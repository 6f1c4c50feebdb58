"""First homology: gcd closed forms for values, Smith normal form for matrices.

This module is the independent cross-check of the classification: it never
calls the classifier.  h1 of a Seifert value and of a connected sum comes
from gcds alone, with no matrix; the Seifert relation matrix and its Smith
normal form stay public as h1_seifert_presentation, the second route that
tests and selfcheck compare h1 against.  All arithmetic is exact over
Python's arbitrary-precision ints; no floating point is involved anywhere.
"""

from __future__ import annotations

import math

from . import seifert
from .manifolds import (
    ConnectedSum,
    Lens,
    Manifold,
    RP3,
    S2xS1,
    SeifertOverS2,
    Sphere,
    Value,
    _slot_setters,
)


class AbelianGroup(Value):
    """Finitely generated abelian group in invariant-factor form.

    free_rank copies of Z plus cyclic factors Z/d1 + ... + Z/dk with
    2 <= d1 | d2 | ... | dk.  Factors of 1 are never stored.
    """
    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int,
                 torsion: list[int] | tuple[int, ...] = ()) -> None:
        if free_rank < 0:
            raise ValueError("free rank must be >= 0")
        torsion = tuple(torsion)
        prev = None
        for d in torsion:
            if d < 2:
                raise ValueError(f"invariant factor {d} must be >= 2")
            if prev is not None and d % prev != 0:
                raise ValueError(
                    f"invariant factors must form a divisibility chain, "
                    f"got {prev} before {d}")
            prev = d
        _set_free_rank(self, free_rank)
        _set_torsion(self, torsion)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.free_rank == other.free_rank and self.torsion == other.torsion
        return NotImplemented

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def order(self) -> int:
        """Group order, with 0 standing for infinite (positive free rank)."""
        if self.free_rank:
            return 0
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


_set_free_rank, _set_torsion = _slot_setters(AbelianGroup)


def smith_normal_form(matrix: list[list[int]]) -> tuple[int, ...]:
    """Diagonal (d1, ..., dk) of the Smith normal form, k = min(rows, cols).

    Entries are nonnegative and satisfy d1 | d2 | ... | dk (trailing zeros
    for the rank deficit).  Only unimodular row and column operations are
    used, so the diagonal generates the same cokernel as the input.

    Pivot rule: position t starts from the least nonzero |entry| of the
    trailing block, and column t and then row t are swept with that one
    pivot.  A remainder is never promoted to pivot in the middle of a sweep,
    because reducing the rest of the sweep by ever smaller remainders is
    what blows the entries up.  The least remainder left becomes the next
    pivot; it is smaller than the last, so the block needs no rescan.  Once
    the cross is clear, a row holding an entry the pivot does not divide is
    folded into row t, and the sweep repeats.
    """
    a = [[int(v) for v in row] for row in matrix]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    for row in a:
        if len(row) != nc:
            raise ValueError("matrix rows must all have the same length")
    k = min(nr, nc)
    diag = [0] * k
    for t in range(k):
        least, pi, pj = 0, t, t
        for i in range(t, nr):
            row = a[i]
            for j in range(t, nc):
                v = abs(row[j])
                if v and (v < least or not least):
                    least, pi, pj = v, i, j
        if not least:
            break
        while True:
            a[t], a[pi] = a[pi], a[t]
            if pj != t:
                for row in a:
                    row[t], row[pj] = row[pj], row[t]
            top = a[t]
            p = top[t]
            least = 0
            for i in range(t + 1, nr):
                row = a[i]
                if row[t]:
                    q = row[t] // p
                    for j in range(t, nc):
                        row[j] -= q * top[j]
                    v = abs(row[t])
                    if v and (v < least or not least):
                        least, pi, pj = v, i, t
            for j in range(t + 1, nc):
                if top[j]:
                    q = top[j] // p
                    for i in range(t, nr):
                        a[i][j] -= q * a[i][t]
                    v = abs(top[j])
                    if v and (v < least or not least):
                        least, pi, pj = v, t, j
            if least:
                continue
            if p in (1, -1):
                break
            # Rows below t are zero up to column t, so whole rows are tested.
            for i in range(t + 1, nr):
                row = a[i]
                if any(v % p for v in row):
                    break
            else:
                break
            for j in range(t + 1, nc):
                top[j] += row[j]
            pi = pj = t
        diag[t] = abs(a[t][t])
    return tuple(diag)


def cokernel(matrix: list[list[int]]) -> AbelianGroup:
    """Z^n modulo the row span of an m x n relation matrix, m >= 1."""
    if not matrix:
        raise ValueError("cannot infer generator count from no rows")
    nonzero = [d for d in smith_normal_form(matrix) if d]
    return AbelianGroup(len(matrix[0]) - len(nonzero),
                        tuple(d for d in nonzero if d >= 2))


def h1_seifert_presentation(fibers: seifert.Fibers) -> AbelianGroup:
    """H1 of a Seifert fibration over the sphere from its relation matrix.

    For fibers (alpha_i, beta_i), i = 1..r, the presentation has generators
    x_1, ..., x_r, h and the (r+1) x (r+1) relation matrix with rows
    alpha_i * x_i + beta_i * h = 0 and sum_i x_i = 0: the sign convention
    stated in the seifert module, which lens_parameters shares.  The
    integer term is treated as the fiber (1, b).  For r = 0 the matrix is
    the 1 x 1 zero matrix and the group is Z.  h1 takes a closed form
    instead; this is the independent route that tests and selfcheck
    compare it against.  It is a cross-check for small data: on a seeded
    value of 200 fibers with alphas up to 10^6 it gave no result within
    300 s, where h1 takes milliseconds.
    """
    data = seifert.check_fibers(fibers)
    r = len(data)
    rows = []
    for i, (alpha, beta) in enumerate(data):
        row = [0] * (r + 1)
        row[i] = alpha
        row[r] = beta
        rows.append(row)
    rows.append([1] * r + [0])
    return cokernel(rows)


def _divisor_chain(d: list[int]) -> list[int]:
    """Invariant factors of Z/d_1 + ... + Z/d_k, 1s kept, in place.

    Each pair (d_i, d_j), i < j, is replaced by (gcd, lcm), which keeps
    the group; afterwards d_1 | d_2 | ... | d_k.  That is O(k^2) gcds,
    where a k x k Smith normal form would be O(k^3) row operations.
    """
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if d[i] == 1:
                break  # (1, d_j) is already (gcd, lcm)
            g = math.gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return d


def _h1_seifert(data: seifert.SeifertData) -> tuple[int, list[int]]:
    """H1 of validated fiber data, as its free rank and invariant factors,
    from gcds alone.

    Let N = |sum_i beta_i prod_{j != i} alpha_j| (= |e| prod alpha_i) and
    c_1 | ... | c_r the divisor chain of alpha_1, ..., alpha_r.  Then
    H1 = Z/c_1 + ... + Z/c_{r-2} + Z/(N / (c_1 ... c_{r-2})) if N != 0,
    and Z + Z/c_1 + ... + Z/c_{r-2} if N = 0, with the 1s dropped.
    Fibers (1, b) only add 1s to the chain, so any valid data will do.

    Proof.  Since gcd(alpha_i, beta_i) = 1, the relation
    alpha_i * x_i + beta_i * h = 0 says x_i = -beta_i * t_i and
    h = alpha_i * t_i for a new generator t_i.  So H1 has generators
    t_1, ..., t_r and relations alpha_1 * t_1 = alpha_i * t_i (i >= 2)
    and sum_i beta_i * t_i = 0.  Work one prime p at a time, over the
    integers localized at p, with the fibers ordered so that the
    p-valuations a_i of alpha_i fall, a_1 >= a_2 >= ....  Put
    s_i = t_i - (alpha_1 / alpha_i) * t_1 for i >= 2, which is p-integral.
    The relations become alpha_i * s_i = 0 (i >= 2) and
    alpha_1 * e * t_1 + sum_{i>=2} beta_i * s_i = 0, where alpha_1 * e is
    p-integral.  If a_2 = 0, every s_i is 0.  Otherwise beta_2 is a unit;
    eliminating s_2 turns alpha_2 * s_2 = 0 into
    p^a_2 * alpha_1 * e * t_1 = 0, since p^a_2 already kills every other
    s_i.  Either way the p-part is
    Z/(p^a_2 * alpha_1 * e) + Z/p^a_3 + ... + Z/p^a_r, with Z as the
    first term when e = 0.  The r - 2 least powers are the p-parts of
    c_1, ..., c_{r-2}, and the first term has valuation v_p(N) minus
    theirs, at least a_2, so the factors above form a divisor chain.
    """
    total, prod = 0, 1
    for alpha, beta in data:
        total = total * alpha + beta * prod
        prod *= alpha
    head = _divisor_chain([alpha for alpha, _ in data])[:max(len(data) - 2, 0)]
    torsion = [c for c in head if c != 1]
    if not total:
        return 1, torsion
    last = abs(total) // math.prod(torsion)
    if last != 1:
        torsion.append(last)
    return 0, torsion


# The free rank and invariant factors of H1 of each prime value class.
_PRIME_H1 = {
    Sphere: lambda m: (0, ()),
    S2xS1: lambda m: (1, ()),
    RP3: lambda m: (0, (2,)),
    Lens: lambda m: (0, (m.p,)),
    # The constructor has validated the fibers.
    SeifertOverS2: lambda m: _h1_seifert(m.fibers),
}


def h1(m: Manifold) -> AbelianGroup:
    """First homology of a manifold value.

    Atoms and lens spaces use their standard groups, and Seifert values
    the gcd closed form of _h1_seifert on their stored normal form.  A
    connected sum takes the direct sum of its summands' groups: the free
    ranks add, and the torsion factors become a divisor chain with the 1s
    dropped.  Both run in O(k^2) gcds for k fibers or factors.  It
    dispatches on the value's exact class, and raises TypeError on
    anything but a value of the package's manifold classes.
    """
    prime = _PRIME_H1.get(m.__class__)
    if prime is not None:
        free_rank, torsion = prime(m)
        return AbelianGroup(free_rank, torsion)
    if m.__class__ is not ConnectedSum:
        raise TypeError(f"not a manifold value: {m!r}")
    free_rank, torsion = 0, []
    for s in m.summands:  # never a sum
        r, t = _PRIME_H1[s.__class__](s)
        free_rank += r
        torsion += t
    return AbelianGroup(free_rank, [f for f in _divisor_chain(torsion) if f != 1])
