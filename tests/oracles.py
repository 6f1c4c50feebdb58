"""Independent oracles used to cross-check the library.

Everything here is deliberately written from scratch with different
algorithms than the package: lens equivalence by quantifier search
instead of canonical forms, invariant factors of a pair by gcd and lcm
instead of Smith normal form.  Tests compare the two routes.  The
cofactor and lattice-count oracle for Smith normal form lives in
`nmsflow.selfcheck`, whose shipped battery needs it.
"""

from __future__ import annotations

import math


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
