import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    _coker_order_box,
    _det,
    check_snf,
    coker_order_by_box,
    invariant_factors_of_pair,
    sum_torsion_by_snf,
)
from timelimit import deadline

from nmsflow import seifert
from nmsflow.cli import main
from nmsflow.homology import (
    AbelianGroup,
    cokernel,
    h1,
    h1_seifert_presentation,
    smith_normal_form,
)
from nmsflow.expressions import parse_manifold
from nmsflow.manifolds import (
    ConnectedSum,
    Lens,
    RP3,
    S2xS1,
    Sphere,
    lens_canonical,
    seifert_over_s2,
    sum_normalize,
)


def test_abelian_group_str():
    assert str(AbelianGroup(0)) == "0"
    assert str(AbelianGroup(1)) == "Z"
    assert str(AbelianGroup(2, (2,))) == "Z^2 + Z/2"
    assert str(AbelianGroup(0, (10,))) == "Z/10"
    assert str(AbelianGroup(0, (2, 2))) == "Z/2 + Z/2"
    assert str(AbelianGroup(1, (2,))) == "Z + Z/2"


def test_abelian_group_order():
    assert AbelianGroup(0).order() == 1
    assert AbelianGroup(0, (4, 12)).order() == 48
    assert AbelianGroup(1, (2,)).order() == 0


def test_abelian_group_validation():
    with pytest.raises(ValueError):
        AbelianGroup(-1)
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroup(0, (2, 3))
    AbelianGroup(0, (2, 6, 12))


def test_smith_normal_form_frozen():
    assert smith_normal_form([[2, 0], [0, 3]]) == (1, 6)
    assert smith_normal_form([[2, 0], [0, 2]]) == (2, 2)
    assert smith_normal_form([[0, 0], [0, 0]]) == (0, 0)
    assert smith_normal_form([[1, 2], [3, 4]]) == (1, 2)
    assert smith_normal_form([[6, 4], [4, 6]]) == (2, 10)
    assert smith_normal_form([[5]]) == (5,)
    assert smith_normal_form([[2, 4, 6]]) == (2,)
    assert smith_normal_form([[2], [4], [6]]) == (2,)


def test_smith_normal_form_rejects_ragged_rows():
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])


def test_smith_normal_form_random_vs_cofactors():
    ok, detail = check_snf(count=500, seed=4451)
    assert ok, detail


@st.composite
def _square_matrix(draw):
    n = draw(st.integers(1, 3))
    row = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n))


@settings(deadline=None)  # the box oracle takes up to 0.25 s on one 3 x 3
@given(_square_matrix())
def _closure_count_matches_box(m):
    det = _det(m)
    assume(0 < abs(det) <= 50)
    assert _coker_order_box(m, det) == coker_order_by_box(m, det)


def test_lattice_quotient_closure_matches_box_oracle():
    with deadline(60.0):
        _closure_count_matches_box()


def test_smith_normal_form_does_not_stall():
    # Reducing a sweep by remainders promoted in the middle of it blows the
    # entries of these inputs up to thousands of bits.  The diagonals were
    # checked with sympy and the cofactor determinant.
    with deadline(1.0):
        assert smith_normal_form(
            [[8, -9, 0, 3, -6, 9], [-9, -9, -3, -4, 6, 8],
             [9, -1, 8, 7, -5, 9], [-3, 4, -6, -5, -4, 7],
             [7, -6, -9, -6, -7, -4], [7, 6, 5, 4, -8, -9]]
        ) == (1, 1, 1, 1, 1, 419918)
    with deadline(1.0):
        assert smith_normal_form(
            [[8, -1, 7, -4, 6, 8], [-5, 1, 6, 8, 2, 4],
             [5, 6, -4, -7, -1, -8], [-2, -8, -9, 2, 1, 4],
             [0, -7, -4, 9, 9, -8], [-9, -9, 4, 2, 3, -3]]
        ) == (1, 1, 1, 1, 1, 980736)
    with deadline(1.0):
        m = parse_manifold("SFS(S2; (5,-6),(3,-4),(1,1),(7,4),(3,2),"
                           "(10,-3),(7,-6),(10,13),(10,9))")
        assert str(h1(m)) == "Z/5 + Z/10 + Z/32970"


def test_cokernel():
    assert cokernel([[2, 0], [0, 3]]) == AbelianGroup(0, (6,))
    assert cokernel([[0, 0]]) == AbelianGroup(2)
    assert cokernel([[1, 0], [0, 1]]) == AbelianGroup(0)
    with pytest.raises(ValueError):
        cokernel([])


def test_h1_seifert_presentation_frozen():
    assert h1_seifert_presentation([]) == AbelianGroup(1)
    assert h1_seifert_presentation([(1, 0)]) == AbelianGroup(1)
    assert h1_seifert_presentation([(3, 2)]) == AbelianGroup(0, (2,))
    assert h1_seifert_presentation([(2, 1), (2, 1), (3, 2)]) == AbelianGroup(0, (20,))
    assert h1_seifert_presentation([(2, 1)] * 4) == AbelianGroup(0, (2, 2, 8))
    assert (h1_seifert_presentation([(2, 1), (2, 1), (2, -1), (2, -1)])
            == AbelianGroup(1, (2, 2)))


def test_h1_seifert_presentation_order_matches_closed_form():
    # |H1| = |sum_i beta_i prod_{j != i} alpha_j| for three-fiber data
    rng = random.Random(73)
    for _ in range(300):
        fibers = []
        for _ in range(3):
            alpha = rng.randint(1, 7)
            while True:
                beta = rng.randint(-7, 7)
                if alpha == 1 or math.gcd(alpha, beta) == 1:
                    break
            fibers.append((alpha, beta))
        total = 0
        for i in range(3):
            prod = 1
            for j in range(3):
                if j != i:
                    prod *= fibers[j][0]
            total += fibers[i][1] * prod
        assert h1_seifert_presentation(fibers).order() == abs(total)


def test_h1_presentation_commutes_with_normalize_on_two_fiber_grid():
    for a1 in range(1, 10):
        for b1 in range(-6, 7):
            if a1 > 1 and math.gcd(a1, b1) != 1:
                continue
            for a2 in range(1, 10):
                for b2 in range(-3, 4):
                    if a2 > 1 and math.gcd(a2, b2) != 1:
                        continue
                    s = ((a1, b1), (a2, b2))
                    n = seifert.normalize(s)
                    assert (h1_seifert_presentation(s).order()
                            == h1_seifert_presentation(n).order())


def test_h1_atoms_and_lens():
    assert h1(Sphere()) == AbelianGroup(0)
    assert h1(S2xS1()) == AbelianGroup(1)
    assert h1(RP3()) == AbelianGroup(0, (2,))
    assert h1(Lens(7, 2)) == AbelianGroup(0, (7,))
    assert h1(Lens(12, 5)) == AbelianGroup(0, (12,))


def test_h1_connected_sums():
    assert h1(sum_normalize([Lens(5, 2), RP3()])) == AbelianGroup(0, (10,))
    assert h1(sum_normalize([S2xS1(), RP3()])) == AbelianGroup(1, (2,))
    assert h1(ConnectedSum((RP3(), RP3()))) == AbelianGroup(0, (2, 2))
    assert (h1(sum_normalize([Lens(4, 1), RP3(), RP3()]))
            == AbelianGroup(0, (2, 2, 4)))
    assert h1(sum_normalize([Lens(12, 5), RP3()])) == AbelianGroup(0, (2, 12))


def test_h1_connected_sum_matches_pair_oracle():
    for p1 in range(3, 10):
        for p2 in range(2, 10):
            a = Lens(p1, 1)
            b = RP3() if p2 == 2 else Lens(p2, 1)
            got = h1(sum_normalize([a, b]))
            assert got.torsion == invariant_factors_of_pair(p1, p2)
            assert got.free_rank == 0


def test_h1_seifert_values():
    m = seifert_over_s2([(2, 1), (2, 1), (3, 2)])
    assert h1(m) == AbelianGroup(0, (20,))
    # |1*3*5 + 1*2*5 + 3*2*3| = 43
    assert h1(seifert_over_s2([(2, 1), (3, 1), (5, 3)])).order() == 43


# Each group was computed by the relation matrix before h1 took the gcd
# closed form; both routes are held to it.
_SEIFERT_H1_ROWS = [
    ([(2, 1)] * 3, "Z/2 + Z/6"),
    ([(2, 1), (2, 1), (2, -1)], "Z/2 + Z/2"),
    ([(2, -1), (3, 1), (5, 1)], "0"),
    ([(2, 1), (2, 1), (1, -1)], "Z"),
    ([(2, 1)] * 4, "Z/2 + Z/2 + Z/8"),
    ([(4, 1)] * 4 + [(1, -1)], "Z + Z/4 + Z/4"),
    ([(3, 1)] * 4, "Z/3 + Z/3 + Z/12"),
]


def test_h1_seifert_closed_form_frozen():
    for fibers, group in _SEIFERT_H1_ROWS:
        assert str(h1(seifert_over_s2(fibers))) == group, fibers
        assert str(h1_seifert_presentation(fibers)) == group, fibers


# Multiplicities that share primes, so the divisor chain has several
# factors above 1, mixed with large ones.
_ALPHA = st.one_of(st.sampled_from([2, 4, 8, 3, 9, 6, 12]),
                   st.integers(1, 10 ** 6))


@st.composite
def _fibers(draw):
    fibers = []
    for alpha in draw(st.lists(_ALPHA, max_size=8)):
        beta = draw(st.integers(-3 * alpha, 3 * alpha).filter(
            lambda b: alpha == 1 or math.gcd(alpha, b) == 1))
        fibers.append((alpha, beta))
    if draw(st.booleans()):
        # One more fiber of slope -e makes e = 0; it is (1, -e) when e is
        # an integer.
        e = seifert.euler_number(fibers)
        fibers.append((e.denominator, -e.numerator))
    return fibers


@settings(deadline=None)
@given(_fibers())
def test_h1_seifert_closed_form_matches_relation_matrix(fibers):
    assert h1(seifert_over_s2(fibers)) == h1_seifert_presentation(fibers)


def test_h1_of_a_400_fiber_seifert_value_in_polynomial_time(capsys):
    # The Smith normal form of its 401-square relation matrix gives no
    # result in minutes.
    rng = random.Random(400)
    fibers = []
    for _ in range(400):
        alpha = rng.randint(2, 10 ** 6)
        beta = rng.randint(1, alpha - 1)
        while math.gcd(alpha, beta) != 1:
            beta = rng.randint(1, alpha - 1)
        fibers.append((alpha, beta))
    m = seifert_over_s2(fibers)
    text = str(m)
    with deadline(1.0):
        group = h1(m)
        assert main(["h1", text]) == 0
    assert capsys.readouterr().out == f"{group}\n"
    assert group.free_rank == 0
    assert group.order() == abs(seifert.euler_number(fibers)
                                * math.prod(a for a, _ in fibers))


# Lens summands draw p from a few values per sum, so p repeats, and the
# values mix arbitrary p up to 10^6 with prime powers.
_PRIME_POWERS = sorted(b ** e for b in (2, 3, 5, 7, 11) for e in range(1, 21)
                       if 3 <= b ** e <= 10 ** 6)
_LENS_P = st.one_of(st.integers(3, 10 ** 6), st.sampled_from(_PRIME_POWERS))
_SMALL_FIBER = st.tuples(st.integers(1, 6), st.integers(-6, 6)).filter(
    lambda f: f[0] == 1 or math.gcd(*f) == 1)


def _lens(p):
    return st.integers(1, p - 1).filter(
        lambda q: math.gcd(p, q) == 1).map(lambda q: lens_canonical(p, q))


@st.composite
def _summands(draw):
    ps = draw(st.lists(_LENS_P, min_size=1, max_size=4))
    summand = st.one_of(
        st.just(RP3()), st.just(S2xS1()),
        st.sampled_from(ps).flatmap(_lens),
        st.lists(_SMALL_FIBER, min_size=1, max_size=3).map(seifert_over_s2))
    return draw(st.lists(summand, min_size=1, max_size=40))


@settings(deadline=None)
@given(_summands())
def _sum_h1_matches_snf(summands):
    parts = [h1(s) for s in summands]
    torsion = sum_torsion_by_snf([d for g in parts for d in g.torsion])
    expected = AbelianGroup(sum(g.free_rank for g in parts), torsion)
    assert h1(sum_normalize(summands)) == expected


def test_h1_of_sum_matches_snf_oracle():
    with deadline(60.0):
        _sum_h1_matches_snf()


def test_h1_of_a_600_summand_lens_sum_in_polynomial_time():
    # The Smith normal form of the 600 x 600 diagonal matrix takes seconds.
    text = " # ".join(f"L({p},1)" for p in range(3, 603))
    with deadline(1.0):
        group = h1(parse_manifold(text))
    assert group.free_rank == 0
    assert group.order() == math.prod(range(3, 603))
