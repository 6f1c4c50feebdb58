import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from nmsflow import seifert
from nmsflow.expressions import parse_manifold
from nmsflow.homology import h1, h1_seifert_presentation
from nmsflow.manifolds import (
    SeifertOverS2,
    homeomorphic,
    homeomorphism_key,
    seifert_over_s2,
)
from nmsflow.selfcheck import random_fibers
from oracles import (
    isomorphism_key_by_fraction_masks,
    lens_of_plumbing_chain,
    seifert_isomorphic_bruteforce,
)
from timelimit import deadline


def _isomorphic(a, b) -> bool:
    """Isomorphy by key equality, asserted to agree with the oracle."""
    same_key = seifert.isomorphism_key(a) == seifert.isomorphism_key(b)
    assert same_key == seifert_isomorphic_bruteforce(a, b), (a, b)
    return same_key


def test_check_fibers_accepts_valid_data():
    assert seifert.check_fibers([(2, 1), (1, -3)]) == ((2, 1), (1, -3))
    assert seifert.check_fibers([]) == ()


def test_check_fibers_rejects_bad_data():
    with pytest.raises(seifert.InvalidFiber):
        seifert.check_fibers([(0, 1)])
    with pytest.raises(seifert.InvalidFiber):
        seifert.check_fibers([(-2, 1)])
    with pytest.raises(seifert.InvalidFiber):
        seifert.check_fibers([(4, 2)])
    with pytest.raises(seifert.InvalidFiber):
        seifert.check_fibers([(2,)])
    with pytest.raises(seifert.InvalidFiber):
        seifert.check_fibers([(2.0, 1)])


@pytest.mark.parametrize("entry", [
    seifert.check_fibers, seifert.normalize, seifert.euler_number,
    seifert.not_lens_obstruction, seifert.isomorphism_key,
    seifert.lens_parameters, h1_seifert_presentation, SeifertOverS2,
    seifert_over_s2,
], ids=lambda f: f.__name__)
def test_raw_fiber_entry_points_reject_invalid_data(entry):
    for fibers in ([(2, 1), (4, 2)], [(0, 1)]):
        with pytest.raises(seifert.InvalidFiber):
            entry(fibers)


def test_fiber_data_validated_once_per_value(monkeypatch):
    # Only when parsing: homeomorphic and h1 validate no fiber data.  The
    # key reduces the stored normal form through the unvalidated core
    # seifert._isomorphism_key, returns the value itself when nothing
    # changes, and stores any other key, itself a normal form, through
    # manifolds._seifert; h1 reads the fibers that the constructor
    # validated when parsing.
    left = parse_manifold(
        "SFS(S2; (2,1),(3,1),(5,2),(7,3),(11,4),(13,5)) # L(7,2)")
    right = parse_manifold(
        "SFS(S2; (13,5),(2,1),(3,1),(5,2),(7,3),(11,4)) # L(7,3)")
    # (3,2),(3,2),(6,1) keys to (3,1),(3,1),(6,5): that side is rebuilt.
    rebuilt = parse_manifold("SFS(S2; (3,2),(3,2),(6,1)) # L(5,2)")
    keyed = parse_manifold("SFS(S2; (3,1),(3,1),(6,5)) # L(5,3)")
    check = seifert.check_fibers
    calls = []

    def counted(fibers):
        calls.append(fibers)
        return check(fibers)

    monkeypatch.setattr(seifert, "check_fibers", counted)
    assert not homeomorphic(left, right)
    assert h1(left).order() == 7 * 72377  # |e| * prod(alpha) = 72377
    assert homeomorphic(rebuilt, keyed)
    assert homeomorphic(rebuilt, rebuilt)
    assert homeomorphism_key(rebuilt).summands[1].fibers == ((3, 1), (3, 1), (6, 5))
    assert calls == []


def test_lens_branch_of_the_key_validates_nothing(monkeypatch):
    # A value with at most 2 exceptional fibers keys to its lens form
    # through seifert._lens_parameters, on the stored normal form.
    two = parse_manifold("SFS(S2; (2,1),(3,1)) # SFS(S2; (1,2),(5,2))")
    calls = []
    check = seifert.check_fibers
    monkeypatch.setattr(seifert, "check_fibers",
                        lambda fibers: calls.append(fibers) or check(fibers))
    assert homeomorphic(two, parse_manifold("L(5,1) # L(12,5)"))
    assert calls == []


def test_normalize_frozen_values():
    assert seifert.normalize([(2, 3)]) == ((1, 1), (2, 1))
    assert seifert.normalize([(5, -2)]) == ((1, -1), (5, 3))
    assert seifert.normalize([(2, 1), (1, 0)]) == ((2, 1),)
    assert seifert.normalize([(1, 3), (1, -3)]) == ()
    assert seifert.normalize([(3, 2), (2, 1)]) == ((2, 1), (3, 2))
    assert seifert.normalize([]) == ()


def test_normalize_shape_and_invariance_seeded():
    rng = random.Random(20260815)
    for _ in range(2000):
        s = random_fibers(rng, alpha_max=12, beta_max=40)
        n = seifert.normalize(s)
        assert seifert.normalize(n) == n
        assert seifert.euler_number(n) == seifert.euler_number(s)
        assert _isomorphic(s, n)
        exc = [f for f in n if f[0] >= 2]
        assert exc == sorted(exc)
        assert all(0 < beta < alpha for alpha, beta in exc)
        ordinary = [f for f in n if f[0] == 1]
        assert len(ordinary) <= 1
        if ordinary:
            assert n[0] == ordinary[0] and ordinary[0][1] != 0


def test_euler_number_frozen_values():
    assert seifert.euler_number([(2, 1), (3, 1)]) == Fraction(5, 6)
    assert seifert.euler_number([(1, 1), (2, 1)]) == Fraction(3, 2)
    assert seifert.euler_number([]) == 0
    assert seifert.euler_number([(5, -2)]) == Fraction(-2, 5)


_ENTRY = st.integers(-10**6, 10**6)
_FIBER = st.one_of(
    st.tuples(st.just(1), _ENTRY),
    st.tuples(st.integers(1, 10**6), _ENTRY).filter(
        lambda f: f[0] == 1 or math.gcd(*f) == 1))


@given(st.lists(_FIBER, max_size=8))
@example([])
def test_euler_number_is_the_fraction_sum(fibers):
    e = seifert.euler_number(fibers)
    assert isinstance(e, Fraction)
    assert e == sum(Fraction(b, a) for a, b in fibers)


def test_not_lens_obstruction():
    assert seifert.not_lens_obstruction([(2, 1), (3, 1), (5, 2)])
    assert not seifert.not_lens_obstruction([(2, 1), (3, 1)])
    assert not seifert.not_lens_obstruction([])
    # the integer term does not count towards the obstruction
    assert seifert.not_lens_obstruction([(1, 3), (2, 1), (3, 1), (7, 2)])
    assert not seifert.not_lens_obstruction([(1, 3), (1, -5), (1, 0)])
    # unnormalized data: betas outside (0, alpha) still count
    assert seifert.not_lens_obstruction([(2, 3), (3, 4), (5, 7)])
    assert not seifert.not_lens_obstruction([(2, -3), (7, 16)])
    with pytest.raises(seifert.InvalidFiber):
        seifert.not_lens_obstruction([(2, 1), (3, 1), (4, 2)])


def test_isomorphic_frozen_examples():
    assert _isomorphic([(2, 1), (3, 1), (5, 1)], [(5, 1), (2, 1), (3, 1)])
    assert not _isomorphic([(2, 1), (3, 1)], [(2, 1), (3, 2)])
    assert _isomorphic([(2, 1)], [(1, 1), (2, -1)])


def test_isomorphic_needs_exact_euler_match():
    # matching alpha and beta = -beta' residues, but Euler 5/6 vs -5/6
    assert not _isomorphic([(2, 1), (3, 1)], [(2, -1), (3, -1)])


def test_isomorphism_key_equates_flip_families():
    a = [(2, 1), (4, 3), (4, 3)]
    b = [(1, 1), (2, 1), (4, 1), (4, 1)]
    assert _isomorphic(a, b)
    assert seifert.normalize(a) != seifert.normalize(b)


def test_isomorphism_key_breaks_a_tie_in_nb_by_the_ordering_lemma():
    # Flipping all three fibers keeps e = 3/2 and the integer term 0, so
    # the two candidates tie on nb; the one with more of the least value,
    # (3, 1), is the lesser.
    fibers = [(3, 2), (3, 2), (6, 1)]
    assert seifert.isomorphism_key(fibers) == ((3, 1), (3, 1), (6, 5))
    assert isomorphism_key_by_fraction_masks(fibers) == ((3, 1), (3, 1), (6, 5))


def test_isomorphism_key_takes_the_second_sum_of_a_residue_when_the_first_gives_nb_zero():
    # The largest admissible flip sum gives the given data back, with
    # nb = 0; the next sum of the same residue mod L gives nb = 1, which
    # wins.  A search that kept only the largest sum per residue would
    # return the input unchanged.
    fibers = [(3, 1), (3, 1), (6, 5), (8, 5), (8, 7)]
    key = ((1, 1), (3, 1), (3, 1), (6, 5), (8, 1), (8, 3))
    assert seifert.isomorphism_key(fibers) == key
    assert isomorphism_key_by_fraction_masks(fibers) == key


def test_isomorphism_key_replaces_a_runner_up_below_the_largest_sum():
    # A right-half sum that falls between the largest sum of its residue
    # mod L and the runner-up kept so far must become the runner-up.
    # Without that update a smaller runner-up stays, the given flip
    # vector ranks first, and the key comes out as the input's own normal
    # form.
    fibers = [(3, 1), (5, 1), (5, 3), (5, 4), (5, 4), (7, 1), (7, 2), (7, 2),
              (7, 5), (7, 5), (7, 5), (7, 5)]
    key = ((1, 1), (3, 1), (5, 1), (5, 3), (5, 4), (5, 4), (7, 2), (7, 2),
           (7, 2), (7, 2), (7, 2), (7, 2), (7, 6))
    assert seifert.isomorphism_key(fibers) == key
    assert isomorphism_key_by_fraction_masks(fibers) == key


def test_isomorphism_key_agrees_with_isomorphic_seeded():
    rng = random.Random(97)
    pool = [random_fibers(rng, max_len=3, alpha_max=6, beta_max=9)
            for _ in range(60)]
    keys = [seifert.isomorphism_key(s) for s in pool]
    for i, a in enumerate(pool):
        for j, b in enumerate(pool):
            assert (keys[i] == keys[j]) == seifert_isomorphic_bruteforce(a, b)


# 0-10 fibers in any order, ordinary (1, b) ones among them; alphas up to
# 30 give lcms up to about 10^12.
_FIBER = st.one_of(
    st.tuples(st.integers(2, 30), st.integers(-10**3, 10**3)).filter(
        lambda f: math.gcd(*f) == 1),
    st.tuples(st.just(1), st.integers(-10**3, 10**3)))
_FIBERS = st.lists(_FIBER, max_size=10).flatmap(st.permutations)


@given(_FIBERS)
def _key_matches_fraction_masks(fibers):
    assert seifert.isomorphism_key(fibers) == isomorphism_key_by_fraction_masks(fibers)


def test_isomorphism_key_matches_fraction_mask_oracle():
    with deadline(60.0):
        _key_matches_fraction_masks()


# _FIBERS almost never repeats an orbit class {(alpha, s), (alpha, alpha - s)},
# so these lists draw up to 8 exceptional fibers from at most 4 classes with
# small alphas, each fiber showing s or alpha - s, shifted by a multiple of
# alpha, among ordinary (1, b) fibers.
_CLASS = st.sampled_from([2, 3, 4, 5, 6, 8, 9, 12]).flatmap(
    lambda alpha: st.tuples(st.just(alpha), st.sampled_from(
        [s for s in range(1, alpha) if math.gcd(alpha, s) == 1])))


@st.composite
def _repeated_classes(draw):
    classes = draw(st.lists(_CLASS, min_size=1, max_size=4))
    fibers = []
    for alpha, s in draw(st.lists(st.sampled_from(classes), max_size=8)):
        beta = draw(st.sampled_from([s, alpha - s]))
        fibers.append((alpha, beta + alpha * draw(st.integers(-2, 2))))
    fibers += [(1, b) for b in draw(st.lists(st.integers(-3, 3), max_size=2))]
    return draw(st.permutations(fibers))


@given(_repeated_classes())
def _key_matches_fraction_masks_on_repeated_classes(fibers):
    assert seifert.isomorphism_key(fibers) == isomorphism_key_by_fraction_masks(fibers)


def test_isomorphism_key_matches_fraction_mask_oracle_on_repeated_classes():
    with deadline(60.0):
        _key_matches_fraction_masks_on_repeated_classes()


def test_nu_of():
    assert seifert.nu_of(5, 3) == 2
    assert seifert.nu_of(1, 0) == 0
    assert seifert.nu_of(7, -2) == 3
    with pytest.raises(seifert.InvalidFiber):
        seifert.nu_of(6, 4)
    with pytest.raises(seifert.InvalidFiber):
        seifert.nu_of(0, 1)


def test_lens_parameters_frozen():
    assert seifert.lens_parameters([]) == (0, 1)
    assert seifert.lens_parameters([(1, 4)]) == (4, 1)
    assert seifert.lens_parameters([(3, 2)]) == (2, 3)
    assert seifert.lens_parameters([(2, 1), (3, 1)]) == (5, 4)
    assert seifert.lens_parameters([(2, 1), (3, -1)]) == (1, 1)


def test_lens_parameters_not_a_lens():
    with pytest.raises(seifert.NotALens):
        seifert.lens_parameters([(2, 1), (3, 1), (5, 2)])


def test_lens_parameters_folds_integer_term():
    # (1, b) folds into the first exceptional fiber as beta + b*alpha
    assert seifert.lens_parameters([(1, 2), (3, 2)]) == (8, 3)
    p, q = seifert.lens_parameters([(1, 1), (2, 1), (3, 1)])
    assert p == 3 * (1 + 2) + 2 * 1


def test_lens_parameters_match_plumbing_chain():
    # L(p, q) = L(p', q') up to orientation iff |p| = |p'| and
    # q' = +/-q^(+/-1) (mod p)
    rng = random.Random(4096)
    checked = 0
    for _ in range(3000):
        s = random_fibers(rng, max_len=5, alpha_max=11, beta_max=12)
        if seifert.not_lens_obstruction(s):
            continue
        checked += 1
        p, q = seifert.lens_parameters(s)
        pc, qc = lens_of_plumbing_chain(s)
        assert abs(p) == abs(pc), s
        n = abs(p)
        if n >= 2:
            r = pow(q, -1, n)
            assert qc % n in {q % n, -q % n, r, n - r}, s
    assert checked > 1000
