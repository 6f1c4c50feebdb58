import random
from fractions import Fraction

import pytest

from nmsflow import seifert
from nmsflow.selfcheck import random_fibers
from oracles import lens_of_plumbing_chain, seifert_isomorphic_bruteforce


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


def test_isomorphism_key_agrees_with_isomorphic_seeded():
    rng = random.Random(97)
    pool = [random_fibers(rng, max_len=3, alpha_max=6, beta_max=9)
            for _ in range(60)]
    keys = [seifert.isomorphism_key(s) for s in pool]
    for i, a in enumerate(pool):
        for j, b in enumerate(pool):
            assert (keys[i] == keys[j]) == seifert_isomorphic_bruteforce(a, b)


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
