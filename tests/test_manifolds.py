import math

import pytest

import nmsflow.manifolds as mf
from nmsflow import seifert


def test_lens_canonical_atoms():
    assert mf.lens_canonical(1, 0) == mf.Sphere()
    assert mf.lens_canonical(1, 5) == mf.Sphere()
    assert mf.lens_canonical(-1, 3) == mf.Sphere()
    assert mf.lens_canonical(0, 1) == mf.S2xS1()
    assert mf.lens_canonical(0, -1) == mf.S2xS1()
    assert mf.lens_canonical(2, 7) == mf.RP3()
    assert mf.lens_canonical(-2, 1) == mf.RP3()


def test_lens_canonical_general():
    assert mf.lens_canonical(-7, 9) == mf.Lens(7, 2)
    assert mf.lens_canonical(7, 5) == mf.Lens(7, 2)
    assert mf.lens_canonical(5, 2) == mf.Lens(5, 2)
    assert mf.lens_canonical(5, 3) == mf.Lens(5, 2)
    assert mf.lens_canonical(5, -3) == mf.Lens(5, 2)
    assert mf.lens_canonical(12, 25) == mf.Lens(12, 1)


def test_lens_canonical_range_invariant():
    for p in range(-30, 31):
        for q in range(-30, 31):
            if (p == 0 and q not in (1, -1)) or (p != 0 and math.gcd(p, q) != 1):
                continue
            m = mf.lens_canonical(p, q)
            if isinstance(m, mf.Lens):
                assert m.p >= 3 and 0 < 2 * m.q < m.p
                assert math.gcd(m.p, m.q) == 1
            # canonicalization is idempotent
            assert mf.canonicalize(m) == m


def test_lens_canonical_rejects():
    for p, q in [(4, 2), (0, 2), (0, 0), (6, 3), (0, -3)]:
        with pytest.raises(mf.InvalidLensParameters):
            mf.lens_canonical(p, q)


def test_lens_value_validation():
    with pytest.raises(mf.InvalidLensParameters):
        mf.Lens(4, 2)
    with pytest.raises(mf.InvalidLensParameters):
        mf.LensParams(0, 2)
    # merely-valid parameters are allowed and fixed by canonicalize
    assert mf.canonicalize(mf.Lens(5, 3)) == mf.Lens(5, 2)
    assert mf.canonicalize(mf.Lens(2, 1)) == mf.RP3()


def test_lens_canonical_equality_frozen():
    # L(p, q) = L(p', q') iff p = +/-p' and q = +/-q' (mod |p|)
    lc = mf.lens_canonical
    assert lc(7, 2) == lc(7, 5)
    assert lc(7, 2) != lc(7, 3)
    assert lc(5, 2) == lc(-5, 2)
    assert lc(7, 2) == lc(7, 12)
    assert lc(5, 2) != lc(7, 2)
    assert mf.canonicalize(mf.Lens(5, 2)) == lc(5, -2)
    assert lc(0, 1) == lc(0, -1)
    assert lc(1, 0) == lc(1, 1)


def test_sort_key_total_order():
    values = [mf.RP3(), mf.Lens(4, 1), mf.Sphere(),
              mf.SeifertOverS2(((2, 1), (3, 1), (7, 2))), mf.S2xS1(),
              mf.Lens(5, 2)]
    values.sort(key=mf.sort_key)
    assert values == [mf.Sphere(), mf.S2xS1(), mf.Lens(4, 1), mf.Lens(5, 2),
                      mf.SeifertOverS2(((2, 1), (3, 1), (7, 2))), mf.RP3()]


def test_sum_normalize_frozen():
    assert mf.sum_normalize([mf.Sphere(), mf.RP3()]) == mf.RP3()
    assert mf.sum_normalize([]) == mf.Sphere()
    assert mf.sum_normalize([mf.RP3(), mf.lens_canonical(1, 0)]) == mf.RP3()
    m = mf.sum_normalize([mf.Lens(5, 2), mf.RP3()])
    assert isinstance(m, mf.ConnectedSum)
    assert str(m) == "L(5,2) # RP3"
    assert mf.sum_normalize([mf.RP3(), mf.Lens(5, 2)]) == m


def test_sum_normalize_flattens_nested_sums():
    inner = mf.ConnectedSum((mf.RP3(), mf.RP3()))
    m = mf.sum_normalize([inner, mf.Lens(3, 1)])
    assert str(m) == "L(3,1) # RP3 # RP3"
    assert mf.canonicalize(m) == m


def test_connected_sum_validation():
    with pytest.raises(ValueError):
        mf.ConnectedSum((mf.RP3(),))
    with pytest.raises(TypeError):
        mf.ConnectedSum((mf.RP3(), "RP3"))


def test_seifert_over_s2_factory():
    assert mf.seifert_over_s2([(1, 0)]) == mf.S2xS1()
    assert mf.seifert_over_s2([]) == mf.S2xS1()
    m = mf.seifert_over_s2([(3, 5), (2, 1)])
    assert m == mf.SeifertOverS2(((1, 1), (2, 1), (3, 2)))
    assert str(m) == "SFS(S2; (1,1),(2,1),(3,2))"
    with pytest.raises(seifert.InvalidFiber):
        mf.seifert_over_s2([(2, 4)])
    with pytest.raises(seifert.InvalidFiber):
        mf.SeifertOverS2(())


def test_seifert_to_lens_frozen():
    assert mf.seifert_to_lens([]) == mf.S2xS1()
    assert mf.seifert_to_lens([(3, 2)]) == mf.RP3()
    assert mf.seifert_to_lens([(2, 1), (3, 1)]) == mf.Lens(5, 1)
    assert mf.seifert_to_lens([(2, 1), (3, -1)]) == mf.Sphere()
    with pytest.raises(seifert.NotALens):
        mf.seifert_to_lens([(2, 1), (3, 1), (5, 2)])


def test_homeomorphic_bridges_seifert_and_lens():
    assert mf.homeomorphic(mf.seifert_over_s2([(2, 1), (3, -1)]), mf.Sphere())
    assert mf.homeomorphic(mf.seifert_over_s2([(2, 1), (3, 1)]), mf.Lens(5, 1))
    assert not mf.homeomorphic(mf.seifert_over_s2([(2, 1), (3, 1)]), mf.Sphere())
    assert mf.homeomorphic(mf.seifert_over_s2([(3, 2)]), mf.RP3())
    three = mf.seifert_over_s2([(2, 1), (3, 1), (5, 2)])
    assert not mf.homeomorphic(three, mf.Lens(31, 5))
    assert not mf.homeomorphic(three, mf.Sphere())


def test_homeomorphic_seifert_flip_family():
    a = mf.seifert_over_s2([(2, 1), (4, 3), (4, 3)])
    b = mf.seifert_over_s2([(1, 1), (2, 1), (4, 1), (4, 1)])
    assert a != b
    assert mf.homeomorphic(a, b)


def test_homeomorphic_sums_as_multisets():
    a = mf.sum_normalize([mf.Lens(5, 2), mf.RP3()])
    b = mf.sum_normalize([mf.RP3(), mf.Lens(5, 3)])
    assert mf.homeomorphic(a, b)
    assert not mf.homeomorphic(a, mf.sum_normalize([mf.Lens(5, 1), mf.RP3()]))


def test_homeomorphism_key_idempotent():
    values = [
        mf.Sphere(), mf.S2xS1(), mf.RP3(), mf.Lens(7, 2),
        mf.seifert_over_s2([(2, 1), (3, 1), (5, 2)]),
        mf.sum_normalize([mf.Lens(5, 2), mf.RP3()]),
        mf.seifert_over_s2([(2, 1), (3, 1)]),
    ]
    for m in values:
        k = mf.homeomorphism_key(m)
        assert mf.homeomorphism_key(k) == k
        assert mf.homeomorphic(m, k)


def test_is_prime():
    assert mf.is_prime(mf.Sphere())
    assert mf.is_prime(mf.RP3())
    assert mf.is_prime(mf.Lens(7, 2))
    assert mf.is_prime(mf.seifert_over_s2([(2, 1), (3, 1), (5, 2)]))
    assert not mf.is_prime(mf.sum_normalize([mf.Lens(5, 2), mf.RP3()]))
    # four (2, 1) fibers over S2 are prime: H1 is Z/2 + Z/2 + Z/8 and, at
    # Euler number 0, Z + Z/2 + Z/2, never the Z/2 + Z/2 of RP3 # RP3
    assert mf.is_prime(mf.seifert_over_s2([(2, 1)] * 4))
    assert mf.is_prime(mf.seifert_over_s2([(2, 1), (2, 1), (2, -1), (2, -1)]))
    assert mf.is_prime(mf.seifert_over_s2([(2, 1)] * 4 + [(1, 1)]))
    assert mf.is_prime(mf.seifert_over_s2([(2, 1)] * 3))


def test_canonicalize_rejects_non_manifolds():
    with pytest.raises(TypeError):
        mf.canonicalize("L(5,2)")
