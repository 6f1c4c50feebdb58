import math

import pytest

from nmsflow import surgery


def test_framing_validation():
    surgery.Framing(0, 1)
    surgery.Framing(-1, 0)
    with pytest.raises(surgery.InvalidFraming):
        surgery.Framing(2, 4)
    with pytest.raises(surgery.InvalidFraming):
        surgery.Framing(0, 5)
    with pytest.raises(surgery.InvalidFraming):
        surgery.Framing(0, 0)


def test_saddle_framing():
    assert surgery.saddle_framing() == surgery.Framing(-1, 0)


def test_framing_equivalent_frozen():
    fe = surgery.framing_equivalent
    assert fe(surgery.Framing(2, 1), surgery.Framing(2, 3))
    assert fe(surgery.Framing(2, 1), surgery.Framing(2, 5))
    assert not fe(surgery.Framing(2, 1), surgery.Framing(3, 1))
    assert fe(surgery.Framing(3, 1), surgery.Framing(3, 4))
    assert not fe(surgery.Framing(3, 1), surgery.Framing(3, 2))
    # beta = 0 compares alpha exactly; |beta| = 1 matches everything
    assert fe(surgery.Framing(0, 1), surgery.Framing(0, 1))
    assert not fe(surgery.Framing(0, 1), surgery.Framing(0, -1))
    assert fe(surgery.Framing(-1, 0), surgery.Framing(-1, 5))


def test_invert_framing_frozen():
    assert surgery.invert_framing(surgery.Framing(1, 0)) == surgery.Framing(-1, 0)
    assert surgery.invert_framing(surgery.Framing(-1, 0)) == surgery.Framing(1, 0)
    assert surgery.invert_framing(surgery.Framing(3, 2)) == surgery.Framing(-3, 2)
    assert surgery.invert_framing(surgery.Framing(0, 1)) == surgery.Framing(0, 1)


def test_invert_framing_is_an_involution_up_to_equivalence():
    for beta in range(-30, 31):
        for alpha in range(-30, 31):
            if math.gcd(beta, alpha) != 1:
                continue
            f = surgery.Framing(beta, alpha)
            g = surgery.invert_framing(surgery.invert_framing(f))
            assert surgery.framing_equivalent(f, g)


def test_invert_framing_solves_the_gluing_relation():
    # (beta, alpha) -> (-beta, xi) with xi * alpha = 1 (mod beta)
    for beta in range(1, 30):
        for alpha in range(-30, 31):
            if math.gcd(beta, alpha) != 1:
                continue
            g = surgery.invert_framing(surgery.Framing(beta, alpha))
            assert g.beta == -beta
            assert (g.alpha * alpha - 1) % beta == 0


def test_saddle_inverts_to_one_two():
    f = surgery.saddle_framing()
    assert surgery.framing_equivalent(surgery.invert_framing(f),
                                      surgery.Framing(1, 2))
