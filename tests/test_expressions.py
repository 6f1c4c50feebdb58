import pytest

from nmsflow.expressions import ParseError, parse_manifold, render_manifold
from nmsflow.manifolds import (
    Lens,
    RP3,
    S2xS1,
    SeifertOverS2,
    Sphere,
    seifert_over_s2,
    sum_normalize,
)


def test_parse_atoms():
    assert parse_manifold("S3") == Sphere()
    assert parse_manifold("S2xS1") == S2xS1()
    assert parse_manifold("RP3") == RP3()
    assert parse_manifold("  RP3  ") == RP3()


def test_parse_lens_canonicalizes():
    assert parse_manifold("L(7,9)") == Lens(7, 2)
    assert parse_manifold("L(7,5)") == Lens(7, 2)
    assert parse_manifold("L(-7,9)") == Lens(7, 2)
    assert parse_manifold("L(1,0)") == Sphere()
    assert parse_manifold("L(0,1)") == S2xS1()
    assert parse_manifold("L(2,-1)") == RP3()
    assert parse_manifold("L( 7 , 9 )") == Lens(7, 2)


def test_parse_sums():
    assert parse_manifold("S3 # RP3") == RP3()
    m = parse_manifold("RP3 # L(5,2)")
    assert str(m) == "L(5,2) # RP3"
    assert parse_manifold("L(5,2)#RP3") == m
    assert parse_manifold("S3 # S3") == Sphere()
    assert str(parse_manifold("RP3 # RP3 # L(3,1)")) == "L(3,1) # RP3 # RP3"


def test_parse_seifert():
    m = parse_manifold("SFS(S2; (2,1),(3,2))")
    assert m == SeifertOverS2(((2, 1), (3, 2)))
    assert parse_manifold("SFS(S2; (3,5),(2,1))") == SeifertOverS2(
        ((1, 1), (2, 1), (3, 2)))
    assert parse_manifold("SFS(S2; (1,0))") == S2xS1()
    assert parse_manifold("SFS( S2 ; (2,1), (3,2) )") == m


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_manifold("L(4,2)")
    assert err.value.position == 0
    assert "(at position 0)" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_manifold("RP3 # X")
    assert err.value.position == 6

    with pytest.raises(ParseError) as err:
        parse_manifold("L(5,2) RP3")
    assert err.value.position == 7

    with pytest.raises(ParseError):
        parse_manifold("")
    with pytest.raises(ParseError):
        parse_manifold("L(5,2) #")
    with pytest.raises(ParseError):
        parse_manifold("L(5)")
    with pytest.raises(ParseError):
        parse_manifold("SFS(S2; )")
    with pytest.raises(ParseError):
        parse_manifold("SFS(S2; (2,4))")
    with pytest.raises(ParseError):
        parse_manifold("L(5,2) # L(0,3)")


def test_parse_error_on_integers_past_the_conversion_limit():
    digits = "7" * 5000
    with pytest.raises(ParseError) as err:
        parse_manifold(f"L({digits},1)")
    assert err.value.position == 2
    with pytest.raises(ParseError) as err:
        parse_manifold(f"SFS(S2; (2,1),(3,-{digits}))")
    assert err.value.position == 17


def test_round_trip_on_canonical_values():
    values = [
        Sphere(), S2xS1(), RP3(), Lens(5, 2), Lens(12, 5),
        seifert_over_s2([(2, 1), (3, 1), (5, 3)]),
        seifert_over_s2([(1, 2), (2, 1), (2, 1)]),
        sum_normalize([Lens(5, 2), RP3()]),
        sum_normalize([S2xS1(), RP3()]),
        sum_normalize([RP3(), RP3(), Lens(3, 1)]),
    ]
    for m in values:
        assert parse_manifold(render_manifold(m)) == m


def test_render_is_str():
    m = sum_normalize([Lens(5, 2), RP3()])
    assert render_manifold(m) == str(m) == "L(5,2) # RP3"
