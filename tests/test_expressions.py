import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from nmsflow import expressions
from nmsflow.cli import _UsageError, _ascii_int
from nmsflow.expressions import ParseError, is_integer, parse_manifold, render_manifold
from nmsflow.manifolds import (
    Lens,
    Manifold,
    RP3,
    S2xS1,
    SeifertOverS2,
    Sphere,
    lens_canonical,
    seifert_over_s2,
    sum_normalize,
)
from timelimit import deadline


def test_parse_atoms():
    assert parse_manifold("S3") == Sphere()
    assert parse_manifold("S2xS1") == S2xS1()
    assert parse_manifold("RP3") == RP3()
    assert parse_manifold("  RP3  ") == RP3()
    assert parse_manifold("RP3\n") == RP3()


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
    with pytest.raises(ParseError) as err:  # a final newline ends no summand
        parse_manifold("L(5,2) #\n")
    assert err.value.position == 9
    with pytest.raises(ParseError):
        parse_manifold("L(5)")
    with pytest.raises(ParseError):
        parse_manifold("SFS(S2; )")
    with pytest.raises(ParseError):
        parse_manifold("SFS(S2; (2,4))")
    with pytest.raises(ParseError):
        parse_manifold("L(5,2) # L(0,3)")

    # Only ASCII digits make an integer: str.isdigit accepts both of these.
    for text, position in (("L(7,\u00b2)", 4), ("L(\u0667,\u0662)", 2)):
        with pytest.raises(ParseError) as err:
            parse_manifold(text)
        assert err.value.position == position
        assert str(err.value).startswith("expected an integer")


def test_parse_rejects_non_strings_with_type_error():
    for value in (b"S3", ["S3"], None, 5):
        with pytest.raises(TypeError, match="not an expression string"):
            parse_manifold(value)


def test_integer_rule_is_an_optional_minus_and_ascii_digits():
    # The one statement of the rule, read by the grammar and the CLI alike.
    for text in ("0", "-0", "007", "-12"):
        assert is_integer(text)
        assert _ascii_int(text, "operand") == int(text)
    for text in ("", "-", "--5", "+2", "1_0", " 3", "3\n", "\u0663", "\u00b2"):
        assert not is_integer(text)
        with pytest.raises(_UsageError, match="not an integer"):
            _ascii_int(text, "operand")


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


def _coprime_pair(first, second):
    return st.tuples(first, second).filter(lambda p: math.gcd(*p) == 1)


_LENS = _coprime_pair(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)).map(
    lambda p: lens_canonical(*p))
_SEIFERT = st.lists(_coprime_pair(st.integers(1, 60), st.integers(-10**4, 10**4)),
                    min_size=1, max_size=6).map(seifert_over_s2)
_SUMMAND = st.one_of(st.sampled_from([Sphere(), S2xS1(), RP3()]), _LENS, _SEIFERT)
_SUM = st.lists(_SUMMAND, min_size=1, max_size=6).map(sum_normalize)


@given(_SUM)
def _round_trips(m):
    # A fixed point of its constructor: rebuilt from its own fields, in
    # constructor order, it is equal to itself.
    assert type(m)(*(getattr(m, f) for f in type(m).__slots__)) == m
    assert parse_manifold(render_manifold(m)) == m


def test_round_trip_on_generated_canonical_sums():
    with deadline(30.0):
        _round_trips()


_TOKENS = ["S3", "S2xS1", "RP3", "L", "SFS", "S2", "(", ")", ",", ";", "#",
           "-", " ", "0", "1", "2", "7", "12", "\u00b2", "\u0667"]


def _spliced(args):
    text, at, insert = args
    return text[:at] + insert + text[at:]


# Free text, token soup, and rendered canonical sums with a short splice.
_TEXT = st.one_of(
    st.text(max_size=40),
    st.lists(st.sampled_from(_TOKENS), max_size=24).map("".join),
    st.tuples(_SUM.map(render_manifold), st.integers(0, 60),
              st.text(max_size=3)).map(_spliced))


@given(_TEXT)
def _parses_or_raises_parse_error(text):
    try:
        m = parse_manifold(text)
    except ParseError:
        return
    assert isinstance(m, Manifold)


def test_parse_returns_a_manifold_or_raises_parse_error():
    with deadline(30.0):
        _parses_or_raises_parse_error()


_SCANNER = expressions._Scanner


def _scanner_parse(text):
    """The grammar read by the token scanner alone, summand by summand."""
    s = _SCANNER(text)
    summands = [s.summand()]
    while not s.at_end():
        s.expect("#")
        summands.append(s.summand())
    return sum_normalize(summands)


def _outcome(parse, text):
    try:
        return ("value", parse(text))
    except ParseError as exc:
        return ("error", str(exc), exc.position)


_TOKEN = re.compile(r"S2xS1|SFS|S2|RP3|L|-?[0-9]+|\S")


@st.composite
def _respaced(draw, spaces=" \x1c\n"):
    """A rendered canonical sum with whitespace from `spaces` between its
    tokens."""
    tokens = _TOKEN.findall(render_manifold(draw(_SUM)))
    gaps = draw(st.lists(st.text(alphabet=spaces, max_size=2),
                         min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return gaps[0] + "".join(t + g for t, g in zip(tokens, gaps[1:]))


_SPACED = _respaced()
# Characters that str.isspace accepts, from the ideographic space to the
# information separator \x1c.
_UNICODE_SPACES = "\u3000\u00a0\x85\u2028\x1c\t "
_DIFFERENTIAL_TEXT = st.one_of(
    _TEXT, _SPACED, _respaced(_UNICODE_SPACES),
    st.tuples(_SPACED, st.integers(0, 80), st.text(max_size=3)).map(_spliced),
    st.lists(st.sampled_from(_TOKENS + ["+", "_", "\u0663", "\u200b", *_UNICODE_SPACES]),
             max_size=24).map("".join))


class _CountingScanner(_SCANNER):
    entries = 0

    def __init__(self, *args):
        type(self).entries += 1
        super().__init__(*args)


@settings(max_examples=400)
@given(_DIFFERENTIAL_TEXT)
def _agrees_with_the_scanner(text):
    expected = _outcome(_scanner_parse, text)
    entries = _CountingScanner.entries
    got = _outcome(parse_manifold, text)
    assert got == expected
    # The scanner only locates errors: entered once on an error, never
    # on text that parses.
    assert _CountingScanner.entries == entries + (got[0] == "error")


def test_parse_agrees_with_the_scanner_alone(monkeypatch):
    monkeypatch.setattr(expressions, "_Scanner", _CountingScanner)
    with deadline(60.0):
        _agrees_with_the_scanner()


_DIGITS_5000 = "7" * 5000
# Text, and its value or the message and position of its ParseError.
_EDGES = [
    ("S 3", ("expected a manifold summand", 0)),
    ("L(+5,2)", ("expected an integer", 2)),
    ("L(1_0,3)", ("expected ','", 3)),
    ("L(\u0663,1)", ("expected an integer", 2)),
    ("L(5,2)\u3000#\x1cS3", Lens(5, 2)),
    ("S3\u00a0#\x85RP3\u2028", RP3()),
    ("L(5,2)\u200b", ("expected '#'", 6)),
    ("SFS(S2;(2,1),)", ("expected '('", 13)),
    ("L(5,2)#", ("expected a manifold summand", 7)),
    ("", ("expected a manifold summand", 0)),
    ("-L(7,2)", ("expected a manifold summand", 0)),
    (f"L({_DIGITS_5000},1)", ("integer of 5000 digits is too long", 2)),
    (f"L(1,-{_DIGITS_5000})", ("integer of 5000 digits is too long", 4)),
]


def test_parse_edge_cases():
    for text, want in _EDGES:
        got = _outcome(parse_manifold, text)
        if isinstance(want, Manifold):
            assert got == ("value", want), text
        else:
            message, position = want
            assert got == ("error", f"{message} (at position {position})", position), text
        assert got == _outcome(_scanner_parse, text), text


def test_parse_time_is_linear_on_inputs_that_could_make_a_pattern_backtrack():
    cases = [
        ("L(" + " " * 200_000, 200_002, "expected an integer"),
        ("SFS(S2; " + ",".join(["(2,1)"] * 20_000), 120_007, "expected ')'"),
        (" # ".join(["L(5,2)"] * 20_000) + " # x", 180_000,
         "expected a manifold summand"),
        ("SFS(S2; (" + "1" * 4000 + " 1", 4010, "expected ','"),
    ]
    for text, position, message in cases:
        with deadline(5.0):
            got = _outcome(parse_manifold, text)
            assert got == _outcome(_scanner_parse, text)
        assert got[0] == "error"
        assert got[1].startswith(message)
        assert got[2] == position
