"""Parse and render manifold expressions.

Grammar (whitespace between tokens is ignored):

    expr    := summand ("#" summand)*
    summand := "S3" | "S2xS1" | "RP3"
             | "L" "(" int "," int ")"
             | "SFS" "(" "S2" ";" pair ("," pair)* ")"
    pair    := "(" int "," int ")"
    int     := ["-"] digit+
    digit   := "0" | "1" | ... | "9"          (ASCII only)

Whitespace is what str.isspace accepts, the Unicode spaces and separators
included, and `int` is the pattern INTEGER, which the command line also
uses for its integer operands.

Parsing canonicalizes: lens parameters are normalized (collapsing to atoms
where applicable), fiber data is normalized, sums are flattened, sorted and
stripped of S3 summands.  Rendering inverts parsing on canonical values, so
parse_manifold(render_manifold(m)) == m for everything this library emits.

How errors are located.  parse_manifold reads a summand and the "#" or end
of text after it with one match of a compiled pattern.  When the pattern
rejects a summand, or its parameters are invalid, a token scanner replays
the grammar from that summand's start and raises the ParseError: its
position is the offset of the token that breaks the grammar, or of the
summand whose parameters are invalid.  The scanner runs only on text that
ends in a ParseError.
"""

from __future__ import annotations

import re

from .manifolds import (
    InvalidLensParameters,
    Manifold,
    RP3,
    S2xS1,
    Sphere,
    lens_canonical,
    seifert_over_s2,
    sum_normalize,
)
from .seifert import InvalidFiber


class ParseError(ValueError):
    """Syntax or parameter error in a manifold expression.

    `position` is the 0-based offset of the offending token.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# An integer: an optional "-" and ASCII digits.  [0-9], not \d and not
# str.isdigit, which also accept "²" and "٧".
INTEGER = re.compile(r"-?[0-9]+")

_INT = INTEGER.pattern
_PAIR = rf"\(\s*{_INT}\s*,\s*{_INT}\s*\)"
# The (alpha, beta) strings of the pairs of an accepted SFS summand.
_PAIRS = re.compile(rf"\(\s*({_INT})\s*,\s*({_INT})\s*\)")
# One summand and the "#" or end of text after it; its groups, in order,
# are atom, p, q, pairs and sep.  \s is str.isspace, and \Z, unlike $, does
# not match before a final newline.
_SUMMAND = re.compile(rf"""\s*(?:
    (?P<atom>S2xS1|S3|RP3)
  | L\s*\(\s*(?P<p>{_INT})\s*,\s*(?P<q>{_INT})\s*\)
  | SFS\s*\(\s*S2\s*;\s*(?P<pairs>{_PAIR}(?:\s*,\s*{_PAIR})*)\s*\)
)\s*(?:(?P<sep>\#)|\Z)""", re.VERBOSE)
_ATOMS = {"S2xS1": S2xS1, "S3": Sphere, "RP3": RP3}


class _Scanner:
    """The grammar, one token at a time; parse_manifold runs it from a
    rejected summand to locate the error."""

    def __init__(self, text: str, pos: int = 0):
        self.text = text
        self.pos = pos

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def match(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.match(literal):
            raise ParseError(f"expected {literal!r}", self.pos)

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        m = INTEGER.match(self.text, start)
        if m is None:
            raise ParseError("expected an integer", start)
        self.pos = m.end()
        try:
            return int(m[0])
        except ValueError as exc:  # past sys.get_int_max_str_digits()
            raise ParseError(
                f"integer of {len(m[0].removeprefix('-'))} digits is too long",
                start) from exc

    def pair(self) -> tuple[int, int]:
        self.expect("(")
        a = self.integer()
        self.expect(",")
        b = self.integer()
        self.expect(")")
        return (a, b)

    def summand(self) -> Manifold:
        self.skip_ws()
        start = self.pos
        if self.match("SFS"):
            self.expect("(")
            self.expect("S2")
            self.expect(";")
            pairs = [self.pair()]
            while self.match(","):
                pairs.append(self.pair())
            self.expect(")")
            try:
                return seifert_over_s2(pairs)
            except InvalidFiber as exc:
                raise ParseError(str(exc), start) from exc
        if self.match("S2xS1"):
            return S2xS1()
        if self.match("S3"):
            return Sphere()
        if self.match("RP3"):
            return RP3()
        if self.match("L"):
            p, q = self.pair()
            try:
                return lens_canonical(p, q)
            except InvalidLensParameters as exc:
                raise ParseError(str(exc), start) from exc
        raise ParseError("expected a manifold summand", start)


def parse_manifold(text: str) -> Manifold:
    """Parse an expression into its canonical manifold value.

    Raises ParseError on text outside the grammar or with invalid
    parameters, and TypeError on anything but a str.
    """
    if not isinstance(text, str):
        raise TypeError(f"not an expression string: {text!r}")
    summands = []
    append = summands.append
    pos = 0
    while (m := _SUMMAND.match(text, pos)) is not None:
        atom, p, q, pairs, sep = m.groups()
        try:
            if atom is not None:
                append(_ATOMS[atom]())
            elif p is not None:
                append(lens_canonical(int(p), int(q)))
            else:
                # A list, not an iterator: seifert_over_s2 makes a tuple of
                # it, and tuple() of an iterator resizes as it goes, which
                # raised peak RSS.
                append(seifert_over_s2(
                    [(int(a), int(b)) for a, b in _PAIRS.findall(pairs)]))
        except ValueError:  # invalid parameters, or past the int digit limit
            break
        if sep is None:
            return sum_normalize(summands)
        pos = m.end()
    # The pattern rejected the summand at pos, or its parameters are
    # invalid: the scanner, run from there, raises the ParseError.
    s = _Scanner(text, pos)
    s.summand()
    if not s.at_end():
        s.expect("#")
    raise AssertionError(f"the scanner accepts the summand at {pos} of {text!r}")


def render_manifold(m: Manifold) -> str:
    """Render a canonical value in the expression grammar."""
    return str(m)
