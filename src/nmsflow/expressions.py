"""Parse and render manifold expressions.

Grammar (whitespace between tokens is ignored):

    expr    := summand ("#" summand)*
    summand := "S3" | "S2xS1" | "RP3"
             | "L" "(" int "," int ")"
             | "SFS" "(" "S2" ";" pair ("," pair)* ")"
    pair    := "(" int "," int ")"
    int     := ["-"] digit+
    digit   := "0" | "1" | ... | "9"          (ASCII only)

Parsing canonicalizes: lens parameters are normalized (collapsing to atoms
where applicable), fiber data is normalized, sums are flattened, sorted and
stripped of S3 summands.  Rendering inverts parsing on canonical values, so
parse_manifold(render_manifold(m)) == m for everything this library emits.
"""

from __future__ import annotations

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


_DIGITS = frozenset("0123456789")  # str.isdigit also accepts "²" and "٧"


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

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
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == digits:
            raise ParseError("expected an integer", start)
        try:
            return int(self.text[start:self.pos])
        except ValueError as exc:  # past sys.get_int_max_str_digits()
            raise ParseError(
                f"integer of {self.pos - digits} digits is too long",
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
    """Parse an expression into its canonical manifold value."""
    s = _Scanner(text)
    summands = [s.summand()]
    while True:
        if s.at_end():
            break
        s.expect("#")
        summands.append(s.summand())
    return sum_normalize(summands)


def render_manifold(m: Manifold) -> str:
    """Render a canonical value in the expression grammar."""
    return str(m)
