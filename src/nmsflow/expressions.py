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
included, and `int` is the rule is_integer, which the command line also
uses for its integer operands.

Parsing canonicalizes: lens parameters are normalized (collapsing to atoms
where applicable), fiber data is normalized, sums are flattened, sorted and
stripped of S3 summands.  Rendering inverts parsing on canonical values, so
parse_manifold(render_manifold(m)) == m for everything this library emits.

How errors are located.  parse_manifold pads each of "( ) , ; #" with
spaces, splits the text with str.split, which splits on exactly the
characters str.isspace accepts, and reads the tokens in one loop; it
compiles no pattern.  On text that loop rejects, a token scanner replays
the grammar and raises the ParseError: its position is the offset of the
token that breaks the grammar, or of the summand whose parameters are
invalid or whose integer is past Python's digit limit.  The scanner runs
only on text that ends in a ParseError.
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


def is_integer(text: str) -> bool:
    """Whether `text` is an integer of the grammar: an optional "-" and
    ASCII digits.  Not str.isdigit alone, which also accepts "\u00b2" and
    "\u0667", and not int(), which also takes "+2", " 1_0 " and "\u0661"."""
    digits = text.removeprefix("-")
    return digits.isascii() and digits.isdigit()


_ATOMS = {"S2xS1": S2xS1, "S3": Sphere, "RP3": RP3}


class _Scanner:
    """The grammar, one token at a time; parse_manifold runs it on text
    that it rejects to locate the error."""

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
        text = self.text
        start = end = self.pos
        # The longest run that may be an integer; is_integer decides.
        if text.startswith("-", end):
            end += 1
        while end < len(text) and "0" <= text[end] <= "9":
            end += 1
        token = text[start:end]
        if not is_integer(token):
            raise ParseError("expected an integer", start)
        self.pos = end
        try:
            return int(token)
        except ValueError as exc:  # past sys.get_int_max_str_digits()
            raise ParseError(
                f"integer of {len(token.removeprefix('-'))} digits is too long",
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


def _checked_int(token: str) -> int:
    if not is_integer(token):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def _summands(text: str) -> list[Manifold]:
    """The summands of `text`; ValueError or IndexError on text outside
    the grammar, invalid parameters or an integer past the digit limit."""
    # On ASCII text without "+" or "_", int() takes exactly the tokens
    # that is_integer accepts, so no token needs the check.
    number = (int if text.isascii() and "+" not in text and "_" not in text
              else _checked_int)
    tokens = (text.replace("(", " ( ").replace(")", " ) ").replace(",", " , ")
              .replace(";", " ; ").replace("#", " # ").split())
    summands = []
    append = summands.append
    i = 0
    while True:
        head = tokens[i]
        if head in _ATOMS:
            append(_ATOMS[head]())
            i += 1
        elif head == "L" and tokens[i + 1:i + 6:2] == ["(", ",", ")"]:
            append(lens_canonical(number(tokens[i + 2]), number(tokens[i + 4])))
            i += 6
        elif head == "SFS" and tokens[i + 1:i + 4] == ["(", "S2", ";"]:
            pairs = []
            i += 4
            while tokens[i:i + 5:2] == ["(", ",", ")"]:
                pairs.append((number(tokens[i + 1]), number(tokens[i + 3])))
                i += 6  # past the pair and the "," or ")" after it
                if tokens[i - 1] != ",":
                    break
            if tokens[i - 1] != ")":
                raise ValueError("expected ')'")
            append(seifert_over_s2(pairs))
        else:
            raise ValueError("expected a manifold summand")
        if i == len(tokens):
            return summands
        if tokens[i] != "#":
            raise ValueError("expected '#'")
        i += 1


def parse_manifold(text: str) -> Manifold:
    """Parse an expression into its canonical manifold value.

    Raises ParseError on text outside the grammar or with invalid
    parameters, and TypeError on anything but a str.
    """
    if not isinstance(text, str):
        raise TypeError(f"not an expression string: {text!r}")
    try:
        summands = _summands(text)
    except (ValueError, IndexError):
        pass
    else:
        return sum_normalize(summands)
    # The token loop rejects the text: the scanner, run from its start,
    # raises the ParseError.
    s = _Scanner(text)
    s.summand()
    while not s.at_end():
        s.expect("#")
        s.summand()
    raise AssertionError(f"the scanner accepts {text!r}")


def render_manifold(m: Manifold) -> str:
    """Render a canonical value in the expression grammar."""
    return str(m)
