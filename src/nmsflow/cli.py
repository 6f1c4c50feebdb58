"""Command line interface.

Subcommands:
  classify   classify one invariant quadruple l1 m1 l2 m2
  homeo      decide whether two manifold expressions are homeomorphic
  h1         first homology of a manifold expression
  enumerate  group admissible quadruples up to a bound by target manifold
  selfcheck  run the internal consistency battery

Integers on the command line, the four operands of classify and every
`--bound`, are written as an optional "-" and ASCII digits; anything else,
such as "+2", "1_0" or Arabic-Indic digits, is a usage error.  Operands
have no cap but Python's digit limit (4,300 digits by default), and bare
negatives work (`classify 3 -1 5 2`).  Answers may be longer than the
limit (`_render`).  `--bound` of
enumerate must be from 0 to 30, and that of selfcheck from 0 to 15.  The
caps keep a run to seconds: the output of enumerate grows about as
bound^4 (39,178 classes at bound 30, about 1.5 s and 46 MB peak RSS on
a shared 2-CPU x86_64 host, Python 3.11.7), and so does the time of
selfcheck, whose tally evaluates one case formula per pair of side
buckets instead of classifying each admissible quadruple (332,352 at
bound 15, about 0.3 s and 19 MB peak RSS).

An expression that starts with "-" goes after "--" (`h1 -- "-L(7,2)"`,
which exits 1 with the parse error at position 0); the command line reads
it as an option otherwise, and exits 2 saying that the expression is
missing.

Exit codes: 0 success (homeo prints true or false), 1 expression parse
error, 2 inadmissible quadruple or usage error, 3 selfcheck failure.

Start-up is most of the time of one `classify`: the package imports
neither dataclasses nor typing, nor fractions outside
seifert.euler_number, or random outside the seeded selfcheck check, and
importing nmsflow.cli loads every module whose functions the benchmark
traces, selfcheck and surgery included.  It never imports json:
`classify --json` writes its object from a fixed template
(_classify_report).  Nor does it import argparse, which would load
gettext, locale and shutil (and through shutil bz2, lzma and zlib) to
build a parser: _CommandLine reads the command line from the table
_COMMANDS, and makes the decisions argparse made with one subparser per
command, down to its messages and help text.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace

from .classifier import (
    InvalidFlowInvariant,
    classify_quadruple,
    enumerate_invariants,
)
from .expressions import INTEGER, ParseError, parse_manifold
from .homology import h1
from .manifolds import homeomorphic, is_prime
from .selfcheck import run_selfcheck

MAX_BOUND = 30
MAX_SELFCHECK_BOUND = 15


class _UsageError(Exception):
    """A command-line value that its type rejects; _CommandLine reports it
    as a usage error of the argument."""


def _ascii_int(text: str, name: str) -> int:
    """The integer `text` spells, for the types below; a rejected value,
    reported as an invalid `name`, exits 2 with usage.

    The rule is the expression grammar's INTEGER: an optional "-", then
    ASCII digits (int() would also take "+2", " 1_0 " and "\u0661").
    """
    if INTEGER.fullmatch(text) is None:
        raise _UsageError(f"invalid {name} {text!r}: not an integer")
    try:
        return int(text)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise _UsageError(
            f"invalid {name}: integer of {len(text.removeprefix('-'))} digits "
            "is too long") from None


def _operand(text: str) -> int:
    """Type of a classify operand."""
    return _ascii_int(text, "operand")


def _bound_type(cap: int):
    """Type of a --bound capped at `cap`."""
    def bound(text: str) -> int:
        value = _ascii_int(text, "bound")
        if value < 0:
            raise _UsageError(f"invalid bound {value}: must be nonnegative")
        if value > cap:
            raise _UsageError(f"invalid bound {value}: must be at most {cap}")
        return value
    return bound


def _render(render, *args) -> str:
    """render(*args), with Python's int-to-str digit limit lifted if the
    text outgrows it: the limit bounds each input integer, not the answer,
    whose digits stay linear in the input's.  Within it, no extra work."""
    try:
        return render(*args)
    except ValueError:  # an integer past sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return render(*args)
        finally:
            sys.set_int_max_str_digits(limit)


def _classify_report(args, res, group, prime) -> str:
    if args.json:
        # The text of json.dumps(payload, sort_keys=True), keys in sorted
        # order: every field is an int, a bool, null, the kind, or a
        # canonical expression, whose alphabet needs no escaping.
        inter = res.intermediate_seifert
        inter = "null" if inter is None else (
            "[" + ", ".join(f"[{a}, {b}]" for a, b in inter) + "]")
        torsion = ", ".join(map(str, group.torsion))
        return (f'{{"canonical": "{res.manifold}", "case": {res.case}, '
                f'"h1": {{"free_rank": {group.free_rank}, "torsion": [{torsion}]}}, '
                f'"input": [{args.l1}, {args.m1}, {args.l2}, {args.m2}], '
                f'"intermediate_seifert": {inter}, '
                f'"kind": "{res.invariant.kind.value}", '
                f'"prime": {"true" if prime else "false"}}}')
    lines = [f"case {res.case}: {res.manifold}", f"h1: {group}",
             f"prime: {'true' if prime else 'false'}"]
    if res.intermediate_seifert is not None:
        rendered = ",".join(f"({a},{b})" for a, b in res.intermediate_seifert)
        lines.append(f"intermediate seifert: {rendered}")
    return "\n".join(lines)


def _cmd_classify(args) -> int:
    try:
        res = classify_quadruple(args.l1, args.m1, args.l2, args.m2)
    except InvalidFlowInvariant as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(_render(_classify_report, args, res, h1(res.manifold),
                  is_prime(res.manifold)))
    return 0


def _cmd_homeo(args) -> int:
    try:
        left = parse_manifold(args.left)
        right = parse_manifold(args.right)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("true" if homeomorphic(left, right) else "false")
    return 0


def _cmd_h1(args) -> int:
    try:
        manifold = parse_manifold(args.expr)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(_render(str, h1(manifold)))
    return 0


def _cmd_enumerate(args) -> int:
    lines = [f"{c.representative}  h1={h1(c.representative)}  count={c.count}  "
             f"e.g. {c.example}" for c in enumerate_invariants(args.bound)]
    if lines:  # bound 0 has no admissible quadruple
        print("\n".join(lines))
    return 0


def _cmd_selfcheck(args) -> int:
    return run_selfcheck(args.bound)


_DESCRIPTION = ("Classify 3-manifolds carrying nonsingular Morse-Smale flows "
                "with a single\ntwisted saddle orbit.")

# The commands: per command its help line, its operands with their types,
# its options and its handler.  An option is (name, type, default, help);
# type None makes it a flag, false unless given.  Every command, and the
# command line itself, also takes -h/--help.
_COMMANDS = {
    "classify": ("classify an invariant quadruple",
                 [("l1", _operand), ("m1", _operand), ("l2", _operand), ("m2", _operand)],
                 [("--json", None, False, "emit one JSON object")],
                 _cmd_classify),
    "homeo": ("compare two manifold expressions", [("left", str), ("right", str)], [],
              _cmd_homeo),
    "h1": ("first homology of a manifold expression", [("expr", str)], [], _cmd_h1),
    "enumerate": ("group admissible quadruples by homeomorphism type", [],
                  [("--bound", _bound_type(MAX_BOUND), 4,
                    f"max |l_i|, |m_i| to enumerate, at most {MAX_BOUND} (default 4)")],
                  _cmd_enumerate),
    "selfcheck": ("run the consistency battery", [],
                  [("--bound", _bound_type(MAX_SELFCHECK_BOUND), 6,
                    "enumeration bound for the battery, at most "
                    f"{MAX_SELFCHECK_BOUND} (default 6)")],
                  _cmd_selfcheck),
}
_HELP = ("-h", "--help")
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # what argparse reads as a negative number


def _usage(command) -> str:
    """The usage line of `command`, or of the command line if it is None."""
    if command is None:
        return "usage: nmsflow [-h] {" + ",".join(_COMMANDS) + "} ..."
    _, operands, options, _ = _COMMANDS[command]
    return " ".join(["usage: nmsflow", command, "[-h]"]
                    + [f"[{_invocation(name, kind)}]" for name, kind, _, _ in options]
                    + [name for name, _ in operands])


def _invocation(option: str, kind) -> str:
    return option if kind is None else f"{option} {option[2:].upper()}"


def _help(command) -> str:
    """The help text of `command`, or of the command line if it is None,
    laid out as argparse lays it out 80 columns wide, where each help line
    fits beside its option."""
    lines = [_usage(command), ""]
    if command is None:
        lines += [_DESCRIPTION, ""]
        positional = [(2, "{" + ",".join(_COMMANDS) + "}", None)] + [
            (4, name, spec[0]) for name, spec in _COMMANDS.items()]
        options = []
    else:
        _, operands, options, _ = _COMMANDS[command]
        positional = [(2, name, None) for name, _ in operands]
    sections = [("positional arguments:", positional)] if positional else []
    sections.append(("options:", [(2, "-h, --help", "show this help message and exit")] + [
        (2, _invocation(name, kind), text) for name, kind, _, text in options]))
    rows = [row for _, section in sections for row in section]
    column = min(max(indent + len(invocation) for indent, invocation, _ in rows) + 2, 24)
    for title, section in sections:
        lines.append(title)
        for indent, invocation, text in section:
            line = " " * indent + invocation
            lines.append(line if text is None else line.ljust(column) + text)
        lines.append("")
    return "\n".join(lines)


def _fail(command, message: str):
    """Exit 2 with the usage of `command` (None: the command line) and `message`."""
    prog = "nmsflow" if command is None else f"nmsflow {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _option(token: str, names, command):
    """What `token` is to a parser whose options are `names`: None for an
    operand, else the option's name and the text given after "=" (or after
    -h), if any.  The name is None for an option that the parser lacks.

    A token is an option when it starts with "-", is not "-" alone, and is
    neither a negative number nor a text with a space.  A long option may be
    given by any prefix that matches it alone."""
    if token[:1] != "-" or token == "-":
        return None
    name, eq, value = token.partition("=")
    if name in names:
        return name, value if eq else None
    if token[1] == "-":
        matches = [option for option in names if option.startswith(name)]
        if len(matches) > 1:
            _fail(command, f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif token[1] == "h":
        return "-h", token[2:]
    if _NEGATIVE.match(token) or " " in token:
        return None
    return None, None


def _flag(command, name: str, value) -> None:
    """Act on the flag `name`, given with `value` after "=" or -h: help for
    -h/--help, and a usage error for a value, which a flag does not take."""
    if name == "-h" and value:
        value = value.lstrip("h") or None  # -hh is -h -h
    if value is not None:
        option = "-h/--help" if name in _HELP else name
        _fail(command, f"argument {option}: ignored explicit argument {value!r}")
    if name in _HELP:
        sys.stdout.write(_help(command))
        raise SystemExit(0)


def _convert(command, name: str, kind, text: str):
    try:
        return kind(text)
    except _UsageError as exc:
        _fail(command, f"argument {name}: {exc}")


class _CommandLine:
    """Reads a command line by _COMMANDS.

    parse_args(argv) is a namespace holding `command` and the command's
    operands and options, or else exits: 0 after help, 2 after a usage
    error.  Options may come anywhere among the operands, as `--opt value`
    or `--opt=value`, and the first "--" ends them.  That "--" is dropped
    when it follows a token that filled an operand, or when an operand is
    still to fill and a token follows it; otherwise it is one more
    unrecognized argument, as are operands past the last and unknown
    options.  A later "--" is an operand."""

    def parse_args(self, argv):
        extras = []
        for i, token in enumerate(argv):
            if token == "--" and i + 1 == len(argv):
                break
            # Like any other operand, a "--" with tokens after it names the
            # command, an invalid one.
            option = None if token == "--" else _option(token, _HELP, None)
            if option is None:
                if token not in _COMMANDS:
                    choices = ", ".join(map(repr, _COMMANDS))
                    _fail(None, f"argument command: invalid choice: {token!r} "
                                f"(choose from {choices})")
                args = self._read(token, argv[i + 1:], extras)
                if extras:
                    _fail(None, "unrecognized arguments: " + " ".join(extras))
                return args
            if option[0] is None:
                extras.append(token)
            else:
                _flag(None, *option)
        _fail(None, "the following arguments are required: command")

    def _read(self, command, tokens, extras):
        """The namespace of `command` given `tokens`; unrecognized tokens
        go to `extras`."""
        _, operands, options, _ = _COMMANDS[command]
        types = {name: kind for name, kind, _, _ in options}
        end = tokens.index("--") if "--" in tokens else len(tokens)
        kinds = [_option(token, [*_HELP, *types], command) for token in tokens[:end]]
        args = SimpleNamespace(command=command, **{
            name[2:]: default for name, _, default, _ in options})
        left = list(operands)

        def operand(token) -> bool:
            """Fill the next operand with `token`; false if none is left."""
            if not left:
                extras.append(token)
                return False
            name, kind = left.pop(0)
            setattr(args, name, _convert(command, name, kind, token))
            return True

        filled = False  # whether the last token filled an operand
        i = 0
        while i < end:
            token, kind = tokens[i], kinds[i]
            i += 1
            if kind is None:
                filled = operand(token)
                continue
            filled = False
            name, value = kind
            if name is None:
                extras.append(token)
            elif types.get(name) is None:
                _flag(command, name, value)
                setattr(args, name[2:], True)
            else:
                if value is None:
                    if i == end or kinds[i] is not None:
                        _fail(command, f"argument {name}: expected one argument")
                    value = tokens[i]
                    i += 1
                setattr(args, name[2:], _convert(command, name, types[name], value))
        if end < len(tokens):
            rest = tokens[end + 1:]
            if not (filled or left and rest):
                extras.append("--")
            for token in rest:
                operand(token)
        if left:
            _fail(command, "the following arguments are required: "
                           + ", ".join(name for name, _ in left))
        return args


def _build_parser() -> _CommandLine:
    return _CommandLine()


def main(argv=None) -> int:
    args = _build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    *_, handler = _COMMANDS[args.command]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
