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
selfcheck, whose tally evaluates one case formula per product of side
buckets instead of classifying each admissible quadruple (332,352 at
bound 15, about 0.22 s and 18 MB peak RSS).

An expression that starts with "-" goes after "--" (`h1 -- "-L(7,2)"`,
which exits 1 with the parse error at position 0); the command line reads
it as an option otherwise, and exits 2 saying that the expression is
missing.

Exit codes: 0 success (homeo prints true or false), 1 expression parse
error or a homeo summand past the key's search cap (seifert) that is left
once the summands both sides share cancel (manifolds.homeomorphic), 2
inadmissible quadruple or usage error, 3 selfcheck failure.

Start-up is most of the time of one `classify`.  The package imports no
dataclasses, typing, re or enum.  To the benchmark's set-up, `python -S
-c` with this import and _build_parser, it adds only __future__, math
and itertools; entry points that load more first gain less (README).
Importing nmsflow.cli loads every module whose functions the benchmark
traces, selfcheck and surgery included.  It never imports json:
`classify --json` writes its object from a fixed template
(_classify_report).  A plain command line, the kind people and scripts
type, _plain reads from the table _COMMANDS without importing argparse,
which loads gettext and locale.  Every other one, help and usage errors
included, goes to an argparse parser built from the same table
(_parser), which makes each decision and writes each message.
"""

from __future__ import annotations

import sys

from .classifier import (
    InvalidFlowInvariant,
    classify_quadruple,
    enumerate_invariants,
)
from .expressions import ParseError, is_integer, parse_manifold
from .homology import h1
from .manifolds import homeomorphic, is_prime
from .seifert import _TooManyFlips
from .selfcheck import run_selfcheck

MAX_BOUND = 30
MAX_SELFCHECK_BOUND = 15


class _UsageError(Exception):
    """A command-line value that its type rejects; the command line
    reports it as a usage error of the argument."""


def _ascii_int(text: str, name: str) -> int:
    """The integer `text` spells, for the types below; a rejected value,
    reported as an invalid `name`, exits 2 with usage.

    The rule is the expression grammar's is_integer: an optional "-",
    then ASCII digits (int() would also take "+2", " 1_0 " and "\u0661").
    """
    if not is_integer(text):
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
                f'"kind": "{res.invariant.kind}", '
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
        same = homeomorphic(parse_manifold(args.left), parse_manifold(args.right))
    except (ParseError, _TooManyFlips) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("true" if same else "false")
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


class _Namespace:
    """The attributes of a command line, as argparse.Namespace holds them
    (types.SimpleNamespace would import types in the set-up)."""

    def __init__(self, **attributes):
        self.__dict__.update(attributes)


def _plain(argv):
    """The namespace of a plain command line, or None for any other.

    A plain command line is a command, then its operands and options in
    any order: each option spelled in full, and a --bound followed by a
    value that does not start with "-"; an operand does not start with "-"
    unless it is a negative integer.  It gives the command its number of
    operands, and each value converts.  argparse reads such a line to the
    same namespace, and _parser() reads every other one."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, operands, options, _ = _COMMANDS[argv[0]]
    types = {name: kind for name, kind, _, _ in options}
    args = _Namespace(command=argv[0], **{
        name[2:]: default for name, _, default, _ in options})
    given = []
    words = iter(argv[1:])
    try:
        for word in words:
            if word not in types:
                if word[:1] == "-" and not is_integer(word):
                    return None
                given.append(word)
            elif types[word] is None:
                setattr(args, word[2:], True)
            else:
                value = next(words, "-")
                if value[:1] == "-":
                    return None
                setattr(args, word[2:], types[word](value))
        if len(given) != len(operands):
            return None
        for (name, kind), word in zip(operands, given):
            setattr(args, name, kind(word))
    except _UsageError:
        return None
    return args


def _parser():
    """The argparse parser of _COMMANDS, one subparser per command, with
    help laid out 80 columns wide whatever the terminal.  argparse is
    imported here, so that a plain command line never loads it."""
    import argparse

    def formatter(prog):
        return argparse.HelpFormatter(prog, width=78)

    def typed(kind):
        def convert(text):
            try:
                return kind(text)
            except _UsageError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None
        return convert

    class Operand(argparse.Action):
        # argparse drops a second "--" that makes up a whole operand and
        # passes [] in its place, which would crash the command: that "--"
        # is the operand.
        def __call__(self, parser, namespace, values, option_string=None):
            if values == []:
                try:
                    values = self.type("--")
                except argparse.ArgumentTypeError as exc:
                    raise argparse.ArgumentError(self, str(exc)) from None
            setattr(namespace, self.dest, values)

    parser = argparse.ArgumentParser(prog="nmsflow", description=_DESCRIPTION,
                                     formatter_class=formatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, operands, options, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=text, formatter_class=formatter)
        for name, kind in operands:
            p.add_argument(name, type=typed(kind), action=Operand)
        for name, kind, default, text in options:
            if kind is None:
                p.add_argument(name, action="store_true", help=text)
            else:
                p.add_argument(name, type=typed(kind), default=default, help=text)
    return parser


class _CommandLine:
    """parse_args(argv) is a namespace holding `command` and the command's
    operands and options, or else exits: 0 after help, 2 after a usage
    error."""

    def parse_args(self, argv):
        args = _plain(argv)
        return _parser().parse_args(argv) if args is None else args


def _build_parser() -> _CommandLine:
    return _CommandLine()


def main(argv=None) -> int:
    args = _build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    *_, handler = _COMMANDS[args.command]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
