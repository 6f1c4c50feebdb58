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
selfcheck, which classifies every admissible quadruple once (332,352 at
bound 15, about 4 s and 19 MB peak RSS).

An expression that starts with "-" goes after "--" (`h1 -- "-L(7,2)"`,
which exits 1 with the parse error at position 0); argparse reads it as
an option otherwise, and exits 2 saying that the expression is missing.

Exit codes: 0 success (homeo prints true or false), 1 expression parse
error, 2 inadmissible quadruple or usage error, 3 selfcheck failure.

Start-up is most of the time of one `classify`: the package imports
neither dataclasses nor typing, nor fractions outside
seifert.euler_number, or random outside the seeded selfcheck check, and
importing nmsflow.cli loads every module whose functions the benchmark
traces, selfcheck and surgery included.  It never imports json:
`classify --json` writes its object from a fixed template
(_classify_report).
"""

from __future__ import annotations

import argparse
import sys

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


def _ascii_int(text: str, name: str) -> int:
    """The integer `text` spells, for the argparse types below; a rejected
    value, reported as an invalid `name`, exits 2 with usage.

    The rule is the expression grammar's INTEGER: an optional "-", then
    ASCII digits (int() would also take "+2", " 1_0 " and "\u0661").
    """
    if INTEGER.fullmatch(text) is None:
        raise argparse.ArgumentTypeError(f"invalid {name} {text!r}: not an integer")
    try:
        return int(text)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise argparse.ArgumentTypeError(
            f"invalid {name}: integer of {len(text.removeprefix('-'))} digits "
            "is too long") from None


def _operand(text: str) -> int:
    """argparse type of a classify operand."""
    return _ascii_int(text, "operand")


def _bound_type(cap: int):
    """argparse type of a --bound capped at `cap`."""
    def bound(text: str) -> int:
        value = _ascii_int(text, "bound")
        if value < 0:
            raise argparse.ArgumentTypeError(
                f"invalid bound {value}: must be nonnegative")
        if value > cap:
            raise argparse.ArgumentTypeError(
                f"invalid bound {value}: must be at most {cap}")
        return value
    return bound


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmsflow",
        description="Classify 3-manifolds carrying nonsingular Morse-Smale "
                    "flows with a single twisted saddle orbit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify an invariant quadruple")
    for name in ("l1", "m1", "l2", "m2"):
        p.add_argument(name, type=_operand)
    p.add_argument("--json", action="store_true", help="emit one JSON object")

    p = sub.add_parser("homeo", help="compare two manifold expressions")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("h1", help="first homology of a manifold expression")
    p.add_argument("expr")

    p = sub.add_parser(
        "enumerate",
        help="group admissible quadruples by homeomorphism type")
    p.add_argument("--bound", type=_bound_type(MAX_BOUND), default=4,
                   help=f"max |l_i|, |m_i| to enumerate, at most {MAX_BOUND} "
                        "(default 4)")

    p = sub.add_parser("selfcheck", help="run the consistency battery")
    p.add_argument("--bound", type=_bound_type(MAX_SELFCHECK_BOUND), default=6,
                   help="enumeration bound for the battery, at most "
                        f"{MAX_SELFCHECK_BOUND} (default 6)")
    return parser


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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "classify": _cmd_classify,
        "homeo": _cmd_homeo,
        "h1": _cmd_h1,
        "enumerate": _cmd_enumerate,
        "selfcheck": _cmd_selfcheck,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
