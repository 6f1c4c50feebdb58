import contextlib
import difflib
import io
import json
import math
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from nmsflow import seifert
from nmsflow.cli import _build_parser, main
from nmsflow.expressions import parse_manifold
from nmsflow.manifolds import homeomorphism_key
from oracles import argparse_command_line
from timelimit import deadline

GOLDEN = Path(__file__).parent / "data" / "golden_classify.tsv"
ENUMERATE_10 = Path(__file__).parent / "data" / "enumerate_bound_10.tsv"
CLI_SURFACE = Path(__file__).parent / "data" / "cli_surface.txt"


def test_classify_human_output(capsys):
    assert main(["classify", "0", "1", "5", "2"]) == 0
    out = capsys.readouterr().out
    assert out == "case 1: L(5,2) # RP3\nh1: Z/10\nprime: false\n"


def test_classify_human_output_with_intermediate(capsys):
    assert main(["classify", "2", "1", "3", "2"]) == 0
    out = capsys.readouterr().out
    assert out == ("case 7: SFS(S2; (2,1),(2,1),(3,2))\n"
                   "h1: Z/20\n"
                   "prime: true\n"
                   "intermediate seifert: (2,1),(2,1),(3,2)\n")


def test_classify_accepts_negative_arguments(capsys):
    assert main(["classify", "-1", "0", "7", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("case 4: L(3,1)\n")


def test_classify_operands_are_ascii_integers(capsys):
    # int() would read "1_0" as 10 and the Arabic-Indic digit three as 3.
    for operand in ("1_0", "\u0663", "+3", " 3", "3.0", "", "-"):
        with pytest.raises(SystemExit) as exc:
            main(["classify", operand, "1", "5", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument l1: invalid operand {operand!r}: not an integer" in captured.err


def test_classify_operands_take_bare_negatives_up_to_the_digit_limit(capsys):
    assert main(["classify", "3", "-1", "5", "2"]) == 0
    assert capsys.readouterr().out.startswith("case 7: SFS(S2; (2,1),(3,2),(5,3))\n")
    big = 10**40 + 1
    assert main(["classify", "0", "1", str(big), "-1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["input"] == [0, 1, big, -1]
    assert payload["canonical"] == f"L({big},1) # RP3"
    with pytest.raises(SystemExit) as exc:
        main(["classify", "0", "1", "7" * 5000, "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument l2: invalid operand: integer of 5000 digits is too long" in err


def test_classify_json_case_one(capsys):
    assert main(["classify", "0", "1", "5", "2", "--json"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == ('{"canonical": "L(5,2) # RP3", "case": 1, '
                   '"h1": {"free_rank": 0, "torsion": [10]}, '
                   '"input": [0, 1, 5, 2], "intermediate_seifert": null, '
                   '"kind": "essential", "prime": false}')
    payload = json.loads(out)
    assert payload["case"] == 1


def test_classify_json_case_seven(capsys):
    assert main(["classify", "2", "1", "3", "2", "--json"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == ('{"canonical": "SFS(S2; (2,1),(2,1),(3,2))", "case": 7, '
                   '"h1": {"free_rank": 0, "torsion": [20]}, '
                   '"input": [2, 1, 3, 2], '
                   '"intermediate_seifert": [[2, 1], [2, 1], [3, 2]], '
                   '"kind": "essential", "prime": true}')


def test_classify_json_inessential_kind(capsys):
    assert main(["classify", "0", "2", "5", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "inessential"
    assert payload["canonical"] == "L(5,2) # RP3"


def test_classify_invalid_quadruple_exits_two(capsys):
    assert main(["classify", "2", "4", "1", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: non-coprime-pair")


def test_homeo(capsys):
    assert main(["homeo", "L(7,5)", "L(7,2)"]) == 0
    assert capsys.readouterr().out == "true\n"
    assert main(["homeo", "L(5,1)", "L(5,2)"]) == 0
    assert capsys.readouterr().out == "false\n"
    assert main(["homeo", "SFS(S2; (2,1),(3,1))", "S3"]) == 0
    assert capsys.readouterr().out == "false\n"
    assert main(["homeo", "SFS(S2; (2,1),(3,-1))", "S3"]) == 0
    assert capsys.readouterr().out == "true\n"


def test_homeo_parse_error_exits_one(capsys):
    assert main(["homeo", "L(4,2)", "S3"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "invalid-lens-parameters" in captured.err


def test_an_expression_that_starts_with_a_minus_follows_a_double_dash(capsys):
    # Without "--", the command line reads "-L(7,2)" as an option and exits 2.
    for argv in (["h1", "--", "-L(7,2)"], ["homeo", "--", "-L(7,2)", "S3"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: expected a manifold summand (at position 0)\n"


def test_h1_command(capsys):
    assert main(["h1", "L(12,5) # RP3"]) == 0
    assert capsys.readouterr().out == "Z/2 + Z/12\n"
    assert main(["h1", "S3"]) == 0
    assert capsys.readouterr().out == "0\n"
    assert main(["h1", "not a manifold"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_enumerate_bound_one(capsys):
    assert main(["enumerate", "--bound", "1"]) == 0
    out = capsys.readouterr().out
    assert out == ("S3  h1=0  count=36  e.g. (-1, -1, -1, -1)\n"
                   "RP3  h1=Z/2  count=24  e.g. (-1, -1, 0, -1)\n"
                   "S2xS1 # RP3  h1=Z + Z/2  count=4  e.g. (0, -1, 0, -1)\n")


def test_enumerate_bound_ten_output_matches_table(capsys):
    # The table is the whole stdout, 571 classes; its sha256 is the
    # benchmark's EnumerateSweep.DIGEST.  Both change together once the
    # homeomorphism relation becomes complete (ROADMAP item 1) and the
    # enumerate classes merge; the diff below names the classes that moved.
    with deadline(30.0):
        assert main(["enumerate", "--bound", "10"]) == 0
    out = capsys.readouterr().out
    table = ENUMERATE_10.read_text()
    diff = difflib.unified_diff(table.splitlines(), out.splitlines(), "table",
                                "enumerate --bound 10", n=0, lineterm="")
    assert out == table, "classes that differ:\n" + "\n".join(diff)


def test_negative_bound_is_a_usage_error(capsys):
    for argv in (["enumerate", "--bound", "-3"],
                 ["selfcheck", "--bound", "-1"],
                 ["enumerate", "--bound", "31"],
                 ["selfcheck", "--bound", "31"],
                 ["selfcheck", "--bound", "16"],
                 ["enumerate", "--bound", "\u0661"],
                 ["enumerate", "--bound", "\u0663"],
                 ["enumerate", "--bound", " 0_1 "],
                 ["enumerate", "--bound", "+2"],
                 ["enumerate", "--bound", "7" * 5000]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid bound" in captured.err


def test_bound_caps(capsys):
    parser = _build_parser()
    assert parser.parse_args(["enumerate", "--bound", "30"]).bound == 30
    assert parser.parse_args(["enumerate", "--bound", "16"]).bound == 16
    assert parser.parse_args(["selfcheck", "--bound", "15"]).bound == 15
    with pytest.raises(SystemExit) as exc:
        main(["selfcheck", "--help"])
    assert exc.value.code == 0
    assert "at most 15" in " ".join(capsys.readouterr().out.split())


# The command lines whose exit code, stdout and stderr cli_surface.txt
# records: usage errors of every kind, help, and where options end.
_SURFACE = [
    [], ["frobnicate"], ["--help"], ["-hx"], ["--json", "classify", "0", "1", "5", "2"],
    ["--", "h1", "S3"],
    *([command, "--help"] for command in ("classify", "homeo", "h1", "enumerate", "selfcheck")),
    ["classify", "0", "1", "5"], ["classify", "0", "1", "5", "2", "7"],
    ["homeo", "S3"], ["homeo", "S3", "S3", "RP3"], ["h1"], ["h1", "S3", "RP3"],
    ["enumerate", "3"], ["selfcheck", "3"],
    *(["classify", operand, "1", "5", "2"]
      for operand in ("1_0", "\u0663", "+3", " 3", "3.0", "", "-")),
    ["classify", "3", "-1", "5", "2"], ["classify", "-x", "0", "1", "5", "2"],
    ["classify", "0", "1", "5", "2", "--json=1"], ["classify", "--=1"],
    ["enumerate", "--bound", "x"], ["enumerate", "--bound", "-3"], ["enumerate", "--bound"],
    ["enumerate", "--bound", "--"], ["enumerate", "--bound", "31"],
    ["selfcheck", "--bound", "16"], ["selfcheck", "--bound=5"], ["enumerate", "--=1"],
    ["classify", "--json", "0", "1", "5", "2"], ["classify", "0", "1", "5", "2", "--js"],
    ["selfcheck", "--b", "3"], ["enumerate", "--"], ["enumerate", "--", "--bound", "3"],
    ["h1", "-L(7,2)"], ["h1", "--", "-L(7,2)"], ["h1", "-L(7,2) # RP3"], ["h1", "--=1"],
    ["h1", "S3", "--"], ["h1", "S3", "x", "--", "y"], ["homeo", "--", "-L(7,2)", "S3"],
    ["classify", "x", "1", "5", "2", "-h"], ["classify", "x", "--=1"], ["h1", "--he", "x"],
]


def _outcome(call, argv):
    """(result, stdout, stderr) of call(argv): the result is the exit code
    if it exits, and a namespace is given as its dict of fields."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call(argv)
        except SystemExit as exc:
            result = exc.code
    if not isinstance(result, int):
        result = vars(result)
    return result, out.getvalue(), err.getvalue()


def _surface(argv) -> str:
    code, out, err = _outcome(main, argv)
    return f"$ {ascii(argv)}\nexit {code}\n-- stdout\n{out}-- stderr\n{err}"


def test_command_line_surface_matches_table(monkeypatch):
    # argparse wrapped help to the terminal's width, read from COLUMNS; the
    # table holds help as argparse wrote it 80 columns wide.
    monkeypatch.setenv("COLUMNS", "80")
    out = "".join(map(_surface, _SURFACE))
    table = CLI_SURFACE.read_text()
    diff = difflib.unified_diff(table.splitlines(), out.splitlines(), "table",
                                "command line", n=1, lineterm="")
    assert out == table, "lines that differ:\n" + "\n".join(diff)


# Command-line tokens: every option, its prefixes and "=" forms, "--", "-"
# and "", negative integers in ASCII and other digits, expressions with and
# without a leading "-", and nonnegative integers only up to 3, so that a
# --bound keeps each run short.
_TOKEN = st.one_of(
    st.sampled_from(["--json", "--js", "--j", "--json=", "--json=1", "--bound", "--b",
                     "--bou", "--bound=", "--bound=2", "--b=3", "--bound=-1", "--help",
                     "--he", "--h", "--help=x", "-h", "-hh", "-hx", "-h=h", "-h=", "--=1",
                     "--", "-", "", "---", "-x", "-j"]),
    st.integers(0, 3).map(str),
    st.integers(-10**6, -1).map(str),
    st.sampled_from(["-\u0663", "\u0663", "-1.5", "-.5", "1_0", "+2", "-0"]),
    st.sampled_from(["S3", "L(7,2)", "-L(7,2)", "-L(7,2) # RP3", "RP3 # S2xS1", "-S3",
                     "SFS(S2; (2,1),(3,1))", "L(4,2)"]))
_ARGV = st.builds(lambda before, command, after: before + command + after,
                  st.lists(_TOKEN, max_size=1),
                  st.sampled_from([["classify"], ["homeo"], ["h1"], ["enumerate"],
                                   ["selfcheck"], ["frob"], []]),
                  st.lists(_TOKEN, max_size=7))


@settings(max_examples=400, deadline=None)
@given(_ARGV)
@example(["classify", "1", "--", "2", "3", "4"])
@example(["enumerate", "--bound", "3", "--"])
@example(["homeo", "S3", "--json", "--", "-L(7,2)"])
@example(["classify", "1", "--", "2", "--", "3"])
@example(["homeo", "--", "S3", "--"])
def test_reader_decides_as_argparse_and_every_command_line_exits_cleanly(argv):
    # The reader gives argparse's namespace, exit code, help and messages,
    # but for one case: argparse also drops a second "--" that makes up a
    # whole operand, and hands the command an empty list in its place (a
    # TypeError traceback from classify and homeo).  The reader reads it as
    # the operand "--".
    if argv.count("--") < 2:
        assert _outcome(_build_parser().parse_args, argv) == _outcome(
            argparse_command_line().parse_args, argv)
    # The whole command exits 0, 1, 2 or 3; an uncaught exception fails
    # the test with its traceback.  A usage error writes nothing to stdout.
    with deadline(10.0):
        code, out, err = _outcome(main, argv)
    assert code in (0, 1, 2, 3), (code, err)
    if code == 2:
        assert out == ""
        assert err.startswith("usage: nmsflow") or (
            err.startswith("error: ") and err.count("\n") == 1), err


# Plain command lines: a command, its number of operands and its options
# spelled in full, in any order and possibly repeated.  Operands are
# integers, ASCII negatives among them, or texts that do not start with
# "-"; a --bound value is in range.
_WORD = st.one_of(st.integers(-10**40, 10**40).map(str),
                  st.sampled_from(["S3", "L(7,2)", "RP3 # S2xS1", "SFS(S2; (2,1),(3,1))",
                                   "L(4,2)", "not a manifold", "classify", "x -y", ""]),
                  st.text().filter(lambda text: not text.startswith("-")))
_NUMBER = st.one_of(st.integers(-10**6, 10**6), st.integers(-10**60, 10**60)).map(str)


@st.composite
def _plain_argv(draw):
    command = draw(st.sampled_from(["classify", "homeo", "h1", "enumerate", "selfcheck"]))
    count = {"classify": 4, "homeo": 2, "h1": 1}.get(command, 0)
    items = [[word] for word in draw(st.lists(
        _NUMBER if command == "classify" else _WORD, min_size=count, max_size=count))]
    if command == "classify":
        items += [["--json"]] * draw(st.integers(0, 3))
    elif command in ("enumerate", "selfcheck"):
        cap = 30 if command == "enumerate" else 15
        items += [["--bound", str(value)]
                  for value in draw(st.lists(st.integers(0, cap), max_size=3))]
    return [command] + [word for item in draw(st.permutations(items)) for word in item]


@settings(max_examples=300, deadline=None)
@given(_plain_argv())
@example(["classify", "--json", "-3", "0", "--json", "-1", "5"])
@example(["h1", "-7"])
@example(["enumerate", "--bound", "3", "--bound", "0"])
def test_plain_command_lines_are_read_without_argparse(argv):
    # The reader answers a plain command line itself, with argparse's
    # namespace; argparse cannot be imported, so a fallback would raise.
    expected = vars(argparse_command_line().parse_args(argv))
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, "argparse", None)
        assert vars(_build_parser().parse_args(argv)) == expected


def test_selfcheck_command(capsys):
    assert main(["selfcheck", "--bound", "3"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    passed = [line.split()[1] for line in out.splitlines()
              if line.startswith("PASS ")]
    assert passed == ["case-partition", "h1-case-formulas",
                      "h1-on-homeo-classes", "case7-obstructions",
                      "framing-involution", "seifert-normal-forms",
                      "render-parse-roundtrip"]
    assert out.splitlines()[-1] == "selfcheck: all 7 hard checks passed"


def test_answers_past_the_digit_limit_print_in_full(capsys):
    # Python's int-to-str limit (4,300 digits) bounds each input integer,
    # but not the answer: here case 4 gives p = A + 2B, with 4,301 digits,
    # and h1 of the Seifert space has 5,003.  Both print in full, and the
    # limit still rejects a 4,301-digit input.
    limit = sys.get_int_max_str_digits()
    a, b = "9" * 4300, "9" * 4299 + "8"
    p = "2" + "9" * 4299 + "5"
    assert main(["classify", "1", "0", "-" + a, b]) == 0
    assert capsys.readouterr().out == (
        f"case 4: L({p},{b})\nh1: Z/{p}\nprime: true\n")
    assert main(["classify", "1", "0", "-" + a, b, "--json"]) == 0
    assert capsys.readouterr().out == (
        f'{{"canonical": "L({p},{b})", "case": 4, '
        f'"h1": {{"free_rank": 0, "torsion": [{p}]}}, '
        f'"input": [1, 0, -{a}, {b}], '
        '"intermediate_seifert": null, '
        f'"kind": "essential", "prime": true}}\n')
    big = "1" + "0" * 2501  # 10^2501; the order is 10^5002 + 17 10^2501 + 21
    assert main(["h1", f"SFS(S2; ({big},1),({big[:-1]}3,1),(7,1))"]) == 0
    assert capsys.readouterr().out == (
        "Z/1" + "0" * 2499 + "17" + "0" * 2499 + "21\n")
    assert sys.get_int_max_str_digits() == limit
    with pytest.raises(SystemExit) as exc:
        main(["classify", "1", "0", "-" + a + "9", b])
    assert exc.value.code == 2
    assert "integer of 4301 digits is too long" in capsys.readouterr().err
    assert main(["h1", f"L({a}9,1)"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_classify_json_is_the_text_of_json_dumps_on_every_golden_row(capsys):
    rows = [line.split("\t")[0].split() for line in GOLDEN.read_text().splitlines()
            if line and not line.startswith("#")]
    assert len(rows) >= 40
    for quad in rows:
        assert main(["classify", *quad, "--json"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n", quad


@contextlib.contextmanager
def _no_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _digits(seed: int, n: int) -> str:
    """n random decimal digits, the first nonzero."""
    rng = random.Random(seed)
    return str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=n - 1))


# Operands from one digit to past the 4,300-digit limit, either sign,
# written out as the command line gets them.
_OPERAND = st.builds(
    lambda negative, digits: "-" * negative + digits,
    st.booleans(),
    st.one_of(st.integers(0, 30).map(str),
              st.integers(0, 10**12).map(str),
              st.builds(_digits, st.integers(0, 2**32), st.integers(4290, 4310)),
              st.sampled_from(["9" * 4300, "9" * 4299 + "8", "9" * 4301, "1" + "0" * 4300])))
_ANSWER = re.compile(r"case [1-7]: (?P<canonical>.+)\nh1: .+\nprime: (true|false)\n"
                     r"(intermediate seifert: .+\n)?")


def _canonical_parses_back(text: str) -> None:
    with _no_digit_limit():
        assert str(parse_manifold(text)) == text


@settings(max_examples=60, deadline=None)
@given(st.lists(_OPERAND, min_size=4, max_size=4), st.booleans())
@example(["1", "0", "-" + "9" * 4300, "9" * 4299 + "8"], False)
@example(["1", "0", "-" + "9" * 4300, "9" * 4299 + "8"], True)
def test_classify_answers_or_reports_every_operand_list(operands, as_json):
    # Each call exits 0 with an answer, or 2 with a usage or error line;
    # an uncaught exception fails the test with its traceback.
    argv = ["classify", *operands] + ["--json"] * as_json
    out, err = io.StringIO(), io.StringIO()
    with deadline(10.0), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2), (code, err)
    if code == 2:
        assert out == ""
        assert err.startswith("usage: nmsflow classify") or (
            err.startswith("error: ") and err.count("\n") == 1), err
        return
    assert err == ""
    if as_json:
        with _no_digit_limit():
            payload = json.loads(out)
            assert payload["input"] == [int(v) for v in operands]
        _canonical_parses_back(payload["canonical"])
    else:
        answer = _ANSWER.fullmatch(out)
        assert answer is not None, out[:200]
        _canonical_parses_back(answer["canonical"])


# h1 and homeo on generated expressions: 1 to 6 summands, integers from one
# digit to past the 4,300-digit limit (at most two longer than 12 digits
# per expression), and sometimes one character inserted, deleted or
# replaced: grammar characters, whitespace, an Arabic-Indic digit, a
# superscript two and an em space.
_EDIT_CHARS = "()#,;-0123456789LSFRPx \t\n\u0663\u00b2\u2003"
_GROUP = re.compile(r"(0|(Z(\^[0-9]+)?|Z/[0-9]+)( \+ Z/[0-9]+)*)\n")
_ERROR = re.compile(r"error: [^\n]* \(at position [0-9]+\)\n")


def _coprime(fixed: int, value: int) -> int:
    """The least v >= value with gcd(fixed, v) = 1; fixed is nonzero."""
    while math.gcd(fixed, value) != 1:
        value += 1
    return value


def _decimal(value: int) -> str:
    with _no_digit_limit():
        return str(value)


@st.composite
def _expression(draw, max_fibers, fiber_budget):
    """An expression text; its Seifert summands hold at most `max_fibers`
    fibers each and `fiber_budget` in all."""
    long_left = 2

    def integer() -> int:
        nonlocal long_left
        if long_left and draw(st.integers(0, 9)) == 0:
            long_left -= 1
            n = draw(st.one_of(st.integers(13, 40), st.integers(4290, 4305)))
            value = random.Random(draw(st.integers(0, 2**32))).randrange(10**(n - 1), 10**n)
            return -value if draw(st.booleans()) else value
        return draw(st.integers(-10**12 + 1, 10**12 - 1))

    summands = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("S3", "S2xS1", "RP3", "L", "SFS")))
        if kind == "L":
            p = integer()
            q = draw(st.sampled_from((-1, 1))) if p == 0 else _coprime(p, integer())
            summands.append(f"L({_decimal(p)},{_decimal(q)})")
        elif kind == "SFS" and fiber_budget:
            fibers = []
            for _ in range(draw(st.integers(1, min(max_fibers, fiber_budget)))):
                alpha = abs(integer()) or 1
                fibers.append(f"({_decimal(alpha)},{_decimal(_coprime(alpha, integer()))})")
            fiber_budget -= len(fibers)
            summands.append(f"SFS(S2; {','.join(fibers)})")
        else:
            summands.append(kind if kind != "SFS" else "S3")
    text = " # ".join(summands)
    edit = draw(st.sampled_from(("none", "none", "insert", "delete", "replace")))
    if edit != "none":
        at = draw(st.integers(0, len(text) - (edit != "insert")))
        char = "" if edit == "delete" else draw(st.sampled_from(_EDIT_CHARS))
        text = text[:at] + char + text[at + (edit != "insert"):]
    return text


def _sfs(fibers) -> str:
    return "SFS(S2; " + ",".join(f"({_decimal(a)},{b})" for a, b in fibers) + ")"


_TWENTY = [(alpha, 1) for alpha in range(2, 22)]
_TWENTY_REWRITE = _TWENTY[::-1]
_TWENTY_REWRITE[4] = (_TWENTY_REWRITE[4][0], _TWENTY_REWRITE[4][1] + _TWENTY_REWRITE[4][0])
_TWENTY_REWRITE += [(1, -1), (1, 0)]
_BIG_A = 10**2501  # 2,502 digits, as is _BIG_A + 3


@settings(max_examples=80, deadline=None)
@given(st.one_of(
    st.builds(lambda e: ["h1", e], _expression(40, 240)),
    # At most 12 fibers per side, so at most 12 fiber classes and 2^12
    # flip vectors per key, which the key covers in halves of at most 160.
    st.builds(lambda a, b: ["homeo", a, b], _expression(12, 12), _expression(12, 12))))
@example(["h1", _sfs([(_BIG_A, 1), (_BIG_A + 3, 1), (7, 1)])])
@example(["homeo", _sfs(_TWENTY), _sfs(_TWENTY_REWRITE)])
def test_h1_and_homeo_answer_or_report_every_expression(argv):
    # Exit 0 with one answer line, or 1 with one located error line; an
    # uncaught exception fails the test with its traceback.  The command
    # line reads an argument that starts with "-" as an option: that is
    # exit 2 with usage, before any expression is read.
    out, err = io.StringIO(), io.StringIO()
    with deadline(10.0), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    if code == 2 and any(arg.startswith("-") for arg in argv[1:]):
        assert out == "" and err.startswith(f"usage: nmsflow {argv[0]}"), err
        return
    assert code in (0, 1), (code, err)
    if code == 1:
        assert out == ""
        assert _ERROR.fullmatch(err), err[:300]
        return
    assert err == ""
    if argv[0] == "h1":
        assert _GROUP.fullmatch(out), out[:300]
    else:
        assert out in ("true\n", "false\n")


# The key searches at most 2^32 flip vectors, the product of (n + 1) over
# its classes of n fibers: 32 classes of one fiber each are at the cap, and
# 33 of them, or 17 classes of three fibers (4^17 = 2^34), are past it.
_AT_CAP = [(alpha, 1) for alpha in range(3, 35)]
_PAST_CAP = [[(alpha, 1) for alpha in range(3, 36)], [(alpha, 1) for alpha in range(3, 20)] * 3]


def test_homeo_at_the_key_cap_answers(capsys):
    # The rewrite reverses the fibers and shifts one beta by its alpha,
    # with a compensating (1, -1).  It is the same value, which homeo
    # cancels without keying, so the key is timed on its own as well.
    rewrite = _AT_CAP[::-1]
    rewrite[4] = (rewrite[4][0], rewrite[4][1] + rewrite[4][0])
    left, right = _sfs(_AT_CAP), _sfs(rewrite + [(1, -1)])
    with deadline(2.0):
        assert (homeomorphism_key(parse_manifold(left))
                == homeomorphism_key(parse_manifold(right)))
    with deadline(2.0):
        assert main(["homeo", left, right]) == 0
    assert capsys.readouterr().out == "true\n"


@pytest.mark.parametrize("fibers", _PAST_CAP, ids=["33x1", "17x3"])
def test_homeo_past_the_key_cap_exits_one_before_any_search(fibers, capsys, monkeypatch):
    def search(*halves):
        raise AssertionError("the key started its search")

    monkeypatch.setattr(seifert, "product", search)
    # Equal values cancel whole, so they answer without a key.
    with deadline(1.0):
        assert main(["homeo", _sfs(fibers), _sfs(fibers)]) == 0
    assert capsys.readouterr().out == "true\n"
    # (3, 1) -> (3, 2) stays in its class of fibers, so the other operand
    # is past the cap too, and it is another value.
    other = [(3, 2)] + fibers[1:]
    assert fibers[0] == (3, 1) and parse_manifold(_sfs(other)) != parse_manifold(_sfs(fibers))
    with deadline(1.0):
        assert main(["homeo", _sfs(fibers), _sfs(other)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "at most 2^32 flip vectors" in captured.err
    assert main(["h1", _sfs(fibers)]) == 0
    assert _GROUP.fullmatch(capsys.readouterr().out)
