"""What importing the CLI loads, in a fresh interpreter.

Start-up is most of the time of one `nmsflow classify`.  The set-up, and
every plain command line but selfcheck, adds to a bare `python -S`
interpreter only the package, __future__, math and itertools.  So the
package keeps dataclasses and typing out of its imports, and with them
inspect and ast, which dataclasses imports.  It compiles no regular
expression, so re stays out, with the enum and functools modules that re
loads.  Its annotations name builtin types only, not collections.abc,
selfcheck imports collections.Counter inside the tally and the CLI builds
its own namespace, so collections and types stay out too; an entry point
that loads them first (runpy under -m, or a console script that imports
re) gains nothing from those three.  It imports fractions only inside
seifert.euler_number, so fractions and the decimal and numbers modules it
imports stay out of the set-up.  It never imports json, not even for
classify --json, which writes its object from a fixed template.  random,
with the bisect module it imports, is imported only by the seeded
selfcheck check.  Nor does a plain command line import argparse, with the
gettext and locale modules it loads and the shutil module that a parser
with the default help layout loads (and through it bz2, lzma and zlib):
the CLI reads it from a table of the commands, and builds an argparse
parser only for help, usage errors and other command lines.  It also
imports every module whose functions perfbench/tracing.py traces, since
the tracer looks each one up in sys.modules and a lazily imported module
would be missing there.  The interpreter runs under -S and builds the
parser, as the benchmark's set-up command does, or runs the entry point.
"""

import os
import subprocess
import sys
from pathlib import Path

from test_traced_names import _traced

SRC = Path(__file__).resolve().parent.parent / "src"
UNWANTED = {"dataclasses", "typing", "inspect", "ast",
            "fractions", "decimal", "numbers", "json", "random", "bisect",
            "argparse", "gettext", "locale", "shutil",
            "re", "enum", "collections", "functools", "types"}
# All that the set-up and a plain command line but selfcheck may add to a
# bare interpreter, besides the package itself.
ALLOWED = {"__future__", "math", "itertools"}


def _env() -> dict[str, str]:
    """This environment, with the checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _modules_after(statement: str, imports: str = "nmsflow.cli as c, ") -> set[str]:
    """The modules loaded once `statement` has run in a fresh interpreter,
    with `imports` imported, nmsflow.cli as c by default.  They are listed
    on stderr, since the statement may print to stdout."""
    code = (f"import {imports}sys; {statement}; "
            "print('\\n'.join(sys.modules), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=_env(), check=True,
                          capture_output=True, text=True, timeout=60)
    return set(proc.stderr.split())


def test_cli_setup_imports_no_dataclasses_or_typing_and_every_traced_module():
    loaded = _modules_after("c._build_parser()")
    assert "nmsflow.cli" in loaded
    assert not loaded & UNWANTED, sorted(loaded & UNWANTED)
    traced = {f"nmsflow.{module}" for module, _ in _traced()}
    assert traced <= loaded, sorted(traced - loaded)


def test_setup_and_plain_command_lines_add_only_the_package_math_and_itertools():
    bare = _modules_after("pass", imports="")
    for statement in (
            "c._build_parser()",
            'c.main(["classify", "-1", "0", "7", "2", "--json"])',
            'c.main(["h1", "L(12,5) # RP3"])',
            'c.main(["homeo", "L(7,5)", "L(7,2)"])',
            'c.main(["homeo", "SFS(S2; (2,1),(3,1),(5,-2))", "SFS(S2; (2,1),(3,2),(5,2))"])',
            'c.main(["enumerate", "--bound", "2"])'):
        added = {name for name in _modules_after(statement) - bare
                 if name != "nmsflow" and not name.startswith("nmsflow.")}
        assert added <= ALLOWED, (statement, sorted(added - ALLOWED))


def test_classify_json_imports_no_json():
    loaded = _modules_after('c.main(["classify", "2", "1", "3", "2", "--json"])')
    assert "nmsflow.cli" in loaded
    assert "json" not in loaded


def _entry_point(*argv: str) -> subprocess.CompletedProcess:
    """`python -S -m nmsflow.cli *argv` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-S", "-m", "nmsflow.cli", *argv], env=_env(),
                          capture_output=True, text=True, timeout=60)


def test_entry_point_reads_sys_argv_and_exits_with_the_code_of_main():
    proc = _entry_point("classify", "0", "1", "5", "2")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "case 1: L(5,2) # RP3\nh1: Z/10\nprime: false\n", "")
    proc = _entry_point("enumerate", "--bound", "31")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("usage: nmsflow enumerate"), proc.stderr
    proc = _entry_point("--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: nmsflow"), proc.stdout


def _imports(*argv: str) -> set[str]:
    """The modules that `python -S -m nmsflow.cli *argv` imports, as
    -X importtime lists them on stderr; the run must exit 0."""
    proc = subprocess.run([sys.executable, "-S", "-X", "importtime", "-m", "nmsflow.cli",
                           *argv], env=_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-500:]
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def test_plain_command_lines_import_no_argparse():
    argparse_and_its_imports = {"argparse", "gettext", "locale", "shutil"}
    for argv in (["classify", "-1", "0", "7", "2", "--json"], ["homeo", "L(7,5)", "L(7,2)"],
                 ["h1", "L(12,5) # RP3"], ["enumerate", "--bound", "2"],
                 ["selfcheck", "--bound", "1"]):
        loaded = _imports(*argv)
        assert "nmsflow.classifier" in loaded, argv
        assert not loaded & argparse_and_its_imports, (argv, sorted(loaded))
    # Help is not plain: argparse writes it, and the listing shows it.
    assert "argparse" in _imports("h1", "--help")
