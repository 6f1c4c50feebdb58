"""What importing the CLI loads, in a fresh interpreter.

Start-up is most of the time of one `nmsflow classify`.  The package keeps
dataclasses and typing out of its imports, and with them inspect and ast,
which dataclasses imports.  It imports fractions only inside
seifert.euler_number, so fractions and the decimal and numbers modules it
imports stay out of the set-up.  It never imports json, not even for
classify --json, which writes its object from a fixed template.  random,
with the bisect module it imports, is imported only by the seeded
selfcheck check.  It also imports every module whose
functions perfbench/tracing.py traces, since the tracer looks each one up
in sys.modules and a lazily imported module would be missing there.  The
interpreter runs under -S and builds the parser, as the benchmark's set-up
command does.
"""

import os
import subprocess
import sys
from pathlib import Path

from test_traced_names import _traced

SRC = Path(__file__).resolve().parent.parent / "src"
UNWANTED = {"dataclasses", "typing", "inspect", "ast",
            "fractions", "decimal", "numbers", "json", "random", "bisect"}


def _modules_after(statement: str) -> set[str]:
    """The modules loaded once `statement` has run in a fresh interpreter,
    with nmsflow.cli imported as c.  They are listed on stderr, since the
    statement may print to stdout."""
    code = (f"import sys, nmsflow.cli as c; {statement}; "
            "print('\\n'.join(sys.modules), file=sys.stderr)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    return set(proc.stderr.split())


def test_cli_setup_imports_no_dataclasses_or_typing_and_every_traced_module():
    loaded = _modules_after("c._build_parser()")
    assert "nmsflow.cli" in loaded
    assert not loaded & UNWANTED, sorted(loaded & UNWANTED)
    traced = {f"nmsflow.{module}" for module, _ in _traced()}
    assert traced <= loaded, sorted(traced - loaded)


def test_classify_json_imports_no_json():
    loaded = _modules_after('c.main(["classify", "2", "1", "3", "2", "--json"])')
    assert "nmsflow.cli" in loaded
    assert "json" not in loaded
