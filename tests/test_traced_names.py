"""Every (module, function) that perfbench/tracing.py traces exists.

The benchmark's tracer patches these names by reading TRACED; a refactor
that deletes or renames one would break `perfbench/run.py --trace 1`.
TRACED is read from the source with ast, so perfbench is not imported.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TRACED":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {TRACING}")


def test_traced_names_resolve_to_callables():
    traced = _traced()
    assert traced
    for module, name in traced:
        function = getattr(importlib.import_module(f"nmsflow.{module}"), name, None)
        assert callable(function), f"nmsflow.{module}.{name}"
