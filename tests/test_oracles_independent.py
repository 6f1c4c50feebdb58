"""The oracles of tests/oracles.py reach nmsflow through public names only.

An oracle that imports a private helper of the package shares its code
with the route it is meant to check, and stops being independent.  The
source is read with ast, so nothing is imported.
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"


def test_oracles_import_no_private_name_from_nmsflow():
    private = [f"{node.module}.{alias.name}"
               for node in ast.walk(ast.parse(ORACLES.read_text()))
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "nmsflow"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
