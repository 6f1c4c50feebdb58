"""Every public top-level def and class of nmsflow has a use.

A public name (no leading underscore) must be referenced by a name, an
attribute or an import in package code outside its own body, or be one
that perfbench/tracing.py traces (TRACED), which reaches it by name.  The
sources are read with ast, so nothing is imported.
"""

import ast
from pathlib import Path

from test_traced_names import _traced

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nmsflow"


def _references(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def test_every_public_name_is_used_in_the_package():
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))}
    references = {module: set(_references(tree)) for module, tree in modules.items()}
    traced = set(_traced())
    unused = []
    for module, tree in modules.items():
        elsewhere = set().union(*(refs for other, refs in references.items()
                                  if other != module))
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or (module, node.name) in traced
                    or node.name in elsewhere):
                continue
            if not any(node.name in _references(stmt)
                       for stmt in tree.body if stmt is not node):
                unused.append(f"{module}.{node.name}")
    assert unused == []
