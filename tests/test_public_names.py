"""Every public top-level def and class of nmsflow has a use.

A public name (no leading underscore) must be referenced by a name, an
attribute or an import in package code outside its own body, or be one
that perfbench/tracing.py traces (TRACED), which reaches it by name.  The
sources are read with ast, so nothing is imported.

A field or a parameter may share a public function's name, so neither
counts as a use of it: an attribute counts only when it is read off a
package module's name (`seifert.normalize`, not `res.normalize`), and a
name does not count where a parameter of an enclosing function or lambda
shadows it.
"""

import ast
from pathlib import Path

from test_traced_names import _traced

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nmsflow"
MODULES = frozenset(path.stem for path in PACKAGE.glob("*.py"))


def _parameters(args):
    return {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                            args.vararg, args.kwarg) if a is not None}


def _references(node, shadowed=frozenset()):
    if isinstance(node, ast.Name):
        if node.id not in shadowed:
            yield node.id
        return
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in MODULES):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name
    body_scope = shadowed
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        # defaults, decorators and annotations are read outside the body
        body_scope = shadowed | _parameters(node.args)
    for field, value in ast.iter_fields(node):
        scope = body_scope if field == "body" else shadowed
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield from _references(child, scope)


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


def test_a_field_or_a_parameter_of_the_same_name_is_no_use():
    tree = ast.parse("from . import seifert\n"
                     "def f(normalize, key=check):\n"
                     "    return res.h1, normalize, seifert.euler_number,"
                     " lambda cokernel: cokernel\n")
    assert set(_references(tree)) == {"seifert", "check", "res", "euler_number"}
