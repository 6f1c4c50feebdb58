"""Values stored without their constructors' checks come from two places.

manifolds.Value's docstring names them: manifolds._seifert, which stores
Seifert normal forms that its callers have just computed, and
manifolds.sum_normalize, which stores the sorted summands it has just
checked.  The sources are read with ast, so nothing is imported; a place
is module.function, module.Class.method, or module.NAME for a top-level
assignment.
"""

import ast

from test_public_names import PACKAGE


def _places(matches) -> set[str]:
    """The places in the package whose code holds a node that matches."""
    found = set()

    def visit(node, where):
        if matches(node):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
            elif isinstance(node, ast.Module) and isinstance(child, ast.Assign):
                visit(child, f"{where}.{ast.unparse(child.targets[0])}")
            else:
                visit(child, where)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def _named(name):
    return lambda node: ((isinstance(node, ast.Name) and node.id == name)
                         or (isinstance(node, ast.Attribute) and node.attr == name))


def test_only_the_two_unchecked_stores_call_new():
    assert _places(_named("__new__")) == {"manifolds._seifert",
                                          "manifolds.sum_normalize"}


def test_seifert_has_only_the_callers_its_docstring_names():
    assert _places(_named("_seifert")) == {"classifier._CASES",
                                           "manifolds.homeomorphism_key",
                                           "manifolds.seifert_over_s2"}
