"""The annotations of seifert, manifolds and homology resolve.

Those modules annotate with builtin types and the package's own names,
importing neither typing nor collections.abc.  Under
`from __future__ import annotations` an annotation is a string that
nothing evaluates at import, so a name left undefined in one would go
unnoticed; typing.get_type_hints evaluates each.
"""

import inspect
import typing

from nmsflow import homology, manifolds, seifert


def _annotated():
    """(name, function) for every public function of the three modules,
    and every constructor and public method of their public classes."""
    for module in (seifert, manifolds, homology):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and (
                            attr == "__init__" or not attr.startswith("_")):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_annotations_of_public_functions_and_constructors_resolve():
    functions = dict(_annotated())
    for must in ("nmsflow.seifert.normalize", "nmsflow.manifolds.sum_normalize",
                 "nmsflow.manifolds.ConnectedSum.__init__",
                 "nmsflow.homology.AbelianGroup.__init__",
                 "nmsflow.homology.smith_normal_form"):
        assert must in functions, must
    unresolved = []
    for name, function in functions.items():
        try:
            typing.get_type_hints(function)
        except NameError as exc:
            unresolved.append(f"{name}: {exc}")
    assert unresolved == []
    assert typing.get_type_hints(seifert.normalize) == {
        "fibers": seifert.Fibers, "return": seifert.SeifertData}
