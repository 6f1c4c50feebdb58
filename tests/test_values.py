"""Value semantics of the package's eleven value classes.

Each is a slotted subclass of manifolds.Value: equal fields give equal
values with the hash of the field tuple, fields are read-only, values of
different classes never compare equal, and the repr names every field.
"""

import copy
import pickle

import pytest

from nmsflow import seifert
from nmsflow.classifier import (
    FlowInvariant,
    classify_quadruple,
    enumerate_invariants,
)
from nmsflow.homology import AbelianGroup
from nmsflow.manifolds import (
    ConnectedSum,
    InvalidLensParameters,
    Lens,
    RP3,
    S2xS1,
    SeifertOverS2,
    Sphere,
    Value,
)
from nmsflow.surgery import Framing

# (make, fields, repr): `make` builds a fresh value whose fields, in
# constructor order, are `fields`.
CASES = [
    (Sphere, (), "Sphere()"),
    (S2xS1, (), "S2xS1()"),
    (RP3, (), "RP3()"),
    (lambda: Lens(-7, 12), (7, 2), "Lens(p=7, q=2)"),
    (lambda: SeifertOverS2([(5, -9), (3, 1), (2, 1)]),
     (((1, -2), (2, 1), (3, 1), (5, 1)),),
     "SeifertOverS2(fibers=((1, -2), (2, 1), (3, 1), (5, 1)))"),
    (lambda: ConnectedSum([RP3(), Lens(5, 3)]), ((Lens(5, 2), RP3()),),
     "ConnectedSum(summands=(Lens(p=5, q=2), RP3()))"),
    (lambda: AbelianGroup(2, [2, 4]), (2, (2, 4)),
     "AbelianGroup(free_rank=2, torsion=(2, 4))"),
    (lambda: Framing(-1, 0), (-1, 0), "Framing(beta=-1, alpha=0)"),
    (lambda: FlowInvariant(2, 1, 3, 2), (2, 1, 3, 2),
     "FlowInvariant(l1=2, m1=1, l2=3, m2=2)"),
    (lambda: classify_quadruple(0, 1, 5, 2),
     (FlowInvariant(0, 1, 5, 2), 1, ConnectedSum([Lens(5, 2), RP3()]), None),
     "ClassificationResult(invariant=FlowInvariant(l1=0, m1=1, l2=5, m2=2), "
     "case=1, manifold=ConnectedSum(summands=(Lens(p=5, q=2), RP3())), "
     "intermediate_seifert=None)"),
    (lambda: enumerate_invariants(1)[1], (RP3(), 24, (-1, -1, 0, -1), frozenset({RP3()})),
     "EnumeratedClass(representative=RP3(), count=24, example=(-1, -1, 0, -1), "
     "values=frozenset({RP3()}))"),
    (lambda: FlowInvariant(0, 2, 5, 2), (0, 2, 5, 2),
     "FlowInvariant(l1=0, m1=2, l2=5, m2=2)"),
    (lambda: classify_quadruple(2, 1, 3, 2),
     (FlowInvariant(2, 1, 3, 2), 7, SeifertOverS2([(2, 1), (2, 1), (3, 2)]),
      ((2, 1), (2, 1), (3, 2))),
     "ClassificationResult(invariant=FlowInvariant(l1=2, m1=1, l2=3, m2=2), "
     "case=7, manifold=SeifertOverS2(fibers=((2, 1), (2, 1), (3, 2))), "
     "intermediate_seifert=((2, 1), (2, 1), (3, 2)))"),
]
NAMES = [repr(make()).split("(")[0] for make, _, _ in CASES]
# A class's first row is named after it; a further row adds its ordinal.
IDS = [name + (f"-{NAMES[:i].count(name) + 1}" if name in NAMES[:i] else "")
       for i, name in enumerate(NAMES)]


def test_every_value_class_is_covered():
    assert set(NAMES) == {
        "Sphere", "S2xS1", "RP3", "Lens", "SeifertOverS2",
        "ConnectedSum", "AbelianGroup", "Framing", "FlowInvariant",
        "ClassificationResult", "EnumeratedClass"}


@pytest.mark.parametrize("make, fields, text", CASES, ids=IDS)
def test_equal_fields_give_equal_values_and_the_field_tuple_hash(make, fields, text):
    a, b = make(), make()
    assert isinstance(a, Value)
    assert a is not b and a == b and not a != b
    assert tuple(getattr(a, f) for f in type(a).__slots__) == fields
    assert hash(a) == hash(b) == hash(fields)
    assert type(a)(*fields) == a
    assert repr(a) == text


@pytest.mark.parametrize("make, fields, text", CASES, ids=IDS)
def test_fields_are_read_only(make, fields, text):
    value = make()
    for name in type(value).__slots__ or ("anything",):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, f) for f in type(value).__slots__) == fields


@pytest.mark.parametrize("make, fields, text", CASES, ids=IDS)
def test_copy_and_pickle_rebuild_an_equal_value(make, fields, text):
    value = make()
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_hash_is_that_of_the_field_tuple():
    assert hash(Lens(7, 2)) == hash((7, 2))
    assert hash(Sphere()) == hash(())


def test_same_fields_in_other_classes_are_not_equal():
    assert Sphere() != S2xS1() != RP3() != Sphere()
    assert Lens(7, 2) != Framing(7, 2)
    assert Lens(7, 2) != (7, 2)
    assert len({Sphere(), S2xS1(), RP3(), Sphere()}) == 3


def test_constructors_raise_on_invalid_input():
    with pytest.raises(InvalidLensParameters):
        Lens(2, 1)
    with pytest.raises(InvalidLensParameters):
        Lens(6, 4)
    with pytest.raises(seifert.InvalidFiber):
        SeifertOverS2([])
    with pytest.raises(seifert.InvalidFiber):
        SeifertOverS2([(1, 3), (1, -3)])
    with pytest.raises(ValueError):
        ConnectedSum([RP3()])
    with pytest.raises(ValueError):
        ConnectedSum([Sphere(), RP3()])
    with pytest.raises(TypeError):
        ConnectedSum([RP3(), "RP3"])
    with pytest.raises(ValueError):
        AbelianGroup(-1)
    with pytest.raises(ValueError):
        AbelianGroup(0, (2, 3))


def test_keywords_name_the_fields():
    assert Lens(p=7, q=5) == Lens(7, 2)
    assert AbelianGroup(free_rank=1) == AbelianGroup(1, ())
    assert Framing(beta=3, alpha=1) == Framing(3, 1)
