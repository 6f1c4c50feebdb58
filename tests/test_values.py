"""Value semantics of the package's eleven value classes.

Each is a slotted subclass of manifolds.Value: equal fields give equal
values with the hash of the field tuple, fields are read-only, values of
different classes never compare equal, and the repr names every field.
Value states that rule once, and the classes that write it out by hand
agree with it.  The values that manifolds._seifert and
manifolds.sum_normalize store unchecked equal their rebuilds through the
public, checking constructors.
"""

import copy
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from nmsflow import seifert
from nmsflow.classifier import (
    ClassificationResult,
    EnumeratedClass,
    FlowInvariant,
    classify_quadruple,
    enumerate_invariants,
)
from nmsflow.homology import AbelianGroup, h1
from nmsflow.manifolds import (
    ConnectedSum,
    InvalidLensParameters,
    Lens,
    RP3,
    S2xS1,
    SeifertOverS2,
    Sphere,
    Value,
    homeomorphism_key,
    seifert_over_s2,
    sum_normalize,
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


@pytest.mark.parametrize("make, fields, text", CASES, ids=IDS)
def test_every_class_follows_the_one_rule_of_value(make, fields, text):
    # Five classes write Value's __eq__ and __hash__ out by hand; each must
    # give what Value's own would, NotImplemented against another class.
    v, w = make(), make()
    other = RP3() if isinstance(v, Lens) else Lens(7, 2)
    assert hash(v) == Value.__hash__(v)
    assert (v == w) is Value.__eq__(v, w) is True
    assert v.__eq__(other) is Value.__eq__(v, other) is NotImplemented
    assert (v == other) is False


def test_only_the_busy_classes_write_the_rule_out():
    own = {c.__name__ for make, _, _ in CASES for c in type(make()).__mro__
           if c is not object and "__eq__" in c.__dict__}
    assert own == {"Value", "_Atom", "Lens", "SeifertOverS2", "ConnectedSum",
                   "AbelianGroup"}
    for cls in (FlowInvariant, ClassificationResult, EnumeratedClass, Framing):
        assert "__eq__" not in cls.__dict__ and "__hash__" not in cls.__dict__, cls


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


# Fast paths: values stored by manifolds._seifert and
# manifolds.sum_normalize without their constructors' checks.  h1 builds
# its group through AbelianGroup, which checks it.

_BIG = 10**12


@st.composite
def _side(draw, role, side):
    """An admissible (l, m) of role min(|l|, 2) on side 1 or 2."""
    sign = draw(st.sampled_from((-1, 1)))
    if role == 0:
        return (0, 2) if side == 1 and draw(st.booleans()) else (0, sign)
    if role == 1:
        return (sign, draw(st.integers(-_BIG, _BIG)))
    l = sign * draw(st.integers(2, _BIG))
    return (l, draw(st.integers(-_BIG, _BIG).filter(lambda m: math.gcd(l, m) == 1)))


def _rebuilt(m):
    """m built again through the public constructors, which check it."""
    if isinstance(m, ConnectedSum):
        return ConnectedSum([_rebuilt(s) for s in m.summands])
    if isinstance(m, SeifertOverS2):
        return SeifertOverS2(m.fibers)
    if isinstance(m, Lens):
        return Lens(m.p, m.q)
    return type(m)()


def _assert_fast_paths_canonical(m):
    g = h1(m)
    assert AbelianGroup(g.free_rank, g.torsion) == g
    assert _rebuilt(m) == m
    key = homeomorphism_key(m)
    assert _rebuilt(key) == key


@pytest.mark.parametrize("role1, role2", [(r1, r2) for r1 in range(3) for r2 in range(3)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_unchecked_values_equal_their_checked_rebuilds(role1, role2, data):
    quad = data.draw(_side(role1, 1)) + data.draw(_side(role2, 2))
    res = classify_quadruple(*quad)
    if res.case == 7:
        assert res.manifold == seifert_over_s2(res.intermediate_seifert)
    _assert_fast_paths_canonical(res.manifold)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=4),
       st.data())
def test_unchecked_sums_equal_their_checked_rebuilds(roles, data):
    # Sums of classified values: sum_normalize flattens the case 1-3 sums
    # and sorts Seifert summands among the rest.
    values = [classify_quadruple(*data.draw(_side(r1, 1)), *data.draw(_side(r2, 2))).manifold
              for r1, r2 in roles]
    _assert_fast_paths_canonical(sum_normalize(values))
