"""Value semantics of the package's small immutable classes: equality and
hash from the fields (MultChar by its key), refused writes, keyword
construction, copies and pickles, and the exact validation messages."""

import copy
import pickle

import pytest

from asaiperiods.localfields import AddCharData, FieldPair
from asaiperiods.rational import rat
from asaiperiods.scalars import GaussRat
from asaiperiods.segments import GenericRep, MultChar, NotGenericError, Segment, UnramifiedModule

UFP = FieldPair(2, False)  # q_E = 4


def g(p, q=1, ip=0):
    return GaussRat(rat(p, q), rat(ip))


ETA = MultChar("eta", 1, g(2), "etaS", g(5))
TRIV3 = MultChar.unramified(g(3))


def equal_pairs():
    """(a, b): separately built equal values, b by keywords or defaults."""
    return [
        (FieldPair(3, True), FieldPair(q_F=3, ramified=True, ext_conductor=1)),
        (FieldPair(4, False), FieldPair(q_F=4, ramified=False)),
        (AddCharData(2), AddCharData(conductor=2, trivial_on_F=False)),
        (Segment(MultChar.unramified(g(3)), 2), Segment(rho=TRIV3, k=2)),
        (UnramifiedModule(UFP, [g(3), g(1, 2)]),
         UnramifiedModule(fp=FieldPair(2, False), satake=(g(1, 2), g(3)))),
        (GenericRep(UFP, [Segment(ETA, 1), Segment(TRIV3, 1)]),
         GenericRep(fp=UFP, segments=(Segment(ETA, 1), Segment(TRIV3, 1)))),
        (ETA, MultChar(unit_label="eta", unit_conductor=1, at_unif=g(2),
                       sigma_unit_label="etaS", sigma_at_unif=g(5))),
    ]


@pytest.mark.parametrize("a, b", equal_pairs(), ids=lambda v: type(v).__name__)
def test_equal_values_compare_and_hash_equal(a, b):
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_fields_distinguish_values():
    assert FieldPair(3, True, 1) != FieldPair(3, True, 2)
    assert FieldPair(3, False) != FieldPair(3, True)
    assert AddCharData(2) != AddCharData(2, True)
    assert Segment(TRIV3, 1) != Segment(TRIV3, 2)
    assert UnramifiedModule(UFP, (g(3),)) != UnramifiedModule(FieldPair(3, False), (g(3),))
    assert GenericRep(UFP, (Segment(TRIV3, 1),)) != GenericRep(UFP, (Segment(TRIV3, 2),))
    # another class with equal field values is not equal
    assert AddCharData(3) != FieldPair(3, False)
    assert FieldPair(3, False) != (3, False, None)


def test_multchar_compares_by_key():
    # same unit label and value at the uniformizer: the same character,
    # whatever the conductor and sigma data say
    other = MultChar("eta", 2, g(2), "etaT", g(7))
    assert other == ETA and hash(other) == hash(ETA)
    assert MultChar("eta", 1, g(3), "etaS", g(5)) != ETA
    assert MultChar("zeta", 1, g(2), "etaS", g(5)) != ETA
    assert ETA.key() == ("eta", g(2))


def test_normalized_fields():
    assert FieldPair(3, True).ext_conductor == 1
    assert FieldPair(3, False).ext_conductor is None
    mod = UnramifiedModule(UFP, [g(3), g(0, 1, 2), g(1, 2), g(2)])
    assert mod.satake == (g(1, 2), g(0, 1, 2), g(2), g(3))  # by |alpha|^2, ties in order
    rep = GenericRep(UFP, [Segment(TRIV3, 1)])
    assert rep.segments == (Segment(TRIV3, 1),) and type(rep.segments) is tuple


FIELDS = {
    FieldPair(3, True, 2): ("q_F", "ramified", "ext_conductor"),
    AddCharData(2, True): ("conductor", "trivial_on_F"),
    ETA: ("unit_label", "unit_conductor", "at_unif", "sigma_unit_label", "sigma_at_unif"),
    Segment(ETA, 2): ("rho", "k"),
    UnramifiedModule(UFP, (g(3),)): ("fp", "satake"),
    GenericRep(UFP, (Segment(ETA, 1),)): ("fp", "segments"),
}


@pytest.mark.parametrize("value", list(FIELDS), ids=lambda v: type(v).__name__)
def test_fields_refuse_writes(value):
    for name in FIELDS[value]:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value", list(FIELDS), ids=lambda v: type(v).__name__)
def test_copies_and_pickles_are_equal(value):
    for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert other == value and hash(other) == hash(value)
        assert all(getattr(other, name) == getattr(value, name) for name in FIELDS[value])


def test_repr_names_the_fields():
    assert repr(FieldPair(3, True)) == "FieldPair(q_F=3, ramified=True, ext_conductor=1)"
    assert repr(AddCharData(2)) == "AddCharData(conductor=2, trivial_on_F=False)"
    assert repr(Segment(TRIV3, 2)) == "Segment(rho=%r, k=2)" % (TRIV3,)


def test_twisted_duals_are_cached_and_outside_equality():
    rep = GenericRep(UFP, (Segment(ETA, 1), Segment(TRIV3, 1)))
    fresh = GenericRep(UFP, (Segment(ETA, 1), Segment(TRIV3, 1)))
    duals = rep.twisted_duals
    assert rep.twisted_duals is duals
    assert duals == tuple(s.contragredient().sigma() for s in rep.segments)
    assert rep == fresh and hash(rep) == hash(fresh)


def message(exc_type, build):
    with pytest.raises(exc_type) as info:
        build()
    assert type(info.value) is exc_type
    return str(info.value)


def test_validation_messages():
    assert message(ValueError, lambda: FieldPair(6, False)) == "q_F must be a prime power >= 2"
    assert message(ValueError, lambda: FieldPair(3.0, False)) == "q_F must be a prime power >= 2"
    assert message(ValueError, lambda: FieldPair(2**64, False)) == \
        "q_F must be below 2^64, where prime powers are decided exactly"
    assert message(ValueError, lambda: FieldPair(3, True, 0)) == \
        "ext_conductor must be a positive integer"
    assert message(ValueError, lambda: FieldPair(3, False, 1)) == \
        "ext_conductor applies to ramified extensions only"
    assert message(ValueError, lambda: MultChar("eta", 1, g(0), "etaS", g(5))) == \
        "character values at the uniformizer must be nonzero"
    assert message(ValueError, lambda: MultChar("eta", -1, g(2), "etaS", g(5))) == \
        "unit conductor must be >= 0"
    assert message(ValueError, lambda: MultChar("triv", 1, g(2), "triv", g(2))) == \
        'unit_conductor 0 and unit_label "triv" must occur together'
    assert message(ValueError, lambda: MultChar("triv", 0, g(2), "triv", g(3))) == \
        "unramified characters are fixed by the Galois twist"
    assert message(ValueError, lambda: Segment(TRIV3, 0)) == "segment length k must be >= 1"
    assert message(ValueError, lambda: UnramifiedModule(UFP, (g(3), g(0)))) == \
        "Satake values must be nonzero"
    assert message(ValueError, lambda: GenericRep(UFP, ())) == \
        "a representation needs at least one segment"
    linked = (Segment(MultChar.unramified(g(1)), 1), Segment(MultChar.unramified(g(1, 4)), 1))
    assert message(NotGenericError, lambda: GenericRep(UFP, linked)) == \
        "segments are linked: the product is not generic"
