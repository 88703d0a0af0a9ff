"""Every public value type: read-only, and copied, deep-copied and pickled whole.

One small example per type, with its repr and hash pinned.  A hash given
as an int is that of the example on a 64-bit build; one given as a tuple
is the hash of that tuple, for values whose hash involves a string.
"""

import copy
import pickle
import sys

import pytest

from cupweb import (
    Crossing,
    CupDiagram,
    DiagramVector,
    Matching,
    Move,
    MoveKind,
    StandardTableau,
    TwoRowTableau,
    VerificationReport,
    build_resolution_graph,
    build_tableau_graph,
    garnir_straighten,
    t0,
    transition_matrix,
)
from cupweb.transition import Check

CROSSING = Crossing((1, 3), (2, 4))
MOVE_REPR = ("Move(crossing=Crossing(left=(1, 3), right=(2, 4)), "
             "kind=<MoveKind.NESTED: 'V'>)")
CHECK_REPR = "Check(name='diagonal-ones', passed=True, witness=None, informational=False)"

# (example, its public fields, repr, hash: an int, a tuple to hash, or None if unhashable)
EXAMPLES = {
    "StandardTableau": (
        lambda: t0(2), ("top", "bottom"),
        "StandardTableau('1 3 / 2 4')", 1459225709391671739),
    "TableauGraph": (
        lambda: build_tableau_graph(2), ("n", "vertices", "edges", "descendants"),
        "TableauGraph(n=2, vertices=(StandardTableau('1 3 / 2 4'), "
        "StandardTableau('1 2 / 3 4')), edges=((0, 1, 2),))", -7781232651678506401),
    "Matching": (
        lambda: Matching([(1, 3), (2, 4)]), ("arcs",),
        "Matching[(1,3)(2,4)]", 1459225709391671739),
    "CupDiagram": (
        lambda: CupDiagram([(1, 4), (2, 3)]), ("arcs",),
        "CupDiagram[(1,4)(2,3)]", 6533472875378629204),
    "Crossing": (
        lambda: CROSSING, ("left", "right"),
        "Crossing(left=(1, 3), right=(2, 4))", 1459225709391671739),
    "Move": (
        lambda: Move(CROSSING, MoveKind.NESTED), ("crossing", "kind"),
        MOVE_REPR, (CROSSING, MoveKind.NESTED)),
    "ResolutionGraph": (
        lambda: build_resolution_graph(Matching([(1, 3), (2, 4)])),
        ("root", "nodes", "edges"),
        "ResolutionGraph(root=Matching[(1,3)(2,4)], nodes=[Matching[(1,3)(2,4)], "
        "Matching[(1,2)(3,4)], Matching[(1,4)(2,3)]], edges=[(0, Move(crossing="
        "Crossing(left=(1, 3), right=(2, 4)), kind=<MoveKind.VV: 'VV'>), 1), "
        f"(0, {MOVE_REPR}, 2)])", None),
    "TwoRowTableau": (
        lambda: TwoRowTableau(((1, 4), (2, 3))), ("columns",),
        "TwoRowTableau('1 2' / '4 3')", 5920338881015799106),
    "TabloidVector": (
        lambda: garnir_straighten(TwoRowTableau(((1, 4), (2, 3)))), ("size", "terms"),
        "TabloidVector(1*TwoRowTableau('1 2' / '3 4') + -1*TwoRowTableau('1 3' / '2 4'))",
        -8769440434224312696),
    "DiagramVector": (
        lambda: DiagramVector.unit(CupDiagram([(1, 4), (2, 3)]), 3), ("size", "terms"),
        "DiagramVector(3*CupDiagram[(1,4)(2,3)])", 5068752427664543572),
    "TransitionMatrix": (
        lambda: transition_matrix(2), ("n", "index", "columns"),
        "TransitionMatrix(n=2, index=(StandardTableau('1 3 / 2 4'), StandardTableau("
        "'1 2 / 3 4')), columns=(Column({0: 1}), Column({0: 1, 1: 1})))",
        None),
    "Check": (
        lambda: Check("diagonal-ones", True),
        ("name", "passed", "witness", "informational"),
        CHECK_REPR, ("diagonal-ones", True, None, False)),
    "VerificationReport": (
        lambda: VerificationReport(2, [Check("diagonal-ones", True)], 0.25,
                                   "2026-01-01T00:00:00+00:00"),
        ("n", "checks", "elapsed_seconds", "timestamp"),
        f"VerificationReport(n=2, checks=[{CHECK_REPR}], elapsed_seconds=0.25, "
        "timestamp='2026-01-01T00:00:00+00:00')", None),
}


@pytest.mark.parametrize("name", EXAMPLES)
def test_round_trips_keep_type_value_and_repr(name):
    make, fields, _, _ = EXAMPLES[name]
    value = make()
    assert type(value).__name__ == name
    for clone in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value)
        assert clone == value and not clone != value
        assert repr(clone) == repr(value)
        for field in fields:
            assert getattr(clone, field) == getattr(value, field)


@pytest.mark.parametrize("name", EXAMPLES)
def test_attributes_refuse_assignment_and_deletion(name):
    make, fields, _, _ = EXAMPLES[name]
    value = make()
    before = repr(value)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == before


@pytest.mark.parametrize("name", EXAMPLES)
def test_repr_and_hash_are_pinned(name):
    make, _, text, pinned = EXAMPLES[name]
    value = make()
    assert repr(value) == text
    if pinned is None:
        with pytest.raises(TypeError):
            hash(value)
    elif isinstance(pinned, tuple):
        assert hash(value) == hash(pinned)
    elif sys.hash_info.width == 64:
        assert hash(value) == pinned


def test_a_cup_diagram_equals_the_matching_on_its_arcs():
    arcs = [(1, 4), (2, 3)]
    assert CupDiagram(arcs) == Matching(arcs) and Matching(arcs) == CupDiagram(arcs)
    assert hash(CupDiagram(arcs)) == hash(Matching(arcs))
    assert Matching([(1, 3), (2, 4)]) != CupDiagram(arcs)
    # Other types compare by type first: equal fields, and so equal hashes,
    # are not enough.
    crossing, tableau = Crossing((1, 3), (2, 4)), StandardTableau((1, 3), (2, 4))
    assert hash(crossing) == hash(tableau) and crossing != tableau
    assert not crossing == tableau and len({crossing, tableau}) == 2


# The types whose own ``_trusted`` takes other arguments than the slots:
# ``Matching``'s computes the hash slot, the vectors' wrap a dict of terms.
OWN_TRUSTED = {
    "Matching": lambda m: (m.arcs,),
    "CupDiagram": lambda m: (m.arcs,),
    "TabloidVector": lambda v: (v.size, dict(v.terms)),
    "DiagramVector": lambda v: (v.size, dict(v.terms)),
}


def _slots(cls):
    return [name for k in reversed(cls.__mro__) for name in k.__dict__.get("__slots__", ())]


@pytest.mark.parametrize("name", EXAMPLES)
def test_trusted_builds_what_the_constructor_builds(name):
    value = EXAMPLES[name][0]()
    cls = type(value)
    args = OWN_TRUSTED.get(name, lambda v: tuple(getattr(v, s) for s in _slots(cls)))(value)
    built = cls._trusted(*args)
    assert type(built) is cls and built == value and repr(built) == repr(value)
    for slot in _slots(cls):
        assert getattr(built, slot) == getattr(value, slot)
    for clone in (copy.copy(built), copy.deepcopy(built), pickle.loads(pickle.dumps(built))):
        assert type(clone) is cls and clone == value and repr(clone) == repr(value)


@pytest.mark.parametrize("name", EXAMPLES)
def test_own_trusted_is_kept_and_every_other_is_unrolled(name):
    cls = type(EXAMPLES[name][0]())
    if name in OWN_TRUSTED:
        owner = next(k for k in cls.__mro__ if "_trusted" in k.__dict__)
        assert owner.__name__ in ("Matching", "_SparseVector")
        assert cls._trusted.__func__ is owner.__dict__["_trusted"].__func__
    else:
        assert cls._trusted is cls._build
        code = cls._build.__code__
        assert "zip" not in code.co_names and code.co_argcount == len(_slots(cls))


def test_a_subclass_with_a_slot_more_gets_its_own_trusted():
    class Flagged(Check):
        __slots__ = ("flag",)

    flagged = Flagged._trusted("diagonal-ones", True, None, False, "extra")
    assert flagged.flag == "extra" and flagged.name == "diagonal-ones"
    assert Flagged._trusted is not Check._trusted
    assert Check._trusted("diagonal-ones", True, None, False) == Check("diagonal-ones", True)
