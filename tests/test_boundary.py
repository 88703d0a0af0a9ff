"""Checks run only where they can fail: on input from outside the package.

A library call never re-checks a value the package made, and a checked
``CupDiagram`` is never scanned for crossings again.  Each test builds
its inputs first, then makes the checks raise, and every call must still
return what it returned with the checks in place.
"""

import pytest

from cupweb import (
    CupDiagram,
    DiagramVector,
    Matching,
    StandardTableau,
    TabloidVector,
    TwoRowTableau,
    act_matching,
    act_polytabloid,
    act_web,
    build_resolution_graph,
    build_tableau_graph,
    check_witness,
    column_matching_vector,
    cup_of_tableau,
    cup_polytabloid,
    enumerate_syt,
    garnir_straighten,
    inverse_matrix,
    is_noncrossing,
    order_conjecture_report,
    resolve_full,
    shifted_product,
    t0,
    tableau_of_cup,
    to_web_basis,
    transition_matrix,
    verify_psi,
    witness_path,
)
from cupweb import actions, diagrams, resolution

T = StandardTableau((1, 2, 4, 5, 7), (3, 6, 8, 9, 10))
S = StandardTableau((1, 3, 4, 6, 9), (2, 5, 7, 8, 10))
SCRIPT = witness_path(T, S)
CUP = cup_of_tableau(S)
CROSSED = Matching([(1, 5), (2, 6), (3, 7), (4, 8)])
FILLING = TwoRowTableau(((1, 5), (2, 3), (4, 6)))  # bottom row 5, 3, 6
POLY = TabloidVector(4, {TwoRowTableau.from_standard(t): k - 2
                         for k, t in enumerate(enumerate_syt(4)[:6])})
CUPS = DiagramVector(10, {cup_of_tableau(t): k + 1
                          for k, t in enumerate(enumerate_syt(5)[::7])})
MIXED = DiagramVector(8, {CROSSED: 2, CupDiagram([(1, 6), (2, 3), (4, 5), (7, 8)]): -1})

# Calls whose values the package makes itself and used to check again.
REBUILT = {
    "act_polytabloid": lambda: act_polytabloid(3, POLY),
    "cup_polytabloid": lambda: cup_polytabloid(CUP),
    "garnir_straighten": lambda: garnir_straighten(FILLING),
    "shifted_product": lambda: shifted_product(4, (3, 5, 2, 4)),
    "column_matching_vector": lambda: column_matching_vector(POLY),
    "tableau_of_cup": lambda: tableau_of_cup(CUP),
    "from_standard": lambda: TwoRowTableau.from_standard(S),
    "t0": lambda: t0(5),
    "build_resolution_graph": lambda: build_resolution_graph(CROSSED),
}
# Calls that already built only through ``_trusted``; reports by their checks.
TRUSTED = {
    "act_web": lambda: act_web(4, CUPS),
    "act_matching": lambda: act_matching(3, MIXED),
    "to_web_basis": lambda: to_web_basis(MIXED),
    "resolve_full": lambda: resolve_full(CROSSED),
    "witness_path": lambda: witness_path(T, S),
    "check_witness": lambda: check_witness(T, S, SCRIPT),
    "transition_matrix": lambda: transition_matrix(5),
    "inverse_matrix": lambda: inverse_matrix(transition_matrix(5)),
    "verify_psi": lambda: verify_psi(transition_matrix(5)).checks,
    "enumerate_syt": lambda: enumerate_syt(5),
    "order_conjecture_report": lambda: order_conjecture_report(5).checks,
}
CALLS = {**REBUILT, **TRUSTED}
CHECKING = (StandardTableau, Matching, CupDiagram, TwoRowTableau,
            diagrams.Crossing, resolution.Move, actions._SparseVector)


def _cold():
    """Forget every cached result and both session tables."""
    for cached in (enumerate_syt, build_tableau_graph, transition_matrix):
        cached.cache_clear()
    resolution._INSERTED.clear()
    resolution._CUPS.clear()


@pytest.mark.parametrize("name", CALLS)
def test_no_call_re_checks_what_the_package_made(monkeypatch, name):
    call = CALLS[name]
    _cold()
    expected = call()
    _cold()

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{name} re-checks a {type(self).__name__}")

    for cls in CHECKING:
        monkeypatch.setattr(cls, "__init__", refuse)
    assert call() == expected


def test_a_checked_cup_diagram_is_not_scanned_again(monkeypatch):
    calls = [lambda: act_web(4, CUPS), lambda: cup_polytabloid(CUP),
             lambda: tableau_of_cup(CUP), lambda: is_noncrossing(CUP)]
    expected = [call() for call in calls]

    def refuse(arcs):
        raise AssertionError(f"{arcs} scanned again")

    monkeypatch.setattr(diagrams, "crossing_pairs", refuse)
    assert [call() for call in calls] == expected
    with pytest.raises(AssertionError, match="scanned again"):
        CupDiagram([(1, 2), (3, 4)])  # the constructor scans
    monkeypatch.undo()
    crossed = DiagramVector.unit(Matching([(1, 3), (2, 4)]))
    with pytest.raises(ValueError, match="support must be noncrossing"):
        act_web(1, crossed)
