import hashlib
import json
import random
import tracemalloc
from bisect import bisect_left
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cupweb import (
    Crossing,
    CupDiagram,
    DominanceError,
    Matching,
    Move,
    MoveKind,
    SizeLimitError,
    StandardTableau,
    build_resolution_graph,
    build_tableau_graph,
    check_witness,
    column_matching,
    crossings,
    cup_of_tableau,
    enumerate_syt,
    first_row_dominates,
    leq,
    resolution_graph_dot,
    resolve_full,
    resolve_step,
    t0,
    tableau_of_cup,
    transition_matrix,
    witness_path,
)
import cupweb.resolution as resolution_module
from cupweb.resolution import _peel, insert_arc, insert_level, sinks_to_json
from cupweb.young import _dominance_masks
from _oracles import (
    all_pairings,
    brute_crossing_pairs,
    brute_resolve,
    check_by_steps,
    peel_by_lowering,
    random_matching_arcs,
    witness_by_matchings,
)

S_FIVE = StandardTableau((1, 3, 4, 6, 9), (2, 5, 7, 8, 10))
T_FIVE = StandardTableau((1, 2, 4, 5, 7), (3, 6, 8, 9, 10))
THREE_COLUMN = Matching([(1, 3), (2, 5), (4, 6)])


@st.composite
def matchings(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    perm = draw(st.permutations(list(range(1, 2 * n + 1))))
    return Matching([(perm[2 * k], perm[2 * k + 1]) for k in range(n)])


class TestResolveStep:
    def test_uncross(self):
        c = Crossing((1, 3), (2, 5))
        assert resolve_step(THREE_COLUMN, c, MoveKind.VV) == Matching(
            [(1, 2), (3, 5), (4, 6)]
        )
        assert resolve_step(THREE_COLUMN, c, MoveKind.NESTED) == Matching(
            [(1, 5), (2, 3), (4, 6)]
        )

    def test_minimal(self):
        m = Matching([(1, 3), (2, 4)])
        c = Crossing((1, 3), (2, 4))
        assert resolve_step(m, c, MoveKind.VV) == Matching([(1, 2), (3, 4)])
        assert resolve_step(m, c, MoveKind.NESTED) == Matching([(1, 4), (2, 3)])

    def test_rejects_foreign_crossing(self):
        with pytest.raises(ValueError):
            resolve_step(THREE_COLUMN, Crossing((1, 4), (2, 6)), MoveKind.VV)
        with pytest.raises(ValueError):
            resolve_step(THREE_COLUMN, Crossing([1, 4], [2, 6]), MoveKind.VV)

    def test_rejects_arcs_that_do_not_cross(self):
        # Both are arcs of the matching; smoothed, they would give (3, 2).
        flat = SimpleNamespace(left=(1, 2), right=(3, 4))
        with pytest.raises(ValueError, match="is not a crossing"):
            resolve_step(Matching([(1, 2), (3, 4)]), flat, MoveKind.NESTED)

    def test_list_arcs_are_smoothed(self):
        m = Matching([(1, 3), (2, 4)])
        c = Crossing([1, 3], [2, 4])
        assert c == Crossing((1, 3), (2, 4))
        assert hash(c) == hash(Crossing((1, 3), (2, 4)))
        assert resolve_step(m, c, MoveKind.VV) == Matching([(1, 2), (3, 4)])
        assert resolve_step(m, c, MoveKind.NESTED) == Matching([(1, 4), (2, 3)])

    def test_rejects_non_int_dots(self):
        # True == 1 and 1.0 == 1 pass the membership test; the step must
        # still refuse them, or they would become dots of its result.
        m = Matching([(1, 3), (2, 4)])
        for left in ((True, 3), (1.0, 3)):
            with pytest.raises(ValueError):
                resolve_step(m, Crossing(left, (2, 4)), MoveKind.VV)
        script = [Move(Crossing((True, 3), (2, 4)), MoveKind.VV)]
        flat = StandardTableau((1, 2), (3, 4))
        assert not check_witness(flat, t0(2), script)

    @pytest.mark.parametrize("kind", ["VV", "V", None, True])
    def test_refuses_kinds_that_are_not_move_kinds(self, kind):
        m = Matching([(1, 3), (2, 4)])
        with pytest.raises(ValueError, match="is not a MoveKind"):
            resolve_step(m, Crossing((1, 3), (2, 4)), kind)

    @given(matchings(), st.sampled_from([MoveKind.VV, MoveKind.NESTED]))
    def test_conserves_dots_and_reduces_crossings(self, m, kind):
        for c in crossings(m):
            child = resolve_step(m, c, kind)
            assert child.n2 == m.n2
            assert len(crossings(child)) < len(crossings(m))


class TestResolutionGraph:
    def test_noncrossing_root(self):
        graph = build_resolution_graph(Matching([(1, 2), (3, 4), (5, 6)]))
        assert len(graph.nodes) == 1
        assert graph.edges == []

    def test_three_column_tree(self):
        graph = build_resolution_graph(THREE_COLUMN)
        assert len(graph.nodes) == 7
        assert len(graph.sink_indices()) == 4
        # every internal node carries one move of each kind on one crossing
        by_source = {}
        for src, move, _ in graph.edges:
            by_source.setdefault(src, []).append(move)
        for moves in by_source.values():
            assert {m.kind for m in moves} == {MoveKind.VV, MoveKind.NESTED}
            assert len({m.crossing for m in moves}) == 1

    def test_single_crossing(self):
        graph = build_resolution_graph(Matching([(1, 3), (2, 4)]))
        assert len(graph.nodes) == 3
        assert graph.sink_multiset() == {
            Matching([(1, 2), (3, 4)]): 1,
            Matching([(1, 4), (2, 3)]): 1,
        }

    def test_node_budget(self):
        with pytest.raises(SizeLimitError):
            build_resolution_graph(THREE_COLUMN, node_budget=3)

    def test_oversized_tree_builds_nothing(self, monkeypatch):
        # resolve_full sizes the tree first, so no node is made, and an
        # unknown strategy is never consulted.
        calls = []
        step = resolution_module.resolve_step
        monkeypatch.setattr(resolution_module, "resolve_step",
                            lambda *args: calls.append(args) or step(*args))
        m = Matching([(1, 5), (2, 6), (3, 7), (4, 8)])
        for strategy in ("first", "fastest"):
            with pytest.raises(SizeLimitError, match="resolution exceeded its node budget"):
                build_resolution_graph(m, strategy, node_budget=30)
        assert calls == []
        assert len(build_resolution_graph(m, node_budget=31).nodes) == 31
        assert len(calls) == 30

    def test_zero_budget_refuses_even_the_root(self):
        with pytest.raises(SizeLimitError, match="resolution exceeded its node budget"):
            build_resolution_graph(Matching([(1, 2), (3, 4)]), node_budget=0)

    def test_dot_export(self):
        text = resolution_graph_dot(build_resolution_graph(Matching([(1, 3), (2, 4)])))
        assert text.startswith("digraph resolution {")
        assert '[label="VV"]' in text and '[label="V"]' in text
        assert '[label="(1,3)(2,4)"]' in text


class TestResolveFull:
    def test_three_column_expansion(self):
        counts = resolve_full(THREE_COLUMN)
        assert counts == {
            Matching([(1, 2), (3, 4), (5, 6)]): 1,
            Matching([(1, 2), (3, 6), (4, 5)]): 1,
            Matching([(1, 4), (2, 3), (5, 6)]): 1,
            Matching([(1, 6), (2, 3), (4, 5)]): 1,
        }

    def test_bool_dots_leave_no_trace(self):
        # True == 1 with the same hash, so an accepted True dot would put
        # its sinks in the session table under the valid matching's arcs.
        resolution_module._INSERTED.clear()
        resolution_module._CUPS.clear()
        with pytest.raises(ValueError):
            resolve_full(Matching([(True, 3), (2, 4)]))
        sinks = resolve_full(Matching([(1, 3), (2, 4)]))
        assert all(type(d) is int for w in sinks for arc in w.arcs for d in arc)

    def test_noncrossing_fixed(self):
        w = Matching([(1, 6), (2, 3), (4, 5)])
        assert resolve_full(w) == {w: 1}

    def test_single_crossing(self):
        assert resolve_full(Matching([(1, 3), (2, 4)])) == {
            Matching([(1, 2), (3, 4)]): 1,
            Matching([(1, 4), (2, 3)]): 1,
        }

    def test_strategies_agree(self):
        rng = random.Random(5)
        for _ in range(30):
            m = Matching(random_matching_arcs(rng, 2 * rng.randint(2, 5)))
            baseline = resolve_full(m)
            script = tuple(rng.randrange(8) for _ in range(6))
            for strategy in (script, (-1,)):  # (-1,) always picks the last
                tree = build_resolution_graph(m, strategy)
                assert tree.sink_multiset() == baseline

    def test_sinks_match_tree(self):
        counts = resolve_full(THREE_COLUMN)
        assert counts == build_resolution_graph(THREE_COLUMN).sink_multiset()

    def test_bad_strategy(self):
        # Only "first" and a nonempty sequence of ints pick a crossing; any
        # other strategy is refused, with or without a crossing to pick.
        for strategy in ("fastest", (), ("1",), (1.0,), (True,), {0: 1}, 3,
                         lambda m, found: found[0]):
            for m in (Matching([(1, 3), (2, 4)]), Matching([(1, 2)])):
                with pytest.raises(ValueError, match="unknown strategy"):
                    build_resolution_graph(m, strategy)

    def test_node_budget_counts_tree_nodes(self):
        # 16 sinks with multiplicity, so every strategy's tree has 31 nodes;
        # the outcome must not depend on what the session tables already hold.
        m = Matching([(1, 5), (2, 6), (3, 7), (4, 8)])

        def cold():
            resolution_module._INSERTED.clear()
            resolution_module._CUPS.clear()

        cold()
        with pytest.raises(SizeLimitError):
            resolve_full(m, node_budget=30)  # cold
        cold()
        assert sum(resolve_full(m, node_budget=31).values()) == 16  # cold
        assert sum(resolve_full(m, node_budget=31).values()) == 16  # warm
        with pytest.raises(SizeLimitError):
            resolve_full(m, node_budget=30)  # warm
        for strategy in ("first", (1, 0, 2)):
            with pytest.raises(SizeLimitError):
                build_resolution_graph(m, strategy, node_budget=30)
            graph = build_resolution_graph(m, strategy, node_budget=31)
            assert len(graph.nodes) == 31

        def warm_through_matrix(n):
            cold()
            transition_matrix.cache_clear()
            transition_matrix(n)  # fills the session table too

        rng = random.Random(17)
        for _ in range(12):
            n = rng.randint(1, 5)
            m = Matching(random_matching_arcs(rng, 2 * n))
            cold()
            sinks = resolve_full(m)
            size = len(build_resolution_graph(m).nodes)
            assert size == 2 * sum(sinks.values()) - 1
            # cold tables, ones warm with m itself, ones warmed by the matrix
            warmups = (cold, lambda: None, lambda: warm_through_matrix(n))
            for prepare in warmups:
                prepare()
                with pytest.raises(SizeLimitError):
                    resolve_full(m, node_budget=size - 1)
                prepare()
                assert resolve_full(m, node_budget=size) == sinks

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_sink_support_stays_below(self, n):
        graph = build_tableau_graph(n)
        for tab in enumerate_syt(n):
            for sink in resolve_full(column_matching(tab.columns())):
                assert leq(tableau_of_cup(sink), tab, graph)


WALKTHROUGH = [
    Matching([(1, 3), (2, 6), (4, 7), (5, 9), (8, 10)]),
    Matching([(1, 3), (2, 6), (4, 7), (5, 8), (9, 10)]),
    Matching([(1, 3), (2, 5), (4, 7), (6, 8), (9, 10)]),
    Matching([(1, 3), (2, 5), (4, 8), (6, 7), (9, 10)]),
    Matching([(1, 3), (2, 8), (4, 5), (6, 7), (9, 10)]),
    Matching([(1, 2), (3, 8), (4, 5), (6, 7), (9, 10)]),
]


def _dominating_pairs(n):
    tableaux = enumerate_syt(n)
    return [(t, s) for s in tableaux for t in tableaux if first_row_dominates(s, t)]


def _flipped(move):
    other = MoveKind.NESTED if move.kind is MoveKind.VV else MoveKind.VV
    return Move(move.crossing, other)


FLAT = StandardTableau((1, 2), (3, 4))  # column matching (1,3), (2,4): partners 3, 4, 1, 2
WALK = witness_by_matchings(T_FIVE, S_FIVE)
MALFORMED = {  # (t, s, script); each fails the ``Matching`` fold too
    # Dot 0 and the dots past 2n index no entry; -1 would wrap to 2n = 4.
    "dot 0": (FLAT, t0(2), [Move(Crossing((0, 3), (2, 4)), MoveKind.VV)]),
    "dot -1": (FLAT, t0(2), [Move(Crossing((-1, 2), (1, 3)), MoveKind.VV)]),
    "dot 2n + 1": (FLAT, t0(2), [Move(Crossing((1, 3), (2, 5)), MoveKind.VV)]),
    "left end 2n + 1": (FLAT, t0(2), [Move(Crossing((5, 7), (6, 8)), MoveKind.VV)]),
    # -5 indexes dot 2 of 6, and the second move overwrites the -5 the first
    # leaves behind: replayed with the wrap, the script lands on the target.
    "dot -5 wraps": (StandardTableau((1, 2, 4), (3, 5, 6)), t0(3), [
        Move(Crossing((-5, 5), (4, 6)), MoveKind.VV),
        Move(Crossing((1, 3), (2, 4)), MoveKind.VV)]),
    "dot True": (FLAT, t0(2), [Move(Crossing((True, 3), (2, 4)), MoveKind.VV)]),
    "dot 1.0": (FLAT, t0(2), [Move(Crossing((1.0, 3), (2, 4)), MoveKind.VV)]),
    "right end 3.0": (FLAT, t0(2), [Move(Crossing((1, 3.0), (2, 4)), MoveKind.VV)]),
    # One arc of the first move is no arc of the source; replayed unchecked,
    # the second move would repair the damage and land on the target.
    "missing right arc": (StandardTableau((1, 2, 5), (3, 4, 6)), t0(3), [
        Move(Crossing((1, 3), (2, 5)), MoveKind.VV),
        Move(Crossing((3, 5), (4, 6)), MoveKind.VV)]),
    "missing left arc": (StandardTableau((1, 3, 4), (2, 5, 6)), t0(3), [
        Move(Crossing((2, 5), (4, 6)), MoveKind.VV),
        Move(Crossing((1, 3), (2, 4)), MoveKind.VV)]),
    "missing arc mid-script": (T_FIVE, S_FIVE,
                               WALK[:2] + [Move(Crossing((1, 3), (2, 6)), MoveKind.VV)]
                               + WALK[3:]),
    "wrong kind": (T_FIVE, S_FIVE, WALK[:3] + [_flipped(WALK[3])] + WALK[4:]),
    "cut short": (T_FIVE, S_FIVE, WALK[:-1]),
    "extra move": (T_FIVE, S_FIVE, WALK + WALK[-1:]),
    "empty on crossings": (FLAT, t0(2), []),
    # Both arcs are arcs of the source, but they do not cross: smoothed as
    # nested anyway, they would land on the cup (1,4), (2,3) of the target.
    "arcs that do not cross": (t0(2), FLAT, [SimpleNamespace(
        crossing=SimpleNamespace(left=(1, 2), right=(3, 4)), kind=MoveKind.NESTED)]),
}
# The script of 1 2 4 / 3 5 6 onto itself is two nested moves; replayed with
# kinds that are not ``MoveKind``s read as nested, it would land on the target.
# ``Move`` refuses such a kind, so a stand-in with its two attributes carries it.
_SELF = StandardTableau((1, 2, 4), (3, 5, 6))
MALFORMED.update({
    f"kind {kind!r}": (_SELF, _SELF, [SimpleNamespace(crossing=m.crossing, kind=kind)
                                      for m in witness_path(_SELF, _SELF)])
    for kind in ("VV", "V", None, True)})
# Entries that are not moves, or a move without a crossing, in a script
# that lands on the target without them: skipped, they would pass.
MALFORMED.update({
    f"entry {entry!r}": (T_FIVE, S_FIVE, WALK[:2] + [entry] + WALK[2:])
    for entry in (None, 1, "x", Move(None, MoveKind.VV))})


class TestWitnessPath:
    def test_base_tableau_is_empty(self):
        assert witness_path(t0(4), t0(4)) == []

    def test_ten_dot_walkthrough(self):
        script = witness_path(T_FIVE, S_FIVE)
        assert [m.kind for m in script] == [
            MoveKind.VV, MoveKind.VV, MoveKind.VV,
            MoveKind.NESTED, MoveKind.NESTED, MoveKind.VV,
        ]
        cur = column_matching(T_FIVE.columns())
        states = []
        for move in script:
            cur = resolve_step(cur, move.crossing, move.kind)
            states.append(cur)
        assert states == WALKTHROUGH
        assert cur == cup_of_tableau(S_FIVE)

    def test_two_column_single_move(self):
        flat = StandardTableau((1, 2), (3, 4))
        script = witness_path(flat, t0(2))
        assert len(script) == 1 and script[0].kind is MoveKind.VV
        assert check_witness(flat, t0(2), script)

    def test_equal_tableaux_with_crossings(self):
        tab = StandardTableau((1, 2, 3), (4, 5, 6))
        script = witness_path(tab, tab)
        assert script
        assert check_witness(tab, tab, script)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_dominance_error_reports_column(self, n):
        # The pairwise rule agrees with the batch masks on every ordered
        # pair, and a failing pair names its first failing column.
        tableaux = enumerate_syt(n)
        masks = _dominance_masks(tableaux)
        for k, s in enumerate(tableaux):
            for m, t in enumerate(tableaux):
                dominates = first_row_dominates(s, t)
                assert dominates == bool(masks[k] >> m & 1)
                if dominates:
                    continue
                j = next(j for j in range(n) if s.top[j] < t.top[j])
                with pytest.raises(DominanceError) as info:
                    witness_path(t, s)
                assert info.value.column == j + 1
                assert str(info.value) == (
                    "top row of S must dominate top row of T; "
                    f"column {j + 1} has {s.top[j]} < {t.top[j]}")
        if n == 5:
            with pytest.raises(DominanceError) as info:
                witness_path(S_FIVE, T_FIVE)
            assert info.value.column == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_all_dominating_pairs(self, n):
        # Move for move the script of the validated-matching construction.
        pairs = _dominating_pairs(n)
        assert len(pairs) == [1, 3, 14, 84, 594, 4719][n - 1]
        for t, s in pairs:
            script = witness_path(t, s)
            assert script == witness_by_matchings(t, s)
            assert check_witness(t, s, script)

    def test_seeded_pairs_n8(self):
        rng = random.Random(8)
        tableaux = enumerate_syt(8)
        done = 0
        while done < 200:
            t, s = rng.choice(tableaux), rng.choice(tableaux)
            if first_row_dominates(s, t):
                script = witness_path(t, s)
                assert script == witness_by_matchings(t, s)
                assert check_witness(t, s, script) and check_by_steps(t, s, script)
                done += 1

    def test_every_move_is_a_genuine_crossing(self):
        # resolve_step validates each step, so a completed fold proves it;
        # additionally the final diagram must be exactly the target cup
        script = witness_path(T_FIVE, S_FIVE)
        cur = column_matching(T_FIVE.columns())
        for move in script:
            assert move.crossing in crossings(cur)
            cur = resolve_step(cur, move.crossing, move.kind)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_moves_equal_validated_moves(self, n):
        for t, s in _dominating_pairs(n):
            for move in witness_path(t, s):
                left, right = move.crossing.left, move.crossing.right
                assert move == Move(Crossing(list(left), list(right)), move.kind)
                assert type(move) is Move and type(move.crossing) is Crossing
                assert type(left) is type(right) is tuple

    def test_steps_equal_validated_matchings(self):
        rng = random.Random(3)
        tableaux = enumerate_syt(6)
        for _ in range(40):
            t, s = rng.choice(tableaux), rng.choice(tableaux)
            if not first_row_dominates(s, t):
                continue
            cur = column_matching(t.columns())
            for move in witness_path(t, s):
                cur = resolve_step(cur, move.crossing, move.kind)
                assert type(cur) is Matching
                assert cur.arcs == Matching(cur.arcs).arcs
                assert all(type(d) is int for arc in cur.arcs for d in arc)
            assert cur == cup_of_tableau(s)


class TestCheckWitness:
    def test_walkthrough_script_passes(self):
        assert check_witness(T_FIVE, S_FIVE, witness_path(T_FIVE, S_FIVE))

    def test_empty_script_fails_on_crossing_source(self):
        flat = StandardTableau((1, 2), (3, 4))
        assert not check_witness(flat, t0(2), [])

    def test_wrong_final_diagram_fails(self):
        flat = StandardTableau((1, 2), (3, 4))
        script = [Move(Crossing((1, 3), (2, 4)), MoveKind.NESTED)]
        assert not check_witness(flat, t0(2), script)

    def test_invalid_step_fails(self):
        script = [Move(Crossing((1, 3), (2, 4)), MoveKind.VV)]
        assert not check_witness(t0(2), t0(2), script)

    @pytest.mark.parametrize("name", list(MALFORMED))
    def test_malformed_script_verdict(self, name):
        t, s, script = MALFORMED[name]
        assert check_witness(t, s, script) is check_by_steps(t, s, script) is False

    def test_sizes_differ(self):
        script = witness_path(FLAT, t0(2))
        assert check_witness(FLAT, t0(3), script) is check_by_steps(FLAT, t0(3), script)
        with pytest.raises(ValueError):
            witness_path(FLAT, t0(3))

    @pytest.mark.parametrize("kind", ["VV", "V", None, True])
    def test_move_refuses_a_kind_that_is_not_a_move_kind(self, kind):
        with pytest.raises(ValueError, match="is not a MoveKind"):
            Move(Crossing((1, 3), (2, 4)), kind)

    def test_move_json_round_trip(self):
        move = Move(Crossing((1, 3), (2, 4)), MoveKind.NESTED)
        assert Move.from_json(move.to_json()) == move
        assert move.to_json()["kind"] == "V"

    @pytest.mark.parametrize("data", [
        {"left": [1], "right": [2, 4], "kind": "VV"},
        {"left": [1, 3], "kind": "VV"},
        {"left": [1, 3.0], "right": [2, 4], "kind": "VV"},
        {"left": [1, 3], "right": [2, True], "kind": "VV"},
        {"left": (1, 3), "right": [2, 4], "kind": "VV"},
        {"left": [1, 3], "right": [2, 4]},
        {"left": [1, 3], "right": [2, 4], "kind": ["VV"]},
        [[1, 3], [2, 4], "VV"],
    ], ids=repr)
    def test_move_json_of_the_wrong_shape(self, data):
        with pytest.raises(ValueError, match=r'a move must be \{"left": \[a, c\]'):
            Move.from_json(data)

    def test_move_json_checks_the_values(self):
        with pytest.raises(ValueError, match="is not a valid MoveKind"):
            Move.from_json({"left": [1, 3], "right": [2, 4], "kind": "X"})
        with pytest.raises(ValueError, match="do not cross"):
            Move.from_json({"left": [1, 2], "right": [3, 4], "kind": "VV"})


class TestConfluence:
    def test_random_strategies_agree(self):
        rng = random.Random(6)
        done = 0
        while done < 40:
            m = Matching(random_matching_arcs(rng, 2 * rng.randint(2, 5)))
            if len(crossings(m)) > 6:
                continue
            done += 1
            baseline = resolve_full(m)
            for _ in range(4):
                script = tuple(rng.randrange(10) for _ in range(5))
                tree = build_resolution_graph(m, script)
                assert tree.sink_multiset() == baseline


def _all_matchings(max_n):
    for n in range(1, max_n + 1):
        for arcs in all_pairings(list(range(1, 2 * n + 1))):
            yield Matching(arcs)


def _insertions(max_arcs):
    """(k, cup, a) for every cup of k - 1 <= ``max_arcs`` arcs and 1 <= a < 2k."""
    for k in range(1, max_arcs + 2):
        for cup in all_pairings(range(1, 2 * k - 1)):
            if not brute_crossing_pairs(cup):
                for a in range(1, 2 * k):
                    yield k, cup, a


def _assert_trusted_keys(m, sinks):
    """What validating each key used to check, asserted directly."""
    warm = resolution_module._INSERTED, resolution_module._CUPS
    resolution_module._INSERTED, resolution_module._CUPS = {}, {}
    try:
        cold = list(resolve_full(m))  # on empty session tables
    finally:
        resolution_module._INSERTED, resolution_module._CUPS = warm
    assert list(sinks) == cold == list(resolve_full(m))
    for w in sinks:
        assert type(w) is CupDiagram
        assert all(type(d) is int for arc in w.arcs for d in arc)
        assert not brute_crossing_pairs(w.arcs)
        assert w.arcs == CupDiagram(w.arcs).arcs


class TestInsertionResolution:
    def test_equals_brute_force(self):
        cases = list(_all_matchings(5))
        rng = random.Random(11)
        cases += [Matching(random_matching_arcs(rng, 2 * n))
                  for n in (6, 7) for _ in range(100)]
        for m in cases:
            sinks = resolve_full(m)
            assert {w.arcs: k for w, k in sinks.items()} == brute_resolve(m.arcs)
            _assert_trusted_keys(m, sinks)

    def test_equals_kernel_on_a_fresh_memo_n8(self):
        rng = random.Random(12)
        for _ in range(50):
            m = Matching(random_matching_arcs(rng, 16))
            sinks = resolve_full(m)
            assert {w.arcs: k for w, k in sinks.items()} == brute_resolve(m.arcs)
            _assert_trusted_keys(m, sinks)

    def test_empty_matching(self):
        assert resolve_full(Matching([])) == {CupDiagram([]): 1}
        with pytest.raises(SizeLimitError):
            resolve_full(Matching([]), node_budget=0)

    def test_session_table_is_bounded_by_n(self):
        table, cups = resolution_module._INSERTED, resolution_module._CUPS
        table.clear()
        cups.clear()
        for m in _all_matchings(5):
            resolve_full(m)
        # C_{k-1} cups of k - 1 arcs times 2k - 1 positions, for k <= 5
        assert len(table) <= 1 + 3 + 10 + 35 + 126
        # one diagram per cup of 0 to 5 arcs: the root, and each a sink kept
        # in the table
        assert len(cups) <= 1 + 1 + 2 + 5 + 14 + 42
        assert set(cups) <= {sink.arcs for sinks in table.values() for sink in sinks} | {()}
        before, cups_before = dict(table), dict(cups)
        for m in _all_matchings(5):
            resolve_full(m)
        assert table == before
        assert cups == cups_before
        assert all(cups[arcs] is w for arcs, w in cups_before.items())
        # the insertions that insertions branch into stay within the bound
        table.clear()
        cups.clear()
        for arcs in all_pairings(range(1, 13)):
            resolve_full(Matching(arcs))
        assert len(table) <= 1 + 3 + 10 + 35 + 126 + 462
        # one diagram per sink, the C_6 cups of 12 dots, and one per key cup
        # of each level below, the root too: exactly C_k diagrams of 2k dots
        # for k <= 6, 197 in all
        catalan = {0: 1, 1: 1, 2: 2, 3: 5, 4: 14, 5: 42, 6: 132}
        for k, c_k in catalan.items():
            assert sum(len(arcs) == k for arcs in cups) == c_k
        assert len(cups) == sum(catalan.values())

    @pytest.mark.parametrize("fill", ["matrix", "matchings"])
    def test_table_holds_the_session_diagrams(self, fill):
        table, cups = resolution_module._INSERTED, resolution_module._CUPS
        table.clear()
        cups.clear()
        if fill == "matrix":
            transition_matrix.cache_clear()
            transition_matrix(6)
        else:
            for m in _all_matchings(5):
                resolve_full(m)
        for (cup, _), sinks in table.items():
            assert cup is cups[cup.arcs]
            assert all(cups[w.arcs] is w for w in sinks)

    def test_equal_sinks_are_one_object(self):
        rng = random.Random(13)
        cases = [Matching(random_matching_arcs(rng, 12)) for _ in range(30)]
        first = {}
        for m in cases:
            for w in resolve_full(m):
                assert first.setdefault(w.arcs, w) is w
        for m in cases:
            again = resolve_full(m)
            assert again is not resolve_full(m)  # a new dict per call
            assert all(first[w.arcs] is w for w in again)

    def test_results_do_not_depend_on_the_session_tables(self):
        rng = random.Random(14)
        cases = [Matching(random_matching_arcs(rng, 2 * n))
                 for n in (3, 5, 7) for _ in range(10)]
        table, cups = resolution_module._INSERTED, resolution_module._CUPS
        warm = [resolve_full(m) for m in cases]
        table.clear()
        cups.clear()
        for m, expected in zip(cases, warm):
            cold = resolve_full(m)
            assert cold == expected == resolve_full(m)
            assert {w.arcs: k for w, k in cold.items()} == brute_resolve(m.arcs)

    def test_insertion_equals_brute_force(self):
        table = resolution_module._INSERTED
        for k, cup, a in _insertions(5):
            table.clear()
            sinks = insert_arc(CupDiagram(cup), a)
            lifted = [(x + (x >= a), y + (y >= a)) for x, y in cup]
            expected = brute_resolve(lifted + [(a, 2 * k)])
            assert dict.fromkeys((w.arcs for w in sinks), 1) == expected
            # distinct sinks, 2^c of them for c arcs crossing (a, 2k)
            covering = sum(x < a <= y for x, y in cup)
            assert len(sinks) == len(expected) == 2 ** covering

    def test_insertion_budget_counts_its_own_tree(self):
        # An insertion crossing c arcs has 2^c sinks: a tree of 2^(c+1) - 1
        # nodes, known before the insertion is made.
        table = resolution_module._INSERTED
        for _, arcs, a in _insertions(5):
            cup = CupDiagram(arcs)
            c = sum(x < a <= y for x, y in arcs)
            size = 2 ** (c + 1) - 1
            table.clear()  # cold
            with pytest.raises(SizeLimitError,
                               match="resolution exceeded its node budget"):
                insert_level({cup: 1}, a, size - 1)
            assert (cup, a) not in table
            level = insert_level({cup: 1}, a, size)
            assert level == dict.fromkeys(insert_arc(cup, a), 1)
            assert len(level) == 2 ** c
            before = dict(table)  # warm: (cup, a) is stored
            with pytest.raises(SizeLimitError):
                insert_level({cup: 1}, a, size - 1)
            assert table == before
            assert insert_level({cup: 1}, a, size) == level

    def test_level_budget_trips_before_the_next_cup(self):
        nested, flat = CupDiagram([(1, 4), (2, 3)]), CupDiagram([(1, 2), (3, 4)])
        table = resolution_module._INSERTED
        table.clear()
        # 4 sinks of multiplicity 2 already make a tree of 15 nodes, counted
        # before the insertion into ``nested`` is made
        with pytest.raises(SizeLimitError):
            insert_level({nested: 2, flat: 1}, 3, 14)
        assert (nested, 3) not in table and (flat, 3) not in table

    def test_refused_call_leaves_the_table_as_it_found_it(self):
        m = Matching([(1, 5), (2, 6), (3, 7), (4, 8)])  # a tree of 31 nodes
        table, cups = resolution_module._INSERTED, resolution_module._CUPS

        def cold():
            table.clear()
            cups.clear()

        def warm():
            cold()
            resolve_full(Matching([(1, 3), (2, 5), (4, 7), (6, 8)]))

        for prepare in (cold, warm):
            prepare()
            before, cups_before = dict(table), dict(cups)
            with pytest.raises(SizeLimitError):
                resolve_full(m, node_budget=30)
            assert table == before
            assert cups == cups_before

    def test_peel_equals_lowering_loop(self):
        cases = [arcs for n in range(7)
                 for arcs in all_pairings(range(1, 2 * n + 1))]
        rng = random.Random(9)
        cases += [tuple(sorted(tuple(sorted(arc))
                               for arc in random_matching_arcs(rng, 16)))
                  for _ in range(200)]
        for arcs in cases:
            assert _peel(arcs) == peel_by_lowering(arcs)

    def test_budget_trips_alike_on_a_cold_and_a_warm_table(self):
        m = Matching([(1, 5), (2, 6), (3, 7), (4, 8)])
        table = resolution_module._INSERTED

        def warm():
            for w in _all_matchings(4):
                resolve_full(w)

        for prepare in (table.clear, warm):
            prepare()
            with pytest.raises(SizeLimitError,
                               match="resolution exceeded its node budget"):
                resolve_full(m, node_budget=30)
            prepare()
            assert sum(resolve_full(m, node_budget=31).values()) == 16

    def test_oversized_call_refuses_before_its_last_level(self):
        # A 24-dot matching whose tree passes the default budget: the level
        # that would pass it is counted, not built, so the refusal peaks at
        # about 33 MiB where building most of that level peaked near 120 MiB.
        m = Matching(random_matching_arcs(random.Random(4), 24))
        warm = resolution_module._INSERTED, resolution_module._CUPS
        resolution_module._INSERTED, resolution_module._CUPS = {}, {}
        try:
            resolve_full(THREE_COLUMN)
            before = dict(resolution_module._INSERTED), dict(resolution_module._CUPS)
            tracemalloc.start()
            try:
                with pytest.raises(SizeLimitError,
                                   match="resolution exceeded its node budget"):
                    resolve_full(m)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (resolution_module._INSERTED, resolution_module._CUPS) == before
        finally:
            resolution_module._INSERTED, resolution_module._CUPS = warm
        assert peak < 48 * 2**20

    def test_matrix_build_runs_no_exact_count(self, monkeypatch):
        # The free bound 2 * (sum << (k - 1)) - 1 stays under the budget at
        # every level of the n = 8 build, so no cup's covering arcs are
        # counted; ``_peel``, which also bisects, is not called by the build.
        calls = []

        def spy(*args):
            calls.append(args)
            return bisect_left(*args)

        monkeypatch.setattr(resolution_module, "bisect_left", spy)
        transition_matrix.cache_clear()
        assert transition_matrix(8).size == 1430
        assert calls == []
        nested, flat = CupDiagram([(1, 4), (2, 3)]), CupDiagram([(1, 2), (3, 4)])
        with pytest.raises(SizeLimitError):  # an exact count, seen by the spy
            insert_level({nested: 2, flat: 1}, 3, 14)
        assert len(calls) == 2

    def test_sinks_digest_n8(self):
        rng = random.Random(8)
        payload = [
            sinks_to_json(16, resolve_full(Matching(random_matching_arcs(rng, 16))))
            for _ in range(20)
        ]
        text = json.dumps(payload)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "50e68aaa7314de540b50d683de981646be55bee00c3d7c76d3f4a5820ce16007"
        )
