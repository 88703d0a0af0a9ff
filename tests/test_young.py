import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import cupweb
from cupweb import (
    EntryCase,
    SizeLimitError,
    StandardTableau,
    build_tableau_graph,
    classify,
    enumerate_syt,
    first_row_dominates,
    leq,
    paths_between,
    rank,
    swap_entries,
    t0,
    transition_matrix,
)
from _oracles import (
    CATALAN,
    Permutation,
    brute_force_syt,
    coxeter_length,
    grow_syt,
    perm_between,
)

T_FOUR = StandardTableau((1, 2, 4, 7), (3, 5, 6, 8))
S_FIVE = StandardTableau((1, 3, 4, 6, 9), (2, 5, 7, 8, 10))
T_FIVE = StandardTableau((1, 2, 4, 5, 7), (3, 6, 8, 9, 10))


class TestStandardTableau:
    def test_valid_construction(self):
        assert T_FOUR.n == 4
        assert T_FOUR.columns() == ((1, 3), (2, 5), (4, 6), (7, 8))
        assert T_FOUR.row_word() == "1 2 4 7 / 3 5 6 8"

    @pytest.mark.parametrize(
        "top,bottom",
        [
            ((1, 3), (2, 3)),      # repeated entry
            ((2, 1), (3, 4)),      # top row not increasing
            ((1, 4), (2, 3)),      # column 2 decreasing
            ((1, 2, 3), (4, 5)),   # ragged rows
        ],
    )
    def test_invalid_construction(self, top, bottom):
        with pytest.raises(ValueError):
            StandardTableau(top, bottom)

    def test_t0(self):
        assert t0(2) == StandardTableau((1, 3), (2, 4))
        assert t0(4).columns() == ((1, 2), (3, 4), (5, 6), (7, 8))
        with pytest.raises(ValueError, match="n must be positive"):
            t0(0)

    def test_row_of(self):
        assert [T_FOUR.row_of(e) for e in range(1, 9)] == [0, 0, 1, 0, 1, 1, 0, 1]
        with pytest.raises(ValueError, match="entry 9 not in tableau"):
            T_FOUR.row_of(9)

    def test_rows_built_from_lists_are_tuples(self):
        listed = StandardTableau([1, 2], [3, 4])
        flat = StandardTableau((1, 2), (3, 4))
        assert (listed.top, listed.bottom) == ((1, 2), (3, 4))
        assert listed == flat
        assert hash(listed) == hash(flat)
        graph = build_tableau_graph(2)
        assert leq(StandardTableau([1, 3], [2, 4]), listed, graph)
        assert not leq(listed, t0(2), graph)


class TestEnumeration:
    def test_n1(self):
        assert enumerate_syt(1) == (StandardTableau((1,), (2,)),)

    def test_n2_matches_brute_force(self):
        got = {(t.top, t.bottom) for t in enumerate_syt(2)}
        assert got == brute_force_syt(2)
        assert got == {((1, 3), (2, 4)), ((1, 2), (3, 4))}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_brute_force(self, n):
        got = {(t.top, t.bottom) for t in enumerate_syt(n)}
        assert got == brute_force_syt(n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_row_growth_in_order(self, n):
        assert [(t.top, t.bottom) for t in enumerate_syt(n)] == grow_syt(n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_validated_construction(self, n):
        # enumerate_syt skips the checks; each tableau must still pass them.
        tableaux = enumerate_syt(n)
        assert [StandardTableau(t.top, t.bottom) for t in tableaux] == list(tableaux)

    def test_n4_contains_example(self):
        tableaux = enumerate_syt(4)
        assert len(tableaux) == 14
        assert T_FOUR in tableaux

    @pytest.mark.parametrize("n", range(1, 8))
    def test_catalan_counts(self, n):
        assert len(enumerate_syt(n)) == CATALAN[n]

    def test_canonical_order(self):
        graph = build_tableau_graph(4)
        ranks = [rank(t, graph) for t in graph.vertices]
        assert ranks == sorted(ranks)
        for a, b in zip(graph.vertices, graph.vertices[1:]):
            assert (rank(a, graph), a.top) < (rank(b, graph), b.top)

    def test_size_errors(self):
        with pytest.raises(SizeLimitError):
            enumerate_syt(0)
        with pytest.raises(SizeLimitError):
            enumerate_syt(9)
        # raising the limit makes the call legal, for that call only
        assert len(enumerate_syt(8, max_n=8)) == CATALAN[8]
        assert len(enumerate_syt(9, max_n=9)) == 4862
        with pytest.raises(SizeLimitError):
            enumerate_syt(9)

    @pytest.mark.parametrize(
        "build", [enumerate_syt, build_tableau_graph, transition_matrix]
    )
    def test_cached_on_n_alone(self, build):
        assert build(5) is build(5, 8) is build(5, max_n=8) is build(5, 6)


class TestClassify:
    def test_examples(self):
        assert classify(T_FOUR, 7) is EntryCase.SAME_COLUMN
        assert classify(T_FOUR, 6) is EntryCase.BELOW
        assert classify(t0(2), 1) is EntryCase.SAME_COLUMN

    def test_row_case_and_mirror(self):
        flat = StandardTableau((1, 2), (3, 4))
        assert classify(flat, 1) is EntryCase.SAME_ROW   # 1,2 adjacent on top
        assert classify(flat, 3) is EntryCase.SAME_ROW   # 3,4 adjacent below
        assert classify(flat, 2) is EntryCase.SAME_ROW   # 2 on top, 3 below

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            classify(t0(2), 0)
        with pytest.raises(ValueError):
            classify(t0(2), 4)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exactly_one_case(self, n):
        # the three labels partition all (tableau, i) pairs, and BELOW/
        # SAME_COLUMN match their definitions exactly
        for tab in enumerate_syt(n):
            for i in range(1, 2 * n):
                case = classify(tab, i)
                below = tab.row_of(i) == 1 and tab.row_of(i + 1) == 0
                same_col = any(
                    col == (i, i + 1) for col in tab.columns()
                )
                assert (case is EntryCase.BELOW) == below
                assert (case is EntryCase.SAME_COLUMN) == same_col


class TestTableauGraph:
    def test_n1_trivial(self):
        graph = build_tableau_graph(1)
        assert len(graph.vertices) == 1
        assert graph.edges == ()

    def test_n2_single_edge(self):
        graph = build_tableau_graph(2)
        flat = StandardTableau((1, 2), (3, 4))
        assert graph.edges == (
            (graph.position(t0(2)), graph.position(flat), 2),
        )

    def test_n3_structure(self):
        graph = build_tableau_graph(3)
        assert len(graph.vertices) == 5
        # exhaustive classification: generators 2 and 4 both move the
        # minimum tableau, so its out-degree is two
        out = [e for e in graph.edges if e[0] == graph.position(t0(3))]
        assert sorted(i for _, _, i in out) == [2, 4]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_unique_source_and_acyclic(self, n):
        graph = build_tableau_graph(n)
        targets = {b for _, b, _ in graph.edges}
        sources = [
            v for k, v in enumerate(graph.vertices) if k not in targets
        ]
        assert sources == [t0(n)]
        # ranks strictly increase along edges, so there are no cycles
        for a, b, _ in graph.edges:
            va, vb = graph.vertices[a], graph.vertices[b]
            assert rank(vb, graph) == rank(va, graph) + 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_edges_match_classify_and_swap(self, n):
        graph = build_tableau_graph(n)
        expected = tuple(
            (src, graph.position(swap_entries(tab, i)), i)
            for src, tab in enumerate(graph.vertices)
            for i in range(1, 2 * n)
            if classify(tab, i) is EntryCase.BELOW
        )
        assert graph.edges == expected

    def test_cached_graph_is_read_only(self):
        graph = build_tableau_graph(3)
        for write in (lambda: setattr(graph, "edges", ()),
                      lambda: delattr(graph, "descendants"),
                      lambda: graph._position.clear()):
            with pytest.raises(AttributeError):
                write()
        with pytest.raises(TypeError):
            graph._position[t0(3)] = 1
        for clone in (copy.copy(graph), copy.deepcopy(graph), pickle.loads(pickle.dumps(graph))):
            assert clone == graph and clone.position(t0(3)) == 0
        # A later call returns the graph that a cold process builds.
        src = str(Path(cupweb.__file__).resolve().parent.parent)
        cold = subprocess.run(
            [sys.executable, "-c",
             "from cupweb import build_tableau_graph\n"
             "g = build_tableau_graph(3)\n"
             "print(repr((g, g.descendants, list(map(g.position, g.vertices)))))"],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src)).stdout
        g = build_tableau_graph(3)
        assert cold == repr((g, g.descendants, list(map(g.position, g.vertices)))) + "\n"
        assert all(leq(s, t, g) == first_row_dominates(s, t)
                   for s in g.vertices for t in g.vertices)

    def test_edge_matches_swap(self):
        graph = build_tableau_graph(4)
        for a, b, i in graph.edges:
            assert swap_entries(graph.vertices[a], i) == graph.vertices[b]


class TestOrder:
    def test_reflexive(self):
        graph = build_tableau_graph(3)
        for v in graph.vertices:
            assert leq(v, v, graph)

    def test_n2(self):
        graph = build_tableau_graph(2)
        flat = StandardTableau((1, 2), (3, 4))
        assert leq(t0(2), flat, graph)
        assert not leq(flat, t0(2), graph)

    def test_ten_dot_pair(self):
        graph = build_tableau_graph(5)
        assert leq(S_FIVE, T_FIVE, graph)
        assert not leq(T_FIVE, S_FIVE, graph)

    def test_unknown_vertex(self):
        graph = build_tableau_graph(2)
        with pytest.raises(ValueError):
            leq(t0(3), t0(3), graph)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_strict_order_raises_rank(self, n):
        graph = build_tableau_graph(n)
        for s in graph.vertices:
            for t in graph.vertices:
                if s != t and leq(s, t, graph):
                    assert rank(s, graph) < rank(t, graph)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_comparable_implies_dominates(self, n):
        graph = build_tableau_graph(n)
        for s in graph.vertices:
            for t in graph.vertices:
                if leq(s, t, graph):
                    assert first_row_dominates(s, t)


class TestRank:
    def test_base(self):
        graph = build_tableau_graph(3)
        assert rank(t0(3), graph) == 0

    def test_n2(self):
        graph = build_tableau_graph(2)
        assert rank(StandardTableau((1, 2), (3, 4)), graph) == 1

    def test_ten_dot_difference(self):
        graph = build_tableau_graph(5)
        assert rank(T_FIVE, graph) - rank(S_FIVE, graph) == 4

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rank_equals_inversions(self, n):
        graph = build_tableau_graph(n)
        for v in graph.vertices:
            assert rank(v, graph) == coxeter_length(perm_between(t0(n), v))


class TestPermutations:
    def test_perm_between_identity(self):
        assert perm_between(T_FOUR, T_FOUR).is_identity()

    def test_perm_between_transposition(self):
        w = perm_between(t0(2), StandardTableau((1, 2), (3, 4)))
        assert w.images == (1, 3, 2, 4)

    def test_ten_dot_word(self):
        expected = Permutation.identity(10)
        for i in (2, 5, 8, 7):  # first edge applied first
            expected = Permutation.transposition(10, i) * expected
        assert perm_between(S_FIVE, T_FIVE) == expected

    def test_coxeter_length(self):
        assert coxeter_length(Permutation.identity(4)) == 0
        assert coxeter_length(Permutation((1, 3, 2, 4))) == 1
        assert coxeter_length(Permutation((4, 3, 2, 1))) == 6

    def test_invalid_permutation(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3, 4))


class TestDominance:
    def test_reflexive(self):
        assert first_row_dominates(T_FOUR, T_FOUR)

    def test_ten_dot_pair(self):
        assert first_row_dominates(S_FIVE, T_FIVE)
        assert not first_row_dominates(T_FIVE, S_FIVE)

    def test_n2(self):
        flat = StandardTableau((1, 2), (3, 4))
        assert first_row_dominates(t0(2), flat)
        assert not first_row_dominates(flat, t0(2))

    def test_different_n_raises(self):
        with pytest.raises(ValueError, match="tableaux must have the same n"):
            first_row_dominates(t0(2), t0(3))


class TestPaths:
    def test_two_paths_at_n3(self):
        graph = build_tableau_graph(3)
        target = StandardTableau((1, 2, 4), (3, 5, 6))
        paths = paths_between(graph, t0(3), target)
        assert sorted(paths) == [[2, 4], [4, 2]]

    def test_limit(self):
        graph = build_tableau_graph(4)
        top = StandardTableau((1, 2, 3, 4), (5, 6, 7, 8))
        assert len(paths_between(graph, t0(4), top, limit=3)) == 3

    def test_limit_zero_and_negative(self):
        graph = build_tableau_graph(3)
        target = StandardTableau((1, 2, 4), (3, 5, 6))
        assert paths_between(graph, t0(3), target, limit=0) == []
        assert paths_between(graph, t0(3), target, limit=1) == [[2, 4]]
        with pytest.raises(ValueError):
            paths_between(graph, t0(3), target, limit=-1)

    def test_edge_labels_are_a_path(self):
        graph = build_tableau_graph(4)
        for target in graph.vertices:
            for labels in paths_between(graph, t0(4), target, limit=2):
                cur = t0(4)
                for i in labels:
                    cur = swap_entries(cur, i)
                assert cur == target
