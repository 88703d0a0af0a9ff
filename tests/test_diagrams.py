import copy
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cupweb import (
    Crossing,
    CupDiagram,
    Matching,
    StandardTableau,
    column_matching,
    crossings,
    cup_of_tableau,
    enumerate_syt,
    is_noncrossing,
    render_ascii,
    render_tikz,
    swap_dots,
    t0,
    tableau_of_cup,
)
from _oracles import all_pairings, brute_crossing_pairs, random_matching_arcs

T_FOUR = StandardTableau((1, 2, 4, 7), (3, 5, 6, 8))
S_FIVE = StandardTableau((1, 3, 4, 6, 9), (2, 5, 7, 8, 10))
T_FIVE = StandardTableau((1, 2, 4, 5, 7), (3, 6, 8, 9, 10))


@st.composite
def matchings(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    perm = draw(st.permutations(list(range(1, 2 * n + 1))))
    return Matching([(perm[2 * k], perm[2 * k + 1]) for k in range(n)])


class TestMatching:
    def test_canonical_form(self):
        a = Matching([(6, 1), (3, 2), (4, 5)])
        b = Matching([(2, 3), (1, 6), (5, 4)])
        assert a == b
        assert hash(a) == hash(b)
        assert a.arcs == ((1, 6), (2, 3), (4, 5))

    def test_partner(self):
        m = Matching([(1, 6), (2, 3), (4, 5)])
        assert m.partner(1) == 6
        assert m.partner(3) == 2

    def test_holds_only_its_arcs(self):
        m = Matching([(1, 6), (2, 3), (4, 5)])
        assert Matching.__slots__ == ("arcs", "_hash")
        assert CupDiagram.__slots__ == ()
        assert not hasattr(m, "__dict__")
        assert [m.partner(d) for d in range(1, 7)] == [6, 3, 2, 5, 4, 1]
        for dot in (0, 7):
            with pytest.raises(KeyError):
                m.partner(dot)

    def test_is_read_only(self):
        # A write would change the hash of a matching already held in a set.
        for m in (Matching([(1, 2), (3, 4)]), cup_of_tableau(t0(2))):
            held = {m}
            with pytest.raises(AttributeError):
                m.arcs = ((1, 3), (2, 4))
            with pytest.raises(AttributeError):
                del m.arcs
            assert m.arcs == ((1, 2), (3, 4)) and m in held
            for clone in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
                assert type(clone) is type(m) and clone == m

    def test_hash_is_stored_once(self):
        # Every way to build a matching sets the hash of its arc tuple, and
        # the stored hash can be neither replaced nor removed.
        arcs = ((1, 6), (2, 3), (4, 5))
        built = [Matching([(6, 1), (3, 2), (5, 4)]), Matching._trusted(arcs),
                 CupDiagram(arcs), CupDiagram._trusted(arcs),
                 cup_of_tableau(StandardTableau((1, 2, 4), (3, 5, 6)))]
        for m in built:
            for clone in (m, copy.copy(m), copy.deepcopy(m),
                          pickle.loads(pickle.dumps(m))):
                assert clone.arcs == arcs and hash(clone) == hash(arcs)
            with pytest.raises(AttributeError):
                m._hash = 0
            with pytest.raises(AttributeError):
                del m._hash
            assert hash(m) == hash(arcs)
        for m in map(cup_of_tableau, enumerate_syt(4)):
            assert hash(m) == hash(m.arcs)

    @pytest.mark.parametrize(
        "arcs", [[(1, 2), (2, 3)], [(1, 2), (4, 5)], [(1, 1), (2, 3)]]
    )
    def test_invalid(self, arcs):
        with pytest.raises(ValueError):
            Matching(arcs)

    def test_json_round_trip(self):
        m = Matching([(1, 6), (2, 3), (4, 5), (7, 8)])
        assert Matching.from_json(m.to_json()) == m
        assert m.to_json() == {
            "n2": 8,
            "arcs": [[1, 6], [2, 3], [4, 5], [7, 8]],
        }

    @pytest.mark.parametrize("n2", [4.0, True, "4", None])
    def test_json_refuses_a_non_int_n2(self, n2):
        with pytest.raises(ValueError, match="not an integer"):
            Matching.from_json({"arcs": [[1, 3], [2, 4]], "n2": n2})

    def test_json_refuses_an_n2_other_than_the_dot_count(self):
        with pytest.raises(ValueError, match="n2 field disagrees with the arc list"):
            Matching.from_json({"n2": 6, "arcs": [[1, 2], [3, 4]]})

    def test_cup_diagram_rejects_crossing(self):
        with pytest.raises(ValueError):
            CupDiagram([(1, 3), (2, 4)])

    def test_cup_equals_plain_matching(self):
        assert CupDiagram([(1, 2)]) == Matching([(1, 2)])


class TestCupOfTableau:
    def test_four_columns(self):
        assert cup_of_tableau(T_FOUR).arcs == ((1, 6), (2, 3), (4, 5), (7, 8))

    def test_smallest(self):
        assert cup_of_tableau(t0(1)).arcs == ((1, 2),)

    def test_five_columns(self):
        assert cup_of_tableau(S_FIVE).arcs == (
            (1, 2), (3, 8), (4, 5), (6, 7), (9, 10),
        )

    def test_left_endpoints_are_top_row(self):
        for n in range(1, 6):
            for tab in enumerate_syt(n):
                assert cup_of_tableau(tab).left_endpoints() == tab.top

    @pytest.mark.parametrize("n", range(1, 9))
    def test_trusted_form_equals_the_validated_one(self, n):
        for tab in enumerate_syt(n):
            cup = cup_of_tableau(tab)
            checked = CupDiagram(cup.arcs)
            assert type(cup) is type(checked) is CupDiagram
            assert cup.arcs == checked.arcs and cup == checked


class TestTableauOfCup:
    def test_smallest(self):
        assert tableau_of_cup(Matching([(1, 2)])) == t0(1)

    def test_four_columns(self):
        w = Matching([(1, 6), (2, 3), (4, 5), (7, 8)])
        assert tableau_of_cup(w) == T_FOUR

    def test_adjacent_cups(self):
        assert tableau_of_cup(Matching([(1, 2), (3, 4), (5, 6)])) == t0(3)

    def test_rejects_crossing(self):
        with pytest.raises(ValueError):
            tableau_of_cup(Matching([(1, 3), (2, 4)]))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_bijection(self, n):
        seen = set()
        for tab in enumerate_syt(n):
            w = cup_of_tableau(tab)
            assert tableau_of_cup(w) == tab
            seen.add(w)
        assert len(seen) == len(enumerate_syt(n))

    @given(matchings())
    def test_round_trip_from_noncrossing(self, m):
        if is_noncrossing(m):
            assert cup_of_tableau(tableau_of_cup(m)) == m


class TestColumnMatching:
    def test_three_columns(self):
        tab = StandardTableau((1, 2, 4), (3, 5, 6))
        assert column_matching(tab.columns()).arcs == ((1, 3), (2, 5), (4, 6))

    def test_base_tableau(self):
        for n in (1, 3, 5):
            assert column_matching(t0(n).columns()) == Matching(
                [(2 * k + 1, 2 * k + 2) for k in range(n)]
            )

    def test_five_columns(self):
        assert column_matching(T_FIVE.columns()).arcs == (
            (1, 3), (2, 6), (4, 8), (5, 9), (7, 10),
        )

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            column_matching([(1, 2), (2, 3)])
        with pytest.raises(ValueError):
            column_matching([(1, 2), (5, 6)])

    @pytest.mark.parametrize("n", range(1, 6))
    def test_noncrossing_iff_equals_cup(self, n):
        for tab in enumerate_syt(n):
            m = column_matching(tab.columns())
            assert m.left_endpoints() == tab.top
            if is_noncrossing(m):
                assert m == cup_of_tableau(tab)
            else:
                assert m != cup_of_tableau(tab)


class TestCrossings:
    def test_adjacent_cups(self):
        assert crossings(Matching([(1, 2), (3, 4), (5, 6)])) == []

    def test_two_crossings(self):
        found = crossings(Matching([(1, 3), (2, 5), (4, 6)]))
        assert [(c.left, c.right) for c in found] == [
            ((1, 3), (2, 5)), ((2, 5), (4, 6)),
        ]

    def test_nested_is_noncrossing(self):
        assert crossings(Matching([(1, 4), (2, 3)])) == []
        assert is_noncrossing(Matching([(1, 6), (2, 3), (4, 5)]))

    def test_minimal_crossing(self):
        assert not is_noncrossing(Matching([(1, 3), (2, 4)]))

    def test_crossing_validation(self):
        with pytest.raises(ValueError):
            Crossing((1, 4), (2, 3))   # nested, not crossing

    @given(matchings())
    def test_matches_brute_force(self, m):
        got = {(c.left, c.right) for c in crossings(m)}
        assert got == brute_crossing_pairs(m.arcs)
        assert is_noncrossing(m) == (not got)


class TestSwapDots:
    M = Matching([(1, 3), (2, 4), (5, 6)])

    def test_swap_examples(self):
        assert swap_dots(self.M, 4) == Matching([(1, 3), (2, 5), (4, 6)])
        assert swap_dots(self.M, 1) == Matching([(1, 4), (2, 3), (5, 6)])
        assert swap_dots(self.M, 3) == Matching([(1, 4), (2, 3), (5, 6)])

    def test_same_arc_rejected(self):
        with pytest.raises(ValueError):
            swap_dots(self.M, 5)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            swap_dots(self.M, 6)

    def test_equals_the_validated_matching(self):
        for n in range(1, 6):
            for arcs in all_pairings(range(1, 2 * n + 1)):
                m = Matching(arcs)
                for i in range(1, 2 * n):
                    if m.partner(i) == i + 1:
                        continue
                    swap = {i: i + 1, i + 1: i}
                    got = swap_dots(m, i)
                    want = Matching((swap.get(a, a), swap.get(b, b)) for a, b in arcs)
                    assert type(got) is Matching and got.arcs == want.arcs

    @given(matchings(), st.integers(1, 9))
    def test_involution(self, m, i):
        if i > m.n2 - 1 or m.partner(i) == i + 1:
            return
        assert swap_dots(swap_dots(m, i), i) == m

    @given(matchings(), st.integers(1, 9))
    def test_crossing_count_changes_by_one(self, m, i):
        if i > m.n2 - 1 or m.partner(i) == i + 1:
            return
        before = len(crossings(m))
        after = len(crossings(swap_dots(m, i)))
        assert abs(after - before) == 1


def _parse_ascii(text):
    """Recover the arc list from a rendering; used to check injectivity."""
    lines = text.rstrip("\n").split("\n")
    arcs = []
    for line in lines[1:]:
        opens = [k for k, ch in enumerate(line) if ch == "\\"]
        closes = [k for k, ch in enumerate(line) if ch == "/"]
        for a, b in zip(opens, closes):
            arcs.append((a // 3 + 1, b // 3 + 1))
    return tuple(sorted(arcs))


class TestRendering:
    def test_adjacent_cups_golden(self):
        expected = "1  2  3  4\n\\__/  \\__/\n"
        assert render_ascii(Matching([(1, 2), (3, 4)])) == expected

    def test_crossing_golden(self):
        expected = "1  2  3  4\n\\_____/\n   \\_____/\n"
        assert render_ascii(Matching([(1, 3), (2, 4)])) == expected

    def test_render_parses_back(self):
        rng = random.Random(7)
        for _ in range(50):
            n2 = 2 * rng.randint(1, 6)
            m = Matching(random_matching_arcs(rng, n2))
            assert _parse_ascii(render_ascii(m)) == m.arcs

    def test_deterministic(self):
        m = Matching([(1, 6), (2, 3), (4, 5)])
        assert render_ascii(m) == render_ascii(Matching(m.arcs))
        assert render_tikz(m) == render_tikz(Matching(m.arcs))

    def test_tikz_structure(self):
        text = render_tikz(Matching([(1, 2), (3, 4)]))
        assert text.startswith("\\documentclass[tikz]{standalone}")
        assert text.count("controls") == 2
        assert text.rstrip().endswith("\\end{document}")
