import copy
import json
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cupweb import (
    CupDiagram,
    DiagramVector,
    Matching,
    SizeLimitError,
    StandardTableau,
    TabloidVector,
    TwoRowTableau,
    act_matching,
    act_polytabloid,
    act_web,
    canonicalize_columns,
    column_matching,
    column_matching_vector,
    cup_of_tableau,
    cup_polytabloid,
    enumerate_syt,
    garnir_straighten,
    build_tableau_graph,
    resolve_full,
    shifted_product,
    t0,
    to_web_basis,
    transition_matrix,
    verify_psi,
)
from cupweb.actions import DEFAULT_STEP_BUDGET, _straighten
from _oracles import (
    EntryCase,
    act_model,
    all_pairings,
    classify,
    model_of_vector,
    paths_between,
    straighten_by_first_descent,
    straighten_on_columns,
)

T_FOUR = StandardTableau((1, 2, 4, 7), (3, 5, 6, 8))
R_FOUR = StandardTableau((1, 2, 4, 6), (3, 5, 7, 8))
FLAT_TWO = TwoRowTableau(((1, 3), (2, 4)))   # top 1 2 / bottom 3 4
BASE_TWO = TwoRowTableau(((1, 2), (3, 4)))   # the minimum tableau at n=2


def random_filling(rng: random.Random, n: int) -> TwoRowTableau:
    dots = list(range(1, 2 * n + 1))
    rng.shuffle(dots)
    tab, _ = canonicalize_columns(zip(dots[::2], dots[1::2]))
    return tab


def smallest_step_budget(tab: TwoRowTableau) -> int:
    def fits(budget):
        try:
            garnir_straighten(tab, step_budget=budget)
            return True
        except SizeLimitError:
            return False

    # Fitting is monotone in the budget: double past it, then bisect.
    lo, hi = -1, 0  # lo never fits; hi fits once the doubling stops
    while not fits(hi):
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    return hi


def rewrite_children(tab: TwoRowTableau) -> list[TwoRowTableau]:
    """The two fillings of the three-term rewrite the kernel makes first.

    The pair is (a/b), (c/x): x is the least bottom entry with a larger
    bottom entry left of it, and (a/b) the first column with b > x.
    """
    cols = tab.columns
    x = min(b for k, (_, b) in enumerate(cols)
            if any(b2 > b for _, b2 in cols[:k]))
    i = next(j for j, (_, b) in enumerate(cols) if b > x)
    k = next(j for j, (_, b) in enumerate(cols) if b == x)
    (a, b), c = cols[i], cols[k][0]
    rest = tuple(col for j, col in enumerate(cols) if j not in (i, k))
    return [canonicalize_columns(rest + pair)[0]
            for pair in (((a, x), (c, b)), ((a, c), (x, b)))]


def nonzero_expansion(out: dict) -> dict:
    """A kernel's ``{columns: {label: coeff}}`` without zero coefficients."""
    return {cols: {label: c for label, c in vec.items() if c}
            for cols, vec in out.items() if any(vec.values())}


def unit(tableau: StandardTableau) -> TabloidVector:
    return TabloidVector.unit(TwoRowTableau.from_standard(tableau))


class TestTwoRowTableau:
    def test_rows(self):
        assert FLAT_TWO.top == (1, 2)
        assert FLAT_TWO.bottom == (3, 4)
        assert FLAT_TWO.is_standard()

    def test_nonstandard(self):
        tab = TwoRowTableau(((1, 4), (2, 3)))
        assert not tab.is_standard()
        with pytest.raises(ValueError):
            tab.to_standard()

    @pytest.mark.parametrize(
        "cols",
        [((2, 1), (3, 4)), ((3, 4), (1, 2)), ((1, 2), (2, 3))],
    )
    def test_rejects_non_normal_form(self, cols):
        with pytest.raises(ValueError):
            TwoRowTableau(cols)

    @pytest.mark.parametrize("cols", [((True, 3), (2, 4)), ((1.0, 3), (2, 4))])
    def test_rejects_entries_that_are_not_ints(self, cols):
        with pytest.raises(ValueError):
            TwoRowTableau(cols)

    def test_columns_built_from_lists_are_tuples(self):
        listed = TwoRowTableau([[1, 4], [2, 3]])
        nested = TwoRowTableau(((1, 4), (2, 3)))
        assert listed.columns == ((1, 4), (2, 3))
        assert listed == nested and hash(listed) == hash(nested)
        assert garnir_straighten(listed) == (
            TabloidVector.unit(FLAT_TWO) - TabloidVector.unit(BASE_TWO))
        assert garnir_straighten(TwoRowTableau([[1, 3], [2, 4]])) == (
            TabloidVector.unit(FLAT_TWO))

    def test_canonicalize_sign(self):
        tab, sign = canonicalize_columns([(2, 1), (3, 4)])
        assert (tab, sign) == (BASE_TWO, -1)
        tab, sign = canonicalize_columns([(4, 1), (3, 2)])
        assert (tab, sign) == (TwoRowTableau(((1, 4), (2, 3))), 1)

    def test_round_trip_standard(self):
        assert TwoRowTableau.from_standard(T_FOUR).to_standard() == T_FOUR


# One space per vector type: the class, its size, two keys of that size and
# a key of another size.  Each case of ``TestVectors`` runs in both.
SPACES = [
    (TabloidVector, 2, FLAT_TWO, BASE_TWO, TwoRowTableau(((1, 2), (3, 4), (5, 6)))),
    (DiagramVector, 4, Matching([(1, 3), (2, 4)]), Matching([(1, 2), (3, 4)]),
     Matching([(1, 2), (3, 4), (5, 6)])),
]
SPACE_IDS = [space[0].__name__ for space in SPACES]
INEXACT = [1.5, -2.0, True, False, "1", None]


class TestVectors:
    def test_algebra(self):
        for cls, _, a_key, b_key, _ in SPACES:
            a = cls.unit(a_key)
            b = cls.unit(b_key, 2)
            combo = 3 * a - b
            assert combo.terms == {a_key: 3, b_key: -2}
            assert (combo - combo).is_zero()
            assert -combo == (-1) * combo == b - 3 * a

    def test_is_read_only(self):
        for cls, size, key, other, _ in SPACES:
            for v in (cls.unit(key), cls.unit(key) + cls.unit(other)):
                with pytest.raises(TypeError):
                    v.terms[key] = 2
                for name in ("terms", "size"):
                    with pytest.raises(AttributeError):
                        setattr(v, name, {})
                    with pytest.raises(AttributeError):
                        delattr(v, name)
            assert cls.unit(key).terms == {key: 1}
            v = cls.unit(key) - 2 * cls.unit(other)
            for clone in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
                assert type(clone) is cls and clone == v
                with pytest.raises(TypeError):
                    clone.terms[key] = 2
        v = TabloidVector.unit(FLAT_TWO)
        with pytest.raises(TypeError):
            v.terms[FLAT_TWO] = 1.5
        straightened = garnir_straighten(v)
        assert straightened == garnir_straighten(FLAT_TWO)
        assert all(type(c) is int for c in straightened.terms.values())
        with pytest.raises(TypeError):
            straightened.terms[BASE_TWO] = 0

    def test_zero_coefficients_dropped(self):
        for cls, size, key, _, _ in SPACES:
            assert cls(size, {key: 0}).is_zero()
            assert (cls.unit(key) - cls.unit(key)).terms == {}
            assert (0 * cls.unit(key)).terms == {}

    def test_key_validation(self):
        for (cls, size, key, _, other), (_, _, foreign, _, _) in zip(SPACES, SPACES[::-1]):
            with pytest.raises(ValueError, match="bad key"):
                cls(size + 2, {key: 1})
            with pytest.raises(ValueError, match="bad key"):
                cls(size, {other: 1})
            with pytest.raises(ValueError, match="bad key"):
                cls(size, {foreign: 1})

    def test_size_mismatch(self):
        for (cls, size, key, _, _), (other_cls, other_size, _, _, _) in zip(
                SPACES, SPACES[::-1]):
            with pytest.raises(ValueError):
                cls.unit(key) + cls(size + 2, {})
            with pytest.raises(ValueError):
                cls.unit(key) - other_cls(other_size, {})

    def test_json(self):
        for cls, size, a_key, b_key, _ in SPACES:
            v = cls.unit(a_key) - 2 * cls.unit(b_key)
            assert cls.from_json(size, v.to_json()) == v
        d = DiagramVector.unit(Matching([(1, 2), (3, 4)]), 5)
        assert DiagramVector.from_json(4, d.to_json()) == d
        assert DiagramVector.from_json(4, [{"arcs": [[1, 2], [3, 4]], "coeff": 5}]) == d

    @pytest.mark.parametrize("cls, size, data, shape", [
        (DiagramVector, 4, [{"coeff": 1}], r'a matching must be \{"arcs"'),
        (DiagramVector, 4, [{"arcs": [["a", 1], [2, 3]], "coeff": 1}],
         r'a matching must be \{"arcs"'),
        (DiagramVector, 4, [{"arcs": [[1, 2], [3, 4]]}],
         r'a DiagramVector must be a list of \{"arcs": \[\[a, b\], \.\.\.\], "coeff": c\}'),
        (DiagramVector, 4, {"arcs": [[1, 2], [3, 4]], "coeff": 1},
         r"a DiagramVector must be a list of"),
        (TabloidVector, 2, [{"top": [1], "coeff": 1}], r'a filling must be \{"top"'),
        (TabloidVector, 2, [{"top": [1, 2], "bottom": [3], "coeff": 1}],
         r'a filling must be \{"top"'),
        (TabloidVector, 2, [{"top": [1, 2], "bottom": [3, 4.0], "coeff": 1}],
         r'a filling must be \{"top"'),
        (TabloidVector, 2, [{"top": [1, 2], "bottom": [3, 4]}],
         r'a TabloidVector must be a list of \{"top": \[\.\.\.\], "bottom"'),
        (TabloidVector, 2, [[1, 2]], r"a TabloidVector must be a list of"),
    ], ids=repr)
    def test_json_of_the_wrong_shape(self, cls, size, data, shape):
        with pytest.raises(ValueError, match=shape):
            cls.from_json(size, data)

    @pytest.mark.parametrize("coeff", [1.5, 2.9, True, "1.5"], ids=repr)
    def test_json_refuses_inexact_coefficients(self, coeff):
        tabloid = {"top": [1, 2], "bottom": [3, 4], "coeff": coeff}
        with pytest.raises(ValueError, match="coefficient"):
            TabloidVector.from_json(2, [tabloid])
        with pytest.raises(ValueError, match="coefficient"):
            DiagramVector.from_json(4, [{"arcs": [[1, 2], [3, 4]], "coeff": coeff}])

    @pytest.mark.parametrize("coeff", INEXACT, ids=repr)
    @pytest.mark.parametrize("space", SPACES, ids=SPACE_IDS)
    def test_constructors_refuse_inexact_coefficients(self, space, coeff):
        cls, size, key, _, _ = space
        with pytest.raises(ValueError, match="coefficient .* is not an integer"):
            cls(size, {key: coeff})
        with pytest.raises(ValueError, match="coefficient .* is not an integer"):
            cls.unit(key, coeff)

    @pytest.mark.parametrize("scalar", INEXACT, ids=repr)
    @pytest.mark.parametrize("space", SPACES, ids=SPACE_IDS)
    def test_scalar_product_refuses_inexact_scalars(self, space, scalar):
        cls, size, key, _, _ = space
        for v in (cls.unit(key), cls(size, {})):
            with pytest.raises(ValueError, match="coefficient .* is not an integer"):
                scalar * v

    @pytest.mark.parametrize("space, text", [
        (SPACES[0], "TabloidVector(1*TwoRowTableau('1 2' / '3 4') + "
                    "-2*TwoRowTableau('1 3' / '2 4'))"),
        (SPACES[1], "DiagramVector(-2*Matching[(1,2)(3,4)] + 1*Matching[(1,3)(2,4)])"),
    ], ids=SPACE_IDS)
    def test_repr_and_hash(self, space, text):
        cls, size, a_key, b_key, _ = space
        v = cls(size, {a_key: 1, b_key: -2})
        assert v == cls.unit(b_key, -2) + cls.unit(a_key)
        assert hash(v) == hash(cls.unit(b_key, -2) + cls.unit(a_key))
        assert repr(v) == text
        assert repr(cls(size, {})) == f"{cls.__name__}(0)"

    def test_to_json_is_pinned(self):
        # Records are sorted by the key's tuple form; the text must not drift.
        nested = TwoRowTableau(((1, 4), (2, 3)))
        v = TabloidVector(2, {nested: 3, FLAT_TWO: -2, BASE_TWO: 10**20})
        assert json.dumps(v.to_json()) == (
            '[{"top": [1, 3], "bottom": [2, 4], "coeff": "100000000000000000000"}, '
            '{"top": [1, 2], "bottom": [3, 4], "coeff": "-2"}, '
            '{"top": [1, 2], "bottom": [4, 3], "coeff": "3"}]'
        )
        d = DiagramVector(4, {Matching([(1, 4), (2, 3)]): 3,
                              Matching([(1, 3), (2, 4)]): -2,
                              Matching([(1, 2), (3, 4)]): 1})
        assert json.dumps(d.to_json()) == (
            '[{"n2": 4, "arcs": [[1, 2], [3, 4]], "coeff": "1"}, '
            '{"n2": 4, "arcs": [[1, 3], [2, 4]], "coeff": "-2"}, '
            '{"n2": 4, "arcs": [[1, 4], [2, 3]], "coeff": "3"}]'
        )


def vectors(cls, size, key):
    """Vectors of ``cls`` over every normal-form pairing of ``size``-dot keys."""
    pairings = [key(p) for p in all_pairings(range(1, 7))]
    terms = st.dictionaries(st.sampled_from(pairings), st.integers(), max_size=6)
    return terms.map(lambda t: cls(size, t))


VECTOR_PAIRS = st.one_of(
    st.tuples(vectors(TabloidVector, 3, TwoRowTableau),
              vectors(TabloidVector, 3, TwoRowTableau)),
    st.tuples(vectors(DiagramVector, 6, Matching), vectors(DiagramVector, 6, Matching)),
)


@given(VECTOR_PAIRS)
def test_vector_laws(pair):
    a, b = pair
    assert a + b - b == a
    assert (0 * a).is_zero()
    assert type(a).from_json(a.size, a.to_json()) == a
    assert type(a).from_json(a.size, json.loads(json.dumps(a.to_json()))) == a


class TestActMatching:
    M = Matching([(1, 3), (2, 4), (5, 6)])

    def test_same_arc_negates(self):
        v = DiagramVector.unit(self.M)
        assert act_matching(5, v) == -1 * v

    def test_swap(self):
        v = DiagramVector.unit(self.M)
        m1 = Matching([(1, 3), (2, 5), (4, 6)])
        assert act_matching(4, v) == DiagramVector.unit(m1)

    def test_involution(self):
        rng = random.Random(1)
        for _ in range(100):
            n = rng.randint(1, 5)
            dots = list(range(1, 2 * n + 1))
            rng.shuffle(dots)
            m = Matching([(dots[2 * k], dots[2 * k + 1]) for k in range(n)])
            v = DiagramVector.unit(m, rng.choice([1, -2, 3]))
            i = rng.randint(1, 2 * n - 1)
            assert act_matching(i, act_matching(i, v)) == v

    def test_index_range(self):
        with pytest.raises(ValueError):
            act_matching(6, DiagramVector.unit(self.M))


class TestActWeb:
    def test_same_arc_negates(self):
        w = cup_of_tableau(T_FOUR)
        assert act_web(7, DiagramVector.unit(w)) == -1 * DiagramVector.unit(w)

    def test_right_left_pair_adds_outer(self):
        w = cup_of_tableau(T_FOUR)
        w_outer = Matching([(1, 8), (2, 3), (4, 5), (6, 7)])
        got = act_web(6, DiagramVector.unit(w))
        assert got == DiagramVector.unit(w) + DiagramVector.unit(w_outer)

    def test_single_crossing_resolution(self):
        w = Matching([(1, 2), (3, 4)])
        got = act_web(2, DiagramVector.unit(w))
        assert got == DiagramVector.unit(w) + DiagramVector.unit(
            Matching([(1, 4), (2, 3)])
        )

    def test_rejects_crossing_support(self):
        with pytest.raises(ValueError):
            act_web(1, DiagramVector.unit(Matching([(1, 3), (2, 4)])))

    @staticmethod
    def assert_resolved_form(i, v):
        """``act_web`` equals resolving the swapped matchings, on the shared diagrams."""
        got = act_web(i, v)
        assert got == to_web_basis(act_matching(i, v))
        for key in got.terms:
            assert type(key) is CupDiagram
            assert key is next(iter(resolve_full(Matching(key.arcs))))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_the_resolution_on_every_cup(self, n):
        for tab in enumerate_syt(n):
            v = DiagramVector.unit(cup_of_tableau(tab))
            for i in range(1, 2 * n):
                self.assert_resolved_form(i, v)

    def test_equals_the_resolution_on_seeded_vectors(self):
        # Terms may cancel, and some keys are noncrossing ``Matching``s.
        rng = random.Random(29)
        cups = [cup_of_tableau(t) for t in enumerate_syt(7)]
        for _ in range(200):
            terms = {}
            for w in rng.sample(cups, rng.randint(2, 5)):
                key = Matching(w.arcs) if rng.random() < 0.5 else w
                terms[key] = rng.choice([-3, -1, 1, 2])
            self.assert_resolved_form(rng.randint(1, 13), DiagramVector(14, terms))

    @pytest.mark.parametrize("i", [0, 4, -1])
    def test_index_range(self, i):
        with pytest.raises(ValueError, match="out of range"):
            act_web(i, DiagramVector.unit(CupDiagram([(1, 4), (2, 3)])))

    def test_support_stays_noncrossing(self):
        from cupweb import is_noncrossing

        rng = random.Random(2)
        for n in (2, 3, 4):
            for tab in enumerate_syt(n):
                v = DiagramVector.unit(cup_of_tableau(tab))
                i = rng.randint(1, 2 * n - 1)
                out = act_web(i, v)
                assert all(is_noncrossing(k) for k in out.terms)


class TestActPolytabloid:
    def test_same_column_negates(self):
        v = unit(T_FOUR)
        assert act_polytabloid(7, v) == -1 * v

    def test_below_moves(self):
        assert act_polytabloid(6, unit(T_FOUR)) == unit(R_FOUR)

    def test_row_case_involution(self):
        v = unit(t0(2))
        once = act_polytabloid(2, v)
        assert once == unit(StandardTableau((1, 2), (3, 4)))
        assert act_polytabloid(2, once) == v

    @pytest.mark.parametrize("i", [0, 8])
    def test_index_range(self, i):
        with pytest.raises(ValueError, match=f"generator index {i} out of range for n=4"):
            act_polytabloid(i, unit(T_FOUR))

    def test_rejects_nonstandard_keys(self):
        v = TabloidVector.unit(TwoRowTableau(((1, 4), (2, 3))))
        with pytest.raises(ValueError):
            act_polytabloid(1, v)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_agrees_with_tabloid_model(self, n):
        for tab in enumerate_syt(n):
            v = unit(tab)
            for i in range(1, 2 * n):
                assert model_of_vector(act_polytabloid(i, v)) == act_model(
                    i, model_of_vector(v)
                )


class TestStraightening:
    def test_standard_fixed(self):
        v = garnir_straighten(FLAT_TWO)
        assert v == TabloidVector.unit(FLAT_TWO)

    def test_two_column_rewrite(self):
        tab = TwoRowTableau(((1, 4), (2, 3)))
        got = garnir_straighten(tab)
        assert got == TabloidVector.unit(FLAT_TWO) - TabloidVector.unit(BASE_TWO)

    def test_column_sort_sign(self):
        tab, sign = canonicalize_columns([(2, 1), (3, 4)])
        got = sign * garnir_straighten(tab)
        assert got == -1 * TabloidVector.unit(BASE_TWO)

    def test_keys_equal_validated_constructions(self):
        rng = random.Random(8)
        inputs = [random_filling(rng, rng.randint(1, 6)) for _ in range(60)]
        # BASE_TWO cancels out of the straightened sum and must be dropped
        inputs.append(TabloidVector.unit(TwoRowTableau(((1, 4), (2, 3))))
                      + TabloidVector.unit(BASE_TWO))
        for x in inputs:
            got = garnir_straighten(x)
            assert type(got) is TabloidVector
            assert got == TabloidVector(got.n, dict(got.terms))
            assert all(got.terms.values())
            for key in got.terms:
                assert type(key) is TwoRowTableau
                assert key == TwoRowTableau(key.columns) and key.is_standard()
                assert all(type(e) is int for col in key.columns for e in col)
        assert got == TabloidVector.unit(FLAT_TWO)

    def test_output_keys_standard(self):
        for cols in all_pairings(range(1, 7)):
            for key in garnir_straighten(TwoRowTableau(cols)).terms:
                assert key.is_standard()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_tabloid_model_exhaustive(self, n):
        for cols in all_pairings(range(1, 2 * n + 1)):
            tab = TwoRowTableau(cols)
            assert model_of_vector(garnir_straighten(tab)) == model_of_vector(
                TabloidVector.unit(tab)
            )

    def test_matches_tabloid_model_n4_sample(self):
        rng = random.Random(3)
        fillings = list(all_pairings(range(1, 9)))
        for cols in rng.sample(fillings, 40):
            tab = TwoRowTableau(cols)
            assert model_of_vector(garnir_straighten(tab)) == model_of_vector(
                TabloidVector.unit(tab)
            )

    def test_linear_input(self):
        tab = TwoRowTableau(((1, 4), (2, 3)))
        v = 2 * TabloidVector.unit(tab) + TabloidVector.unit(FLAT_TWO)
        got = garnir_straighten(v)
        assert got == 3 * TabloidVector.unit(FLAT_TWO) - 2 * TabloidVector.unit(
            BASE_TWO
        )

    def test_step_budget(self):
        cols = tuple((k, 12 - k + 1) for k in range(1, 7))
        tab = TwoRowTableau(tuple(sorted(cols)))
        garnir_straighten(tab)  # a finished run must not lift the budget
        for _ in range(2):
            with pytest.raises(SizeLimitError):
                garnir_straighten(tab, step_budget=2)


    @pytest.mark.parametrize("n", [5, 6])
    def test_matches_tabloid_model_random(self, n):
        rng = random.Random(40 + n)
        for _ in range(25):
            tab = random_filling(rng, n)
            assert model_of_vector(garnir_straighten(tab)) == model_of_vector(
                TabloidVector.unit(tab)
            )

    def test_step_budget_is_deterministic(self):
        # The budget counts distinct expansions of one input, so the
        # smallest budget that lets a filling through does not depend on
        # what ran before it.
        rng = random.Random(12)
        fillings = []
        while len(fillings) < 12:
            tab = random_filling(rng, rng.randint(2, 5))
            if not tab.is_standard():
                fillings.append(tab)
        cold = [smallest_step_budget(tab) for tab in fillings]
        for tab in fillings:
            garnir_straighten(tab)
        after_others = [smallest_step_budget(tab) for tab in reversed(fillings)]
        assert verify_psi(transition_matrix(5)).passed
        after_psi = [smallest_step_budget(tab) for tab in fillings]
        assert cold == after_others[::-1] == after_psi
        for tab, budget in zip(fillings, cold):
            assert budget >= 1
            with pytest.raises(SizeLimitError):
                garnir_straighten(tab, step_budget=budget - 1)

    def test_vector_is_one_sweep(self):
        # A vector is straightened in one sweep: the result is the sum of
        # the per-key results, and a filling reached from several keys is
        # expanded once, so the vector needs at most the sum of their budgets.
        rng = random.Random(2026)
        for trial in range(20):
            n = rng.randint(3, 6)
            keys = [random_filling(rng, n) for _ in range(rng.randint(3, 5))]
            if trial % 2 == 0:  # add one rewrite child of a nonstandard key
                parent = next((k for k in keys if not k.is_standard()), None)
                if parent is not None:
                    keys.append(rng.choice(rewrite_children(parent)))
            terms = {key: rng.choice([-3, -2, -1, 1, 2, 3]) for key in keys}
            vec = TabloidVector(n, terms)
            expected = TabloidVector(n, {})
            for key, coeff in terms.items():
                expected = expected + coeff * garnir_straighten(key)
            assert garnir_straighten(vec) == expected
            per_key = sum(smallest_step_budget(key) for key in terms)
            assert smallest_step_budget(vec) <= per_key

    def test_rewrite_children_are_the_kernels(self):
        # The first rewrite leaves the two children with coefficients 1 and
        # -1, and the sweep goes on as one seeded with just them.
        rng = random.Random(19)
        checked = 0
        while checked < 20:
            tab = random_filling(rng, rng.randint(2, 6))
            if tab.is_standard():
                continue
            keep_order, resorted = rewrite_children(tab)
            children = TabloidVector(tab.n, {keep_order: 1, resorted: -1})
            assert smallest_step_budget(tab) == 1 + smallest_step_budget(children)
            checked += 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equals_first_descent_on_every_filling(self, n):
        for cols in all_pairings(range(1, 2 * n + 1)):
            seeds = {cols: {None: 1}}
            got, _ = _straighten(seeds, DEFAULT_STEP_BUDGET)
            want, _ = straighten_by_first_descent(seeds, DEFAULT_STEP_BUDGET)
            assert nonzero_expansion(got) == nonzero_expansion(want)

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_equals_first_descent_on_seeded_vectors(self, n):
        # Several seeds, some sharing a rewrite child, each with a vector
        # over several labels; zero coefficients may differ, so both sides
        # drop them.
        rng = random.Random(1900 + n)
        for _ in range(4):
            fillings = [random_filling(rng, n) for _ in range(rng.randint(2, 4))]
            if not fillings[0].is_standard():
                fillings += rewrite_children(fillings[0])
            seeds = {
                tab.columns: {label: rng.choice([-2, -1, 1, 2])
                              for label in rng.sample("abcd", rng.randint(1, 3))}
                for tab in fillings
            }
            got, _ = _straighten(seeds, DEFAULT_STEP_BUDGET)
            want, _ = straighten_by_first_descent(seeds, DEFAULT_STEP_BUDGET)
            assert nonzero_expansion(got) == nonzero_expansion(want)


def assert_same_sweep(seeds):
    """The kernel and its column-tuple form give the same result, in the same
    order, zero coefficients included, after the same number of steps."""
    got, got_steps = _straighten(seeds, DEFAULT_STEP_BUDGET)
    want, want_steps = straighten_on_columns(seeds, DEFAULT_STEP_BUDGET)
    assert got_steps == want_steps
    assert list(got.items()) == list(want.items())
    for cols, vec in got.items():
        assert list(vec.items()) == list(want[cols].items())
    return got_steps


class TestFlatKernel:
    """``_straighten`` holds pending fillings flat; the column-tuple kernel
    it replaced is the reference, exactly."""

    def test_every_cup_in_one_sweep(self):
        for n in range(1, 8):
            seeds = {}
            for c, t in enumerate(enumerate_syt(n)):
                seeds.setdefault(cup_of_tableau(t).arcs, {})[c] = 1
            assert assert_same_sweep(seeds) == [0, 0, 1, 5, 28, 146, 787, 4490][n]

    def test_random_fillings(self):
        rng = random.Random(25)
        for _ in range(300):
            tab = random_filling(rng, rng.randint(1, 6))
            assert_same_sweep({tab.columns: {None: rng.choice([-2, -1, 1, 2])}})

    def test_vectors_with_shared_and_cancelling_keys(self):
        # Seeds that are rewrite children of other seeds share fillings, and
        # a child seeded with minus its parent's labels can cancel to zero; a
        # seed without labels and one with a zero coefficient ride along.
        rng = random.Random(2525)
        for _ in range(50):
            n = rng.randint(3, 7)
            fillings = [random_filling(rng, n) for _ in range(rng.randint(2, 4))]
            parent = next((tab for tab in fillings if not tab.is_standard()), None)
            if parent is not None:
                fillings += rewrite_children(parent)
            seeds = {tab.columns: {label: rng.choice([-2, -1, 1, 2])
                                   for label in rng.sample("abcd", rng.randint(1, 3))}
                     for tab in fillings}
            if parent is not None:
                keep_order = rewrite_children(parent)[0].columns
                seeds[keep_order] = {k: -c for k, c in seeds[parent.columns].items()}
            seeds[random_filling(rng, n).columns] = rng.choice([{}, {"a": 0}])
            steps = assert_same_sweep(seeds)
            if steps:
                for kernel in (_straighten, straighten_on_columns):
                    with pytest.raises(SizeLimitError):
                        kernel(seeds, steps - 1)

    def test_standard_outputs_share_pair_tuples(self):
        # One pair tuple per column value, so results kept by a caller cost
        # no more than the column tuples they replace.
        seeds = {cup_of_tableau(t).arcs: {c: 1} for c, t in enumerate(enumerate_syt(5))}
        out, _ = _straighten(seeds, DEFAULT_STEP_BUDGET)
        pairs = {}
        for cols in out:
            for col in cols:
                assert pairs.setdefault(col, col) is col


def wide_filling(n, tail):
    """Standard columns (1/2), (3/4), ... before ``tail``, the columns on
    the last 2 * len(tail) entries, to a filling of 1..2n."""
    head = n - len(tail)
    shift = 2 * head
    return tuple((2 * j + 1, 2 * j + 2) for j in range(head)) + tuple(
        (a + shift, b + shift) for a, b in tail)


# Bottoms 6 > 5 form the one nested pair; re-sorted, (5/6) goes after the
# columns with tops 3 and 4, so that child has nested pairs of its own.
ONE_NESTED = ((1, 6), (2, 5), (3, 7), (4, 8), (9, 10))
ONE_NESTED_STEPS = 5  # as on these five columns alone


class TestKernelPastOneByte:
    """Past an entry of 254 the kernel holds pending fillings as tuples;
    both forms give what the column-tuple kernel gives, in as many steps."""

    @pytest.mark.parametrize("n", [127, 128, 130])
    def test_standard_filling_is_its_own_result(self, n):
        cols = wide_filling(n, ())
        assert assert_same_sweep({cols: {None: 1}}) == 0
        assert garnir_straighten(TwoRowTableau(cols)) == TabloidVector.unit(
            TwoRowTableau(cols))

    @pytest.mark.parametrize("n", [127, 128, 130])
    def test_one_nested_pair(self, n):
        cols = wide_filling(n, ONE_NESTED)
        assert assert_same_sweep({cols: {None: 1}}) == ONE_NESTED_STEPS
        got = garnir_straighten(TwoRowTableau(cols))
        want, _ = straighten_on_columns({cols: {None: 1}}, DEFAULT_STEP_BUDGET)
        assert got == TabloidVector(n, {TwoRowTableau(k): c[None] for k, c in want.items()})

    def test_the_steps_are_those_of_the_tail_alone(self):
        assert assert_same_sweep({ONE_NESTED: {None: 1}}) == ONE_NESTED_STEPS

    def test_tails_of_several_nested_pairs(self):
        rng = random.Random(130)
        for _ in range(20):
            tail = random_filling(rng, 6).columns
            assert_same_sweep({wide_filling(130, tail): {None: rng.choice([-1, 2])}})

    def test_act_polytabloid_on_a_standard_key(self):
        # Generator 255 swaps the bottoms of the key's columns (251/255) and
        # (252/256), which leaves the filling of ``ONE_NESTED``.
        key = TwoRowTableau(wide_filling(130, ((1, 5), (2, 6), (3, 7), (4, 8), (9, 10))))
        assert key.is_standard()
        swapped = wide_filling(130, ONE_NESTED)
        assert assert_same_sweep({swapped: {None: 1}}) == ONE_NESTED_STEPS
        want, _ = straighten_on_columns({swapped: {None: 1}}, DEFAULT_STEP_BUDGET)
        assert act_polytabloid(255, TabloidVector.unit(key)) == TabloidVector(
            130, {TwoRowTableau(k): c[None] for k, c in want.items()})


class TestIntertwining:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_column_map_intertwines(self, n):
        # compare in the noncrossing basis: the straightened image of a
        # row-case swap differs from the plain dot swap by crossing
        # relations, which resolution quotients out
        for tab in enumerate_syt(n):
            v = unit(tab)
            for i in range(1, 2 * n):
                lhs = column_matching_vector(act_polytabloid(i, v))
                rhs = act_matching(i, column_matching_vector(v))
                assert to_web_basis(lhs) == to_web_basis(rhs)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_formal_equality_outside_row_case(self, n):
        for tab in enumerate_syt(n):
            v = unit(tab)
            for i in range(1, 2 * n):
                if classify(tab, i) is EntryCase.SAME_ROW:
                    continue
                lhs = column_matching_vector(act_polytabloid(i, v))
                rhs = act_matching(i, column_matching_vector(v))
                assert lhs == rhs


class TestCupPolytabloid:
    def test_five_cup_preimage(self):
        w = cup_of_tableau(StandardTableau((1, 3, 4, 6, 9), (2, 5, 7, 8, 10)))
        tab, _ = cup_polytabloid(w)
        assert tab.top == (1, 3, 4, 6, 9)
        assert tab.bottom == (2, 8, 5, 7, 10)

    def test_base_cup(self):
        w = cup_of_tableau(t0(3))
        tab, vec = cup_polytabloid(w)
        assert tab == TwoRowTableau.from_standard(t0(3))
        assert vec == TabloidVector.unit(tab)

    def test_two_cup_straightening(self):
        tab, vec = cup_polytabloid(Matching([(1, 4), (2, 3)]))
        assert vec == TabloidVector.unit(FLAT_TWO) - TabloidVector.unit(BASE_TWO)

    def test_rejects_crossing(self):
        with pytest.raises(ValueError):
            cup_polytabloid(Matching([(1, 3), (2, 4)]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_model_agrees_with_arcs(self, n):
        # straightening must preserve the underlying module element
        for tab in enumerate_syt(n):
            w = cup_of_tableau(tab)
            raw, vec = cup_polytabloid(w)
            assert model_of_vector(vec) == model_of_vector(
                TabloidVector.unit(raw)
            )


class TestShiftedProduct:
    def test_empty_word(self):
        assert shifted_product(2, []) == unit(t0(2))

    def test_single_letter(self):
        got = shifted_product(2, [2])
        assert got == unit(StandardTableau((1, 2), (3, 4))) - unit(t0(2))
        assert got == cup_polytabloid(Matching([(1, 4), (2, 3)]))[1]

    def test_reversed_path_word_agrees_with_preimage(self):
        graph = build_tableau_graph(3)
        w = Matching([(1, 6), (2, 3), (4, 5)])
        target = StandardTableau((1, 2, 4), (3, 5, 6))
        expected = cup_polytabloid(w)[1]
        for path in paths_between(graph, t0(3), target):
            assert shifted_product(3, list(reversed(path))) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_path_gives_the_same_vector(self, n):
        graph = build_tableau_graph(n)
        for target in graph.vertices:
            expected = cup_polytabloid(cup_of_tableau(target))[1]
            for path in paths_between(graph, t0(n), target):
                assert shifted_product(n, list(reversed(path))) == expected


class TestColumnMatchingVector:
    def test_base(self):
        got = column_matching_vector(unit(t0(3)))
        assert got == DiagramVector.unit(Matching([(1, 2), (3, 4), (5, 6)]))

    def test_three_column_example(self):
        tab = StandardTableau((1, 2, 4), (3, 5, 6))
        got = column_matching_vector(unit(tab))
        assert got == DiagramVector.unit(Matching([(1, 3), (2, 5), (4, 6)]))

    def test_linearity(self):
        s, t = unit(t0(2)), unit(StandardTableau((1, 2), (3, 4)))
        assert column_matching_vector(2 * s - t) == 2 * column_matching_vector(
            s
        ) - column_matching_vector(t)


def _coxeter_cases(n):
    pairs = [(i, j) for i in range(1, 2 * n) for j in range(1, 2 * n)]
    return {
        "square": [i for i in range(1, 2 * n)],
        "commute": [(i, j) for i, j in pairs if abs(i - j) >= 2],
        "braid": [i for i in range(1, 2 * n - 1)],
    }


class TestCoxeterRelations:
    @pytest.mark.parametrize("n", [2, 3])
    def test_polytabloid_exhaustive(self, n):
        cases = _coxeter_cases(n)
        for tab in enumerate_syt(n):
            v = unit(tab)
            for i in cases["square"]:
                assert act_polytabloid(i, act_polytabloid(i, v)) == v
            for i, j in cases["commute"]:
                assert act_polytabloid(i, act_polytabloid(j, v)) == \
                    act_polytabloid(j, act_polytabloid(i, v))
            for i in cases["braid"]:
                lhs = act_polytabloid(
                    i, act_polytabloid(i + 1, act_polytabloid(i, v))
                )
                rhs = act_polytabloid(
                    i + 1, act_polytabloid(i, act_polytabloid(i + 1, v))
                )
                assert lhs == rhs

    @pytest.mark.parametrize("n", [2, 3])
    def test_matching_and_web_exhaustive(self, n):
        cases = _coxeter_cases(n)
        rng = random.Random(4)
        for tab in enumerate_syt(n):
            w = DiagramVector.unit(cup_of_tableau(tab))
            m = DiagramVector.unit(
                Matching(
                    list(
                        zip(*(iter(rng.sample(range(1, 2 * n + 1), 2 * n)),) * 2)
                    )
                )
            )
            for act, v in ((act_web, w), (act_matching, m)):
                for i in cases["square"]:
                    assert act(i, act(i, v)) == v
                for i, j in cases["commute"]:
                    assert act(i, act(j, v)) == act(j, act(i, v))
                for i in cases["braid"]:
                    assert act(i, act(i + 1, act(i, v))) == act(
                        i + 1, act(i, act(i + 1, v))
                    )
