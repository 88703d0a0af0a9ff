import copy
import hashlib
import pickle
import random
from array import array
from types import SimpleNamespace

import pytest

from cupweb import (
    DiagramVector,
    Matching,
    MoveKind,
    StandardTableau,
    TabloidVector,
    TransitionMatrix,
    TwoRowTableau,
    act_polytabloid,
    act_web,
    build_resolution_graph,
    build_tableau_graph,
    canonicalize_columns,
    check_witness,
    column_matching,
    crossings,
    cup_of_tableau,
    cup_polytabloid,
    enumerate_syt,
    first_row_dominates,
    garnir_straighten,
    inverse_matrix,
    leq,
    order_conjecture_report,
    resolve_full,
    resolve_step,
    swap_dots,
    t0,
    tableau_of_cup,
    transition_matrix,
    verify_positivity,
    verify_psi,
    verify_unitriangular,
    witness_path,
)
import cupweb.resolution as resolution_module
import cupweb.transition as transition_module
from cupweb.cli import main
from cupweb.errors import SizeLimitError
from _oracles import brute_resolve, dense_inverse, polytabloid_model, psi_by_sweep


def _from_rows(n: int, index, rows) -> TransitionMatrix:
    """The matrix with dense ``rows``, stored as columns of its nonzero entries."""
    return TransitionMatrix(n, index, tuple(
        {s: row[t] for s, row in enumerate(rows) if row[t]}
        for t in range(len(index))
    ))


def _dense_columns(matrix: TransitionMatrix) -> list[dict]:
    """The columns of M^-1 by the dense oracle, as ``{row: entry}`` over nonzeros."""
    inverse = dense_inverse(matrix.entries)
    return [{s: row[c] for s, row in enumerate(inverse) if row[c]} for c in range(matrix.size)]


def _corrupt(matrix: TransitionMatrix, s: int, t: int, value: int) -> TransitionMatrix:
    entries = [list(row) for row in matrix.entries]
    entries[s][t] = value
    return _from_rows(matrix.n, matrix.index, entries)


class TestMatrix:
    def test_n1(self):
        assert transition_matrix(1).entries == ((1,),)

    def test_n2(self):
        matrix = transition_matrix(2)
        assert matrix.index == (t0(2), StandardTableau((1, 2), (3, 4)))
        assert matrix.entries == ((1, 1), (0, 1))

    def test_n3_column_of_three_column_tableau(self):
        matrix = transition_matrix(3)
        col = matrix.index.index(StandardTableau((1, 2, 4), (3, 5, 6)))
        webs = [
            Matching([(1, 2), (3, 4), (5, 6)]),
            Matching([(1, 2), (3, 6), (4, 5)]),
            Matching([(1, 4), (2, 3), (5, 6)]),
            Matching([(1, 6), (2, 3), (4, 5)]),
        ]
        rows = {matrix.index.index(tableau_of_cup(w)) for w in webs}
        column = [matrix.entry(s, col) for s in range(matrix.size)]
        assert sum(column) == 4
        assert all(column[s] == 1 for s in rows)
        assert all(column[s] == 0 for s in range(matrix.size) if s not in rows)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_entries_are_sink_multiplicities(self, n):
        matrix = transition_matrix(n)
        for col, tab in enumerate(matrix.index):
            counts = resolve_full(column_matching(tab.columns()))
            for row, source in enumerate(matrix.index):
                assert matrix.entry(row, col) == counts.get(
                    cup_of_tableau(source), 0
                )

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_columns_match_brute_force_resolution(self, n):
        matrix = transition_matrix(n)
        row_of = {t.top: k for k, t in enumerate(matrix.index)}
        for col, tab in enumerate(matrix.index):
            expected = [0] * matrix.size
            for sink, mult in brute_resolve(tab.columns()).items():
                expected[row_of[tuple(a for a, _ in sink)]] = mult
            assert [matrix.entry(row, col) for row in range(matrix.size)] == expected

    def test_columns_match_per_column_resolution_n7(self):
        matrix = transition_matrix(7)
        row_of = {cup_of_tableau(t): k for k, t in enumerate(matrix.index)}
        for col, tab in enumerate(matrix.index):
            expected = [0] * matrix.size
            for sink, mult in resolve_full(column_matching(tab.columns())).items():
                expected[row_of[sink]] = mult
            assert [matrix.entry(row, col) for row in range(matrix.size)] == expected

    def test_node_budget_trips_at_the_largest_column_tree(self, monkeypatch):
        # The largest column at n = 6 sums to 272: a tree of 543 nodes.
        transition_matrix.cache_clear()
        monkeypatch.setattr(transition_module, "DEFAULT_NODE_BUDGET", 542)
        with pytest.raises(SizeLimitError, match="resolution exceeded its node budget"):
            transition_matrix(6)
        monkeypatch.setattr(transition_module, "DEFAULT_NODE_BUDGET", 543)
        assert transition_matrix(6).size == 132

    def test_build_shares_the_session_table(self, monkeypatch):
        table = resolution_module._INSERTED
        table.clear()
        transition_matrix.cache_clear()
        cold = transition_matrix(6)
        # C_{k-1} cups of k - 1 arcs times 2k - 1 positions, for k <= 6
        assert len(table) <= 637
        before = dict(table)
        for tab in enumerate_syt(6):
            resolve_full(column_matching(tab.columns()))
        assert table == before
        transition_matrix.cache_clear()
        warm = transition_matrix(6)
        assert (warm.index, warm.columns) == (cold.index, cold.columns)
        # the largest column at n = 6 sums to 272: a tree of 543 nodes
        for prepare in (table.clear, lambda: None):  # cold, then warm
            prepare()
            transition_matrix.cache_clear()
            monkeypatch.setattr(transition_module, "DEFAULT_NODE_BUDGET", 542)
            with pytest.raises(SizeLimitError,
                               match="resolution exceeded its node budget"):
                transition_matrix(6)
            monkeypatch.setattr(transition_module, "DEFAULT_NODE_BUDGET", 543)
            assert transition_matrix(6).columns == cold.columns

    def test_columns_given_are_copied(self):
        col = {0: 1}
        m = TransitionMatrix(1, transition_matrix(1).index, (col,))
        col[0] = 2
        assert m.entry(0, 0) == 1
        with pytest.raises(TypeError):
            m.columns[0][0] = 2

    def test_refused_build_leaves_the_table_as_it_found_it(self, monkeypatch):
        table, cups = resolution_module._INSERTED, resolution_module._CUPS

        def cold():
            table.clear()
            cups.clear()

        def warm():
            cold()
            transition_matrix.cache_clear()
            transition_matrix(5)

        monkeypatch.setattr(transition_module, "DEFAULT_NODE_BUDGET", 542)
        for prepare in (cold, warm):
            prepare()
            transition_matrix.cache_clear()
            before, cups_before = dict(table), dict(cups)
            with pytest.raises(SizeLimitError):
                transition_matrix(6)
            assert table == before
            assert cups == cups_before
            assert all(cups[arcs] is w for arcs, w in cups_before.items())


class TestUnitriangular:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_passes(self, n):
        assert verify_unitriangular(transition_matrix(n)).passed

    def test_identity_matrix_passes(self):
        index = enumerate_syt(2)
        identity = _from_rows(2, index, ((1, 0), (0, 1)))
        assert verify_unitriangular(identity).passed

    def test_corrupted_fails_with_witness(self):
        bad = _corrupt(transition_matrix(3), 4, 0, 1)
        report = verify_unitriangular(bad)
        assert not report.passed
        failing = [c for c in report.checks if not c.passed]
        assert failing and failing[0].witness


class TestPositivity:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_passes(self, n):
        assert verify_positivity(transition_matrix(n)).passed

    def test_n2_by_hand(self):
        matrix = _from_rows(2, enumerate_syt(2), ((1, 1), (0, 1)))
        assert verify_positivity(matrix).passed

    def test_corrupted_zero_fails(self):
        matrix = transition_matrix(2)
        report = verify_positivity(_corrupt(matrix, 0, 1, 0))
        assert not report.passed
        assert report.checks[0].witness

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_entries_nonnegative(self, n):
        matrix = transition_matrix(n)
        assert all(e >= 0 for row in matrix.entries for e in row)


class TestRowMasks:
    KEEPS = [bool, lambda e: e > 0]

    @staticmethod
    def _sum_of_shifts(matrix, keep):
        return [sum(1 << t for t, e in r.items() if keep(e)) for r in matrix._rows()]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_equal_the_sum_of_shifts(self, n):
        matrix = transition_matrix(n)
        for keep in self.KEEPS:
            assert transition_module._row_masks(matrix, keep) == (
                self._sum_of_shifts(matrix, keep))

    def test_corrupted_and_stored_zero(self):
        base = transition_matrix(4)
        corrupted = _corrupt(_corrupt(base, 13, 0, -2), 5, 9, 0)
        columns = [dict(col) for col in base.columns]
        columns[7][2] = 0
        stored_zero = TransitionMatrix(4, base.index, tuple(columns))
        for matrix in (corrupted, stored_zero):
            for keep in self.KEEPS:
                assert transition_module._row_masks(matrix, keep) == (
                    self._sum_of_shifts(matrix, keep))


def test_verifiers_read_the_matrix_size_as_its_limit():
    # A matrix built past DEFAULT_MAX_N (with --force or max_n) had its
    # limit checked when it was built, so the verifiers must not refuse it.
    matrix = TransitionMatrix(9, (), ())
    graphs = build_tableau_graph.cache_info().currsize
    assert verify_unitriangular(matrix).passed
    assert verify_positivity(matrix).passed
    # An empty index needs no order, so no n = 9 graph is built and cached.
    assert build_tableau_graph.cache_info().currsize == graphs


def _permuted(matrix: TransitionMatrix, perm) -> TransitionMatrix:
    """The same matrix over the index reordered by ``perm``, rows and columns."""
    index = tuple(matrix.index[p] for p in perm)
    entries = tuple(tuple(matrix.entry(p, q) for q in perm) for p in perm)
    return _from_rows(matrix.n, index, entries)


NOT_UPPER = "matrix not invertible over the order: matrix must be upper-triangular"


class TestHandBuiltIndex:
    """Verifiers read a matrix over its own index, in any order."""

    # Witnesses in check order: diagonal-ones, support-within-order,
    # positive-iff-comparable, straightening-matches-inverse.
    @pytest.mark.parametrize(
        "perm, corruption, witnesses",
        [
            ((4, 2, 0, 3, 1), None, [None, None, None, NOT_UPPER]),
            ((4, 2, 0, 3, 1), (0, 1, 5), [
                None,
                "S=1 2 3 / 4 5 6, T=1 3 4 / 2 5 6, entry=5",
                "S=1 2 3 / 4 5 6, T=1 3 4 / 2 5 6, entry=5, comparable=False",
                NOT_UPPER,
            ]),
            ((4, 2, 0, 3, 1), (3, 0, 0), [
                None,
                None,
                "S=1 2 4 / 3 5 6, T=1 2 3 / 4 5 6, entry=0, comparable=True",
                NOT_UPPER,
            ]),
            ((0, 2, 1, 3, 4), None, [None, None, None, None]),
            ((0, 2, 1, 3, 4), (1, 3, 2), [None, None, None, "web of 1 2 4 / 3 5 6"]),
            ((0, 2, 1, 3, 4), (2, 2, 3), [
                "1 2 5 / 3 4 6",
                None,
                None,
                "matrix not invertible over the order: "
                "matrix diagonal must be all ones",
            ]),
        ],
    )
    def test_permuted_n3(self, perm, corruption, witnesses):
        matrix = _permuted(transition_matrix(3), perm)
        if corruption:
            matrix = _corrupt(matrix, *corruption)
        checks = [
            c
            for verify in (verify_unitriangular, verify_positivity, verify_psi)
            for c in verify(matrix).checks
        ]
        assert [c.witness for c in checks] == witnesses
        assert [c.passed for c in checks] == [w is None for w in witnesses]

    @pytest.mark.parametrize("perm", [None, (13, 2, 7, 0, 11, 5, 1, 9, 3, 12, 6, 10, 4, 8)])
    def test_witness_is_the_first_pair_in_row_major_order(self, perm):
        rng = random.Random(17)
        matrix = transition_matrix(4)
        if perm:
            matrix = _permuted(matrix, perm)
        graph = build_tableau_graph(4)
        for _ in range(20):
            bad = matrix
            for s in rng.sample(range(bad.size), 2):  # a few entries in two rows
                for t in rng.sample(range(bad.size), 3):
                    bad = _corrupt(bad, s, t, rng.choice([-1, 0, 2]))
            support, positivity = _pairwise_witnesses(bad, graph)
            assert verify_unitriangular(bad).checks[1].witness == support
            assert verify_positivity(bad).checks[0].witness == positivity

    @pytest.mark.parametrize("corruption", [None, "incomparable", "comparable"])
    def test_index_that_skips_a_top_row_value(self, corruption):
        # No tableau of this index has top[2] == 4, though 3 and 5 occur.
        full = transition_matrix(5)
        keep = [k for k, t in enumerate(full.index) if t.top[2] != 4]
        matrix = _permuted(full, keep)
        last = matrix.size - 1
        if corruption == "incomparable":
            matrix = _corrupt(matrix, last, 0, 1)
        elif corruption == "comparable":
            matrix = _corrupt(matrix, 0, last, 0)
        support, positivity = _pairwise_witnesses(matrix, build_tableau_graph(5))
        assert (support is None, positivity is None) == (
            corruption != "incomparable", corruption is None)
        unitriangular = verify_unitriangular(matrix)
        assert [c.witness for c in unitriangular.checks] == [None, support]
        assert unitriangular.passed == (support is None)
        assert verify_positivity(matrix).checks[0].witness == positivity
        assert verify_positivity(matrix).passed == (positivity is None)

    def test_verifiers_build_no_graph(self):
        build_tableau_graph.cache_clear()
        matrix = transition_matrix(4)
        assert verify_unitriangular(matrix).passed
        assert verify_positivity(matrix).passed
        assert verify_psi(matrix).passed
        assert build_tableau_graph.cache_info().currsize == 0


def _pairwise_witnesses(matrix: TransitionMatrix, graph) -> tuple:
    """First support and positivity violations in row-major order, by ``leq``."""
    support = positivity = None
    for s, S in enumerate(matrix.index):
        for t, T in enumerate(matrix.index):
            entry, comparable = matrix.entry(s, t), leq(S, T, graph)
            words = f"S={S.row_word()}, T={T.row_word()}, entry={entry}"
            if support is None and entry != 0 and not comparable:
                support = words
            if positivity is None and (entry > 0) != comparable:
                positivity = f"{words}, comparable={comparable}"
    return support, positivity


class TestInverse:
    def test_n1(self):
        assert inverse_matrix(transition_matrix(1)).entries == ((1,),)

    def test_n2(self):
        assert inverse_matrix(transition_matrix(2)).entries == ((1, -1), (0, 1))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_product_is_identity(self, n):
        matrix = transition_matrix(n)
        inverse = inverse_matrix(matrix)
        size = matrix.size
        for i in range(size):
            for j in range(size):
                got = sum(matrix.entry(i, k) * inverse.entry(k, j) for k in range(size))
                assert got == (1 if i == j else 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_matches_dense_back_substitution(self, n):
        matrix = transition_matrix(n)
        assert inverse_matrix(matrix).entries == dense_inverse(matrix.entries)

    def test_rejects_bad_diagonal(self):
        bad = _corrupt(transition_matrix(2), 1, 1, 2)
        with pytest.raises(ValueError):
            inverse_matrix(bad)

    def test_rejects_lower_entries(self):
        bad = _corrupt(transition_matrix(2), 1, 0, 1)
        with pytest.raises(ValueError):
            inverse_matrix(bad)

    def test_rejects_a_unitriangular_matrix_that_is_not_m(self):
        # Columns of M^-1 left of column 2 do not read it, so column 2 fails first.
        matrix = transition_matrix(3)
        bad = _corrupt(matrix, 0, 2, 7)
        assert transition_module._unitriangular_fault(bad) is None
        word = matrix.index[2].row_word()
        with pytest.raises(ValueError, match=f"^the straightened cups do not invert "
                                             f"the matrix: web of {word}$"):
            inverse_matrix(bad)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_follows_the_matrix_index(self, n):
        # Rows and columns are read through the matrix's own index.
        matrix = _shuffled_within_ranks(transition_matrix(n), random.Random(n))
        inverse = inverse_matrix(matrix)
        assert inverse.index == matrix.index
        assert inverse.entries == dense_inverse(matrix.entries)

    def test_a_tripped_step_budget_exits_2_with_one_line(self, capsys, monkeypatch):
        # inverse_matrix reads the module's budget at each call.
        monkeypatch.setattr(transition_module, "DEFAULT_STEP_BUDGET", 1)
        with pytest.raises(SizeLimitError):
            inverse_matrix(transition_matrix(5))
        assert main(["inverse", "-n", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: straightening exceeded 1 rewrite steps\n"

    def test_cached_columns_are_read_only(self):
        with pytest.raises(TypeError):
            transition_matrix(4).columns[0][13] = 5
        assert 13 not in transition_matrix(4).columns[0]
        assert verify_unitriangular(transition_matrix(4)).passed

    def test_copy_and_pickle_round_trip(self):
        cached = transition_matrix(2)
        before = [dict(col) for col in cached.columns]
        for twin in (copy.deepcopy(cached), pickle.loads(pickle.dumps(cached))):
            assert twin == cached and twin is not cached
            with pytest.raises(TypeError):
                twin.columns[0][1] = 5
        assert transition_matrix(2) is cached
        assert [dict(col) for col in cached.columns] == before


class TestPsi:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_passes(self, n):
        assert verify_psi(transition_matrix(n)).passed

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_straightened_cups_are_the_inverse_columns(self, n):
        # Cup by cup, against the dense oracle's inverse.
        matrix = transition_matrix(n)
        inverse = dense_inverse(matrix.entries)
        row_of = {t.columns(): k for k, t in enumerate(matrix.index)}
        for col, tab in enumerate(matrix.index):
            _, vec = cup_polytabloid(cup_of_tableau(tab))
            computed = [0] * matrix.size
            for key, coeff in vec.terms.items():
                computed[row_of[key.columns]] = coeff
            assert computed == [row[col] for row in inverse]

    def test_passes_n7(self):
        assert verify_psi(transition_matrix(7)).passed

    def test_above_diagonal_corruption_names_its_column(self):
        # Columns of M^-1 left of t do not read column t of M, so the first
        # straightened cup that misses is the corrupted column's.
        matrix = transition_matrix(4)
        for s, t in [(0, 13), (1, 5), (3, 4)]:
            report = verify_psi(_corrupt(matrix, s, t, matrix.entry(s, t) + 1))
            assert not report.passed
            assert report.checks[0].witness == f"web of {matrix.index[t].row_word()}"

    def test_base_column_is_unit_vector(self):
        matrix = transition_matrix(3)
        inverse = inverse_matrix(matrix).entries
        col = matrix.index.index(t0(3))
        assert [inverse[r][col] for r in range(matrix.size)] == [
            1 if r == col else 0 for r in range(matrix.size)
        ]

    def test_n2_outer_cup_column(self):
        matrix = transition_matrix(2)
        inverse = inverse_matrix(matrix).entries
        w = Matching([(1, 4), (2, 3)])
        col = matrix.index.index(tableau_of_cup(w))
        assert [inverse[r][col] for r in range(2)] == [-1, 1]
        _, vec = cup_polytabloid(w)
        base = TwoRowTableau.from_standard(t0(2))
        flat = TwoRowTableau(((1, 3), (2, 4)))
        assert vec == TabloidVector.unit(flat) - TabloidVector.unit(base)

    def test_detects_corruption(self):
        bad = _corrupt(transition_matrix(3), 0, 2, 7)
        report = verify_psi(bad)
        assert not report.passed


def _stripped(column: dict) -> dict:
    return {k: v for k, v in column.items() if v}


def _smallest_psi_budget(n: int) -> int:
    matrix = transition_matrix(n)

    def fits(budget):
        try:
            return verify_psi(matrix, step_budget=budget).passed
        except SizeLimitError:
            return False

    lo, hi = -1, 1  # lo never fits; hi fits once the doubling stops
    while not fits(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    return hi


def _shuffled_within_ranks(full: TransitionMatrix, rng) -> TransitionMatrix:
    """``full`` over its index shuffled within each rank.

    Any order within a rank keeps M unitriangular: such tableaux are
    incomparable.
    """
    rank = sum(full.index[0].top)
    return _permuted(full, sorted(
        range(full.size), key=lambda k: (rank - sum(full.index[k].top), rng.random())))


def _corrupted_above(matrix: TransitionMatrix, rng, count: int, step: int) -> TransitionMatrix:
    """``count`` random entries above the diagonal moved by +-step."""
    for _ in range(count):
        t = rng.randrange(1, matrix.size)
        s = rng.randrange(t)
        matrix = _corrupt(matrix, s, t, matrix.entry(s, t) + rng.choice([-step, step]))
    return matrix


def _witness_off_the_inverse(matrix: TransitionMatrix) -> str | None:
    """The first column whose one-sweep psi differs from the dense oracle's inverse."""
    inverse = _dense_columns(matrix)
    swept = [_stripped(col) for col in psi_by_sweep(matrix)]
    bad = next((c for c in range(matrix.size) if swept[c] != inverse[c]), None)
    return None if bad is None else f"web of {matrix.index[bad].row_word()}"


class TestPsiAlongEdges:
    """verify_psi and inverse_matrix straighten all the cups in one sweep."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_the_one_sweep_oracle(self, n):
        matrix = transition_matrix(n)
        psi = [dict(col) for col in inverse_matrix(matrix).columns]
        swept = [_stripped(col) for col in psi_by_sweep(matrix)]
        assert psi == swept
        # At n = 7 the dense oracle alone takes about 1 s; there psi, read
        # as inverse_matrix, meets it in test_matches_dense_back_substitution[7].
        if n <= 6:
            assert swept == _dense_columns(matrix)

    def test_the_smallest_budget_does_not_depend_on_earlier_calls(
            self, capsys, monkeypatch):
        cold = _smallest_psi_budget(5)
        real = transition_module._straighten
        per_sweep = []

        def spy(seeds, budget):
            out, steps = real(seeds, budget)
            per_sweep.append(steps)
            return out, steps

        monkeypatch.setattr(transition_module, "_straighten", spy)
        assert verify_psi(transition_matrix(5)).passed
        monkeypatch.undo()
        # The budget covers the rewrites of the call's one sweep.
        assert per_sweep == [cold]
        assert verify_psi(transition_matrix(6)).passed
        after_n6 = _smallest_psi_budget(5)
        rng = random.Random(15)
        for _ in range(50):
            dots = list(range(1, 11))
            rng.shuffle(dots)
            filling, _ = canonicalize_columns(zip(dots[::2], dots[1::2]))
            garnir_straighten(filling)
        assert cold == after_n6 == _smallest_psi_budget(5) > 0
        assert main(["verify", "-n", "5", "psi", "--step-budget", str(cold)]) == 0
        capsys.readouterr()
        assert main(["verify", "-n", "5", "psi", "--step-budget", str(cold - 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: straightening exceeded {cold - 1} rewrite steps\n")

    def test_the_first_failure_in_the_matrix_order_is_reported(self):
        # Columns 1 and 2 of this index hold the canonical tableaux 2 and 1.
        matrix = _permuted(transition_matrix(3), (0, 2, 1, 3, 4))
        for t in (1, 2):
            matrix = _corrupt(matrix, 0, t, matrix.entry(0, t) + 1)
        assert verify_psi(matrix).checks[0].witness == "web of 1 3 4 / 2 5 6"

    @pytest.mark.parametrize("n, step", [
        pytest.param(n, step, id=f"{n}{'-wide' if step > 1 else ''}")
        for step in (1, 2**70) for n in (4, 5, 6)
    ])
    def test_witness_is_the_first_column_the_sweep_misses(self, n, step, monkeypatch):
        # Corruptions by 2**70 force packed fields wider than 64 bits.
        real = transition_module._packed
        widths = []

        def spy(column, width):
            widths.append(width)
            return real(column, width)

        monkeypatch.setattr(transition_module, "_packed", spy)
        rng = random.Random(n)
        full = transition_matrix(n)
        seen_wide = False
        for _ in range(6):
            matrix = _shuffled_within_ranks(full, rng)
            matrix = _corrupted_above(matrix, rng, rng.randint(0, 3), step)
            widths.clear()
            assert verify_psi(matrix).checks[0].witness == _witness_off_the_inverse(matrix)
            wide = max(abs(e) for col in matrix.columns for e in col.values()) > 2**64
            assert (max(widths) > 64) == wide
            seen_wide |= wide
        assert seen_wide == (step > 1)


class TestPackedProduct:
    """verify_psi checks M psi_c = e_c on columns of M packed into ints."""

    WIDTHS = (8, 16, 32, 64, 72, 136)

    @staticmethod
    def _shifted(column: dict, width: int) -> int:
        return sum(e << (s * width) for s, e in column.items())

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_columns_of_m_equal_the_shifted_sum(self, n):
        for col in transition_matrix(n).columns:
            for width in self.WIDTHS:
                assert transition_module._packed(col, width) == self._shifted(col, width)

    @pytest.mark.parametrize("column", [
        {},
        {0: 0, 3: 0},
        {0: -1, 2: 1, 5: -255},
        {1: 2**15, 4: -(2**16 - 1), 6: 0},
        {0: 2**32 - 1, 2: -(2**31)},
        {3: -(2**64 - 1), 0: 2**63},
        {0: 2**64 + 3, 3: -(2**70), 1: -1},
        {7: 2**135 - 1, 2: -(2**130)},
    ])
    def test_hand_made_columns_equal_the_shifted_sum(self, column):
        widths = [w for w in self.WIDTHS
                  if all(abs(e) < 2**w for e in column.values())]
        assert widths
        for width in widths:
            assert transition_module._packed(column, width) == self._shifted(column, width)

    @pytest.mark.parametrize("code", "BHIQ")
    def test_fields_of_a_big_endian_host_read_field_0_lowest(self, code, monkeypatch):
        # Each item byte-swapped is how a big-endian host stores it.
        values = [1, 2, 3]
        fields = array(code, values)
        fields.byteswap()
        monkeypatch.setattr(transition_module, "sys", SimpleNamespace(byteorder="big"))
        bits = 8 * fields.itemsize
        assert transition_module._field_int(fields) == self._shifted(dict(enumerate(values)), bits)

    @pytest.mark.parametrize("bound, width", [
        (0, 8), (127, 8), (128, 16), (2**15 - 1, 16), (2**15, 32),
        (2**63 - 1, 64), (2**63, 72), (2**71 - 1, 72), (2**71, 80),
    ])
    def test_field_width_is_the_least_sound_one(self, bound, width):
        assert transition_module._field_width(bound) == width
        assert 2 ** (width - 1) > bound

    @pytest.mark.parametrize("w", [8, 16, 32, 64, 72])
    def test_a_psi_that_would_alias_in_w_bit_fields_fails(self, w, monkeypatch):
        # M psi_1 = (2^w, 0) packs to 1 << w in fields of w bits, so the
        # width must grow with ||psi||_1 and not only with |M|.
        matrix = transition_matrix(2)
        real = transition_module._straighten

        def aliased(seeds, step_budget):
            _, steps = real(seeds, step_budget)
            # psi_0 = {0: 1} as straightened, psi_1 = {0: 2^w}
            return {matrix.index[0].columns(): {0: 1, 1: 1 << w}}, steps

        monkeypatch.setattr(transition_module, "_straighten", aliased)
        assert verify_psi(matrix).checks[0].witness == f"web of {matrix.index[1].row_word()}"

    def test_a_term_outside_the_index_fails_its_column(self):
        # The index holds only the outer cup's tableau; its psi has a term
        # on the other n = 2 tableau too.
        full = transition_matrix(2)
        matrix = TransitionMatrix(2, full.index[1:], ({0: 1},))
        assert verify_psi(matrix).checks[0].witness == f"web of {full.index[1].row_word()}"

    def test_passes_n7_without_the_inverse(self, monkeypatch):
        def refuse(matrix):
            raise AssertionError("verify_psi must not invert M")

        monkeypatch.setattr(transition_module, "inverse_matrix", refuse)
        assert verify_psi(transition_matrix(7)).passed

    @pytest.mark.parametrize("s, t, value, message", [
        (1, 1, 2, "matrix diagonal must be all ones"),
        (3, 3, 0, "matrix diagonal must be all ones"),
        (4, 2, 1, "matrix must be upper-triangular"),
        (4, 2, -3, "matrix must be upper-triangular"),
    ])
    def test_one_precondition_for_the_inverse_and_psi(self, s, t, value, message):
        bad = _corrupt(transition_matrix(3), s, t, value)
        assert transition_module._unitriangular_fault(bad) == message
        with pytest.raises(ValueError, match=message):
            inverse_matrix(bad)
        # Checked before any straightening, so no step budget is spent.
        report = verify_psi(bad, step_budget=0)
        assert report.checks[0].witness == f"matrix not invertible over the order: {message}"

    def test_stored_zero_below_the_diagonal_is_no_fault(self):
        matrix = transition_matrix(3)
        columns = list(matrix.columns)
        columns[1] = {**columns[1], 4: 0}
        stored = TransitionMatrix(3, matrix.index, tuple(columns))
        assert transition_module._unitriangular_fault(stored) is None
        assert verify_psi(stored).passed


class TestEdgeIdentity:
    """w_dst = s_i w_src - w_src on the two columns the three fillings do not share.

    The identity is computed here from ``polytabloid_model``, the tabloid
    expansion of the signed-column-flip definition; s_i relabels the letters
    of w_src in place, so its columns are not re-sorted and carry no sign.
    """

    @staticmethod
    def _cups_and_moved(cups, src, dst, i):
        swap = {i: i + 1, i + 1: i}
        moved = tuple((swap.get(a, a), swap.get(b, b)) for a, b in cups[src])
        return cups[src], cups[dst], moved

    @staticmethod
    def _sum(*terms) -> dict:
        total = {}
        for columns, coeff in terms:
            for top, sign in polytabloid_model(columns).items():
                total[top] = total.get(top, 0) + coeff * sign
        return {k: v for k, v in total.items() if v}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_edge_on_four_letters(self, n):
        graph = build_tableau_graph(n)
        cups = [cup_of_tableau(t).arcs for t in graph.vertices]
        for src, dst, i in graph.edges:
            w_src, w_dst, moved = self._cups_and_moved(cups, src, dst, i)
            shared = set(w_dst) & set(moved) & set(w_src)
            rests = [[c for c in cols if c not in shared]
                     for cols in (w_dst, moved, w_src)]
            assert len(shared) == n - 2 and all(len(r) == 2 for r in rests)
            assert len(set().union(*map(set, rests[0]))) == 4
            assert self._sum(*zip(rests, (1, -1, 1))) == {}

    @pytest.mark.parametrize("n", range(1, 5))
    def test_holds_on_whole_fillings(self, n):
        graph = build_tableau_graph(n)
        cups = [cup_of_tableau(t).arcs for t in graph.vertices]
        for src, dst, i in graph.edges:
            w_src, w_dst, moved = self._cups_and_moved(cups, src, dst, i)
            assert self._sum((w_dst, 1), (moved, -1), (w_src, 1)) == {}


class TestPsiMutations:
    """A wrong cup or a wrong table entry fails the first column that reads it."""

    # The column matching of t0 is its cup, so that case starts at 1.
    @pytest.mark.parametrize("kind, target", [
        *(("other cup", t) for t in (0, 1, 7, 20, 41)),
        *(("column matching", t) for t in (1, 7, 20, 41)),
    ])
    def test_a_wrong_cup_fails_its_column(self, monkeypatch, kind, target):
        matrix = transition_matrix(5)
        real = transition_module.cup_of_tableau
        tab = matrix.index[target]
        if kind == "other cup":
            wrong = real(matrix.index[(target + 1) % matrix.size])
        else:
            wrong = Matching(tab.columns())
        assert wrong != real(tab)
        monkeypatch.setattr(transition_module, "cup_of_tableau",
                            lambda t: wrong if t == tab else real(t))
        report = verify_psi(matrix)
        assert report.checks[0].witness == f"web of {tab.row_word()}"

    def test_a_wrong_table_entry_fails_its_first_reader(self, monkeypatch):
        # The sweep's output is the table psi is read from, and only column
        # c reads label c: one wrong coefficient there fails column c.
        matrix = transition_matrix(5)
        real = transition_module._straighten
        labels = []

        def spy(seeds, budget):
            labels.extend(k for vec in seeds.values() for k in vec)
            return real(seeds, budget)

        monkeypatch.setattr(transition_module, "_straighten", spy)
        assert verify_psi(matrix).passed
        assert sorted(labels) == list(range(matrix.size))
        base = matrix.index[0].columns()
        for c in labels[::5]:

            def corrupt(seeds, budget, c=c):
                out, steps = real(seeds, budget)
                vec = out.setdefault(base, {})
                vec[c] = vec.get(c, 0) + 1
                return out, steps

            monkeypatch.setattr(transition_module, "_straighten", corrupt)
            report = verify_psi(matrix)
            assert report.checks[0].witness == f"web of {matrix.index[c].row_word()}"


class TestOrderConjecture:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_both_directions_hold(self, n):
        report = order_conjecture_report(n)
        assert report.passed
        assert all(c.passed for c in report.checks)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_dominance_masks_equal_reachability(self, n):
        graph = build_tableau_graph(n)
        masks = transition_module._dominance_masks(graph.vertices)
        assert masks == list(graph.descendants)

    def test_converse_is_informational(self):
        report = order_conjecture_report(3)
        by_name = {c.name: c for c in report.checks}
        assert not by_name["comparable-implies-dominates"].informational
        assert by_name["dominates-implies-comparable"].informational

    def test_report_fields(self):
        report = order_conjecture_report(2)
        data = report.to_json()
        assert data["n"] == 2
        assert data["timestamp"]
        assert isinstance(data["elapsed_seconds"], float)
        assert {c["name"] for c in data["checks"]} == {
            "comparable-implies-dominates",
            "dominates-implies-comparable",
        }


class TestStraighteningAgainstMatrix:
    """The column rewriting and the crossing rewriting must give one answer.

    For any two-row filling: resolving its column matching expands it over
    cup diagrams; straightening it and pushing the coefficients through
    the transition matrix must produce the same expansion.
    """

    def _assert_agrees(self, cols, matrix, graph_index):
        from cupweb import garnir_straighten

        lhs = resolve_full(column_matching(cols))
        vec = garnir_straighten(TwoRowTableau(cols))
        rhs = {}
        for key, coeff in vec.terms.items():
            col = graph_index[key.to_standard()]
            for row in range(matrix.size):
                entry = matrix.entry(row, col)
                if entry:
                    w = cup_of_tableau(matrix.index[row])
                    rhs[w] = rhs.get(w, 0) + coeff * entry
        rhs = {k: v for k, v in rhs.items() if v}
        assert {Matching(k.arcs): v for k, v in lhs.items()} == {
            Matching(k.arcs): v for k, v in rhs.items()
        }

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_small(self, n):
        from _oracles import all_pairings

        matrix = transition_matrix(n)
        index = {t: k for k, t in enumerate(matrix.index)}
        for cols in all_pairings(range(1, 2 * n + 1)):
            self._assert_agrees(cols, matrix, index)

    def test_sampled_n4(self):
        from _oracles import all_pairings

        rng = random.Random(9)
        matrix = transition_matrix(4)
        index = {t: k for k, t in enumerate(matrix.index)}
        for cols in rng.sample(list(all_pairings(range(1, 9))), 40):
            self._assert_agrees(cols, matrix, index)


class TestColumnSums:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_column_sum_matches_randomized_recount(self, n):
        rng = random.Random(8)
        matrix = transition_matrix(n)
        for col, tab in enumerate(matrix.index):
            total = sum(matrix.entry(s, col) for s in range(matrix.size))
            script = tuple(rng.randrange(6) for _ in range(4))
            tree = build_resolution_graph(column_matching(tab.columns()), script)
            recount = tree.sink_multiset()
            assert total == sum(recount.values())


def _reflect(i: int, arcs: tuple) -> dict[tuple, int]:
    """s_i on the cup ``arcs``, over cups, without the insertion kernel.

    A cup with the arc (i, i+1) is negated.  Otherwise swapping the dots i
    and i+1 makes one crossing, and its two smoothings are the terms.
    """
    if (i, i + 1) in arcs:
        return {arcs: -1}
    swapped = swap_dots(Matching(arcs), i)
    found = crossings(swapped)
    assert len(found) == 1
    out = {}
    for kind in MoveKind:
        child = resolve_step(swapped, found[0], kind)
        assert not crossings(child)
        out[child.arcs] = 1
    return out


class TestColumnsAlongGraphEdges:
    """Column dst of M is s_i times column src along a graph edge src ->_i dst.

    Starting from the unit column of t0, one parent edge per tableau gives
    every column, which checks the insertion build at n = 8, beyond the
    reach of ``brute_resolve``.
    """

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_the_insertion_build(self, n):
        matrix = transition_matrix(n)
        graph = build_tableau_graph(n)
        assert graph.vertices == matrix.index
        parent = {}
        for src, dst, i in graph.edges:
            parent.setdefault(dst, (src, i))
        reflected = {}  # (cup, i) -> s_i cup
        columns = [{cup_of_tableau(matrix.index[0]).arcs: 1}]
        for dst in range(1, matrix.size):
            src, i = parent[dst]  # src has a lower rank, so src < dst
            col = {}
            for cup, mult in columns[src].items():
                if (cup, i) not in reflected:
                    reflected[cup, i] = _reflect(i, cup)
                for w, c in reflected[cup, i].items():
                    col[w] = col.get(w, 0) + mult * c
            columns.append({w: c for w, c in col.items() if c})
        row_of = {cup_of_tableau(t).arcs: k for k, t in enumerate(matrix.index)}
        assert [{row_of[w]: c for w, c in col.items()} for col in columns] == [
            {s: e for s, e in col.items() if e} for col in matrix.columns]


class TestMatrixIntertwining:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_conjugation_identity(self, n):
        # with columns as coordinates: (matrix of the web action) * A
        # equals A * (matrix of the standard action), i.e. the basis
        # change commutes with every generator
        matrix = transition_matrix(n)
        index = matrix.index
        size = matrix.size
        position = {TwoRowTableau.from_standard(t): k for k, t in enumerate(index)}
        web_position = {cup_of_tableau(t): k for k, t in enumerate(index)}
        a = matrix.entries
        for i in range(1, 2 * n):
            p = [[0] * size for _ in range(size)]
            for col, tab in enumerate(index):
                out = act_polytabloid(
                    i, TabloidVector.unit(TwoRowTableau.from_standard(tab))
                )
                for key, coeff in out.terms.items():
                    p[position[key]][col] = coeff
            w = [[0] * size for _ in range(size)]
            for col, tab in enumerate(index):
                out = act_web(i, DiagramVector.unit(cup_of_tableau(tab)))
                for key, coeff in out.terms.items():
                    w[web_position[key]][col] = coeff
            for r in range(size):
                for c in range(size):
                    lhs = sum(a[r][k] * p[k][c] for k in range(size))
                    rhs = sum(w[r][k] * a[k][c] for k in range(size))
                    assert lhs == rhs


class TestWitnessConsistency:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_validated_witness_forces_positive_entry(self, n):
        matrix = transition_matrix(n)
        graph = build_tableau_graph(n)
        for s_pos, s in enumerate(matrix.index):
            for t_pos, t in enumerate(matrix.index):
                if first_row_dominates(s, t):
                    assert check_witness(t, s, witness_path(t, s))
                    if leq(s, t, graph):
                        assert matrix.entry(s_pos, t_pos) >= 1


class TestExports:
    def test_csv_body_rows(self):
        matrix = transition_matrix(2)
        text = matrix.to_csv("transition matrix, n=2")
        lines = text.strip().split("\n")
        comments = [ln for ln in lines if ln.startswith("#")]
        body = [ln for ln in lines if not ln.startswith("#")]
        assert body == ["1,1", "0,1"]
        assert any("order:" in ln for ln in comments)
        assert any("1 3 / 2 4" in ln for ln in comments)

    def test_csv_n8_digest(self):
        matrix = transition_matrix(8)
        text = matrix.to_csv("transition matrix, n=8")
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e1611ab25f3ed0e0dc846cf20c9f80f7a518e3bb9cc97e489d5d33b24d2f8005"
        )

    def test_inverse_csv_n7_digest(self, capsys):
        # The stdout of `cupweb inverse -n 7`.
        assert main(["inverse", "-n", "7"]) == 0
        out = capsys.readouterr().out.encode()
        assert len(out) == 388_856
        assert hashlib.sha256(out).hexdigest() == (
            "b074b1e10392004fae75bc80380523e1eacd6d297a3864e3a5a0a25094fbbe05"
        )

    def test_inverse_csv_n8_digest(self, capsys):
        # The stdout of `cupweb inverse -n 8`.
        assert main(["inverse", "-n", "8"]) == 0
        out = capsys.readouterr().out.encode()
        assert len(out) == 4_185_588
        assert hashlib.sha256(out).hexdigest() == (
            "f2b590597cf9834feb837b25ae70c785a0e0b38e3ff443a240260010b36ddb6f"
        )

    def test_json_schema(self):
        data = transition_matrix(2).to_json()
        assert data["n"] == 2
        assert data["entries"] == [[1, 1], [0, 1]]
        assert data["index"][0] == {"top": [1, 3], "bottom": [2, 4]}
        assert "order" in data
