"""A ``TransitionMatrix`` column is a read-only mapping over two sorted arrays.

The rows are an ``array('H')`` (a wider code past 65,536 rows) and the
entries an array of the narrowest of ``b``, ``h``, ``i`` and ``q`` that
holds every entry of the matrix, or a tuple of ints past 64 bits.  The
public constructor checks its input and never truncates an entry.
"""

import copy
from array import array
import pickle
import re
import tracemalloc

import pytest

from cupweb import (
    StandardTableau,
    TransitionMatrix,
    inverse_matrix,
    t0,
    transition_matrix,
)
from cupweb.cli import _corrupted
import cupweb.transition as transition_module
from cupweb.transition import Column


class TestColumn:
    def test_reads_like_a_dict_in_row_order(self):
        col = transition_matrix(4).columns[9]
        plain = dict(col.items())
        assert list(plain) == sorted(plain) and len(plain) > 2
        assert len(col) == len(plain)
        assert list(col) == list(col.keys()) == list(plain)
        assert list(col.values()) == list(plain.values())
        assert list(col.items()) == list(plain.items())
        for s in range(-2, 16):
            assert col.get(s) == plain.get(s)
            assert col.get(s, "absent") == plain.get(s, "absent")
            assert (s in col) == (s in plain)
            if s in plain:
                assert col[s] == plain[s]
            else:
                with pytest.raises(KeyError):
                    col[s]
        for other in ("0", None, 1.5, (0,)):
            assert col.get(other) is None and other not in col
        assert col.get(0.0) == plain[0]
        assert {**col} == plain and dict(col) == plain

    def test_equals_a_dict_of_the_same_items(self):
        col = transition_matrix(4).columns[9]
        plain = dict(col.items())
        assert col == plain and plain == col and not col != plain
        assert col == Column(col._rows, col._vals)
        assert col != {**plain, 0: plain[0] + 1}
        assert col != {**plain, 13: 0}  # a stored 0 is an item, as in a dict
        assert col != transition_matrix(4).columns[8]
        assert col != list(plain.items())
        with pytest.raises(TypeError):
            hash(col)

    def test_equal_across_type_codes(self):
        narrow = Column(array("H", [0, 3]),
                        array("b", [1, -2]))
        wide = Column(array("I", [0, 3]), (1, -2))
        assert narrow == wide and wide == narrow == {0: 1, 3: -2}

    def test_refuses_assignment(self):
        col = transition_matrix(3).columns[1]
        with pytest.raises(TypeError):
            col[0] = 2
        with pytest.raises(TypeError):
            del col[0]
        with pytest.raises(AttributeError):
            col._rows = None
        with pytest.raises(AttributeError):
            col.extra = 1
        assert col == {0: 1, 1: 1}

    def test_repr_lists_the_items(self):
        assert repr(transition_matrix(2).columns[1]) == "Column({0: 1, 1: 1})"
        assert repr(Column(array("H"), ())) == "Column({})"


class TestStoredForm:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_built_columns_are_compact(self, n):
        for matrix in (transition_matrix(n), inverse_matrix(transition_matrix(n))):
            for col in matrix.columns:
                assert type(col) is Column
                assert col._rows.typecode == "H" and col._vals.typecode == "b"
                rows = col._rows.tolist()
                assert rows == sorted(set(rows))

    @pytest.mark.parametrize("size, code", [
        (0, "H"), (1, "H"), (65_536, "H"), (65_537, "I"), (2**32, "I"), (2**32 + 1, "Q"),
    ])
    def test_row_code_widens_past_65536_rows(self, size, code):
        assert transition_module._codes(size, 0, 0)[0] == code

    @pytest.mark.parametrize("lo, hi, code", [
        (0, 0, "b"), (-128, 127, "b"), (0, 128, "h"), (-129, 0, "h"),
        (-(2**15), 2**15 - 1, "h"), (0, 2**15, "i"), (-(2**15) - 1, 0, "i"),
        (-(2**31), 2**31 - 1, "i"), (0, 2**31, "q"), (-(2**31) - 1, 0, "q"),
        (-(2**63), 2**63 - 1, "q"), (0, 2**63, None), (-(2**63) - 1, 0, None),
        (0, 2**70, None),
    ])
    def test_value_code_is_the_narrowest_that_holds_every_entry(self, lo, hi, code):
        assert transition_module._codes(1, lo, hi)[1] == code

    @pytest.mark.parametrize("value", [
        127, 128, -127, -128, -129,
        2**15 - 1, 2**15, -(2**15 - 1), -(2**15), -(2**15) - 1,
        2**31 - 1, 2**31, -(2**31), -(2**31) - 1,
        2**63 - 1, 2**63, -(2**63), -(2**63) - 1,
        2**70, -(2**70),
    ])
    def test_no_entry_is_truncated(self, value):
        base = transition_matrix(3)
        columns = [dict(col.items()) for col in base.columns]
        columns[4][0] = value
        matrix = TransitionMatrix(3, base.index, columns)
        code = transition_module._codes(5, min(value, 0), max(value, 1))[1]
        vals = matrix.columns[4]._vals
        assert (vals.typecode if code else type(vals)) == (code or tuple)
        for twin in (matrix, copy.deepcopy(matrix), pickle.loads(pickle.dumps(matrix)),
                     TransitionMatrix(3, matrix.index, matrix.columns)):
            assert twin == matrix
            assert twin.entry(0, 4) == value and twin.entries[0][4] == value
            assert twin.to_csv("m").splitlines()[3].split(",")[4] == str(value)
            assert twin.to_json()["entries"][0][4] == value
            assert [dict(col.items()) for col in twin.columns] == columns
            assert all(type(e) is int for col in twin.columns for e in col.values())

    def test_compact_columns_given_are_shared_or_recoded(self):
        base = transition_matrix(5)
        same = TransitionMatrix(5, base.index, base.columns)
        assert all(a is b for a, b in zip(same.columns, base.columns))
        wide = _corrupted(base)  # column 0 is a dict; the rest stay narrow
        assert wide.columns[1:] == base.columns[1:]
        assert all(a is b for a, b in zip(wide.columns[1:], base.columns[1:]))
        bigger = list(base.columns)
        bigger[0] = {0: 1, 1: 2**40}
        recoded = TransitionMatrix(5, base.index, bigger)
        assert {col._vals.typecode for col in recoded.columns} == {"q"}
        assert recoded.columns[1:] == base.columns[1:]
        assert {col._vals.typecode for col in base.columns} == {"b"}

    def test_holds_at_most_8_bytes_per_nonzero(self):
        m = transition_matrix(7)
        dicts = [dict(col.items()) for col in m.columns]
        assert sum(map(len, dicts)) == 40_898
        for given in (m.columns, dicts):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                copied = TransitionMatrix(7, m.index, given)
                retained = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert copied == m
            assert retained <= 8 * 40_898


class TestBoundary:
    """The constructor names the first index entry that is not a distinct tableau
    of n, and the first column that is not ints in range to ints."""

    ONE = transition_matrix(1).index

    @pytest.mark.parametrize("columns, message", [
        (({-1: 1},), "column 0: row -1 is not an int in range(1)"),
        (({0: 1.5},), "column 0: entry 1.5 at row 0 is not an integer"),
        ((), "column 0 is missing: one column per index entry (1), got 0"),
        (({5: 1},), "column 0: row 5 is not an int in range(1)"),
        (({0: True},), "column 0: entry True at row 0 is not an integer"),
        (({True: 1},), "column 0: row True is not an int in range(1)"),
        (({"0": 1},), "column 0: row '0' is not an int in range(1)"),
        (({0: 1}, {0: 1}), "column 1 is extra: one column per index entry (1), got 2"),
    ])
    def test_bad_columns_raise(self, columns, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            TransitionMatrix(1, self.ONE, columns)

    @pytest.mark.parametrize("n, index, columns, message", [
        (1, ("a",), ({0: 1},), "index entry 0: 'a' is not a StandardTableau of n=1"),
        (2, (t0(2), StandardTableau((1, 2, 3), (4, 5, 6))), ({0: 1}, {1: 1}),
         "index entry 1: StandardTableau('1 2 3 / 4 5 6') is not a StandardTableau of n=2"),
        (2, (t0(2), t0(2)), ({0: 1}, {1: 1}),
         "index entry 1: StandardTableau('1 3 / 2 4') repeats entry 0"),
        (5, transition_matrix(3).index, transition_matrix(3).columns,
         "index entry 0: StandardTableau('1 3 5 / 2 4 6') is not a StandardTableau of n=5"),
    ], ids=["not-a-tableau", "other-n", "repeated", "matrix-of-another-n"])
    def test_bad_index_raises(self, n, index, columns, message):
        # Each used to pass the constructor and then fail, or pass, a verifier.
        with pytest.raises(ValueError, match=re.escape(message)):
            TransitionMatrix(n, index, columns)

    def test_the_first_bad_column_is_named(self):
        base = transition_matrix(3)
        columns = [dict(col.items()) for col in base.columns]
        columns[2][7] = 1
        columns[3][0] = 0.5
        with pytest.raises(ValueError, match="column 2: row 7 "):
            TransitionMatrix(3, base.index, columns)

    def test_a_compact_column_out_of_range_raises(self):
        base = transition_matrix(3)
        with pytest.raises(ValueError, match=r"column 1: row 3 is not an int in range\(3\)"):
            TransitionMatrix(3, base.index[:3], (base.columns[0], base.columns[4], {}))

    @pytest.mark.parametrize("rows, vals, message", [
        (array("H", [2, 0]), array("b", [1, 1]), "rows must be an unsigned array, rising"),
        (array("H", [0, 0]), array("b", [1, 1]), "rows must be an unsigned array, rising"),
        (array("h", [-1, 0]), array("b", [1, 1]), "rows must be an unsigned array, rising"),
        ([0, 1], array("b", [1, 1]), "rows must be an unsigned array, rising"),
        (array("H", [0, 1]), array("b", [1]), "rows must be an unsigned array, rising"),
        (array("H", [0, 1]), array("d", [1.0, 1.0]), "entries must be an integer array"),
        (array("H", [0, 1]), (1, True), "entries must be an integer array"),
    ])
    def test_a_malformed_compact_column_raises(self, rows, vals, message):
        base = transition_matrix(2)
        with pytest.raises(ValueError, match="column 1: a Column's " + message):
            TransitionMatrix(2, base.index, (base.columns[0], Column(rows, vals)))

    @pytest.mark.parametrize("s, t", [
        (-1, 4), (5, 4), (0, 5), (0, -1), (True, 0), (0, False), (1.0, 0), ("0", 0), (None, 0),
    ])
    def test_entry_outside_the_matrix_raises(self, s, t):
        # A negative position would count from the end, and a bool pass as an int.
        matrix = transition_matrix(3)
        with pytest.raises(IndexError, match=re.escape(f"entry ({s!r}, {t!r}) is outside "
                                                       "the 5x5 matrix")):
            matrix.entry(s, t)

    def test_an_empty_matrix_is_accepted(self):
        assert TransitionMatrix(9, (), ()).size == 0
