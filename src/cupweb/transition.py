"""The change-of-basis matrix between the standard and cup-diagram bases,
its exact integer inverse, and machine checks of its structure.

Row and column indices both run over the canonical tableau order (rank,
then lexicographic top row).  Column T holds the cup-diagram expansion of
the column matching of T, so entry[S][T] counts how often the cup diagram
of S appears as a sink when that matching is resolved.

Each column is stored as a ``Column``: its rows in one sorted array, its
entries in another, of the narrowest type that holds every entry of the
matrix.  The matrix is built by one-arc insertion.  The last column of T is
(a, 2n), a the largest top entry; dropping it and lowering the entries
above a by one leaves a tableau T' of shape (n-1, n-1).  Column T of M_n
is the sum of M_{n-1}[c', T'] times the expansion of c' with (a, 2n)
inserted, so each entry is a sum over chains T_1 -> ... -> T_n = T of
products of nonnegative insertion multiplicities.
"""

from __future__ import annotations

import sys
import time
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from datetime import datetime, timezone
from functools import reduce
from itertools import compress, islice
from operator import and_, lt

from ._value import Value, _read_only
from .actions import DEFAULT_STEP_BUDGET, _straighten
from .diagrams import cup_of_tableau
from .resolution import DEFAULT_NODE_BUDGET, _cup, expand
from .young import (
    DEFAULT_MAX_N,
    StandardTableau,
    build_tableau_graph,
    cached_on_n,
    enumerate_syt,
)

ORDER_DESCRIPTION = "rank, then lexicographic top row"


_set = object.__setattr__


class Column(Mapping):
    """One column of a ``TransitionMatrix``, read-only: ``{row: entry}`` in row order.

    ``_rows`` is a sorted array of distinct rows and ``_vals`` holds the
    entries in the same order: an array, or a tuple of ints when some entry
    of the matrix needs more than 64 bits.  Lookups bisect ``_rows``;
    iteration is in row order, and ``items`` and ``values`` are iterators.
    A column equals a dict of the same items, a stored 0 among them.
    """

    __slots__ = ("_rows", "_vals")

    def __init__(self, rows, vals):
        _set(self, "_rows", rows)
        _set(self, "_vals", vals)

    __setattr__ = __delattr__ = _read_only

    def __reduce__(self):
        return Column, (self._rows, self._vals)

    def _find(self, s) -> int:
        """The position of row ``s``, or -1."""
        rows = self._rows
        try:
            k = bisect_left(rows, s)
        except TypeError:  # not a number: no row
            return -1
        return k if k < len(rows) and rows[k] == s else -1

    def __getitem__(self, s):
        k = self._find(s)
        if k < 0:
            raise KeyError(s)
        return self._vals[k]

    def get(self, s, default=None):
        k = self._find(s)
        return default if k < 0 else self._vals[k]

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return iter(self._rows)

    def values(self):
        return iter(self._vals)

    def items(self):
        return zip(self._rows, self._vals)

    def __repr__(self) -> str:
        return f"Column({dict(self.items())!r})"


def _narrowest(codes: str, lo: int, hi: int) -> str | None:
    """The first of the array type ``codes`` whose items hold lo..hi, or None."""
    for code in codes:
        bits = 8 * array(code).itemsize
        low = -(1 << bits - 1) if code.islower() else 0
        if low <= lo and hi < low + (1 << bits):
            return code
    return None


def _codes(size: int, lo: int, hi: int) -> tuple[str, str | None]:
    """Type codes of the rows of a matrix of ``size`` rows and of its entries in lo..hi.

    Rows are ``H`` up to 65,536 rows; entries the narrowest of ``b``, ``h``,
    ``i`` and ``q``, or None past 64 bits: a tuple of ints.
    """
    return _narrowest("HIQ", 0, max(size - 1, 0)), _narrowest("bhiq", lo, hi)


def _compact(col, codes: tuple[str, str | None]) -> Column:
    """``col``, a dict of int rows or a ``Column``, stored in the type ``codes``.

    A ``Column`` already stored so is ``col`` itself: its arrays never change.
    """
    if type(col) is Column:
        rows, vals = col._rows, col._vals
        if rows.typecode == codes[0] and getattr(vals, "typecode", None) == codes[1]:
            return col
    else:
        rows = sorted(col)
        vals = list(map(col.__getitem__, rows))
    return Column(array(codes[0], rows), array(codes[1], vals) if codes[1] else tuple(vals))


def _span(entries) -> tuple[int, int]:
    """The least and the greatest item in the sequences ``entries``.

    0, 0 when every sequence is empty.
    """
    entries = [e for e in entries if e]
    return (min(map(min, entries), default=0), max(map(max, entries), default=0))


def _column_fault(col, size: int) -> str | None:
    """Why ``col``, a ``Column`` or a dict, is not int rows in range(size) to ints, or None.

    A ``Column`` is read by its arrays: unsigned rows, strictly rising, one
    per entry, and entries in an integer array or a tuple of ints.
    """
    if type(col) is not Column:
        for s, e in col.items():
            if type(s) is not int or not 0 <= s < size:
                return f"row {s!r} is not an int in range({size})"
            if type(e) is not int:  # not isinstance: True is an int
                return f"entry {e!r} at row {s} is not an integer"
        return None
    rows, vals = col._rows, col._vals
    if not (type(rows) is array and rows.typecode in "BHILQ" and len(rows) == len(vals)
            and all(map(lt, rows, islice(rows, 1, None)))):
        return "a Column's rows must be an unsigned array, rising, one per entry"
    if rows and rows[-1] >= size:
        return f"row {rows[bisect_left(rows, size)]} is not an int in range({size})"
    if not (type(vals) is array and vals.typecode in "bBhHiIlLqQ"
            or type(vals) is tuple and all(type(e) is int for e in vals)):
        return "a Column's entries must be an integer array or a tuple of ints"
    return None


class TransitionMatrix(Value):
    """Exact integer matrix M[S][T] over the canonical tableau order.

    ``columns[t]`` is a ``Column``, ``{s: M[s][t]}`` over the nonzero entries
    of column t; an absent or stored-0 row is a zero, and ``entry`` bisects
    the column's rows.  Only ``entries`` and the exports build dense rows,
    afresh on each call.  The constructor takes one mapping per index entry,
    of int rows in ``range(len(index))`` to ints that are not bools, and
    raises ``ValueError`` at the first column that is not; it stores copies,
    but shares a ``Column`` whose arrays already have the matrix's types.
    """

    __slots__ = _fields = ("n", "index", "columns")

    def __init__(self, n: int, index: tuple[StandardTableau, ...], columns):
        size, columns = len(index), tuple(columns)
        if len(columns) != size:
            t = min(len(columns), size)
            raise ValueError(f"column {t} is {'missing' if t < size else 'extra'}: "
                             f"one column per index entry ({size}), got {len(columns)}")
        given = [col if type(col) is Column else dict(col) for col in columns]
        for t, col in enumerate(given):
            fault = _column_fault(col, size)
            if fault:
                raise ValueError(f"column {t}: {fault}")
        codes = _codes(size, *_span(
            col._vals if type(col) is Column else col.values() for col in given))
        super().__init__(n, index, tuple(_compact(col, codes) for col in given))

    @property
    def size(self) -> int:
        return len(self.index)

    def entry(self, s: int, t: int) -> int:
        return self.columns[t].get(s, 0)

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """Dense rows; not cached, so the matrix never holds two copies."""
        return tuple(map(tuple, self._dense_rows(0, int)))

    def _rows(self) -> list[dict[int, int]]:
        """``{t: entry}`` per row: the stored entries, transposed."""
        rows = [{} for _ in self.index]
        for t, col in enumerate(self.columns):
            for s, e in col.items():
                rows[s][t] = e
        return rows

    def _dense_rows(self, zero, cast):
        """Each row as a list: ``cast(entry)`` where one is stored, else ``zero``."""
        for row in self._rows():
            dense = [zero] * self.size
            for t, e in row.items():
                dense[t] = cast(e)
            yield dense

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "order": ORDER_DESCRIPTION,
            "index": [t.to_json() for t in self.index],
            "entries": list(self._dense_rows(0, int)),
        }

    def to_csv(self, title: str) -> str:
        """Comment header (title, order, index row words), then plain integer rows."""
        lines = [
            f"# {title}",
            f"# order: {ORDER_DESCRIPTION}",
            "# index: " + ", ".join(t.row_word() for t in self.index),
        ]
        lines += map(",".join, self._dense_rows("0", str))
        return "\n".join(lines) + "\n"


class Check(Value):
    __slots__ = _fields = ("name", "passed", "witness", "informational")

    def __init__(self, name: str, passed: bool, witness: str | None = None,
                 informational: bool = False):
        super().__init__(name, passed, witness, informational)


class VerificationReport(Value):
    __slots__ = _fields = ("n", "checks", "elapsed_seconds", "timestamp")

    def __init__(self, n: int, checks: list[Check] | None = None,
                 elapsed_seconds: float = 0.0, timestamp: str = ""):
        super().__init__(n, [] if checks is None else checks, elapsed_seconds, timestamp)

    @property
    def passed(self) -> bool:
        """All non-informational checks passed."""
        return all(c.passed for c in self.checks if not c.informational)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "passed": self.passed,
            "checks": [{name: getattr(c, name) for name in Check._fields}
                       for c in self.checks],
            "elapsed_seconds": self.elapsed_seconds,
            "timestamp": self.timestamp,
        }


def _report(n: int, checks: list[Check], start: float) -> VerificationReport:
    elapsed = time.perf_counter() - start
    stamp = datetime.now(timezone.utc).isoformat()
    return VerificationReport(n, checks, elapsed, stamp)


@cached_on_n
def transition_matrix(n: int) -> TransitionMatrix:
    """Build M_1, ..., M_n by one-arc insertion over ``enumerate_syt(k)``.

    Column T of M_k is the sum over c' of M_{k-1}[c', T'] * R(c', a), where
    a = ``top[-1]``, T' has top row ``top[:-1]``, and R(c', a) resolves c'
    lifted over a (entries >= a raised by one) plus the arc (a, 2k).  The
    column matching of T peels to its top row, so the columns are
    ``expand`` run on every k's top rows, in the session tables that
    ``resolve_full`` uses.  Each is keyed on the session's diagrams, so its
    rows are read off by identity, through the diagram of each index cup,
    and then stored as a ``Column``, its dict dropped.  A column whose
    resolution tree, 2 * (column sum) - 1 nodes, exceeds
    ``DEFAULT_NODE_BUDGET`` raises ``SizeLimitError`` and leaves both
    tables as it found them.
    """
    columns = expand(((t.top for t in enumerate_syt(k, max_n=n))
                      for k in range(1, n + 1)), DEFAULT_NODE_BUDGET)
    index = enumerate_syt(n, max_n=n)
    row_of = {_cup(cup_of_tableau(t).arcs): k for k, t in enumerate(index)}
    codes = _codes(len(index), 1, max(max(col.values()) for col in columns.values()))
    return TransitionMatrix._trusted(n, index, tuple(
        _compact({row_of[w]: mult for w, mult in columns.pop(t.top).items()}, codes)
        for t in index))


def _first_violation(masks) -> tuple[int, int] | None:
    """``(k, j)`` for the lowest set bit j of the first nonzero ``masks[k]``.

    With one mask of violations per row, such as a row's support or sign
    mask against its up-set, this is the first violating pair in row-major
    order.
    """
    for k, mask in enumerate(masks):
        if mask:
            return k, (mask & -mask).bit_length() - 1
    return None


def _row_masks(matrix: TransitionMatrix, keep) -> list[int]:
    """Per row s, the mask of the columns t where ``keep(M[s][t])``."""
    rows = [bytearray((matrix.size + 7) >> 3) for _ in matrix.index]
    for t, col in enumerate(matrix.columns):
        byte, bit = t >> 3, 1 << (t & 7)
        for s in compress(col._rows, map(keep, col._vals)):
            rows[s][byte] |= bit
    return [int.from_bytes(row, "little") for row in rows]


def _dominance_masks(vertices: tuple[StandardTableau, ...]) -> list[int]:
    """Bit t of the s-th mask is set when ``s.top[j] >= t.top[j]`` for all j."""
    n = vertices[0].n if vertices else 0
    at_most = [[0] * (2 * n + 1) for _ in range(n)]  # [j][v]: top[j] == v, then <= v
    for t, tab in enumerate(vertices):
        for j, v in enumerate(tab.top):
            at_most[j][v] |= 1 << t
    for masks in at_most:
        for v in range(1, 2 * n + 1):
            masks[v] |= masks[v - 1]
    return [reduce(and_, (at_most[j][v] for j, v in enumerate(tab.top)))
            for tab in vertices]


def _pair_words(index: tuple[StandardTableau, ...], pair) -> str | None:
    return pair and f"S={index[pair[0]].row_word()}, T={index[pair[1]].row_word()}"


def verify_unitriangular(matrix: TransitionMatrix) -> VerificationReport:
    """Diagonal all ones; nonzero entries only where S <= T by top-row dominance."""
    start = time.perf_counter()
    bad = next((t for t in range(matrix.size) if matrix.entry(t, t) != 1), None)
    diagonal = None if bad is None else matrix.index[bad].row_word()
    up = _dominance_masks(matrix.index)
    pair = _first_violation(
        support & ~u for support, u in zip(_row_masks(matrix, bool), up)
    )
    entry = pair and matrix.entry(*pair)
    witness = pair and f"{_pair_words(matrix.index, pair)}, entry={entry}"
    checks = [
        Check("diagonal-ones", bad is None, diagonal),
        Check("support-within-order", witness is None, witness),
    ]
    return _report(matrix.n, checks, start)


def verify_positivity(matrix: TransitionMatrix) -> VerificationReport:
    """entry[S][T] > 0 exactly when S <= T by top-row dominance."""
    start = time.perf_counter()
    up = _dominance_masks(matrix.index)
    pair = _first_violation(
        positive ^ u for positive, u in zip(_row_masks(matrix, lambda e: e > 0), up)
    )
    witness = pair and (
        f"{_pair_words(matrix.index, pair)}, entry={matrix.entry(*pair)}, "
        f"comparable={bool(up[pair[0]] >> pair[1] & 1)}"
    )
    checks = [Check("positive-iff-comparable", witness is None, witness)]
    return _report(matrix.n, checks, start)


def _unitriangular_fault(matrix: TransitionMatrix) -> str | None:
    """Why ``matrix`` is not unitriangular, at its first bad column, or None.

    Column by column: a diagonal entry other than 1, or else a nonzero
    entry below the diagonal, past row t in the sorted rows.
    """
    for t, col in enumerate(matrix.columns):
        if col.get(t, 0) != 1:
            return "matrix diagonal must be all ones"
        if any(col._vals[bisect_right(col._rows, t):]):
            return "matrix must be upper-triangular"
    return None


# array type code per field size in bytes, for the fields of ``_packed``
_FIELD_CODES = {array(code).itemsize: code for code in "BHIQ"}


def _field_int(fields: array) -> int:
    """The unsigned fields of ``fields`` as one int, field 0 lowest."""
    if sys.byteorder == "big":  # the first field would be the highest
        fields.reverse()
    return int.from_bytes(fields, sys.byteorder)


def _packed(column: Mapping[int, int], width: int) -> int:
    """Sum of ``e << (s * width)`` over ``column``'s ``{s: e}``.

    ``width`` is a multiple of 8, and every s >= 0 and |e| < 2 ** width.
    Positive and negative entries fill the unsigned fields of two buffers,
    which are read as ints and subtracted.  Fields of 8, 16, 32 or 64 bits
    are ``array`` items; wider ones are byte slices of a ``bytearray``.
    Item assignment packs all of M's columns at n = 8 in about 67 ms
    against 179 ms for byte slices (best of 5, one core of a shared
    x86-64 host), so the slices serve only the fields the items cannot.
    """
    length, size = max(column, default=-1) + 1, width >> 3
    code = _FIELD_CODES.get(size)
    if code is not None:
        pos, neg = array(code, bytes(length * size)), array(code, bytes(length * size))
        for s, e in column.items():
            if e >= 0:
                pos[s] = e
            else:
                neg[s] = -e
        return _field_int(pos) - _field_int(neg)
    pos, neg = bytearray(length * size), bytearray(length * size)
    for s, e in column.items():
        (pos if e >= 0 else neg)[s * size:(s + 1) * size] = abs(e).to_bytes(size, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _field_width(bound: int) -> int:
    """The least w in 8, 16, 32, 64, else the least multiple of 8, with 2^(w-1) > bound."""
    width = bound.bit_length() + 1
    return next((w for w in (8, 16, 32, 64) if w >= width), -(-width // 8) * 8)


def _checked_psi(matrix: TransitionMatrix, step_budget: int):
    """Yield each cup of M's index straightened, psi_c, as ``{row: coeff}``.

    One ``_straighten`` sweep within ``step_budget`` rewrite steps takes
    every cup, seeded under its column c.  In index order, this stops
    before the first column c where M psi_c != e_c, or psi_c has a term
    outside the index; so c is the number yielded.  M must pass
    ``_unitriangular_fault``; as M is then invertible, M psi_c = e_c says
    psi_c is column c of M^-1.

    Column t of M is packed into one int P_t = sum_s M[s][t] 2^(s w), so
    the packed product is sum_t psi_c[t] P_t = sum_s (M psi_c)[s] 2^(s w),
    summed over the P_t of each coefficient of psi_c and then scaled.
    The field width w has 2^(w-1) > B = max |M| * max_c ||psi_c||_1, so
    every (M psi_c)[s] - (e_c)[s] = d_s has |d_s| <= B + 1 <= 2^(w-1) <
    2^w.  If sum_s d_s 2^(s w) = 0 and k is the lowest s with d_s != 0,
    then 2^w divides d_k, although 0 < |d_k| < 2^w.  So the product
    equals ``1 << (c * w)`` exactly when M psi_c = e_c.
    """
    seeds: dict[tuple, dict[int, int]] = {}
    for c, t in enumerate(matrix.index):
        seeds.setdefault(cup_of_tableau(t).arcs, {})[c] = 1
    out, _ = _straighten(seeds, step_budget)
    row_of = {t.columns(): row for row, t in enumerate(matrix.index)}
    psi: list[dict] = [{} for _ in matrix.index]
    for cols, vec in out.items():
        row = row_of.get(cols)  # None for a filling outside the index
        for c, coeff in vec.items():
            if coeff:
                psi[c][row] = coeff
    lo, hi = _span(col._vals for col in matrix.columns)
    entry_max = max(-lo, hi)
    norm_max = max((sum(map(abs, vec.values())) for vec in psi), default=1)
    width = _field_width(entry_max * norm_max)
    packed = [_packed(col, width) for col in matrix.columns]
    for c, found in enumerate(psi):
        if None in found:
            return
        by_coeff: dict[int, int] = {}  # the packed columns summed per coefficient
        for row, coeff in found.items():
            by_coeff[coeff] = by_coeff.get(coeff, 0) + packed[row]
        if sum(k * v for k, v in by_coeff.items()) != 1 << (c * width):
            return
        yield found


def inverse_matrix(matrix: TransitionMatrix) -> TransitionMatrix:
    """M^-1 over M's own index: column c is cup c straightened, psi_c.

    A matrix that ``_unitriangular_fault`` rejects raises ``ValueError``
    with its message, and so does one that fails ``_checked_psi``, naming
    the first failing column.  The straightening runs within the module's
    ``DEFAULT_STEP_BUDGET``, read at each call; past it, ``SizeLimitError``.
    """
    fault = _unitriangular_fault(matrix)
    if fault:
        raise ValueError(fault)
    inverse = tuple(_checked_psi(matrix, DEFAULT_STEP_BUDGET))
    if len(inverse) < matrix.size:
        raise ValueError("the straightened cups do not invert the matrix: "
                         f"web of {matrix.index[len(inverse)].row_word()}")
    codes = _codes(matrix.size, *_span(col.values() for col in inverse))
    return TransitionMatrix._trusted(matrix.n, matrix.index,
                                     tuple(_compact(col, codes) for col in inverse))


def verify_psi(
    matrix: TransitionMatrix, step_budget: int = DEFAULT_STEP_BUDGET
) -> VerificationReport:
    """Straightening each cup diagram gives the matching column of M^-1.

    ``_unitriangular_fault`` is checked before any straightening, then
    ``_checked_psi``, one sweep within ``step_budget`` rewrite steps.
    """
    start = time.perf_counter()
    fault = _unitriangular_fault(matrix)
    if fault:
        witness = f"matrix not invertible over the order: {fault}"
    else:
        good = sum(1 for _ in _checked_psi(matrix, step_budget))
        witness = None if good == matrix.size else f"web of {matrix.index[good].row_word()}"
    checks = [Check("straightening-matches-inverse", witness is None, witness)]
    return _report(matrix.n, checks, start)


def order_conjecture_report(n: int, max_n: int = DEFAULT_MAX_N) -> VerificationReport:
    """Compare the reachability order with first-row dominance on all pairs.

    The two orders agree, and this report is the run-time check of that
    lemma.  Reachability forces dominance: each graph edge only replaces a
    top-row entry by a smaller one.  Conversely, let S dominate T, S != T,
    and let j be the first index with s_j > t_j.  Then j >= 2, as both rows
    start with 1, and s_{j-1} = t_{j-1} < t_j <= s_j - 1, so s_j - 1 is in
    the bottom row of S.  Swapping s_j - 1 and s_j is an edge out of S to a
    tableau that still dominates T, and induction on the top-row sum gives
    a path from S to T.  The verifiers read the order as dominance.  The
    converse check stays informational, so the report's output is unchanged.
    """
    start = time.perf_counter()
    graph = build_tableau_graph(n, max_n)
    masks = list(zip(graph.descendants, _dominance_masks(graph.vertices)))
    theorem = _pair_words(
        graph.vertices, _first_violation(up & ~dom for up, dom in masks))
    converse = _pair_words(
        graph.vertices, _first_violation(dom & ~up for up, dom in masks))
    checks = [
        Check("comparable-implies-dominates", theorem is None, theorem),
        Check("dominates-implies-comparable", converse is None, converse,
              informational=True),
    ]
    return _report(n, checks, start)
