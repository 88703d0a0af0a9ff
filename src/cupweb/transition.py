"""The change-of-basis matrix between the standard and cup-diagram bases,
its exact integer inverse, and machine checks of its structure.

Row and column indices both run over the canonical tableau order (rank,
then lexicographic top row).  Column T holds the cup-diagram expansion of
the column matching of T, so entry[S][T] counts how often the cup diagram
of S appears as a sink when that matching is resolved.

The matrix is built by one-arc insertion.  The last column of T is
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
from datetime import datetime, timezone
from functools import reduce
from operator import and_
from types import MappingProxyType

from ._value import Value
from .actions import DEFAULT_STEP_BUDGET, _straighten
from .diagrams import cup_of_tableau
from .resolution import DEFAULT_NODE_BUDGET, expand
from .young import (
    DEFAULT_MAX_N,
    StandardTableau,
    build_tableau_graph,
    cached_on_n,
    enumerate_syt,
)

ORDER_DESCRIPTION = "rank, then lexicographic top row"


class TransitionMatrix(Value):
    """Exact integer matrix M[S][T] over the canonical tableau order.

    ``columns[t]`` is ``{s: M[s][t]}`` over the nonzero entries of column t;
    an absent or stored-0 row is a zero.  Only ``entries`` and the exports
    build dense rows, afresh on each call.  Columns are stored read-only,
    as ``MappingProxyType``s of copies of the mappings given; ``_trusted``
    takes the proxies of dicts that no one else holds.
    """

    __slots__ = _fields = ("n", "index", "columns")

    def __init__(self, n: int, index: tuple[StandardTableau, ...], columns):
        super().__init__(n, index, tuple(MappingProxyType(dict(col)) for col in columns))

    def __reduce__(self):  # a tuple of proxies can be neither copied nor pickled
        return type(self), (self.n, self.index, tuple(map(dict, self.columns)))

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
    ``resolve_full`` uses, and keyed on their diagrams until the rows are
    read off by the arcs of ``cup_of_tableau``.  A column whose resolution
    tree, 2 * (column sum) - 1 nodes, exceeds ``DEFAULT_NODE_BUDGET``
    raises ``SizeLimitError`` and leaves both tables as it found them.
    """
    columns = expand(((t.top for t in enumerate_syt(k, max_n=n))
                      for k in range(1, n + 1)), DEFAULT_NODE_BUDGET)
    index = enumerate_syt(n, max_n=n)
    row_of = {cup_of_tableau(t).arcs: k for k, t in enumerate(index)}
    return TransitionMatrix._trusted(n, index, tuple(
        MappingProxyType({row_of[w.arcs]: mult
                          for w, mult in columns.pop(t.top).items()})
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
        for s, e in col.items():
            if keep(e):
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
    entry below the diagonal.
    """
    for t, col in enumerate(matrix.columns):
        if col.get(t, 0) != 1:
            return "matrix diagonal must be all ones"
        if any(e for s, e in col.items() if s > t):
            return "matrix must be upper-triangular"
    return None


# array type code per field size in bytes, for the fields of ``_packed``
_FIELD_CODES = {array(code).itemsize: code for code in "BHIQ"}


def _field_int(fields: array) -> int:
    """The unsigned fields of ``fields`` as one int, field 0 lowest."""
    if sys.byteorder == "big":  # the first field would be the highest
        fields.reverse()
    return int.from_bytes(fields, sys.byteorder)


def _packed(column: dict[int, int], width: int) -> int:
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
    entry_max = max((max(map(abs, col.values()), default=0)
                     for col in matrix.columns), default=0)
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
    return TransitionMatrix._trusted(matrix.n, matrix.index,
                                     tuple(map(MappingProxyType, inverse)))


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
