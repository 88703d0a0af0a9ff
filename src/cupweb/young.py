"""Standard Young tableaux with two equal rows, their directed graph, and the
induced partial order.

A tableau here always has shape (n, n) and entries 1..2n, increasing along
rows and columns.  The distinguished tableau ``t0(n)`` places 1..2n down
successive columns.  Swapping i and i+1 when i sits in the bottom row and
i+1 in the top row yields another standard tableau; these swaps are the
edges of the tableau graph, and reachability is the partial order.  All
values are immutable and all functions are pure.
"""

from __future__ import annotations

import enum
from functools import lru_cache, wraps
from types import MappingProxyType

from ._value import Value
from .errors import SizeLimitError

#: Enumeration and graph construction refuse larger n unless told otherwise.
DEFAULT_MAX_N = 8


class EntryCase(enum.Enum):
    """Relative placement of i and i+1 inside a standard tableau.

    BELOW means i is in the bottom row and i+1 in the top row.  SAME_ROW
    also covers the mirror of BELOW (i in the top row, i+1 in the bottom
    row, different columns): there, as for a literal same-row pair,
    swapping the entries is resolved by straightening, which is a plain
    relabelling when the swapped filling happens to be standard.
    """

    SAME_ROW = "same-row"
    SAME_COLUMN = "same-column"
    BELOW = "below"


def is_permutation(values) -> bool:
    """True when ``values`` are 1..len(values) in some order, each of type int."""
    return sorted(values) == list(range(1, len(values) + 1)) and all(
        type(v) is int for v in values)


class StandardTableau(Value):
    """A standard filling of two rows of n boxes with 1..2n."""

    __slots__ = _fields = ("top", "bottom")

    def __init__(self, top, bottom):
        # Rows are stored as tuples, so a tableau hashes and compares by value.
        top, bottom = tuple(top), tuple(bottom)
        n = len(top)
        if n < 1 or len(bottom) != n:
            raise ValueError("rows must be nonempty and of equal length")
        if not is_permutation(top + bottom):
            raise ValueError("entries must be a permutation of 1..2n")
        for row in (top, bottom):
            if any(row[j] >= row[j + 1] for j in range(n - 1)):
                raise ValueError(f"row {row} is not strictly increasing")
        for j in range(n):
            if top[j] >= bottom[j]:
                raise ValueError(f"column {j + 1} is not increasing")
        super().__init__(top, bottom)

    @property
    def n(self) -> int:
        return len(self.top)

    def columns(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.top, self.bottom))

    def row_word(self) -> str:
        """Compact one-line form, e.g. ``"1 2 4 7 / 3 5 6 8"``."""
        return "{} / {}".format(
            " ".join(map(str, self.top)), " ".join(map(str, self.bottom))
        )

    def row_of(self, entry: int) -> int:
        """0 for the top row, 1 for the bottom row."""
        if entry in self.top:
            return 0
        if entry in self.bottom:
            return 1
        raise ValueError(f"entry {entry} not in tableau")

    def to_json(self) -> dict:
        return {"top": list(self.top), "bottom": list(self.bottom)}

    @classmethod
    def from_json(cls, data: dict) -> "StandardTableau":
        rows = ([data.get("top"), data.get("bottom")] if isinstance(data, dict)
                else [None])
        if not all(isinstance(row, list) and all(type(x) is int for x in row)
                   for row in rows):
            raise ValueError('a tableau must be {"top": [...], "bottom": [...]} '
                             'with integer entries')
        return cls(*rows)

    def __repr__(self) -> str:
        return f"StandardTableau({self.row_word()!r})"


def t0(n: int) -> StandardTableau:
    """The minimum tableau: 1..2n written down successive columns."""
    if n < 1:
        raise ValueError("n must be positive")
    return StandardTableau._trusted(tuple(range(1, 2 * n, 2)), tuple(range(2, 2 * n + 1, 2)))


def _check_limit(n: int, max_n: int) -> None:
    if n < 1:
        raise SizeLimitError("n must be a positive integer")
    if n > max_n:
        raise SizeLimitError(
            f"n={n} exceeds the configured limit {max_n}; raise the limit to proceed"
        )


def cached_on_n(build):
    """Cache ``build(n)`` on n alone, behind a per-call check of ``n <= max_n``.

    The decorated function takes ``(n, max_n=DEFAULT_MAX_N)``.  Calls that
    differ only in ``max_n`` share one cache entry, and a call that lifted
    the limit never lets a later call skip its check.  A cached body calls
    another such function with ``max_n=n``: its own limit was checked.
    """
    cached = lru_cache(maxsize=None)(build)

    @wraps(build)
    def call(n: int, max_n: int = DEFAULT_MAX_N):
        _check_limit(n, max_n)
        return cached(n)

    del call.__wrapped__  # the signature is call's, not build's
    call.cache_info = cached.cache_info
    call.cache_clear = cached.cache_clear
    return call


def _rank(tableau: StandardTableau) -> int:
    # Every graph edge puts i in place of i+1 in the top row, lowering its
    # sum by one, and the top row 1, 3, ..., 2n-1 of t0 sums to n**2.
    return tableau.n**2 - sum(tableau.top)


@cached_on_n
def enumerate_syt(n: int) -> tuple[StandardTableau, ...]:
    """All standard tableaux of shape (n, n), in the canonical order.

    A row a_1 < ... < a_n is the top of one, the bottom row its complement,
    exactly when every a_k <= 2k - 1, so the rows grow one entry per level.
    The order sorts by rank (graph distance from ``t0``, which is n**2
    minus the top-row sum) and breaks ties by the lexicographic top row.
    The count is the n-th Catalan number.
    """
    tops = [()]
    for k in range(1, n + 1):
        tops = [top + (a,) for top in tops for a in range(top[-1] + 1 if top else 1, 2 * k)]
    entries = range(1, 2 * n + 1)
    # The rule makes every tableau standard, so none is re-validated.
    tableaux = [
        StandardTableau._trusted(top, tuple(x for x in entries if x not in top))
        for top in tops
    ]
    tableaux.sort(key=lambda s: (_rank(s), s.top))
    return tuple(tableaux)


def classify(tableau: StandardTableau, i: int) -> EntryCase:
    """Which of the three action cases applies to i and i+1 in ``tableau``."""
    if not 1 <= i <= 2 * tableau.n - 1:
        raise ValueError(f"generator index {i} out of range for n={tableau.n}")
    row_i = tableau.row_of(i)
    row_j = tableau.row_of(i + 1)
    if row_i == row_j:
        return EntryCase.SAME_ROW
    if row_i == 0 and tableau.bottom[tableau.top.index(i)] == i + 1:
        return EntryCase.SAME_COLUMN
    if row_i == 1:
        return EntryCase.BELOW
    # i in the top row, i+1 in the bottom row of an earlier column: the
    # swapped filling is standard again, so it behaves like the row case.
    return EntryCase.SAME_ROW


def swap_entries(tableau: StandardTableau, i: int) -> StandardTableau:
    """Exchange the entries i and i+1.  Raises unless the result is standard."""
    top = tuple(i + 1 if x == i else i if x == i + 1 else x for x in tableau.top)
    bottom = tuple(
        i + 1 if x == i else i if x == i + 1 else x for x in tableau.bottom
    )
    return StandardTableau(top, bottom)


class TableauGraph(Value):
    """Directed graph on the tableaux of a fixed n.

    An edge ``(s, t, i)`` says vertex ``t`` equals vertex ``s`` with i and
    i+1 exchanged, where i was in the bottom row of ``s`` and i+1 in its
    top row.  The graph is acyclic with ``t0`` as its unique source, and
    reachability defines the partial order used throughout the package.
    The one cached graph per n is read-only: fields refuse assignment, and
    the position table is a ``MappingProxyType``.
    """

    _fields = ("n", "vertices", "edges")
    __slots__ = (*_fields, "_position", "descendants")

    def __init__(self, n: int, vertices: tuple[StandardTableau, ...],
                 edges: tuple[tuple[int, int, int], ...]):
        # Bit j of descendants[k] is set when vertex j is reachable from
        # vertex k.  An edge raises the rank by one, so taking edges by
        # falling source rank completes every target before its sources.
        desc = [1 << k for k in range(len(vertices))]
        for src, dst, _ in sorted(edges, key=lambda e: -_rank(vertices[e[0]])):
            desc[src] |= desc[dst]
        super().__init__(n, vertices, edges,
                         MappingProxyType({v: k for k, v in enumerate(vertices)}),
                         tuple(desc))

    def position(self, tableau: StandardTableau) -> int:
        try:
            return self._position[tableau]
        except KeyError:
            raise ValueError(f"{tableau!r} is not a vertex of this graph") from None


@cached_on_n
def build_tableau_graph(n: int) -> TableauGraph:
    """Construct the tableau graph on ``enumerate_syt(n)``."""
    vertices = enumerate_syt(n, max_n=n)
    position = {v.top: k for k, v in enumerate(vertices)}
    edges = []
    for src, tab in enumerate(vertices):
        top = tab.top
        for j in range(1, n):
            i = top[j] - 1  # in the bottom row unless it is top[j - 1]
            if top[j - 1] < i:
                edges.append((src, position[top[:j] + (i,) + top[j + 1:]], i))
    return TableauGraph(n, vertices, tuple(edges))


def leq(s: StandardTableau, t: StandardTableau, graph: TableauGraph) -> bool:
    """True iff there is a directed path from s to t (reflexively)."""
    return bool(graph.descendants[graph.position(s)] >> graph.position(t) & 1)


def rank(tableau: StandardTableau, graph: TableauGraph) -> int:
    """Number of edges on any directed path from ``t0`` to ``tableau``."""
    return _rank(graph.vertices[graph.position(tableau)])


def first_row_dominates(s: StandardTableau, t: StandardTableau) -> bool:
    """Componentwise ``s.top[j] >= t.top[j]``."""
    if s.n != t.n:
        raise ValueError("tableaux must have the same n")
    return all(a >= b for a, b in zip(s.top, t.top))


def paths_between(graph: TableauGraph, src: StandardTableau,
                  dst: StandardTableau, limit: int | None = None
                  ) -> list[list[int]]:
    """Edge-label sequences of directed paths src -> dst, in DFS order.

    Stops after ``limit`` paths when given; a negative limit raises
    ``ValueError``.  Labels are listed in the order the edges are traversed.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    if limit == 0:
        return []
    start, goal = graph.position(src), graph.position(dst)
    out_edges: list[list[tuple[int, int]]] = [[] for _ in graph.vertices]
    for a, b, i in graph.edges:
        out_edges[a].append((b, i))
    found: list[list[int]] = []

    def walk(v: int, labels: list[int]) -> bool:
        if v == goal:
            found.append(list(labels))
            return limit is not None and len(found) >= limit
        for b, i in out_edges[v]:
            if not graph.descendants[b] >> goal & 1:
                continue
            labels.append(i)
            if walk(b, labels):
                return True
            labels.pop()
        return False

    walk(start, [])
    return found
