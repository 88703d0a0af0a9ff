"""Crossing resolution: rewrite a matching as a sum of cup diagrams.

A crossing pair (a, c), (b, d) with a < b < c < d can be replaced either
by (a, b), (c, d) — the VV move — or by (a, d), (b, c) — the nested move.
Repeatedly resolving crossings produces a binary tree of matchings whose
leaves are crossing-free; the leaf multiset expands the root over the cup
diagram basis, and is independent of which crossing gets picked at each
node.  Both moves strictly decrease the number of crossings, so every
expansion terminates.

``resolve_full`` expands a matching by one-arc insertion.  Peeling the arc
(a, 2k) at the last dot and lowering the dots above a, over and over,
gives left ends a_1, ..., a_n; re-inserting (a_k, 2k) into every cup of
the expansion so far, cup lifted over a_k, rebuilds the matching.  Since
resolution is linear, each insertion is resolved on its own, and the
session keeps the result per (cup, a) in one table, shared with the matrix
build and bounded by n alone.  In the lifted cup the arcs crossing (a, 2k)
are those covering a, a nested chain.  Smoothing against the innermost,
(x, y), leaves a last arc (y, 2k) or (x, 2k) over a cup: one more
insertion, with one crossing fewer, until none is left.  Later smoothings
never touch (x, a) or (a, y), so the two branches share no sink: an
insertion crossing c arcs has 2^c distinct sinks, counted before their
level is made, and each coefficient counts the branch paths ending at its cup.
Every cup the first table holds, as a key or as a sink, is the session's
one read-only ``CupDiagram`` for its arcs, kept in a second table and made
when ``expand`` first roots an expansion at the empty cup, an insertion is
first resolved, or ``act_web`` first names it.  The expansion levels key
on these diagrams, so the last level is the result as it stands.
``expand`` runs the levels, for the matrix build too, and only a call that
succeeds adds to either table.

``witness_path`` constructs, for tableaux T and S with the top row of S
dominating the top row of T componentwise, one specific move sequence
taking the column matching of T to the cup diagram of S.  It peels cups
off from the right: with a the rightmost top entry of the current
T-fragment and b the rightmost top entry of the current S-fragment, the
arc (a, 2n) first absorbs VV moves against the arcs ending in (a, b]
(increasing), then nested moves against the arcs ending strictly between
b and 2n (decreasing).  That leaves the cup (b, b') isolated, where b' is
the next live dot after b; the cup is set aside and the procedure recurses
on the remaining dots.  A validated script certifies that the cup diagram
of S appears as a leaf for the column matching of T.  The construction and
``check_witness``, which replays a script, keep the current matching and
the target cup as partner arrays, lists indexed by dot whose entry d is
the dot joined to d (entry 0 unused), next to a sorted list of live dots;
the target's is scanned from the top row of S, as ``cup_of_tableau``
reads it.  The four dots of each move are read off the arrays; the
construction checks that its arcs cross and builds it unchecked, and the
move rewires four entries, with no ``Matching`` built in between.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right, insort
from collections import deque
from operator import itemgetter
from typing import Callable, Sequence, Union

from ._value import Value
from .diagrams import (
    CupDiagram,
    Crossing,
    Matching,
    _cup_partners,
    _dot,
    crossings,
)
from .errors import DominanceError, SizeLimitError
from .young import StandardTableau

DEFAULT_NODE_BUDGET = 10**6


class MoveKind(enum.Enum):
    """The two smoothings of a crossing; ``label`` is the export name."""

    VV = "VV"
    NESTED = "V"

    @property
    def label(self) -> str:
        return self.value


class Move(Value):
    __slots__ = _fields = ("crossing", "kind")

    def __init__(self, crossing: Crossing, kind: MoveKind):
        if type(kind) is not MoveKind:
            raise ValueError(f"move kind {kind!r} is not a MoveKind")
        super().__init__(crossing, kind)

    def to_json(self) -> dict:
        return {
            "left": list(self.crossing.left),
            "right": list(self.crossing.right),
            "kind": self.kind.label,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Move":
        arcs = ([data.get("left"), data.get("right")] if isinstance(data, dict)
                else [None])
        if not (all(isinstance(arc, list) and len(arc) == 2
                    and all(type(d) is int for d in arc) for arc in arcs)
                and isinstance(data.get("kind"), str)):
            raise ValueError('a move must be {"left": [a, c], "right": [b, d], '
                             '"kind": "VV" or "V"} with integer dots')
        kind = MoveKind(data["kind"])
        return cls(Crossing(tuple(arcs[0]), tuple(arcs[1])), kind)


Strategy = Union[str, Sequence[int], Callable[[Matching, list[Crossing]], Crossing]]


def resolve_step(m: Matching, crossing: Crossing, kind: MoveKind) -> Matching:
    """Replace the two arcs of ``crossing`` by the chosen smoothing."""
    if type(kind) is not MoveKind:
        raise ValueError(f"move kind {kind!r} is not a MoveKind")
    left, right = crossing.left, crossing.right
    (a, c), (b, d) = left, right
    if not ({left, right} <= set(m.arcs)
            and all(type(x) is int for x in left + right) and a < b < c < d):
        raise ValueError(f"{crossing} is not a crossing of {m!r}")
    rest = [arc for arc in m.arcs if arc != left and arc != right]
    rest += [(a, b), (c, d)] if kind is MoveKind.VV else [(a, d), (b, c)]
    # Two crossing arcs of m, smoothed: the same dots, so a valid matching.
    return Matching._trusted(tuple(sorted(rest)))


def _pick(strategy: Strategy, m: Matching, found: list[Crossing],
          counter: int) -> Crossing:
    if strategy == "first":
        return found[0]
    if callable(strategy):
        choice = strategy(m, found)
        if choice not in found:
            raise ValueError("strategy returned a non-crossing")
        return choice
    if isinstance(strategy, str) or not strategy:
        raise ValueError(f"unknown strategy {strategy!r}")
    return found[strategy[counter % len(strategy)] % len(found)]


class ResolutionGraph(Value):
    """The full expansion tree of one matching.

    Nodes are occurrences, not deduplicated matchings: the same matching
    may appear several times, and leaf multiplicity is what carries the
    expansion coefficients.  Node 0 is the root; every internal node has
    exactly one VV edge and one nested edge resolving the same crossing.
    The fields are the ``root`` matching, the list of ``nodes`` and the
    list of ``edges``, each ``(source, move, target)``.
    """

    __slots__ = _fields = ("root", "nodes", "edges")

    def sink_indices(self) -> list[int]:
        internal = {src for src, _, _ in self.edges}
        return [k for k in range(len(self.nodes)) if k not in internal]

    def sink_multiset(self) -> dict[CupDiagram, int]:
        counts: dict[CupDiagram, int] = {}
        for k in self.sink_indices():
            w = CupDiagram._trusted(self.nodes[k].arcs)  # a leaf has no crossing
            counts[w] = counts.get(w, 0) + 1
        return counts


def build_resolution_graph(
    m: Matching,
    strategy: Strategy = "first",
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ResolutionGraph:
    """Expand ``m`` by both moves on one strategy-chosen crossing per node.

    The tree has 2 * (sum of multiplicities) - 1 nodes for every strategy,
    so ``resolve_full`` sizes it first: a tree of more than ``node_budget``
    nodes raises its ``SizeLimitError`` before any node is built.
    """
    resolve_full(m, node_budget)
    nodes = [m]
    edges: list[tuple[int, Move, int]] = []
    queue = deque([0])
    expansions = 0
    while queue:
        k = queue.popleft()
        found = crossings(nodes[k])
        if not found:
            continue
        chosen = _pick(strategy, nodes[k], found, expansions)
        expansions += 1
        for kind in (MoveKind.VV, MoveKind.NESTED):
            nodes.append(resolve_step(nodes[k], chosen, kind))
            edges.append((k, Move._trusted(chosen, kind), len(nodes) - 1))
            queue.append(len(nodes) - 1)
    return ResolutionGraph(m, nodes, edges)


# The session's one-arc insertions: (cup, a) -> the sinks of ``insert_arc``,
# the cup and each sink a diagram of ``_CUPS``.  A cup of
# k - 1 arcs takes 1 <= a < 2k, so after matchings of up to n arcs, or the
# matrix build to n, the table holds at most the sum over k <= n of
# C_{k-1} * (2k - 1) entries (8,788 at n = 8), however many calls filled it.
_INSERTED: dict[tuple[CupDiagram, int], tuple[CupDiagram, ...]] = {}

# The session's read-only cups: arcs -> the one ``CupDiagram`` that the table
# above, every expansion level and every ``act_web`` result use for them.
# Keyed on arcs, it holds at most C_n diagrams of each dot count 2n (1,430
# at n = 8), the empty cup among them.
_CUPS: dict[tuple, CupDiagram] = {}


def _cup(arcs: tuple) -> CupDiagram:
    """The session's diagram on ``arcs``, made unvalidated on first use.

    ``expand`` calls it on the empty cup, and ``insert_arc`` and
    ``actions.act_web`` on canonical arcs of a cup or of a smoothing of its
    one crossing: no crossing, and the dots a permutation.
    """
    return _CUPS.get(arcs) or _CUPS.setdefault(arcs, CupDiagram._trusted(arcs))


def insert_arc(cup: CupDiagram, a: int) -> tuple[CupDiagram, ...]:
    """Sinks of ``cup`` lifted over ``a`` plus the arc (a, 2k), kept in ``_INSERTED``.

    ``cup`` is a diagram of k - 1 arcs and 1 <= a < 2k; lifting raises every
    dot >= a by one.  The result, keyed ``(cup, a)``, is a tuple of distinct
    sink diagrams, 2^c of them for the c arcs of ``cup`` covering a; the two
    insertions it branches into are kept too.  The sinks are the session's
    diagrams, so ``insert_level`` keys the next level on them as they are,
    and the last level is the result of ``resolve_full``.  A stored result
    is returned as is; only a miss reads ``cup.arcs`` and makes or reuses
    diagrams in ``_CUPS``.
    """
    sinks = _INSERTED.get((cup, a))
    if sinks is not None:
        return sinks
    arcs = cup.arcs
    # Lifted, the arc (x, y) of ``cup`` covers a when x < a <= y.
    cover = max((arc for arc in arcs if arc[0] < a <= arc[1]), default=None)
    if cover is None:
        lifted = [(x + (x >= a), y + (y >= a)) for x, y in arcs]
        sinks = (_cup(tuple(sorted(lifted + [(a, 2 * len(arcs) + 2)]))),)
    else:
        # Each child is a cup lowered over the left end of its last arc.  VV
        # keeps (x, a) and ends in (y + 1, 2k): the arcs in [a, y) move up.
        # Nested keeps (a - 1, y) and ends in (x, 2k): those in (x, a) move down.
        x, y = cover
        vv = tuple((x, a) if p == x else (p + 1, q + 1) if a <= p < y else (p, q)
                   for p, q in arcs)
        nested = tuple(sorted(
            (a - 1, y) if p == x else (p - 1, q - 1) if x < p < a else (p, q)
            for p, q in arcs))
        sinks = insert_arc(_cup(vv), y + 1) + insert_arc(_cup(nested), x)
    _INSERTED[cup, a] = sinks
    return sinks


def insert_level(expansion: dict, a: int, node_budget: int) -> dict[CupDiagram, int]:
    """``expansion`` with the arc (a, 2k) inserted into each of its cups.

    ``expansion``, never empty, maps the session's diagrams of k - 1 arcs
    to multiplicities, and so does the new dict returned.  The level is
    counted before any of it is made: a cup's insertion has 2^c sinks for
    the c <= k - 1 arcs covering a, the surplus of left ends below a.
    Raises ``SizeLimitError`` when the tree, 2 * sum(mult * 2^c) - 1
    nodes, exceeds ``node_budget``; the exact sum is taken only when
    c = k - 1 for every cup would exceed it.
    """
    bound = sum(expansion.values()) << len(next(iter(expansion)).arcs)
    if 2 * bound - 1 > node_budget and 2 * sum(
            mult << 2 * bisect_left(cup.arcs, (a,)) - a + 1
            for cup, mult in expansion.items()) - 1 > node_budget:
        raise SizeLimitError("resolution exceeded its node budget")
    level: dict[CupDiagram, int] = {}
    for cup, mult in expansion.items():
        for sink in _INSERTED.get((cup, a)) or insert_arc(cup, a):
            level[sink] = level.get(sink, 0) + mult
    return level


def expand(rows, node_budget: int) -> dict[tuple, dict]:
    """The expansions over cup diagrams of the last of ``rows``, by left-end sequence.

    ``rows`` gives, for k = 1, 2, ..., the sequences a_1, ..., a_k to
    expand, each a sequence of the row before plus a_k, which
    ``insert_level`` inserts as the arc (a_k, 2k); the root is
    ``{_cup(()): 1}``.  When a tree exceeds ``node_budget``, raises
    ``SizeLimitError`` and drops what the call added to both tables: a miss
    (the empty cup too) only adds keys and a dict keeps insertion order, so
    they are the last entries of each, and no entry left holds a dropped diagram.
    """
    if node_budget < 1:  # every tree has its root
        raise SizeLimitError("resolution exceeded its node budget")
    before, cups_before = len(_INSERTED), len(_CUPS)
    levels = {(): {_cup(()): 1}}
    try:
        for row in rows:
            levels = {seq: insert_level(levels[seq[:-1]], seq[-1], node_budget)
                      for seq in row}
    except SizeLimitError:
        while len(_INSERTED) > before:
            _INSERTED.popitem()
        while len(_CUPS) > cups_before:
            _CUPS.popitem()
        raise
    return levels


def _peel(arcs: tuple) -> list[int]:
    """Left ends a_1, ..., a_n: (a_k, 2k) is the last arc of the first k.

    Taking arcs by right end, a_k is 1 plus the number of dots of earlier
    arcs left of x_k; y_k is right of all of them.
    """
    dots: list[int] = []
    lefts = []
    for x, y in sorted(arcs, key=itemgetter(1)):
        lefts.append(bisect_left(dots, x) + 1)
        insort(dots, x)
        dots.append(y)
    return lefts


def resolve_full(
    m: Matching, node_budget: int = DEFAULT_NODE_BUDGET
) -> dict[CupDiagram, int]:
    """Expansion of ``m`` over cup diagrams: sink -> multiplicity.

    The result is the last level of ``expand`` on the peeled left ends, as
    it stands: a new dict on each call, in an unspecified order (a caller
    that shows one sorts it), whose keys are the session's read-only
    diagrams in ``_CUPS``, shared between calls, the empty matching's
    too.  Raises ``SizeLimitError`` when the resolution tree has more
    than ``node_budget`` nodes, that is 2 * (sum of multiplicities) - 1, and
    leaves both session tables as it found them.  The tree size, like the
    sinks, is the same for every resolution strategy.
    """
    lefts = tuple(_peel(m.arcs))
    return expand(([lefts[:k]] for k in range(1, len(lefts) + 1)), node_budget)[lefts]


def _partners(arcs, n2: int) -> list[int]:
    """The partner array of ``arcs``: entry d is the dot joined to d, entry 0 unused."""
    partner = [0] * (n2 + 1)
    for x, y in arcs:
        partner[x] = y
        partner[y] = x
    return partner


def witness_path(t: StandardTableau, s: StandardTableau) -> list[Move]:
    """A move script from the column matching of ``t`` to the cup diagram of ``s``.

    Requires the top row of ``s`` to dominate the top row of ``t``
    componentwise.  Every move in the script resolves a genuine crossing
    of the current matching, and folding the script with ``resolve_step``
    ends exactly at ``cup_of_tableau(s)``.  The current matching and the
    target cup are partner arrays and the live dots a sorted list, so a
    move is read off the arrays and applied by rewiring four entries.
    """
    if t.n != s.n:
        raise ValueError("tableaux must have the same n")
    for j, (a, b) in enumerate(zip(s.top, t.top)):
        if a < b:
            raise DominanceError(
                j + 1,
                f"top row of S must dominate top row of T; "
                f"column {j + 1} has {a} < {b}",
            )
    n2 = 2 * t.n
    cur = _partners(t.columns(), n2)
    target = _cup_partners(s.top, n2)
    live = list(range(1, n2 + 1))
    moves: list[Move] = []
    level = 0
    vv, nested = MoveKind.VV, MoveKind.NESTED
    move, crossing = Move._trusted, Crossing._trusted
    while live:
        level += 1
        top_dot = live[-1]
        for a in reversed(live):  # the rightmost left end
            if cur[a] > a:
                break
        if cur[top_dot] != a:
            raise RuntimeError(
                f"witness construction failed at level {level}: "
                f"dot {top_dot} is not matched to the rightmost left endpoint {a}"
            )
        for b in reversed(live):
            if target[b] > b:
                break
        k = bisect_left(live, b)
        # Each move rewires the four dots it names; the dots are ints from
        # the arrays, so checking that the arcs cross is all the public
        # constructors would add.
        # Phase 1: VV against the arcs ending in (a, b], nearest first.
        for r in live[bisect_right(live, a):k + 1]:
            x, y = cur[r], cur[top_dot]
            if not x < y < r < top_dot:
                raise RuntimeError(
                    f"witness construction failed at level {level}: "
                    f"arcs {(x, r)}, {(y, top_dot)} do not cross")
            moves.append(move(crossing((x, r), (y, top_dot)), vv))
            cur[x], cur[y], cur[r], cur[top_dot] = y, x, top_dot, r
        # Phase 2: nested against the arcs ending strictly after b, farthest first.
        for r in reversed(live[k + 1:-1]):
            x, y = cur[r], cur[b]
            if not x < b < r < y:
                raise RuntimeError(
                    f"witness construction failed at level {level}: "
                    f"arcs {(x, r)}, {(b, y)} do not cross")
            moves.append(move(crossing((x, r), (b, y)), nested))
            cur[x], cur[y], cur[b], cur[r] = y, x, r, b
        b_next = live[k + 1]
        if cur[b] != b_next or target[b] != b_next:
            raise RuntimeError(
                f"witness construction failed at level {level}: "
                f"cup ({b},{b_next}) did not isolate"
            )
        del live[k:k + 2]
    if cur != target:
        raise RuntimeError("witness script did not end at the target diagram")
    return moves


def check_witness(
    t: StandardTableau, s: StandardTableau, script: Sequence[Move]
) -> bool:
    """True iff the script is step-by-step valid and lands on the cup of ``s``.

    The script is replayed on the partner array of the column matching of
    ``t``.  Each move passes the checks ``resolve_step`` makes: its kind is
    a ``MoveKind``, its four dots are ints (``True`` and ``1.0`` are not)
    in 1..2n, its arcs (a, c) and (b, d) cross, a < b < c < d, and both are
    arcs of the current matching.  An entry that is not a move, such as
    ``None``, fails like any other malformed step.
    """
    n2 = 2 * t.n
    cur = _partners(t.columns(), n2)
    vv = MoveKind.VV
    try:
        for move in script:
            kind = move.kind
            (a, c), (b, d) = move.crossing.left, move.crossing.right
            if not (type(kind) is MoveKind
                    and type(a) is type(b) is type(c) is type(d) is int
                    and 0 < a < b < c < d <= n2 and cur[a] == c and cur[b] == d):
                return False
            if kind is vv:
                cur[a], cur[b], cur[c], cur[d] = b, a, d, c
            else:
                cur[a], cur[d], cur[b], cur[c] = d, a, c, b
    except (AttributeError, TypeError, ValueError):  # not a move, or arcs not pairs
        return False
    return cur == _cup_partners(s.top, 2 * s.n)


def resolution_graph_dot(graph: ResolutionGraph) -> str:
    """DOT text for a resolution tree; nodes carry arc lists."""
    return _dot("resolution", "n",
                ("".join(f"({a},{b})" for a, b in node.arcs) for node in graph.nodes),
                ((src, dst, move.kind.label) for src, move, dst in graph.edges))


def sinks_to_json(n2: int, sinks: dict[CupDiagram, int]) -> dict:
    return {
        "n2": n2,
        "sinks": [
            {"arcs": [list(arc) for arc in w.arcs], "multiplicity": mult}
            for w, mult in sorted(sinks.items(), key=lambda kv: kv[0].arcs)
        ],
    }
