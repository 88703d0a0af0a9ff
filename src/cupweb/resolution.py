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
insertion crossing c arcs has 2^c distinct sinks, counted before it is
made, and each coefficient counts the branch paths ending at its cup.

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
the dot joined to d (entry 0 unused), next to a sorted list of live dots:
each move is read off the arrays and applied by rewiring four entries,
with no ``Matching`` built in between.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right, insort
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Sequence, Union

from .diagrams import (
    CupDiagram,
    Crossing,
    Matching,
    crossings,
    cup_of_tableau,
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


@dataclass(frozen=True)
class Move:
    crossing: Crossing
    kind: MoveKind

    def to_json(self) -> dict:
        return {
            "left": list(self.crossing.left),
            "right": list(self.crossing.right),
            "kind": self.kind.label,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Move":
        kind = MoveKind(data["kind"])
        return cls(Crossing(tuple(data["left"]), tuple(data["right"])), kind)


Strategy = Union[str, Sequence[int], Callable[[Matching, list[Crossing]], Crossing]]


def resolve_step(m: Matching, crossing: Crossing, kind: MoveKind) -> Matching:
    """Replace the two arcs of ``crossing`` by the chosen smoothing."""
    left, right = crossing.left, crossing.right
    if not ({left, right} <= set(m.arcs)
            and all(type(d) is int for d in left + right)):
        raise ValueError(f"{crossing} is not a crossing of {m!r}")
    (a, c), (b, d) = left, right
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


@dataclass
class ResolutionGraph:
    """The full expansion tree of one matching.

    Nodes are occurrences, not deduplicated matchings: the same matching
    may appear several times, and leaf multiplicity is what carries the
    expansion coefficients.  Node 0 is the root; every internal node has
    exactly one VV edge and one nested edge resolving the same crossing.
    """

    root: Matching
    nodes: list[Matching]
    edges: list[tuple[int, Move, int]]

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

    Raises ``SizeLimitError`` when the tree has more than ``node_budget``
    nodes, the count ``resolve_full`` uses too.
    """
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
            child = resolve_step(nodes[k], chosen, kind)
            if len(nodes) >= node_budget:
                raise SizeLimitError(
                    f"resolution graph exceeded {node_budget} nodes"
                )
            nodes.append(child)
            edges.append((k, Move(chosen, kind), len(nodes) - 1))
            queue.append(len(nodes) - 1)
    return ResolutionGraph(m, nodes, edges)


# The session's one-arc insertions: (cup, a) -> the sinks of ``insert_arc``.
# A cup of k - 1 arcs takes 1 <= a < 2k, so after matchings of up to n arcs,
# or the matrix build to n, the table holds at most the sum over k <= n of
# C_{k-1} * (2k - 1) entries (8,788 at n = 8), however many calls filled it.
_INSERTED: dict[tuple[tuple, int], tuple] = {}


def insert_arc(cup: tuple, a: int) -> tuple:
    """Sinks of ``cup`` lifted over ``a`` plus the arc (a, 2k), kept in ``_INSERTED``.

    ``cup`` is a canonical cup diagram of k - 1 arcs and 1 <= a < 2k;
    lifting raises every dot >= a by one.  The result, keyed ``(cup, a)``,
    is a tuple of distinct sink arc tuples, 2^c of them for the c arcs of
    ``cup`` covering a; the two insertions it branches into are kept too.
    """
    sinks = _INSERTED.get((cup, a))
    if sinks is not None:
        return sinks
    # Lifted, the arc (x, y) of ``cup`` covers a when x < a <= y.
    cover = max((arc for arc in cup if arc[0] < a <= arc[1]), default=None)
    if cover is None:
        lifted = [(x + (x >= a), y + (y >= a)) for x, y in cup]
        sinks = (tuple(sorted(lifted + [(a, 2 * len(cup) + 2)])),)
    else:
        # Each child is a cup lowered over the left end of its last arc.  VV
        # keeps (x, a) and ends in (y + 1, 2k): the arcs in [a, y) move up.
        # Nested keeps (a - 1, y) and ends in (x, 2k): those in (x, a) move down.
        x, y = cover
        vv = tuple((x, a) if p == x else (p + 1, q + 1) if a <= p < y else (p, q)
                   for p, q in cup)
        nested = tuple(sorted(
            (a - 1, y) if p == x else (p - 1, q - 1) if x < p < a else (p, q)
            for p, q in cup))
        sinks = insert_arc(vv, y + 1) + insert_arc(nested, x)
    _INSERTED[cup, a] = sinks
    return sinks


@contextmanager
def undo_on_refusal():
    """On ``SizeLimitError``, drop what the block added to ``_INSERTED``.

    A miss only adds keys and a dict keeps insertion order, so the block's
    own entries are the last ones: a refused call keeps nothing.
    """
    before = len(_INSERTED)
    try:
        yield
    except SizeLimitError:
        while len(_INSERTED) > before:
            _INSERTED.popitem()
        raise


def insert_level(expansion: dict, a: int, node_budget: int) -> dict[tuple, int]:
    """``expansion`` with the arc (a, 2k) inserted into each of its cups.

    ``expansion`` maps cups of k - 1 arcs to multiplicities.  A cup's sinks
    are counted before its insertion is made: the stored ones, else 2^c for
    the c arcs covering a, the surplus of left ends below a.  Raises
    ``SizeLimitError`` as soon as the cups counted so far give a tree,
    2 * (sum of multiplicities) - 1 nodes, larger than ``node_budget``.
    """
    level: dict[tuple, int] = {}
    total = 0
    for cup, mult in expansion.items():
        sinks = _INSERTED.get((cup, a))
        total += mult * (len(sinks) if sinks else
                         1 << 2 * bisect_left(cup, (a,)) - a + 1)
        if 2 * total - 1 > node_budget:
            raise SizeLimitError("resolution exceeded its node budget")
        for sink in sinks or insert_arc(cup, a):
            level[sink] = level.get(sink, 0) + mult
    return level


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

    The dict's order is unspecified; a caller that shows one sorts it.
    Raises ``SizeLimitError`` when the resolution tree has more than
    ``node_budget`` nodes, that is 2 * (sum of multiplicities) - 1, and
    leaves the session table as it found it.  The tree size, like the
    sinks, is the same for every resolution strategy.
    """
    if node_budget < 1:  # every tree has its root
        raise SizeLimitError("resolution exceeded its node budget")
    expansion: dict[tuple, int] = {(): 1}
    with undo_on_refusal():
        for a in _peel(m.arcs):
            expansion = insert_level(expansion, a, node_budget)
    # A kernel sink has no crossing, and lifting and smoothing keep the dots
    # a permutation, so the keys are built without validation.
    return {CupDiagram._trusted(arcs): mult for arcs, mult in expansion.items()}


def _partners(arcs, n2: int) -> list[int]:
    """The partner array of ``arcs``: entry d is the dot joined to d, entry 0 unused."""
    partner = [0] * (n2 + 1)
    for x, y in arcs:
        partner[x] = y
        partner[y] = x
    return partner


def _smooth(partner: list[int], crossing: Crossing, kind: MoveKind) -> None:
    """``resolve_step`` on a partner array: rewire the four dots of ``crossing``."""
    (a, c), (b, d) = crossing.left, crossing.right
    if kind is MoveKind.VV:
        partner[a], partner[b], partner[c], partner[d] = b, a, d, c
    else:
        partner[a], partner[d], partner[b], partner[c] = d, a, c, b


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
    target = _partners(cup_of_tableau(s).arcs, n2)
    live = list(range(1, n2 + 1))
    moves: list[Move] = []
    level = 0
    while live:
        level += 1
        top_dot = live[-1]
        a = next(d for d in reversed(live) if cur[d] > d)
        if cur[top_dot] != a:
            raise RuntimeError(
                f"witness construction failed at level {level}: "
                f"dot {top_dot} is not matched to the rightmost left endpoint {a}"
            )
        b = next(d for d in reversed(live) if target[d] > d)
        k = bisect_left(live, b)
        # Phase 1: VV against the arcs ending in (a, b], nearest first.
        for r in live[bisect_right(live, a):k + 1]:
            move = Move(Crossing((cur[r], r), (cur[top_dot], top_dot)), MoveKind.VV)
            _smooth(cur, move.crossing, MoveKind.VV)
            moves.append(move)
        # Phase 2: nested against the arcs ending strictly after b, farthest first.
        for r in reversed(live[k + 1:-1]):
            move = Move(Crossing((cur[r], r), (b, cur[b])), MoveKind.NESTED)
            _smooth(cur, move.crossing, MoveKind.NESTED)
            moves.append(move)
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
    ``t``.  Each move passes the checks ``resolve_step`` makes: its four dots
    are ints (``True`` and ``1.0`` are not) in 1..2n, and both of its arcs
    are arcs of the current matching.
    """
    n2 = 2 * t.n
    cur = _partners(t.columns(), n2)
    try:
        for move in script:
            left, right = move.crossing.left, move.crossing.right
            (a, c), (b, d) = left, right
            if not (all(type(x) is int and 0 < x <= n2 for x in left + right)
                    and cur[a] == c and cur[b] == d):
                return False
            _smooth(cur, move.crossing, move.kind)
    except ValueError:
        return False
    return cur == _partners(cup_of_tableau(s).arcs, 2 * s.n)


def resolution_graph_dot(graph: ResolutionGraph) -> str:
    """DOT text for a resolution tree; nodes carry arc lists."""
    lines = ["digraph resolution {", "  rankdir=TB;"]
    for k, node in enumerate(graph.nodes):
        label = "".join(f"({a},{b})" for a, b in node.arcs)
        lines.append(f'  n{k} [label="{label}"];')
    for src, move, dst in graph.edges:
        lines.append(f'  n{src} -> n{dst} [label="{move.kind.label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def sinks_to_json(n2: int, sinks: dict[CupDiagram, int]) -> dict:
    return {
        "n2": n2,
        "sinks": [
            {"arcs": [list(arc) for arc in w.arcs], "multiplicity": mult}
            for w, mult in sorted(sinks.items(), key=lambda kv: kv[0].arcs)
        ],
    }
