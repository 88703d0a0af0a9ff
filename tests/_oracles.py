"""Brute-force reference implementations used only by the tests.

These stay independent of the package code paths they check: tableaux are
generated by filtering raw permutations or by growing both rows one entry
at a time, crossings by scanning all arc pairs, resolutions by a
cache-free recursion, insertion left ends by removing and lowering arcs
one at a time, and polytabloids are expanded over row tabloids directly
from the signed-column-flip definition, and inverses by dense
back-substitution.  Ranks are checked against the inversion count of the
permutation that carries ``t0`` to a tableau.  Straightening has a
kernel of its own here: ``straighten_by_first_descent`` rewrites at the
first bottom-row descent and pops fillings in Garnir order, the reference
for the package kernel, which rewrites at the least nested bottom entry;
``psi_by_sweep`` straightens every cup with it in one sweep, the
reference for the sweep of ``verify_psi`` and ``inverse_matrix``.
``straighten_on_columns`` is the package kernel as it was on column
tuples, the reference for its pending form, flat ``bytes`` or, past an
entry of 254, flat tuples: results, their order and step counts alike.
Two references reuse package code: ``witness_by_matchings`` and
``check_by_steps`` build and replay witness scripts on validated
``Matching`` objects with ``resolve_step``, the references for the
partner-array ``witness_path`` and ``check_witness``; a script entry
that is not a move fails both, and ``tree_by_picking`` builds a
resolution tree with any choice of crossing per node, the reference for
the scripted strategies of ``build_resolution_graph``.  The closed form of ``act_web`` is
checked against the package's own ``to_web_basis`` of ``act_matching``,
a full resolution of the swapped matching.  The tableau helpers at the
end, ``row_of``, ``classify``, ``swap_entries`` and ``paths_between``,
read a tableau or walk the graph entry by entry, the references for the
edge rule of ``build_tableau_graph`` and for the path model.
"""

import enum
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import permutations

from cupweb.actions import DEFAULT_STEP_BUDGET
from cupweb.diagrams import Crossing, Matching, column_matching, crossings, cup_of_tableau
from cupweb.errors import DominanceError, SizeLimitError
from cupweb.resolution import Move, MoveKind, ResolutionGraph, resolve_step
from cupweb.young import StandardTableau

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def brute_force_syt(n):
    """All standard (top, bottom) fillings, by filtering every ordering."""
    out = set()
    for perm in permutations(range(1, 2 * n + 1)):
        top, bottom = perm[:n], perm[n:]
        rows_ok = all(r[j] < r[j + 1] for r in (top, bottom) for j in range(n - 1))
        cols_ok = all(top[j] < bottom[j] for j in range(n))
        if rows_ok and cols_ok:
            out.add((top, bottom))
    return out


def grow_syt(n):
    """(top, bottom) of every standard tableau in the canonical order.

    Places 1..2n in turn, each in the top row while it has room, or in the
    bottom row below a filled box, then sorts by rank n**2 - sum(top) and
    the top row.
    """
    found = []

    def grow(top, bottom, nxt):
        if nxt > 2 * n:
            found.append((tuple(top), tuple(bottom)))
            return
        if len(top) < n:
            top.append(nxt)
            grow(top, bottom, nxt + 1)
            top.pop()
        if len(bottom) < len(top):
            bottom.append(nxt)
            grow(top, bottom, nxt + 1)
            bottom.pop()

    grow([], [], 1)
    found.sort(key=lambda rows: (n * n - sum(rows[0]), rows[0]))
    return found


def brute_crossing_pairs(arcs):
    """Unordered crossing pairs found by scanning every pair of arcs."""
    found = set()
    for p in arcs:
        for q in arcs:
            if p < q:
                a, c = p
                b, d = q
                if a < b < c < d or b < a < d < c:
                    found.add((min(p, q), max(p, q)))
    return found


def brute_resolve(arcs):
    """Sink multiset of a matching: sorted arc tuple -> multiplicity.

    Always resolves the rightmost crossing pair, the last one in (left arc,
    right arc) order, and keeps no cache; the package inserts one arc at a
    time and smooths it against the innermost arc it crosses, and the sinks
    must not depend on the choice.
    """
    arcs = tuple(sorted(tuple(sorted(arc)) for arc in arcs))
    found = brute_crossing_pairs(arcs)
    if not found:
        return {arcs: 1}
    (a, c), (b, d) = max(found)
    rest = [arc for arc in arcs if arc != (a, c) and arc != (b, d)]
    out = {}
    for smoothing in (((a, b), (c, d)), ((a, d), (b, c))):
        for sink, mult in brute_resolve(rest + list(smoothing)).items():
            out[sink] = out.get(sink, 0) + mult
    return out


def peel_by_lowering(arcs):
    """Left ends a_1, ..., a_n: remove the arc at the last dot, lower, repeat."""
    lefts = []
    rest = list(arcs)
    while rest:
        last = max(rest, key=lambda arc: arc[1])
        rest.remove(last)
        a = last[0]
        rest = [(x - (x > a), y - (y > a)) for x, y in rest]
        lefts.append(a)
    return lefts[::-1]


def dense_inverse(entries):
    """Inverse of an upper unitriangular matrix by dense back-substitution."""
    size = len(entries)
    inverse = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for j in range(size):
        for i in range(j - 1, -1, -1):
            inverse[i][j] = -sum(
                entries[i][k] * inverse[k][j] for k in range(i + 1, j + 1)
            )
    return tuple(tuple(row) for row in inverse)


def _first_descent(columns):
    for j in range(len(columns) - 1):
        if columns[j][1] > columns[j + 1][1]:
            return j
    return None


def _garnir_key(columns):
    """Top-row sum, then minus the bottom-row inversions."""
    inversions = 0
    seen = []  # sorted bottom entries right of the current column
    for _, b in reversed(columns):
        inversions += bisect_left(seen, b)
        insort(seen, b)
    return sum(a for a, _ in columns), -inversions


def straighten_by_first_descent(seeds, step_budget):
    """Straighten every seed in one sweep, rewriting at the first descent.

    The same contract as ``cupweb.actions._straighten``: seeds map normal-form
    columns to ``{label: coeff}``, the result maps standard columns to
    ``{label: coeff}`` and comes with the count of expansions.
    Fillings are popped in Garnir order, ``_garnir_key`` ascending: the
    keep-order child of a rewrite has one inversion less, the re-sorted one
    a larger top-row sum, so each filling is expanded once, after all its
    parents.
    """
    vectors = {cols: dict(vec) for cols, vec in seeds.items()}
    heap = [(*_garnir_key(cols), cols) for cols in vectors]
    heapify(heap)
    out = {}
    steps = 0
    while heap:
        top_sum, neg_inversions, cols = heappop(heap)
        vec = vectors.pop(cols)
        if not any(vec.values()):
            continue
        j = _first_descent(cols)
        if j is None:
            out[cols] = vec
            continue
        steps += 1
        if steps > step_budget:
            raise SizeLimitError(
                f"straightening exceeded {step_budget} rewrite steps"
            )
        a, b = cols[j]
        c, x = cols[j + 1]
        # normal form guarantees a < c < x < b here
        keep_order = cols[:j] + ((a, x), (c, b)) + cols[j + 2:]
        resorted = tuple(sorted(cols[:j] + ((a, c), (x, b)) + cols[j + 2:]))
        for child, sign in ((keep_order, 1), (resorted, -1)):
            target = vectors.get(child)
            if target is None:
                target = vectors[child] = {}
                if child is keep_order:
                    heappush(heap, (top_sum, neg_inversions + 1, child))
                else:
                    heappush(heap, (*_garnir_key(child), child))
            for label, coeff in vec.items():
                target[label] = target.get(label, 0) + sign * coeff
    return out, steps


def straighten_on_columns(seeds, step_budget):
    """The package kernel as it was on column tuples: the reference for its flat form.

    The same contract as ``cupweb.actions._straighten``, and the same rule:
    a filling is rewritten at the nested pair (a/b), (c/x), x the least
    bottom entry below an earlier, larger one and (a/b) the first column
    with b > x.  Fillings are pending as column tuples, popped from a heap
    keyed by the negated bottom row, and each child is built column by
    column, so results, their order and the step count must match.
    """
    vectors = {cols: dict(vec) for cols, vec in seeds.items()}
    heap = [(tuple([-b for _, b in cols]), cols) for cols in vectors]
    heapify(heap)
    out = {}
    steps = 0
    while heap:
        cols = heappop(heap)[1]
        vec = vectors.pop(cols)
        if not any(vec.values()):
            continue
        bottoms = [b for _, b in cols]
        high = x = 0
        for b in bottoms:
            if b > high:
                high = b
            elif not x or b < x:
                x = b
        if not x:
            out[cols] = vec
            continue
        steps += 1
        if steps > step_budget:
            raise SizeLimitError(
                f"straightening exceeded {step_budget} rewrite steps"
            )
        k = bottoms.index(x)
        i = 0
        while bottoms[i] < x:
            i += 1
        a, b = cols[i]
        c = cols[k][0]
        head, between, tail = cols[:i], cols[i + 1:k], cols[k + 1:]
        keep_order = head + ((a, x),) + between + ((c, b),) + tail
        resorted = head + ((a, c),) + tuple(sorted(between + tail + ((x, b),)))
        for child, sign in ((keep_order, 1), (resorted, -1)):
            target = vectors.get(child)
            if target is None:
                target = vectors[child] = {}
                heappush(heap, (tuple([-e for _, e in child]), child))
            for label, coeff in vec.items():
                target[label] = target.get(label, 0) + sign * coeff
    return out, steps


def psi_by_sweep(matrix):
    """Every cup of ``matrix``'s index straightened in one first-descent sweep.

    Each cup is seeded under its own column, as ``verify_psi`` does;
    column c is ``{row: coeff}`` over the matrix's index, and a term whose
    contributions cancel stays with coefficient 0.
    """
    row_of = {t.columns(): k for k, t in enumerate(matrix.index)}
    seeds = {}
    for c, t in enumerate(matrix.index):
        seeds.setdefault(cup_of_tableau(t).arcs, {})[c] = 1
    psi = [{} for _ in matrix.index]
    out, _ = straighten_by_first_descent(seeds, DEFAULT_STEP_BUDGET)
    for cols, vec in out.items():
        for c, coeff in vec.items():
            psi[c][row_of[cols]] = coeff
    return psi


def witness_by_matchings(t, s):
    """The witness script of ``t`` to ``s``, one validated matching per move.

    The same construction as ``witness_path``: per level, VV moves of the
    arc at the last live dot against the arcs ending in (a, b], nearest
    first, then nested moves of the arc at b against the arcs ending
    between b and the last live dot, farthest first; the cup (b, b')
    is then set aside.
    """
    if t.n != s.n:
        raise ValueError("tableaux must have the same n")
    for j, (a, b) in enumerate(zip(s.top, t.top)):
        if a < b:
            raise DominanceError(j + 1, f"column {j + 1} has {a} < {b}")
    target = cup_of_tableau(s)
    cur = column_matching(t.columns())
    active = set(range(1, 2 * t.n + 1))
    moves = []
    while active:
        top_dot = max(active)
        a = max(x for x, y in cur.arcs if x in active and y in active)
        assert cur.partner(top_dot) == a
        b = max(x for x, y in target.arcs if x in active and y in active)
        for r in sorted(d for d in active if a < d <= b):
            move = Move(Crossing((cur.partner(r), r), (cur.partner(top_dot), top_dot)),
                        MoveKind.VV)
            cur = resolve_step(cur, move.crossing, move.kind)
            moves.append(move)
        for r in sorted((d for d in active if b < d < top_dot), reverse=True):
            move = Move(Crossing((cur.partner(r), r), (b, cur.partner(b))),
                        MoveKind.NESTED)
            cur = resolve_step(cur, move.crossing, move.kind)
            moves.append(move)
        b_next = min(d for d in active if d > b)
        assert cur.partner(b) == b_next == target.partner(b)
        active -= {b, b_next}
    assert cur.arcs == target.arcs
    return moves


def check_by_steps(t, s, script):
    """The script folded with ``resolve_step``; True iff it lands on the cup of ``s``."""
    try:
        cur = column_matching(t.columns())
        for move in script:
            cur = resolve_step(cur, move.crossing, move.kind)
        return cur == Matching(cup_of_tableau(s).arcs)
    except (AttributeError, TypeError, ValueError):  # not a move, or arcs not pairs
        return False


def tree_by_picking(m, pick):
    """The resolution tree of ``m`` that resolves crossing ``pick(found)`` at each node.

    ``found`` is the node's sorted crossings.  Nodes are expanded breadth
    first, the VV child before the nested one.
    """
    nodes, edges, queue = [m], [], deque([0])
    while queue:
        k = queue.popleft()
        found = crossings(nodes[k])
        if not found:
            continue
        chosen = pick(found)
        for kind in (MoveKind.VV, MoveKind.NESTED):
            nodes.append(resolve_step(nodes[k], chosen, kind))
            edges.append((k, Move(chosen, kind), len(nodes) - 1))
            queue.append(len(nodes) - 1)
    return ResolutionGraph(m, nodes, edges)


def polytabloid_model(columns):
    """Expansion of one filling over row tabloids.

    A row tabloid of two equal rows is determined by its top-row set.  The
    filling contributes one signed tabloid per choice of flipped columns,
    a flip costing a sign.
    """
    n = len(columns)
    out = {}
    for mask in range(2**n):
        sign = 1
        top = []
        for j, (a, b) in enumerate(columns):
            if mask >> j & 1:
                top.append(b)
                sign = -sign
            else:
                top.append(a)
        key = frozenset(top)
        out[key] = out.get(key, 0) + sign
    return {k: v for k, v in out.items() if v}


def model_of_vector(v):
    """Tabloid expansion of a TabloidVector (sum over its keys)."""
    out = {}
    for key, coeff in v.terms.items():
        for tab, sign in polytabloid_model(key.columns).items():
            out[tab] = out.get(tab, 0) + coeff * sign
    return {k: v for k, v in out.items() if v}


def act_model(i, model):
    """Generator i on a tabloid expansion: relabel i and i+1."""
    out = {}
    for top, coeff in model.items():
        moved = frozenset(
            i + 1 if e == i else i if e == i + 1 else e for e in top
        )
        out[moved] = out.get(moved, 0) + coeff
    return {k: v for k, v in out.items() if v}


def all_pairings(dots):
    """Every partition of ``dots`` into pairs, as sorted column tuples."""
    dots = tuple(dots)
    if not dots:
        yield ()
        return
    first = dots[0]
    for k in range(1, len(dots)):
        rest = dots[1:k] + dots[k + 1:]
        for sub in all_pairings(rest):
            yield tuple(sorted(((first, dots[k]),) + sub))


def random_matching_arcs(rng, n2):
    dots = list(range(1, n2 + 1))
    rng.shuffle(dots)
    return [(dots[2 * k], dots[2 * k + 1]) for k in range(n2 // 2)]


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n2}, stored as the image tuple of 1, 2, ..."""

    images: tuple

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError("images must be a bijection on 1..n2")

    @property
    def n2(self):
        return len(self.images)

    def __call__(self, k):
        return self.images[k - 1]

    def __mul__(self, other):
        # (p * q)(x) = p(q(x)); q acts first.
        if self.n2 != other.n2:
            raise ValueError("size mismatch")
        return Permutation(tuple(self(other(k)) for k in range(1, self.n2 + 1)))

    @classmethod
    def identity(cls, n2):
        return cls(tuple(range(1, n2 + 1)))

    @classmethod
    def transposition(cls, n2, i):
        """The adjacent transposition swapping i and i+1."""
        if not 1 <= i <= n2 - 1:
            raise ValueError(f"generator index {i} out of range for n2={n2}")
        images = list(range(1, n2 + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        return cls(tuple(images))

    def is_identity(self):
        return all(self(k) == k for k in range(1, self.n2 + 1))


def coxeter_length(w):
    """Length of w as a product of adjacent transpositions = inversion count."""
    im = w.images
    return sum(
        1 for i in range(len(im)) for j in range(i + 1, len(im)) if im[i] > im[j]
    )


def perm_between(a, b):
    """The permutation w with w.a = b, matching entries box by box."""
    if a.n != b.n:
        raise ValueError("tableaux must have the same n")
    images = [0] * (2 * a.n)
    for src_row, dst_row in ((a.top, b.top), (a.bottom, b.bottom)):
        for s, d in zip(src_row, dst_row):
            images[s - 1] = d
    return Permutation(tuple(images))


def row_of(tableau, entry):
    """0 for the top row, 1 for the bottom row."""
    if entry in tableau.top:
        return 0
    if entry in tableau.bottom:
        return 1
    raise ValueError(f"entry {entry} not in tableau")


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


def classify(tableau, i):
    """Which of the three action cases applies to i and i+1 in ``tableau``."""
    if not 1 <= i <= 2 * tableau.n - 1:
        raise ValueError(f"generator index {i} out of range for n={tableau.n}")
    row_i = row_of(tableau, i)
    row_j = row_of(tableau, i + 1)
    if row_i == row_j:
        return EntryCase.SAME_ROW
    if row_i == 0 and tableau.bottom[tableau.top.index(i)] == i + 1:
        return EntryCase.SAME_COLUMN
    if row_i == 1:
        return EntryCase.BELOW
    # i in the top row, i+1 in the bottom row of an earlier column: the
    # swapped filling is standard again, so it behaves like the row case.
    return EntryCase.SAME_ROW


def swap_entries(tableau, i):
    """Exchange the entries i and i+1.  Raises unless the result is standard."""
    top = tuple(i + 1 if x == i else i if x == i + 1 else x for x in tableau.top)
    bottom = tuple(
        i + 1 if x == i else i if x == i + 1 else x for x in tableau.bottom
    )
    return StandardTableau(top, bottom)


def paths_between(graph, src, dst, limit=None):
    """Edge-label sequences of directed paths src -> dst, in DFS order.

    Stops after ``limit`` paths when given; a negative limit raises
    ``ValueError``.  Labels are listed in the order the edges are traversed.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    if limit == 0:
        return []
    start, goal = graph.position(src), graph.position(dst)
    out_edges = [[] for _ in graph.vertices]
    for a, b, i in graph.edges:
        out_edges[a].append((b, i))
    found = []

    def walk(v, labels):
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
