"""Reference computations the benchmark checks cupweb's outputs against.

Nothing here imports cupweb.  Tableaux are plain ``(top, bottom)`` tuples
found by filtering subsets rather than by growing rows, the tableau order
comes from a breadth-first search over the swap graph, matchings are sorted
arc tuples, crossings are resolved at the rightmost crossing pair (cupweb
resolves the leftmost; the sink multiset does not depend on the choice),
and a filling's polytabloid is expanded over row tabloids straight from its
signed column-flip definition.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations


def standard_tableaux(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every standard tableau of shape (n, n), as (top, bottom), unordered."""
    out = []
    for top in combinations(range(1, 2 * n + 1), n):
        bottom = tuple(sorted(set(range(1, 2 * n + 1)) - set(top)))
        if all(top[j] < bottom[j] for j in range(n)):
            out.append((top, bottom))
    return out


class TableauOrder:
    """The swap graph on SYT(n, n), its ranks and its reachability order.

    An edge exchanges i (bottom row) with i + 1 (top row).  Vertices are
    listed by rank (distance from the column-reading tableau), then by
    lexicographic top row, which is the order cupweb's exports promise.
    """

    def __init__(self, n: int):
        self.n = n
        tabs = standard_tableaux(n)
        succ: dict = {t: [] for t in tabs}
        for top, bottom in tabs:
            tops = set(top)
            for i in range(1, 2 * n):
                if i in bottom and i + 1 in tops:
                    new_top = tuple(sorted(tops - {i + 1} | {i}))
                    new_bottom = tuple(sorted(set(bottom) - {i} | {i + 1}))
                    succ[(top, bottom)].append((new_top, new_bottom))
        source = (tuple(range(1, 2 * n, 2)), tuple(range(2, 2 * n + 1, 2)))
        dist = {source: 0}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for w in succ[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        if len(dist) != len(tabs):
            raise AssertionError("swap graph is not rooted at the column tableau")
        self.vertices = sorted(tabs, key=lambda t: (dist[t], t[0]))
        self.position = {t: k for k, t in enumerate(self.vertices)}
        # desc[k] has bit j set when vertex j is reachable from vertex k.
        self.desc = [0] * len(self.vertices)
        for k in range(len(self.vertices) - 1, -1, -1):
            mask = 1 << k
            for w in succ[self.vertices[k]]:
                mask |= self.desc[self.position[w]]
            self.desc[k] = mask

    def leq(self, s: int, t: int) -> bool:
        return bool(self.desc[s] >> t & 1)


def cup_arcs(top) -> tuple[tuple[int, int], ...]:
    """Arcs of the cup diagram whose left endpoints are ``top``."""
    n2 = 2 * len(top)
    tops = set(top)
    stack, arcs = [], []
    for d in range(1, n2 + 1):
        if d in tops:
            stack.append(d)
        else:
            arcs.append((stack.pop(), d))
    return tuple(sorted(arcs))


def _rightmost_crossing(arcs):
    for i in range(len(arcs) - 1, -1, -1):
        a, c = arcs[i]
        for j in range(len(arcs) - 1, i, -1):
            b, d = arcs[j]
            if a < b < c < d:
                return i, j
    return None


def resolve(arcs, memo: dict) -> dict:
    """Sink multiset of a matching (sorted arc tuple): sink arcs -> count."""
    found = memo.get(arcs)
    if found is not None:
        return found
    pair = _rightmost_crossing(arcs)
    if pair is None:
        found = {arcs: 1}
    else:
        i, j = pair
        (a, c), (b, d) = arcs[i], arcs[j]
        rest = arcs[:i] + arcs[i + 1:j] + arcs[j + 1:]
        found = {}
        for smoothing in (((a, b), (c, d)), ((a, d), (b, c))):
            child = tuple(sorted(rest + smoothing))
            for sink, mult in resolve(child, memo).items():
                found[sink] = found.get(sink, 0) + mult
    memo[arcs] = found
    return found


def replay_moves(start_arcs, moves):
    """Apply (left, right, kind) moves one by one; None if a move is illegal."""
    cur = set(start_arcs)
    for left, right, kind in moves:
        (a, c), (b, d) = tuple(left), tuple(right)
        if not (a < b < c < d) or (a, c) not in cur or (b, d) not in cur:
            return None
        cur -= {(a, c), (b, d)}
        if kind == "VV":
            cur |= {(a, b), (c, d)}
        elif kind == "V":
            cur |= {(a, d), (b, c)}
        else:
            return None
    return tuple(sorted(cur))


def tabloid_expansion(columns) -> dict:
    """Polytabloid of a filling over row tabloids (keyed by top-row set)."""
    out: dict = {}
    for mask in range(2 ** len(columns)):
        sign, top = 1, []
        for j, (a, b) in enumerate(columns):
            if mask >> j & 1:
                top.append(b)
                sign = -sign
            else:
                top.append(a)
        key = frozenset(top)
        out[key] = out.get(key, 0) + sign
    return {k: v for k, v in out.items() if v}


def combination_expansion(terms) -> dict:
    """Row-tabloid expansion of a list of (columns, coeff)."""
    out: dict = {}
    for columns, coeff in terms:
        for key, sign in tabloid_expansion(columns).items():
            out[key] = out.get(key, 0) + coeff * sign
    return {k: v for k, v in out.items() if v}


def is_standard_columns(columns) -> bool:
    tops = [a for a, _ in columns]
    bottoms = [b for _, b in columns]
    return (
        all(a < b for a, b in columns)
        and all(tops[j] < tops[j + 1] for j in range(len(tops) - 1))
        and all(bottoms[j] < bottoms[j + 1] for j in range(len(bottoms) - 1))
    )
