"""Perfect matchings of 2n dots on a line, with arcs drawn below the axis.

A matching is stored as its canonical arc list: pairs (left, right) sorted
by left endpoint.  Two arcs (a, c) and (b, d) cross when a < b < c < d;
a cup diagram is a matching with no crossings.  Dots are numbered from 1.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from ._value import Value
from .young import StandardTableau, is_permutation


class Matching(Value):
    """A read-only involution on {1..2n} without fixed points, in arc-list form.

    The hash of the arc tuple is computed once, when the arcs are set, and
    kept in a second slot, so the dicts keyed on matchings do not rehash it.
    """

    _fields = ("arcs",)
    __slots__ = ("arcs", "_hash")

    def __init__(self, arcs: Iterable[Sequence[int]]):
        canon = tuple(sorted((min(a, b), max(a, b)) for a, b in arcs))
        if not is_permutation([d for arc in canon for d in arc]):
            raise ValueError("arcs must cover each dot 1..2n exactly once")
        super().__init__(canon, hash(canon))

    @classmethod
    def _trusted(cls, arcs: tuple) -> "Matching":
        """``cls`` on ``arcs`` as given, and their hash, without the checks.

        For kernel output only: canonical arcs of int dots 1..2n, with no
        crossing when ``cls`` is ``CupDiagram``.
        """
        return super()._trusted(arcs, hash(arcs))

    @property
    def n2(self) -> int:
        return 2 * len(self.arcs)

    def partner(self, dot: int) -> int:
        """The dot joined to ``dot``; ``KeyError`` for a dot not in the matching."""
        for a, b in self.arcs:
            if dot == a:
                return b
            if dot == b:
                return a
        raise KeyError(dot)

    def left_endpoints(self) -> tuple[int, ...]:
        return tuple(a for a, _ in self.arcs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matching) and self.arcs == other.arcs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = "".join(f"({a},{b})" for a, b in self.arcs)
        return f"{type(self).__name__}[{body}]"

    def to_json(self) -> dict:
        return {"n2": self.n2, "arcs": [list(arc) for arc in self.arcs]}

    @classmethod
    def from_json(cls, data: dict) -> "Matching":
        arcs = data.get("arcs") if isinstance(data, dict) else None
        if not (isinstance(arcs, list) and all(
                isinstance(arc, list) and len(arc) == 2
                and all(type(d) is int for d in arc) for arc in arcs)):
            raise ValueError('a matching must be {"arcs": [[a, b], ...]} '
                             'with integer dots a, b')
        m = cls(arcs)
        if "n2" in data:
            if type(data["n2"]) is not int:  # not isinstance: True is an int
                raise ValueError(f"n2 {data['n2']!r} is not an integer")
            if data["n2"] != m.n2:
                raise ValueError("n2 field disagrees with the arc list")
        return m


class CupDiagram(Matching):
    """A matching without crossings."""

    __slots__ = ()

    def __init__(self, arcs: Iterable[Sequence[int]]):
        super().__init__(arcs)
        if next(crossing_pairs(self.arcs), None) is not None:
            raise ValueError(f"{self.arcs} has a crossing")


class Crossing(Value):
    """An ordered pair of crossing arcs: (a, c) and (b, d) with a < b < c < d."""

    __slots__ = _fields = ("left", "right")

    def __init__(self, left: tuple[int, int], right: tuple[int, int]):
        # Arcs are stored as tuples, so a crossing hashes and compares by value.
        left, right = tuple(left), tuple(right)
        a, c = left
        b, d = right
        if not a < b < c < d:
            raise ValueError(f"arcs {left}, {right} do not cross")
        super().__init__(left, right)


def crossing_pairs(arcs: tuple) -> Iterator[tuple]:
    """Crossing arc pairs, by (left arc, right arc), of trusted canonical arcs.

    Canonical means sorted with the smaller dot first, as ``Matching.arcs`` is.
    """
    for i, (a, c) in enumerate(arcs):
        for b, d in arcs[i + 1:]:
            if b > c:  # this arc and every later one start right of (a, c)
                break
            if c < d:
                yield (a, c), (b, d)


def crossings(m: Matching) -> list[Crossing]:
    """All crossing arc pairs, sorted by (left arc, right arc); each has a < b < c < d."""
    return [Crossing._trusted(left, right) for left, right in crossing_pairs(m.arcs)]


def is_noncrossing(m: Matching) -> bool:
    """True when no two arcs cross; a ``CupDiagram`` was scanned when made."""
    return isinstance(m, CupDiagram) or next(crossing_pairs(m.arcs), None) is None


def _cup_partners(top, n2: int) -> list[int]:
    """Entry d is the dot joined to d (entry 0 unused) in the cup with left ends ``top``.

    ``top`` is the top row of a standard tableau on 1..``n2``.  A left end
    opens an arc, any other dot closes the last one opened.
    """
    partner, opened = [0] * (n2 + 1), []
    for a in top:
        partner[a] = -1
    for d in range(1, n2 + 1):
        if partner[d]:
            opened.append(d)
        else:
            partner[d] = a = opened.pop()
            partner[a] = d
    return partner


def cup_of_tableau(tableau: StandardTableau) -> CupDiagram:
    """The unique cup diagram whose left endpoints are the top row."""
    partner = _cup_partners(tableau.top, 2 * tableau.n)
    return CupDiagram._trusted(tuple((a, partner[a]) for a in tableau.top))


def tableau_of_cup(w: Matching) -> StandardTableau:
    """Inverse of ``cup_of_tableau``; rejects matchings with crossings, or no arcs."""
    if not is_noncrossing(w):
        raise ValueError("matching has a crossing; no tableau corresponds to it")
    if not w.arcs:
        raise ValueError("rows must be nonempty and of equal length")
    # The k-th least right end of any matching exceeds its k-th least left end.
    return StandardTableau._trusted(
        w.left_endpoints(), tuple(sorted(b for _, b in w.arcs)))


def column_matching(columns: Iterable[Sequence[int]]) -> Matching:
    """The matching joining the two entries of each column.

    Accepts the column list of any two-row filling whose entries are a
    permutation of 1..2n; for a standard tableau pass ``t.columns()``.
    """
    return Matching(columns)


def swap_dots(m: Matching, i: int) -> Matching:
    """Exchange the dots i and i+1.  They must not be joined to each other."""
    if not 1 <= i <= m.n2 - 1:
        raise ValueError(f"dot index {i} out of range for n2={m.n2}")
    if m.partner(i) == i + 1:
        raise ValueError(f"dots {i} and {i + 1} are joined by one arc")
    swap = {i: i + 1, i + 1: i}
    # i and i+1 are not joined, so no arc's ends change order: only the
    # arc list needs sorting to stay canonical.
    return Matching._trusted(tuple(sorted(
        (swap.get(a, a), swap.get(b, b)) for a, b in m.arcs)))


_CELL = 3  # characters per dot column in ASCII renderings


def _dot_column(dot: int) -> int:
    return (dot - 1) * _CELL


def render_ascii(m: Matching) -> str:
    """Multi-line picture; arcs that would overlap go on deeper lines."""
    header = "".join(str(d).ljust(_CELL) for d in range(1, m.n2 + 1)).rstrip()
    rows: list[list[tuple[int, int]]] = []
    for arc in sorted(m.arcs, key=lambda p: (p[1] - p[0], p[0])):
        for placed in rows:
            if all(arc[1] < other[0] or other[1] < arc[0] for other in placed):
                placed.append(arc)
                break
        else:
            rows.append([arc])
    lines = [header]
    width = _dot_column(m.n2) + 1
    for placed in rows:
        chars = [" "] * width
        for a, b in placed:
            ca, cb = _dot_column(a), _dot_column(b)
            chars[ca] = "\\"
            chars[cb] = "/"
            for k in range(ca + 1, cb):
                chars[k] = "_"
        lines.append("".join(chars).rstrip())
    return "\n".join(lines) + "\n"


def render_tikz(m: Matching) -> str:
    """A standalone TikZ document drawing the dots and arcs below an axis."""
    out = [
        r"\documentclass[tikz]{standalone}",
        r"\begin{document}",
        r"\begin{tikzpicture}[yscale=0.8]",
        rf"\draw[dotted] (0.5,0) -- ({m.n2}.5,0);",
    ]
    for d in range(1, m.n2 + 1):
        out.append(rf"\fill ({d},0) circle (1.5pt);")
        out.append(rf"\node[above] at ({d},0.05) {{{d}}};")
    for a, b in m.arcs:
        depth = 0.45 + 0.3 * (b - a)
        out.append(
            rf"\draw ({a},0) .. controls ({a},-{depth:.2f}) and ({b},-{depth:.2f}) .. ({b},0);"
        )
    out.append(r"\end{tikzpicture}")
    out.append(r"\end{document}")
    return "\n".join(out) + "\n"


def _dot(name: str, prefix: str, labels: Iterable[str],
         edges: Iterable[tuple[int, int, str]]) -> str:
    """DOT text of a digraph: node k is ``{prefix}{k}``, an edge is (src, dst, label)."""
    nodes = (f'  {prefix}{k} [label="{label}"];' for k, label in enumerate(labels))
    arrows = (f'  {prefix}{a} -> {prefix}{b} [label="{label}"];' for a, b, label in edges)
    return "\n".join([f"digraph {name} {{", "  rankdir=TB;", *nodes, *arrows, "}"]) + "\n"
