"""Signed permutation actions on tableaux, matchings, and cup diagrams,
plus straightening of arbitrary two-row fillings into the standard basis.

Coefficient arithmetic is plain Python integers throughout, so every
computation is exact.  Column fillings are kept in a signed normal form:
each column lists its smaller entry first (a swap costs a sign) and
columns are sorted by top entry (free).  The three-term straightening
rule rewrites a filling whose bottom row is not increasing:

    with columns (a/b), (c/x) where a < c < x < b,
    v = v[(a/x), (c/b)] - v[(a/c), (x/b)]

at any such nested pair, adjacent or not, as column order is free; it is
applied until every bottom row is increasing.  Only the two named columns
change in a rewrite; all others are carried along untouched.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from heapq import heapify, heappop, heappush
from operator import attrgetter
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping, Sequence, Union

from ._value import Value
from .diagrams import CupDiagram, Matching, is_noncrossing, swap_dots
from .errors import SizeLimitError
from .resolution import _cup, resolve_full
from .young import StandardTableau, is_permutation, t0

DEFAULT_STEP_BUDGET = 10**6


class TwoRowTableau(Value):
    """A two-row filling in signed normal form, stored column by column.

    Entries are a permutation of 1..2n, each column has its smaller entry
    on top, and columns are sorted by top entry.  The filling need not be
    standard: the bottom row may fail to increase.
    """

    __slots__ = _fields = ("columns",)

    def __init__(self, columns: Iterable[Sequence[int]]):
        # Columns are stored as tuples, so a filling hashes and compares by value.
        columns = tuple(map(tuple, columns))
        if not is_permutation([e for col in columns for e in col]):
            raise ValueError("entries must be a permutation of 1..2n")
        for a, b in columns:
            if a >= b:
                raise ValueError(f"column ({a},{b}) is not sorted")
        tops = [a for a, _ in columns]
        if tops != sorted(tops):
            raise ValueError("columns must be sorted by top entry")
        super().__init__(columns)

    @property
    def n(self) -> int:
        return len(self.columns)

    @property
    def top(self) -> tuple[int, ...]:
        return tuple(a for a, _ in self.columns)

    @property
    def bottom(self) -> tuple[int, ...]:
        return tuple(b for _, b in self.columns)

    def is_standard(self) -> bool:
        cols = self.columns
        return all(cols[j][1] < cols[j + 1][1] for j in range(len(cols) - 1))

    def to_standard(self) -> StandardTableau:
        return StandardTableau(self.top, self.bottom)

    @classmethod
    def from_standard(cls, tableau: StandardTableau) -> "TwoRowTableau":
        return cls._trusted(tableau.columns())

    def to_json(self) -> dict:
        return {"top": list(self.top), "bottom": list(self.bottom)}

    def __repr__(self) -> str:
        top = " ".join(map(str, self.top))
        bottom = " ".join(map(str, self.bottom))
        return f"TwoRowTableau({top!r} / {bottom!r})"


def _normal_form(columns) -> tuple[tuple[tuple[int, int], ...], int]:
    """Columns with the smaller entry on top, sorted, and the sign of the flips."""
    sign, out = 1, []
    for a, b in columns:
        if a > b:
            a, b, sign = b, a, -sign
        out.append((a, b))
    return tuple(sorted(out)), sign


def canonicalize_columns(
    columns: Iterable[Sequence[int]],
) -> tuple[TwoRowTableau, int]:
    """Sort a raw column list into normal form, returning the sign picked up."""
    fixed, sign = _normal_form(columns)
    return TwoRowTableau(fixed), sign


class _SparseVector(Value):
    """Integer combinations of keys of one size, shared by the two vector types.

    A subclass names its key class, the size attribute that its keys and
    vectors share (``_size_name``), the key's tuple form that orders the JSON
    records (``_order``), the shape of one JSON record (``_record``), and
    ``_parse``, which reads one record into a key and the sign it costs and
    raises ``ValueError`` for a key of the wrong shape.  Constructors check
    keys and coefficients; arithmetic on checked operands builds through
    ``_trusted``.  A vector is read-only: its attributes refuse assignment
    and ``terms`` is a ``MappingProxyType``, which compares equal to a dict
    of the same items.
    """

    __slots__ = _fields = ("size", "terms")

    def __init__(self, size: int, terms: Mapping | None = None):
        clean = {}
        if terms:
            for key, coeff in terms.items():
                if _exact(coeff):
                    if (not isinstance(key, self._key)
                            or getattr(key, self._size_name) != size):
                        raise ValueError(f"bad key {key!r} for {self._size_name}={size}")
                    clean[key] = coeff
        super().__init__(size, MappingProxyType(clean))

    @classmethod
    def _trusted(cls, size: int, terms: dict):
        """A vector on ``terms``, wrapped as given: nonzero int coefficients, valid keys."""
        return super()._trusted(size, MappingProxyType(terms))

    @classmethod
    def unit(cls, key, coeff: int = 1):
        return cls(getattr(key, cls._size_name), {key: coeff})

    def __add__(self, other):
        if type(other) is not type(self) or other.size != self.size:
            raise ValueError("operands do not live in the same space")
        merged = dict(self.terms)
        for key, coeff in other.terms.items():
            merged[key] = merged.get(key, 0) + coeff
        return self._trusted(self.size, {k: c for k, c in merged.items() if c})

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._trusted(self.size, {k: -c for k, c in self.terms.items()})

    def __rmul__(self, scalar: int):
        terms = {k: scalar * c for k, c in self.terms.items()} if _exact(scalar) else {}
        return self._trusted(self.size, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __hash__(self):
        return hash((self.size, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return f"{type(self).__name__}(0)"
        bits = " + ".join(f"{c}*{k!r}" for k, c in sorted(
            self.terms.items(), key=lambda kv: repr(kv[0])))
        return f"{type(self).__name__}({bits})"

    def to_json(self) -> list[dict]:
        out = []
        for key in sorted(self.terms, key=attrgetter(self._order)):
            rec = key.to_json()
            rec["coeff"] = str(self.terms[key])
            out.append(rec)
        return out

    @classmethod
    def from_json(cls, size: int, data: list[dict]):
        if not (isinstance(data, list)
                and all(isinstance(rec, dict) and "coeff" in rec for rec in data)):
            raise ValueError(f"a {cls.__name__} must be a list of {cls._record}")
        terms = {}
        for rec in data:
            key, sign = cls._parse(rec)
            terms[key] = terms.get(key, 0) + sign * _coefficient(rec["coeff"])
        return cls(size, terms)


def _exact(value) -> int:
    """``value`` when it is an int that is not a bool."""
    if type(value) is not int:
        raise ValueError(f"coefficient {value!r} is not an integer")
    return value


def _coefficient(value) -> int:
    """A JSON coefficient: a decimal string, or an int that is not a bool."""
    if type(value) is str and re.fullmatch(r"[+-]?[0-9]+", value):
        return int(value)
    return _exact(value)


class TabloidVector(_SparseVector):
    """Integer combination of two-row fillings in normal form; ``size`` is n."""

    __slots__ = ()
    _key, _size_name, _order = TwoRowTableau, "n", "columns"
    _record = '{"top": [...], "bottom": [...], "coeff": c}'

    @property
    def n(self) -> int:
        return self.size

    @staticmethod
    def _parse(rec: dict) -> tuple[TwoRowTableau, int]:
        top, bottom = rec.get("top"), rec.get("bottom")
        if not (isinstance(top, list) and isinstance(bottom, list)
                and len(top) == len(bottom)
                and all(type(e) is int for e in top + bottom)):
            raise ValueError('a filling must be {"top": [...], "bottom": [...]} '
                             'with as many integer entries in each row')
        return canonicalize_columns(zip(top, bottom))


class DiagramVector(_SparseVector):
    """Integer combination of matchings; ``size`` is the dot count 2n."""

    __slots__ = ()
    _key, _size_name, _order = Matching, "n2", "arcs"
    _record = '{"arcs": [[a, b], ...], "coeff": c}'

    @property
    def n2(self) -> int:
        return self.size

    @staticmethod
    def _parse(rec: dict) -> tuple[Matching, int]:
        return Matching.from_json(rec), 1


def act_matching(i: int, v: DiagramVector) -> DiagramVector:
    """Generator i on matchings: minus on an (i, i+1) arc, dot swap otherwise."""
    if not 1 <= i <= v.n2 - 1:
        raise ValueError(f"generator index {i} out of range for n2={v.n2}")
    out: dict[Matching, int] = {}
    for m, coeff in v.terms.items():
        if m.partner(i) == i + 1:
            out[m] = out.get(m, 0) - coeff
        else:
            key = swap_dots(m, i)
            out[key] = out.get(key, 0) + coeff
    # Checked keys, relabelled, with int coefficients: no re-validation.
    return DiagramVector._trusted(v.n2, {m: c for m, c in out.items() if c})


def act_web(i: int, v: DiagramVector) -> DiagramVector:
    """Generator i on cup diagrams, re-expressed in the noncrossing basis.

    Swapping the dots i and i+1 of a cup diagram w creates at most one
    crossing.  Its two smoothings are w itself and w', which joins i to
    i+1 and the two partners to each other, so w goes to -w when (i, i+1)
    is an arc and to w + w' otherwise.  Keys are the session's diagrams,
    the same objects that ``resolve_full`` returns.
    """
    for w in v.terms:
        if not is_noncrossing(w):
            raise ValueError(f"support must be noncrossing, got {w!r}")
    if not 1 <= i < v.n2:
        raise ValueError(f"generator index {i} out of range for n2={v.n2}")
    j = i + 1
    out: dict[CupDiagram, int] = {}
    for w, coeff in v.terms.items():
        rest = []  # the arcs at neither i nor j; p and q are their partners
        for arc in w.arcs:
            x, y = arc
            if x == i or y == i:
                p = x + y - i
            elif x == j or y == j:
                q = x + y - j
            else:
                rest.append(arc)
        key = _cup(w.arcs)
        if p == j:
            out[key] = out.get(key, 0) - coeff
            continue
        out[key] = out.get(key, 0) + coeff
        rest += [(i, j), (p, q) if p < q else (q, p)]
        # Smoothing the one crossing of a relabelled cup leaves a cup.
        key = _cup(tuple(sorted(rest)))
        out[key] = out.get(key, 0) + coeff
    return DiagramVector._trusted(v.n2, {w: c for w, c in out.items() if c})


def _straighten(
    seeds: Mapping[tuple[tuple[int, int], ...], Mapping[Hashable, int]],
    step_budget: int,
) -> tuple[dict[tuple[tuple[int, int], ...], dict[Hashable, int]], int]:
    """Straighten every seed in one sweep: standard columns -> ``{label: coeff}``.

    Each seed is a filling in normal form, as both rewrite children are,
    with a ``{label: coeff}`` vector; a label whose terms cancel may stay
    with coefficient 0.  A filling is rewritten at the nested pair (a/b),
    (c/x): x is the least bottom entry below an earlier, larger one, and
    (a/b) the first column with b > x.  Both children keep every column
    before (a/b) and lower its bottom, to x or to c, so fillings are popped
    by bottom row, largest first, each after all its parents, with its
    final vector, and expanded once.  ``step_budget`` bounds these
    expansions, and their count is returned with the result.

    A pending filling is one flat sequence (255 - b_1, ..., 255 - b_n, a_1,
    ..., a_n), whose natural order is the pop order, so the heap holds the
    fillings themselves.  It is ``bytes``, which hash once and compare as
    memory, unless an entry of some seed exceeds 254; then the same loop
    runs on tuples.  Both children are built in one mutable copy of their
    parent: the keep-order child swaps two bottoms, then the re-sorted
    child takes bottom c at the first of them and moves one run of bottoms
    and one run of tops down a slot to make room for (x/b).  A new
    keep-order child takes over its parent's vector.  A seed without
    labels yields nothing and is dropped, so no pending vector is empty.
    Results go back to column tuples built from one shared pair tuple per
    column value.
    """
    if any(2 * len(cols) > 254 for cols in seeds):  # 2n: the largest entry
        pack, unpack = tuple, list
    else:
        pack, unpack = bytes, bytearray
    vectors = {pack([255 - b for _, b in cols] + [a for a, _ in cols]): dict(vec)
               for cols, vec in seeds.items() if vec}
    heap = list(vectors)
    heapify(heap)
    pairs: dict[tuple[int, int], tuple[int, int]] = {}
    out = {}
    steps = 0
    while heap:
        v = heappop(heap)
        vec = vectors.pop(v)
        if not any(vec.values()):
            continue
        n = len(v) >> 1
        # Bottoms are stored as 255 - b: ``low`` is that of the largest
        # bottom so far and x that of the least nested one, ``none`` while
        # no bottom is nested.
        none = 254 - 2 * n  # below every entry
        low, x = 255, none
        for e in v[:n]:
            if e < low:
                low = e
            elif e > x:
                x = e
        if x == none:
            cols = list(zip(v[n:], [255 - e for e in v[:n]]))
            out[tuple(map(pairs.setdefault, cols, cols))] = vec
            continue
        steps += 1
        if steps > step_budget:
            raise SizeLimitError(
                f"straightening exceeded {step_budget} rewrite steps"
            )
        k = v.index(x)
        i = 0
        while v[i] > x:  # stops before k, at the first bottom above x
            i += 1
        b = v[i]
        # As stored, normal form and i < k give a < c < 255 - x < 255 - b
        # for the tops a = v[n + i] and c = v[n + k].  The column
        # (255 - x / 255 - b) of the re-sorted child goes before the first
        # top after column k above 255 - x: its top at slot p - 1, its
        # bottom at slot q - 1, once columns k + 1 to q - 1 move down one.
        p = bisect_left(v, 255 - x, n + k + 1)
        q = p - n
        child = unpack(v)
        child[i], child[k] = x, b
        keep_order = pack(child)
        child[i] = 255 - v[n + k]
        child[k:q - 1] = v[k + 1:q]
        child[q - 1] = b
        child[n + k:p - 1] = v[n + k + 1:p]
        child[p - 1] = 255 - x
        resorted = pack(child)
        # One hash per child: a pending vector is never empty, so an empty
        # one is new, and a new keep-order child takes ``vec`` itself.
        target = vectors.setdefault(resorted, {})
        if not target:
            heappush(heap, resorted)
        for label, coeff in vec.items():
            target[label] = target.get(label, 0) - coeff
        target = vectors.setdefault(keep_order, vec)
        if target is vec:
            heappush(heap, keep_order)
        else:
            for label, coeff in vec.items():
                target[label] = target.get(label, 0) + coeff
    return out, steps


def garnir_straighten(
    x: Union[TwoRowTableau, TabloidVector],
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> TabloidVector:
    """Expand a filling (or combination of fillings) over standard keys.

    ``step_budget`` bounds the distinct fillings expanded for the whole
    input, however many of its keys share them.
    """
    vec = TabloidVector._trusted(x.n, {x: 1}) if isinstance(x, TwoRowTableau) else x
    seeds = {key.columns: {None: coeff} for key, coeff in vec.terms.items()}
    out, _ = _straighten(seeds, step_budget)
    # The kernel's keys are standard normal-form columns: no re-validation.
    terms = {TwoRowTableau._trusted(k): c[None] for k, c in out.items() if c[None]}
    return TabloidVector._trusted(vec.n, terms)


def act_polytabloid(i: int, v: TabloidVector) -> TabloidVector:
    """Generator i on standard-basis vectors, straightened back to standard keys.

    Exchanging i and i+1 in a column (i, i+1) flips it, which costs a sign;
    a move from the bottom row to the top is already standard.
    """
    if not 1 <= i <= 2 * v.n - 1:
        raise ValueError(f"generator index {i} out of range for n={v.n}")
    swap = {i: i + 1, i + 1: i}
    swapped: dict[TwoRowTableau, int] = {}
    for key, coeff in v.terms.items():
        if not key.is_standard():
            raise ValueError(f"key {key!r} is not standard")
        columns, sign = _normal_form(
            (swap.get(a, a), swap.get(b, b)) for a, b in key.columns)
        swapped[TwoRowTableau._trusted(columns)] = sign * coeff  # keys stay distinct
    return garnir_straighten(TabloidVector._trusted(v.n, swapped))


def cup_polytabloid(
    w: Matching, step_budget: int = DEFAULT_STEP_BUDGET
) -> tuple[TwoRowTableau, TabloidVector]:
    """The filling whose columns are the arcs of ``w``, and its straightening.

    The filling's column set determines it up to normal form, and for a
    cup diagram the arc list is already in normal form.
    """
    if not is_noncrossing(w):
        raise ValueError("input must be a cup diagram (no crossings)")
    tab = TwoRowTableau._trusted(w.arcs)
    return tab, garnir_straighten(tab, step_budget)


def shifted_product(n: int, word: Sequence[int]) -> TabloidVector:
    """Apply the product of (generator - 1) factors to the base vector.

    ``word`` lists the factors as written in the product, so the last
    letter acts first.  A word obtained from a directed path out of the
    minimum tableau should therefore be reversed by the caller.
    """
    v = TabloidVector._trusted(n, {TwoRowTableau.from_standard(t0(n)): 1})
    for i in reversed(tuple(word)):
        v = act_polytabloid(i, v) - v
    return v


def column_matching_vector(v: TabloidVector) -> DiagramVector:
    """Replace each filling by the matching pairing its column entries."""
    # Normal-form columns are canonical arcs, distinct for distinct fillings.
    return DiagramVector._trusted(2 * v.n, {
        Matching._trusted(key.columns): coeff for key, coeff in v.terms.items()})


def to_web_basis(v: DiagramVector) -> DiagramVector:
    """Rewrite an arbitrary matching combination over noncrossing keys."""
    out: dict[Matching, int] = {}
    for m, coeff in v.terms.items():
        for sink, mult in resolve_full(m).items():
            out[sink] = out.get(sink, 0) + coeff * mult
    # Kernel sinks of the checked keys' size, with int coefficients.
    return DiagramVector._trusted(v.n2, {w: c for w, c in out.items() if c})
